"""Forward integration of the delayed chemostat and its bookkeeping.

Besides the two state sequences the module maintains the stored-nutrient
sequence

    y[t+1] = sum_{k=0}^{r-1} x[t-k] * p(s[t-k]) * (1-E)**(k+1),

which closes the conservation law: s + x + y solves the same linear
recursion as the washout z, so their difference decays like (1-E)**t.
That identity, the positivity guarantee and the r-step biomass identity
x[t] = (1-E)**r * (x[t-r] + y[t-r]) are exposed as checkable quantities.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import ChemostatParams, FeasibilityReport, InitialHistory, validate_standing_hypotheses
from .errors import UsageError
from .series import TimeSeries
from .washout import WashoutSolution

_NO_NEGATIVE = -1


@dataclass(frozen=True)
class Trajectory:
    """One integrated run: s, x on [-r, horizon], y on [0, horizon].

    first_negative_s is the first time with s < 0, or None; a negative
    substrate does not stop the integration (infeasible regimes are
    simulated as-is so the algebraic identities stay intact).  The
    conservation deficit against a washout solution is
    conservation_deficit(traj, z).
    """

    params: ChemostatParams
    s: TimeSeries
    x: TimeSeries
    y: TimeSeries
    first_negative_s: int | None = None

    @property
    def horizon(self) -> int:
        return self.s.t_end


def _integrate(params, s, x, ps, feed):
    """Advance the state lists in place by one step per value of feed, the
    sampled s0 from the current last time on.

    Lists are indexed so that position i holds time i - r; ps caches p(s).
    """
    E, r = params.E, params.r
    omE = 1.0 - E
    fac = omE ** (r + 1)
    p = params.uptake.evaluate
    for i, s0 in enumerate(feed, len(s) - 1):
        s_next = E * s0 + omE * (s[i] - x[i] * ps[i])
        x_next = omE * x[i] + x[i - r] * ps[i - r] * fac
        s.append(s_next)
        x.append(x_next)
        ps.append(p(s_next))


def _initial_state(params, init):
    if len(init) != params.r + 1:
        raise UsageError(
            f"initial history has {len(init)} entries, expected r+1={params.r + 1}"
        )
    s = list(init.s)
    x = list(init.x)
    ps = [params.uptake.evaluate(v) for v in s]
    return s, x, ps


def _stored_nutrient_series(params, s, x, ps, horizon):
    """y[t] for t in [0, horizon] from the integrated state lists."""
    E, r = params.E, params.r
    omE = 1.0 - E
    with np.errstate(over="ignore", invalid="ignore"):
        # infeasible runs may overflow; values are recorded as-is
        w = np.asarray(x) * np.asarray(ps)  # w[i] = x * p(s) at time i - r
        y = np.zeros(horizon + 1)
        for k in range(1, r + 1):
            # contribution x[t-k] p(s[t-k]) (1-E)**k to y[t]
            y += omE**k * w[r - k : r - k + horizon + 1]
    return TimeSeries(y, t_start=0)


def simulate(params: ChemostatParams, init: InitialHistory, horizon: int) -> Trajectory:
    """Integrate the system for `horizon` steps past time 0.

    Returns sequences on [-r, horizon].
    """
    if horizon < 0:
        raise UsageError(f"horizon must be >= 0, got {horizon}")
    s, x, ps = _initial_state(params, init)
    _integrate(params, s, x, ps, params.input.sample(0, horizon - 1).tolist())

    r = params.r
    s_arr = np.array(s)
    x_arr = np.array(x)
    y = _stored_nutrient_series(params, s, x, ps, horizon)

    neg = np.flatnonzero(s_arr < 0.0)
    first_neg = int(neg[0]) - r if neg.size else None

    return Trajectory(
        params=params,
        s=TimeSeries(s_arr, t_start=-r),
        x=TimeSeries(x_arr, t_start=-r),
        y=y,
        first_negative_s=first_neg,
    )


def stored_nutrient(traj: Trajectory, t: int) -> float:
    """Literal evaluation of the stored-nutrient sum at time t.

    This is the slow reference form; Trajectory.y holds the same values.
    For r = 0 the sum is empty and y is identically 0.
    """
    params = traj.params
    r = params.r
    if t - 1 - (r - 1) < -r:
        raise UsageError(f"not enough history to evaluate y[{t}] with r={r}")
    if t > traj.horizon:
        raise UsageError(f"time {t} beyond horizon {traj.horizon}")
    omE = 1.0 - params.E
    p = params.uptake.evaluate
    total = 0.0
    for k in range(r):
        tk = t - 1 - k
        total += traj.x.at(tk) * p(traj.s.at(tk)) * omE ** (k + 1)
    return total


def conservation_deficit(traj: Trajectory, z: WashoutSolution) -> TimeSeries:
    """d[t] = s[t] + x[t] + y[t] - z[t] on [0, horizon].

    The conservation identity says d[t] = (1-E)**t * d[0] exactly; callers
    compare against that.
    """
    horizon = traj.horizon
    with np.errstate(over="ignore", invalid="ignore"):
        # infeasible runs may hold inf states; the deficit is recorded as-is
        d = traj.s.window(0, horizon) + traj.x.window(0, horizon) + traj.y.values - z.window(0, horizon)
    return TimeSeries(d, t_start=0)


def initial_stored_nutrient(params: ChemostatParams, init: InitialHistory) -> float:
    """y[0] evaluated from the initial history alone."""
    return _stored_nutrient_series(params, *_initial_state(params, init), 0).at(0)


def check_positivity_preconditions(
    params: ChemostatParams, init: InitialHistory, z: WashoutSolution
) -> FeasibilityReport:
    """Both sufficient conditions for s > 0, x >= 0 along the trajectory.

    (a) p'(0) * z_sup <= 1 and (b) s0 + x0 + y0 <= z0.  The flags are
    independent; either may fail while the other holds.
    """
    base = validate_standing_hypotheses(params, z.z_sup)
    y0 = initial_stored_nutrient(params, init)
    mass = init.s[-1] + init.x[-1] + y0
    z0 = z.at(0)
    return replace(base, mass_ok=mass <= z0, initial_mass=mass, z0=z0)
