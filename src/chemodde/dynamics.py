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

import math

import numpy as np

from ._records import frozen
from .core import (
    ChemostatParams, FeasibilityReport, InitialHistory, _step_to_recurrence, _validate_integer,
    _validate_steps,
)
from .errors import ParameterError, UsageError
from .series import TimeSeries
from .washout import WashoutSolution


@frozen
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
    The latest s, x and p(s) are carried in locals; x and p(s) r steps
    back are read at position j.
    """
    E, r = params.E, params.r
    omE = 1.0 - E
    fac = omE ** (r + 1)
    p = params.uptake.evaluate
    s_t, x_t, p_t = s[-1], x[-1], ps[-1]
    s_append, x_append, ps_append = s.append, x.append, ps.append
    for j, s0 in enumerate(feed, len(s) - 1 - r):
        s_t, x_t = E * s0 + omE * (s_t - x_t * p_t), omE * x_t + x[j] * ps[j] * fac
        p_t = p(s_t)
        s_append(s_t)
        x_append(x_t)
        ps_append(p_t)


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
    """y[t] for t in [0, horizon] from the integrated state sequences."""
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

    Returns sequences on [-r, horizon].  A feed that ends periodic, a
    constant tail included, stops stepping at an exact recurrence of s and
    x and repeats it to the end (core._step_to_recurrence).
    """
    horizon = _validate_integer("horizon must be >= 0", horizon, 0, UsageError)
    r = params.r
    _validate_steps("simulation", horizon + r + 1)
    states = list(_initial_state(params, init))
    s, x, ps = _step_to_recurrence(params.input.sample(0, horizon - 1), params.input.period, states, r + 1,
                                   lambda part, end: _integrate(params, *states, part))
    y = _stored_nutrient_series(params, s, x, ps, horizon)

    neg = np.flatnonzero(s < 0.0)
    first_neg = int(neg[0]) - r if neg.size else None

    return Trajectory(
        params=params,
        s=TimeSeries(s, t_start=-r),
        x=TimeSeries(x, t_start=-r),
        y=y,
        first_negative_s=first_neg,
    )


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

    (a) p'(0) * z_sup <= 1, the bound on p'(xi) * z[t] <= 1 through the
    washout supremum, and (b) s0 + x0 + y0 <= z0.  The flags are
    independent; either may fail while the other holds.  A z_sup that is
    not finite and >= 0 raises ParameterError; a failed check never does.
    """
    z_sup = z.z_sup
    if not (z_sup >= 0 and math.isfinite(z_sup)):
        raise ParameterError(f"z_sup must be finite and >= 0, got {z_sup}")
    d0 = params.uptake.derivative_at_zero()
    product = d0 * z_sup
    mass = init.s[-1] + init.x[-1] + initial_stored_nutrient(params, init)
    z0 = z.at(0)
    return FeasibilityReport(
        hypothesis_pz=product <= 1.0,
        pz_product=product,
        z_sup=z_sup,
        derivative_at_zero=d0,
        mass_ok=mass <= z0,
        initial_mass=mass,
        z0=z0,
    )
