"""The washout sequence: substrate dynamics in the absence of biomass.

The unique bounded solution of

    z[t+1] = (1-E) * z[t] + E * s0[t],   t in Z,

is the geometric average of the past input,

    z[t+1] = E * sum_{k <= t} (1-E)**(t-k) * s0[k],

and every other solution converges to it at rate (1-E) per step.  Two
constructions are provided: a truncated backward sum with an explicit
geometric tail bound, stored on [-r, horizon], and an exact closed form
for periodic inputs, stored as one period and read at t % period.  The
truncation depth is derived from E (default_tail_depth): the tail factor
(1-E)**depth is below 1e-26.
"""

from __future__ import annotations

import math
from itertools import islice

import numpy as np

from ._records import frozen
from .core import ChemostatParams, _step_to_recurrence, _validate_integer, _validate_steps
from .errors import UsageError
from .series import TimeSeries, _time


@frozen
class WashoutSolution:
    """Washout values, plus the exact period if the input has one.

    z                -- stored values: on [-r, horizon] for the truncated
                        sum, exactly one period starting at 0 when periodic
    z_sup            -- supremum over the stored values
    tail_error_bound -- bound on the truncation error of z[-r]
                        (0 for the exact periodic construction)
    period           -- exact period in steps, or None
    """

    z: TimeSeries
    z_sup: float
    tail_error_bound: float
    period: int | None = None

    def at(self, t: int) -> float:
        """Washout value at time t; periodic solutions wrap to any t."""
        t = _time(t)
        if self.period is not None:
            return self.z.at(t % self.period)
        return self.z.at(t)

    def window(self, t_from: int, t_to: int) -> np.ndarray:
        """Values on the inclusive time range [t_from, t_to], equal to
        at(t) for each t; periodic solutions wrap to any range."""
        t_from, t_to = _time(t_from), _time(t_to)
        if self.period is not None:
            return self.z.values[np.arange(t_from, t_to + 1) % self.period]
        return self.z.window(t_from, t_to)


def default_tail_depth(E: float) -> int:
    """Truncation depth making the geometric tail factor (1-E)**depth < 1e-26."""
    return int(math.ceil(60.0 / -math.log1p(-E)))


def _forward(z, E, feed):
    """z, then each z[t+1] = (1-E)*z[t] + E*s0[t] for s0[t] in feed."""
    omE = 1.0 - E
    yield z
    for s0 in feed:
        z = omE * z + E * s0
        yield z


def washout_sequence(params: ChemostatParams, horizon: int) -> WashoutSolution:
    """Washout values on [-r, horizon] from a truncated backward sum.

    One forward pass from z = 0 runs over the input on
    [-r-1-tail_depth, horizon-1] (negative times resolved by the input's
    backward-extension convention); its first tail_depth + 1 steps settle
    z[-r] and are not kept.  tail_depth = default_tail_depth(E) makes
    (1-E)**tail_depth < 1e-26, and every solution approaches z at rate
    (1-E) per step, so a deeper tail cannot make a double more accurate.
    The discarded tail is bounded by (1-E)**tail_depth * sup(s0), recorded
    on the result.  A feed that ends periodic, a constant tail included,
    stops stepping at an exact recurrence of z and repeats it to the end
    (core._step_to_recurrence): on the fig1 ramp at horizon 4000, about
    2,300 of the 4,305 steps are taken.
    """
    r = params.r
    horizon = _validate_integer("horizon must be an integer", horizon, -math.inf, UsageError)
    if horizon < r:
        raise UsageError(f"horizon {horizon} must be >= delay r={r}")
    tail_depth = default_tail_depth(params.E)

    n = horizon + r + 1 + tail_depth
    _validate_steps("washout", n)
    E = params.E
    z = np.empty(n + 1)  # z[k] at time k - r - 1 - tail_depth
    z[0] = 0.0

    def advance(part, end):
        z[end : end + len(part)] = np.fromiter(islice(_forward(float(z[end - 1]), E, part), 1, None), float,
                                               count=len(part))

    (z,) = _step_to_recurrence(params.input.sample(-r - 1 - tail_depth, horizon - 1), params.input.period,
                               [z], 1, advance)
    values = z[tail_depth + 1 :].copy()  # a copy, so the settling tail is not kept

    sup_s0 = params.input.bounds()[1]
    return WashoutSolution(
        z=TimeSeries(values, t_start=-r),
        z_sup=float(np.max(values)),
        tail_error_bound=(1.0 - E) ** tail_depth * sup_s0,
    )


def washout_periodic(params: ChemostatParams) -> WashoutSolution:
    """Exact periodic washout solution for a periodic input.

    With period w, the phase-0 value solves the one-period closure
    z[0] = (1-E)**w * z[0] + E * sum_j (1-E)**(w-1-j) * s0[j], i.e.

        z[0] = E * sum_{j=0}^{w-1} (1-E)**(w-1-j) * s0[j] / (1 - (1-E)**w),

    and one forward pass gives the rest of the period, stored as z on
    [0, w-1].  No truncation is involved, so the recorded tail error is
    zero.
    """
    omega = params.input.period
    if omega is None:
        raise UsageError("washout_periodic requires a periodic input signal")
    _validate_steps("periodic washout", omega)

    E = params.E
    omE = 1.0 - E
    feed = params.input.sample(0, omega - 1).tolist()
    *_, acc = _forward(0.0, E, feed)
    z0 = acc / (1.0 - omE**omega)

    values = np.fromiter(_forward(z0, E, feed[:-1]), float, count=omega)
    return WashoutSolution(
        z=TimeSeries(values, t_start=0),
        z_sup=float(np.max(values)),
        tail_error_bound=0.0,
        period=omega,
    )
