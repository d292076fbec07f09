"""Problem-definition types: uptake functions, input signals, parameters.

The discrete chemostat advances substrate s and biomass x by

    s[t+1] = E*s0[t] + (1-E)*(s[t] - x[t]*p(s[t]))
    x[t+1] = (1-E)*x[t] + x[t-r]*p(s[t-r])*(1-E)**(r+1)

where E in (0,1) is the washout fraction per step, r >= 0 the maturation
delay in steps, p the nutrient uptake function and s0 the (bounded) feed
concentration.  This module defines those four ingredients plus the initial
history, with validation of the standing hypotheses the theory needs:
p(0) = 0, 0 <= p'(s) <= p'(0), and p'(0) * sup(washout) <= 1.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError


# ---------------------------------------------------------------------------
# uptake functions
# ---------------------------------------------------------------------------


class UptakeFunction:
    """Per-capita nutrient uptake rate p(s), nonnegative and nondecreasing
    with p(0) = 0 and p'(s) <= p'(0).  ``evaluate`` takes a float or an
    ndarray and gives the same values, bit for bit, either way."""

    def evaluate(self, s):
        raise NotImplementedError

    def derivative(self, s: float) -> float:
        raise NotImplementedError

    def derivative_at_zero(self) -> float:
        return self.derivative(0.0)


@dataclass(frozen=True)
class Monod(UptakeFunction):
    """Saturating uptake p(s) = p_max * s / (k_s + s)."""

    p_max: float
    k_s: float

    def __post_init__(self):
        if not (self.p_max > 0 and math.isfinite(self.p_max)):
            raise ParameterError(f"Monod p_max must be positive, got {self.p_max}")
        if not (self.k_s > 0 and math.isfinite(self.k_s)):
            raise ParameterError(f"Monod k_s must be positive, got {self.k_s}")

    def evaluate(self, s):
        return self.p_max * s / (self.k_s + s)

    def derivative(self, s):
        return self.p_max * self.k_s / (self.k_s + s) ** 2


@dataclass(frozen=True)
class LinearUptake(UptakeFunction):
    """Unsaturated uptake p(s) = slope * s.

    Unbounded, so it sits outside the usual saturation assumption; it is
    admitted because the undelayed benchmarks and the dyadic-blocks
    demonstration use it.
    """

    slope: float

    def __post_init__(self):
        if not (self.slope > 0 and math.isfinite(self.slope)):
            raise ParameterError(f"linear uptake slope must be positive, got {self.slope}")

    def evaluate(self, s):
        return self.slope * s

    def derivative(self, s):
        return self.slope


@dataclass(frozen=True)
class TabulatedUptake(UptakeFunction):
    """Monotone piecewise-linear uptake through sample points.

    The grid must start at (0, 0), values must be nondecreasing, and no
    segment may be steeper than the first one so that p'(s) <= p'(0) holds
    by construction.  Beyond the last sample the function is held constant.
    """

    grid: tuple
    values: tuple

    def __post_init__(self):
        grid = tuple(float(v) for v in self.grid)
        values = tuple(float(v) for v in self.values)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if len(grid) != len(values) or len(grid) < 2:
            raise ParameterError("tabulated uptake needs >= 2 matching samples")
        if grid[0] != 0.0 or values[0] != 0.0:
            raise ParameterError("tabulated uptake must start at (0, 0)")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ParameterError("tabulated uptake grid must be strictly increasing")
        slopes = self._slopes()
        if any(m < 0 for m in slopes):
            raise ParameterError("tabulated uptake values must be nondecreasing")
        if any(m > slopes[0] for m in slopes[1:]):
            raise ParameterError(
                "tabulated uptake must have its steepest segment first "
                "(p'(s) <= p'(0))"
            )

    def _slopes(self):
        return [
            (self.values[i + 1] - self.values[i]) / (self.grid[i + 1] - self.grid[i])
            for i in range(len(self.grid) - 1)
        ]

    def _segment(self, s):
        # index of the segment containing s; right of the table -> last
        return bisect.bisect_right(self.grid, s, 0, len(self.grid) - 1) - 1

    def evaluate(self, s):
        # scalars skip np.interp, which costs 5x more per call in the integrator
        if isinstance(s, np.ndarray):
            return np.interp(s, self.grid, self.values)
        if s <= 0.0:
            return 0.0
        if s >= self.grid[-1]:
            return self.values[-1]
        i = self._segment(s)
        m = (self.values[i + 1] - self.values[i]) / (self.grid[i + 1] - self.grid[i])
        return self.values[i] + m * (s - self.grid[i])

    def derivative(self, s):
        if s < 0.0:
            return 0.0
        if s >= self.grid[-1]:
            return 0.0
        i = self._segment(s)
        return (self.values[i + 1] - self.values[i]) / (self.grid[i + 1] - self.grid[i])


# ---------------------------------------------------------------------------
# input signals
# ---------------------------------------------------------------------------


class InputSignal:
    """Feed concentration s0 on the integer time steps.

    ``sample(t_from, t_to)`` gives s0 on the inclusive range as a float
    array, empty when t_to < t_from; the recursions read the feed only
    through it.  Any integers are accepted, negative ones included: the
    washout construction sums the input backwards in time, so every variant
    fixes a backward extension (periodic variants repeat, the rest clamp to
    their first value).  ``bounds()`` returns stored (lower, upper) bounds
    and ``period`` is the exact period in steps, or None.
    """

    def sample(self, t_from: int, t_to: int) -> np.ndarray:
        raise NotImplementedError

    def bounds(self) -> tuple:
        raise NotImplementedError

    @property
    def period(self):
        return None


def _check_nonnegative(name, *values):
    for v in values:
        if not (v >= 0 and math.isfinite(v)):
            raise ParameterError(f"{name} values must be finite and >= 0, got {v}")


@dataclass(frozen=True)
class Constant(InputSignal):
    value: float

    def __post_init__(self):
        _check_nonnegative("constant input", self.value)

    def sample(self, t_from, t_to):
        return np.full(max(t_to - t_from + 1, 0), self.value, dtype=float)

    def bounds(self):
        return (self.value, self.value)

    @property
    def period(self):
        return 1


@dataclass(frozen=True)
class Sinusoid(InputSignal):
    """s0[t] = amplitude * sin(2*pi*t/period) + offset, period an integer.

    Evaluated with math.sin on t mod period, so that times t and
    t + period give exactly equal values in floating point.
    """

    amplitude: float
    period_steps: int
    offset: float

    def __post_init__(self):
        if not (isinstance(self.period_steps, int) and self.period_steps >= 1):
            raise ParameterError(f"sinusoid period must be a positive integer, got {self.period_steps}")
        for name, v in (("amplitude", self.amplitude), ("offset", self.offset)):
            if not math.isfinite(v):
                raise ParameterError(f"sinusoid {name} must be finite, got {v}")
        if not self.amplitude >= 0:
            raise ParameterError(f"sinusoid amplitude must be >= 0, got {self.amplitude}")
        if not self.offset - self.amplitude >= 0:
            raise ParameterError(
                f"sinusoid must stay nonnegative: offset {self.offset} < amplitude {self.amplitude}"
            )

    def sample(self, t_from, t_to):
        # a range shorter than a period evaluates its own phases only, so a
        # long period never costs more than the range; a longer range
        # evaluates one period and repeats it by phase
        w = self.period_steps
        short = t_to - t_from < w
        values = np.array([self.amplitude * math.sin(2.0 * math.pi * (t % w) / w) + self.offset
                           for t in (range(t_from, t_to + 1) if short else range(w))], dtype=float)
        return values if short else values[np.arange(t_from, t_to + 1) % w]

    def bounds(self):
        return (self.offset - self.amplitude, self.offset + self.amplitude)

    @property
    def period(self):
        return self.period_steps


@dataclass(frozen=True)
class PiecewiseLinear(InputSignal):
    """Linear interpolation through (time, value) breakpoints; clamped to the
    first value before the first breakpoint and to the last one after."""

    breakpoints: tuple  # ((t0, v0), (t1, v1), ...) with increasing t

    def __post_init__(self):
        pts = tuple((float(t), float(v)) for t, v in self.breakpoints)
        object.__setattr__(self, "breakpoints", pts)
        if len(pts) < 1:
            raise ParameterError("piecewise input needs at least one breakpoint")
        if not all(math.isfinite(t) for t, _ in pts):
            raise ParameterError("piecewise breakpoint times must be finite")
        if any(b[0] <= a[0] for a, b in zip(pts, pts[1:])):
            raise ParameterError("piecewise breakpoints must have increasing times")
        _check_nonnegative("piecewise input", *(v for _, v in pts))

    def sample(self, t_from, t_to):
        t = np.arange(t_from, t_to + 1).astype(float)
        times, values = np.array(self.breakpoints).T
        out = np.full(t.shape, values[-1])
        out[t <= times[0]] = values[0]
        # interpolate strictly inside the breakpoints only, so no ratio
        # (t - ta) / (tb - ta) exceeds 1; segment i = (first breakpoint
        # >= t) - 1 is the first one with ta <= t <= tb, so an interior
        # breakpoint ends its segment
        inner = (t > times[0]) & (t < times[-1])
        ti = t[inner]
        i = np.searchsorted(times, ti, side="left") - 1
        ta, tb, va, vb = times[i], times[i + 1], values[i], values[i + 1]
        out[inner] = va + (vb - va) * (ti - ta) / (tb - ta)
        return out

    def bounds(self):
        vals = [v for _, v in self.breakpoints]
        return (min(vals), max(vals))


@dataclass(frozen=True)
class ExplicitSequence(InputSignal):
    """A finite list of values, optionally repeated periodically.

    Non-periodic sequences clamp to the first value for t < 0 and to the last
    value past the end, which keeps the backward washout sum bounded.
    """

    values: tuple
    periodic: bool = False

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not vals:
            raise ParameterError("explicit input sequence must be non-empty")
        _check_nonnegative("explicit input sequence", *vals)

    def sample(self, t_from, t_to):
        t = np.arange(t_from, t_to + 1)
        n = len(self.values)
        return np.array(self.values)[t % n if self.periodic else np.clip(t, 0, n - 1)]

    def bounds(self):
        return (min(self.values), max(self.values))

    @property
    def period(self):
        return len(self.values) if self.periodic else None


@dataclass(frozen=True)
class DyadicBlocks(InputSignal):
    """Demonstration-only input alternating on dyadic intervals.

    Takes the high value E**-1 * (1-E)**(-2r-2) on the blocks
    [4**n, 2*4**n) for n = 0, 1, 2, ... and the low value E/2 everywhere
    else (including t <= 0).  The long high blocks violate the feasibility
    bound p'(0)*sup(z) <= 1 on purpose: this signal exists to produce
    trajectories that neither persist nor die out.
    """

    E: float
    r: int

    def __post_init__(self):
        E, r = _validate_E_r(self.E, self.r)
        object.__setattr__(self, "E", E)
        object.__setattr__(self, "r", r)
        try:
            high = self.high_value
        except OverflowError:
            high = math.inf
        if not math.isfinite(high):
            raise ParameterError(
                f"dyadic high value E**-1*(1-E)**(-2r-2) overflows for E={self.E}, r={self.r}"
            )

    @property
    def high_value(self):
        return (1.0 / self.E) * (1.0 - self.E) ** (-2 * self.r - 2)

    @property
    def low_value(self):
        return self.E / 2.0

    def sample(self, t_from, t_to):
        # [4**n, 2*4**n) = [2**(2n), 2**(2n+1)): t is high exactly when an
        # odd number of powers of two, 1 included, are <= t
        k = np.searchsorted(2 ** np.arange(63), np.arange(t_from, t_to + 1), side="right")
        return np.where(k % 2 == 1, self.high_value, self.low_value)

    def bounds(self):
        return (self.low_value, self.high_value)


# ---------------------------------------------------------------------------
# problem statement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChemostatParams:
    """Full problem statement: washout fraction, delay, uptake and feed."""

    E: float
    r: int
    uptake: UptakeFunction
    input: InputSignal

    def __post_init__(self):
        E, r = _validate_E_r(self.E, self.r)
        object.__setattr__(self, "E", E)
        object.__setattr__(self, "r", r)
        if not isinstance(self.uptake, UptakeFunction):
            raise ParameterError("uptake must be an UptakeFunction")
        if not isinstance(self.input, InputSignal):
            raise ParameterError("input must be an InputSignal")


def _validate_tol(tol):
    if not (tol > 0 and math.isfinite(tol)):
        raise ParameterError(f"tolerance must be finite and > 0, got {tol}")


def _validate_E_r(E, r):
    try:
        E = float(E)
    except (TypeError, ValueError):
        raise ParameterError(f"washout fraction E must be a number, got {E!r}") from None
    if not 0.0 < E < 1.0:
        raise ParameterError(f"washout fraction E must lie in (0, 1), got {E}")
    try:
        bad = isinstance(r, bool) or (not isinstance(r, int) and int(r) != r)
    except (TypeError, ValueError):
        bad = True
    if bad:
        raise ParameterError(f"delay r must be a nonnegative integer, got {r!r}")
    r = int(r)
    if r < 0:
        raise ParameterError(f"delay r must be a nonnegative integer, got {r}")
    return E, r


@dataclass(frozen=True)
class InitialHistory:
    """Initial window (s, x) on times -r..0, each of length r + 1."""

    s: tuple
    x: tuple

    def __post_init__(self):
        s = tuple(float(v) for v in self.s)
        x = tuple(float(v) for v in self.x)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "x", x)
        if len(s) != len(x) or not s:
            raise ParameterError("initial history needs matching non-empty s and x windows")
        if any(not (v >= 0 and math.isfinite(v)) for v in s + x):
            raise ParameterError("initial history entries must be finite and >= 0")

    @classmethod
    def constant(cls, r: int, s_value: float, x_value: float) -> "InitialHistory":
        return cls((s_value,) * (r + 1), (x_value,) * (r + 1))

    def __len__(self):
        return len(self.s)


# ---------------------------------------------------------------------------
# feasibility
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of the standing-hypothesis checks.  A failed check is
    information, not an error: infeasible regimes are still simulated.

    hypothesis_pz   -- p'(0) * z_sup <= 1, which keeps substrate positive
    pz_product      -- the computed product p'(0) * z_sup
    z_sup           -- the washout supremum the check used
    derivative_at_zero -- p'(0)
    mass_ok         -- s0 + x0 + y0 <= z0 (None until checked)
    initial_mass    -- s0 + x0 + y0 (None until checked)
    z0              -- washout value at time 0 (None until checked)
    """

    hypothesis_pz: bool
    pz_product: float
    z_sup: float
    derivative_at_zero: float
    mass_ok: bool | None = None
    initial_mass: float | None = None
    z0: float | None = None

    @property
    def feasible(self) -> bool:
        """True when every computed flag holds."""
        return self.hypothesis_pz and (self.mass_ok is not False)


def validate_standing_hypotheses(params: ChemostatParams, z_sup: float) -> FeasibilityReport:
    """Check p'(xi) * z[t] <= 1 via the sufficient bound p'(0) * z_sup <= 1.

    z_sup must upper-bound the washout sequence (the washout module supplies
    it).  Never raises on a failed check.
    """
    _validate_E_r(params.E, params.r)
    if not (z_sup >= 0 and math.isfinite(z_sup)):
        raise ParameterError(f"z_sup must be finite and >= 0, got {z_sup}")
    d0 = params.uptake.derivative_at_zero()
    product = d0 * z_sup
    return FeasibilityReport(
        hypothesis_pz=product <= 1.0,
        pz_product=product,
        z_sup=z_sup,
        derivative_at_zero=d0,
    )
