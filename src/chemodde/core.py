"""Problem-definition types: uptake functions, input signals, parameters.

The discrete chemostat advances substrate s and biomass x by

    s[t+1] = E*s0[t] + (1-E)*(s[t] - x[t]*p(s[t]))
    x[t+1] = (1-E)*x[t] + x[t-r]*p(s[t-r])*(1-E)**(r+1)

where E in (0,1) is the washout fraction per step, r >= 0 the maturation
delay in steps, p the nutrient uptake function and s0 the (bounded) feed
concentration.  This module defines those four ingredients plus the initial
history, with validation of the standing hypotheses the theory needs:
p(0) = 0 and 0 <= p'(s) <= p'(0).  The remaining one, p'(0) * sup(washout)
<= 1, depends on the washout and is reported in a FeasibilityReport by
dynamics.check_positivity_preconditions.
"""

from __future__ import annotations

import bisect
import math
import sys

import numpy as np

from ._records import frozen
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


@frozen
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
        try:
            return self.p_max * s / (self.k_s + s)
        except ZeroDivisionError:  # s = -k_s: the array path's +-inf or nan
            with np.errstate(all="ignore"):
                return float(self.evaluate(np.float64(s)))

    def derivative(self, s):
        try:
            return self.p_max * self.k_s / (self.k_s + s) ** 2
        except (OverflowError, ZeroDivisionError):  # (k_s + s)**2 outside the doubles
            with np.errstate(all="ignore"):
                return float(self.derivative(np.float64(s)))


@frozen
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


@frozen
class TabulatedUptake(UptakeFunction):
    """Monotone piecewise-linear uptake through sample points.

    The grid must start at (0, 0), values must be nondecreasing, and no
    segment may be steeper than the first one so that p'(s) <= p'(0) holds
    by construction.  Beyond the last sample the function is held constant.
    The segment slopes are computed once, as an attribute outside the
    record fields, so equality, hashing and repr see only the samples.
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
        for name, samples in (("grid", grid), ("values", values)):
            for i, v in enumerate(samples):
                if not math.isfinite(v):
                    raise ParameterError(f"tabulated uptake {name}[{i}] must be finite, got {v}")
        if grid[0] != 0.0 or values[0] != 0.0:
            raise ParameterError("tabulated uptake must start at (0, 0)")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ParameterError("tabulated uptake grid must be strictly increasing")
        slopes = tuple((v1 - v0) / (g1 - g0) for g0, g1, v0, v1 in zip(grid, grid[1:], values, values[1:]))
        object.__setattr__(self, "_slopes", slopes)
        if any(m < 0 for m in slopes):
            raise ParameterError("tabulated uptake values must be nondecreasing")
        if any(m > slopes[0] for m in slopes[1:]):
            raise ParameterError(
                "tabulated uptake must have its steepest segment first "
                "(p'(s) <= p'(0))"
            )

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
        return self.values[i] + self._slopes[i] * (s - self.grid[i])

    def derivative(self, s):
        if s < 0.0:
            return 0.0
        if s >= self.grid[-1]:
            return 0.0
        return self._slopes[self._segment(s)]


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


@frozen
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


@frozen
class Sinusoid(InputSignal):
    """s0[t] = amplitude * sin(2*pi*t/period) + offset, period an integer.

    Evaluated with math.sin on t mod period, so that times t and
    t + period give exactly equal values in floating point.
    """

    amplitude: float
    period_steps: int
    offset: float

    def __post_init__(self):
        object.__setattr__(self, "period_steps", _validate_integer(
            "sinusoid period must be a positive integer", self.period_steps, 1))
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
        ts = range(t_from, t_to + 1) if short else range(w)
        values = np.fromiter((self.amplitude * math.sin(2.0 * math.pi * (t % w) / w) + self.offset for t in ts),
                             float, count=len(ts))
        return values if short else values[np.arange(t_from, t_to + 1) % w]

    def bounds(self):
        return (self.offset - self.amplitude, self.offset + self.amplitude)

    @property
    def period(self):
        return self.period_steps


@frozen
class PiecewiseLinear(InputSignal):
    """Linear interpolation through (time, value) breakpoints; clamped to the
    first value before the first breakpoint and to the last one after.
    The times and values are also kept as read-only arrays, built once,
    outside the record fields."""

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
        for name, column in zip(("_times", "_values"), np.array(pts).T):
            column = column.copy()
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def sample(self, t_from, t_to):
        t = np.arange(t_from, t_to + 1).astype(float)
        times, values = self._times, self._values
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


@frozen
class ExplicitSequence(InputSignal):
    """A finite list of values, optionally repeated periodically.

    Non-periodic sequences clamp to the first value for t < 0 and to the last
    value past the end, which keeps the backward washout sum bounded.  The
    values are kept as a read-only float64 array; two sequences are equal
    when their values and periodic flags are.
    """

    values: np.ndarray
    periodic: bool = False

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or not vals.size:
            raise ParameterError("explicit input sequence must be a non-empty flat list of values")
        ok = (vals >= 0) & (vals < math.inf)  # false on nan, inf and below 0
        if not ok.all():
            _check_nonnegative("explicit input sequence", float(vals[ok.argmin()]))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.periodic == other.periodic and np.array_equal(self.values, other.values)

    def __hash__(self):
        return hash((tuple(self.values.tolist()), self.periodic))

    def sample(self, t_from, t_to):
        t = np.arange(t_from, t_to + 1)
        n = len(self.values)
        return self.values[t % n if self.periodic else np.clip(t, 0, n - 1)]

    def bounds(self):
        return (float(self.values.min()), float(self.values.max()))

    @property
    def period(self):
        return len(self.values) if self.periodic else None


@frozen
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


@frozen
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
    if 1.0 - E == 1.0:  # E <= 2**-54: a washout step would keep everything
        raise ParameterError(f"washout fraction E must exceed 2**-54, so that 1 - E < 1, got {E}")
    return E, _validate_integer("delay r must be a nonnegative integer", r, 0)


def _validate_steps(what, n):
    """Raise MemoryError, naming n, where n steps of float64 values are
    more than one numpy array can address (its size in bytes is an intp)."""
    if n > sys.maxsize // 8:
        raise MemoryError(f"{what} of {n} steps is beyond the size one array can address")


# Least lag, in steps, of an exact recurrence (see _step_to_recurrence).
# The lag is the least multiple of the feed's period that reaches it, so a
# feed of short period (a Constant has period 1) costs one window compare
# per few hundred steps, not one a step.
RECURRENCE_MIN_LAG = 256


def _repeat_start(values, lag):
    """S, the least i >= lag such that values[k] and values[k - lag] are
    equal as 64-bit integers for every k >= i: where a float64 array
    repeats with lag for good.  len(values) when the last value differs
    from the one lag earlier, found by one scalar compare."""
    n = len(values)
    bits = values.view(np.int64)
    if lag >= n or bits[-1] != bits[-1 - lag]:
        return n
    # distance from the end to the last k that differs, 0 for none: the
    # last k matches, so the first True from the end is never at 0
    back = int((bits[lag:] != bits[:-lag])[::-1].argmax())
    return n - back if back else lag


def _step_to_recurrence(feed, period, states, window, advance):
    """Step states over the feed, an array of n values, and return them,
    in the list states, as float64 arrays of window + n entries.

    Each state is a list or an array whose first window entries hold the
    state before the feed; advance(part, end) steps them all over the list
    of feed values part, end being the number of entries filled so far.
    A step may read the last window entries of every state and the feed
    of the last window steps, and nothing else.  The states are converted
    one at a time, so a list is dropped once it is an array.

    Exact recurrence, the one rule for every caller: the lag L is the
    least multiple of period (1 for None) of at least RECURRENCE_MIN_LAG,
    and S is where the feed starts to repeat with lag L bit for bit
    (_repeat_start); the period claimed is not trusted, and a feed that
    only ends periodic, such as a ramp to a constant, has an S too.  The
    feed is stepped over [0, S + window) in one chunk, so that the feed
    has repeated for a whole window, and then in chunks of L; stepping
    stops once the last window entries of every state equal those L steps
    earlier as 64-bit integers, so -0.0 differs from 0.0 and a nan matches
    only the same nan.  The last L entries are then repeated to the end.
    From there on every step reads what the step L earlier read, so every
    value is the one the plain pass gives, to the bit.  A feed whose last
    value differs from the one L earlier is stepped in one chunk, never
    compared.
    """
    feed = np.asarray(feed, dtype=float)
    n, period = len(feed), period or 1
    lag = -(-RECURRENCE_MIN_LAG // period) * period
    start = min(_repeat_start(feed, lag) + window, n)
    if start < n:  # [0, start), then chunks of lag; the generator holds no list it has yielded
        chunks = (feed[i - lag if i > start else 0 : i].tolist() for i in range(start, n + lag, lag))
    else:  # one chunk, whose list replaces the array
        chunks, feed = [feed.tolist()], None
    # chunk k ends after start + k*lag steps.  k counts chunks, not steps,
    # so it stays a cached small int, and the compare binds no name: an
    # object made while the lists fill would outlive their floats and keep
    # a 1-MiB pymalloc arena of them mapped
    for k, part in enumerate(chunks):
        advance(part, window + (start + (k - 1) * lag if k else 0))
        if start + k * lag < n and np.array_equal(*np.array(
            [[v[e : e + window] for v in states] for e in (start + (k - 1) * lag, start + k * lag)], dtype=float
        ).view(np.int64)):
            break
    # the feed, a float object a value once a list, goes before the states
    del chunks, part, feed
    end = window + min(start + k * lag, n)
    for i, v in enumerate(states):
        v = np.asarray(v, dtype=float)[:end]
        states[i] = v if end == window + n else np.concatenate((v, np.resize(v[-lag:], window + n - end)))
    return states


def _validate_integer(rule, v, least, error=ParameterError):
    """v as an int: an integral number, not a bool, and >= least; otherwise
    error, a ParameterError for a model parameter and a UsageError for a
    budget, with the rule and v."""
    try:
        bad = isinstance(v, bool) or (not isinstance(v, int) and int(v) != v)
    except (TypeError, ValueError, OverflowError):  # int() of "two", nan, inf
        bad = True
    if bad:
        raise error(f"{rule}, got {v!r}")
    if int(v) < least:
        raise error(f"{rule}, got {int(v)}")
    return int(v)


@frozen
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


@frozen
class FeasibilityReport:
    """Outcome of the two positivity preconditions, built by
    dynamics.check_positivity_preconditions.  A failed check is
    information, not an error: infeasible regimes are still simulated.

    hypothesis_pz   -- p'(0) * z_sup <= 1, which keeps substrate positive
    pz_product      -- the computed product p'(0) * z_sup
    z_sup           -- the washout supremum the check used
    derivative_at_zero -- p'(0)
    mass_ok         -- s0 + x0 + y0 <= z0
    initial_mass    -- s0 + x0 + y0
    z0              -- washout value at time 0
    """

    hypothesis_pz: bool
    pz_product: float
    z_sup: float
    derivative_at_zero: float
    mass_ok: bool
    initial_mass: float
    z0: float

    @property
    def feasible(self) -> bool:
        """True when both preconditions hold."""
        return self.hypothesis_pz and self.mass_ok
