"""Delay-correction ratios, biomass product form, and Bohl-exponent bounds.

The delayed system is turned into a product form through the linear
comparison equation

    c[t+1] = (1-E)*c[t] + c[t-r]*p(z[t-r])*(1-E)**(r+1),

whose delay-correction ratio

    phi[t-r] = (c[t-r] / c[t]) * (1-E)**r

rewrites it as c[t+1] = (1-E) * (1 + phi[t-r]*p(z[t-r])) * c[t].  The
equation is linear and homogeneous, so a constant seed only scales c and
cancels from phi: phi is always seeded from c = 1.  Dividing consecutive
window products yields the fixed-point identity

    phi[t+1] = prod_{k=t+1-r}^{t} (1 + phi[k]*p(z[k]))**-1,

and the same ratio built from the biomass, psi[t] = x[t]/x[t+r]*(1-E)**r,
gives the exact product formula

    x[t+1] = x[0] * (1-E)**(t+1) * prod_{k=-r}^{t-r} (1 + psi[k]*p(s[k])).

For r = 0 both ratios are identically 1 and everything collapses to the
undelayed theory.  The fixed-point identity runs forward in O(1)
amortised time per step for any r, so phi on n steps costs O(n), as does
its residual in the identity, and a periodic sweep O(period).  Persistence
and extinction are read off windowed geometric means of the growth
factors a[k] = (1-E)*(1 + phi[k]*p(z[k])): liminf > 1 forces persistence,
limsup < 1 forces extinction.  Finite data only supports windowed
estimates of those limits, reported together with the window parameters
that produced them.
"""

from __future__ import annotations

import math
from itertools import accumulate, chain, cycle, islice
from operator import mul

import numpy as np

from ._records import frozen
from .core import ChemostatParams, _step_to_recurrence, _validate_integer, _validate_tol
from .dynamics import Trajectory
from .errors import ConvergenceError, DomainError, UsageError
from .series import TimeSeries
from .washout import WashoutSolution


@frozen
class CorrectionSequences:
    """phi and the growth factors on [-r, horizon].

    growth holds a[k] = (1-E) * (1 + phi[k] * p(z[k])), the coefficients
    whose window means bohl_bounds reads.  cross_check_error is the
    residual of phi in the fixed-point identity, the largest
    |phi[t+1] * prod_{k=t+1-r}^{t} (1 + phi[k]*p(z[k])) - 1| on [0, horizon).
    """

    phi: TimeSeries
    growth: TimeSeries
    cross_check_error: float = 0.0


def _direct_phi(f_values, seed):
    """Yield phi[t+1] = prod_{k=t+1-r}^{t} (1 + phi[k]*f(k))**-1 for t = t0,
    t0 + 1, ...; seed is phi on [t0 - r + 1, t0] (r >= 1 values) and
    f_values yields f(k) from k = t0 - r + 1 on, each only once needed.

    A window is the suffix product of the previous block of r factors
    times the running prefix product of the current one (van Herk 1992;
    Gil & Werman 1993): O(1) amortised per step, no division.
    """
    f_next = f_values.__next__
    block = [1.0 + phi * f_next() for phi in seed]
    phi = 1.0 / math.prod(block)
    while True:
        # tails[j]: product of the last j factors of the finished block
        tails = [*accumulate(block[:0:-1], mul, initial=1.0)]
        block = []
        prefix = 1.0
        for tail in reversed(tails):
            yield phi
            g = 1.0 + phi * f_next()
            block.append(g)
            prefix *= g
            phi = 1.0 / (tail * prefix)


def correction_recursion(f, seed) -> np.ndarray:
    """Run phi[j+1] = prod_{i=j+1-r}^{j} (1 + phi[i]*f[i])**-1 forward.

    f holds the factors f[0..n-1], finite and nonnegative; seed holds
    phi[0..r-1], finite and positive, with r = len(seed) <= n + 1.
    Returns phi[0..n], the seed first, in O(1) amortised time per step;
    for r = 0 every value is 1.  The time origin is the caller's: position
    0 is the first seed value.  This is the engine of phi_sequence, also
    run by the synthetic comparison-lemma suites.

    The values are stepped through core._step_to_recurrence, the state
    being the last r values of phi and the feed f[r-1:], with the period
    r so that every lag keeps the phase of the van Herk blocks: where f
    ends periodic the pass stops at an exact recurrence of phi, and every
    value is the one the plain pass gives, to the bit.
    """
    f = np.asarray(f, dtype=float)
    seed = np.asarray(seed, dtype=float)
    if f.ndim != 1 or seed.ndim != 1:
        raise UsageError("f and seed must be one-dimensional")
    n, r = len(f), len(seed)
    if r > n + 1:
        raise UsageError(f"f must hold at least r - 1 = {r - 1} values, got {n}")
    bad = np.flatnonzero(~((seed > 0.0) & np.isfinite(seed)))
    if bad.size:
        i = int(bad[0])
        raise DomainError(f"seed phi[{i}] = {seed[i]} is not finite and positive")
    bad = np.flatnonzero(~((f >= 0.0) & np.isfinite(f)))
    if bad.size:
        i = int(bad[0])
        raise DomainError(f"f[{i}] = {f[i]} is not finite and nonnegative")
    if r == 0:
        return np.ones(n + 1)
    # _direct_phi reads f[:r-1], then each part that advance hands over:
    # phi[r] needs f[0 .. r-1], and every later value one more factor
    parts = []
    values = _direct_phi(chain(f[: r - 1].tolist(), chain.from_iterable(iter(parts.pop, None))), seed.tolist())
    phi = np.empty(n + 1)
    phi[:r] = seed

    def advance(part, end):
        parts.append(part)
        phi[end : end + len(part)] = np.fromiter(islice(values, len(part)), float, len(part))

    return _step_to_recurrence(f[r - 1 :], r, [phi], r, advance)[0]


def _identity_residual(phi, f, r) -> float:
    """max |phi[i+r] * prod_{k=i}^{i+r-1} (1 + phi[k]*f[k]) - 1| over i >= 1,
    the fixed-point identity's residual.  A window's product is the suffix
    product of one block of r factors times the prefix product of the next,
    each multiplied out afresh, so the cost is O(len(phi)) for any r."""
    m = len(phi) - r - 1  # windows
    if r == 0 or m <= 0:
        return 0.0
    blocks = np.ones((m // r + 2, r))
    blocks.flat[: m + r - 1] = 1.0 + phi[1:-1] * f[1:-1]
    tails = np.cumprod(blocks[:, ::-1], axis=1)[:, ::-1]
    heads = np.cumprod(np.hstack([np.ones((len(blocks), 1)), blocks[:, :-1]]), axis=1)
    return float(np.max(np.abs(phi[r + 1 :] * (tails[:-1] * heads[1:]).ravel()[:m] - 1.0)))


def phi_sequence(params: ChemostatParams, z: WashoutSolution, horizon: int) -> CorrectionSequences:
    """phi and the growth factors on [-r, horizon] in one pass.

    On [-r, 0] phi is the ratio of the comparison equation run from c = 1,
    in closed form

        phi[k] = (1-E)**-k / (1 + sum_{j=0}^{k+r-1} (1-E)**(r-j) * p(z[j-r])),

    so phi[-r] = (1-E)**r and no power exceeds 1; a DomainError is raised
    where some of these values is not a positive double.  From that seed
    correction_recursion gives phi[1 .. horizon] on the factors
    p(z[1-r .. horizon-1]), stopping at an exact recurrence of phi where
    the feed ends periodic; cross_check_error is its _identity_residual.
    The growth factors reuse the p(z) values the recursion reads.
    """
    r = params.r
    horizon = _validate_integer("horizon must be >= 0", horizon, 0, UsageError)

    omE = 1.0 - params.E
    pz = params.uptake.evaluate(z.window(-r, horizon))  # index t: p(z[t - r])
    powers = np.array([omE**k for k in range(r, -1, -1)])  # index i: (1-E)**(r-i)
    phi = powers / (1.0 + np.concatenate([[0.0], np.cumsum(powers[:r] * pz[:r])]))
    if not np.all(phi > 0.0):
        raise DomainError(
            f"phi on [-r, 0] leaves the positive doubles at E = {params.E}, r = {r}, "
            f"where (1-E)**r = {powers[0]:.3e}"
        )
    if horizon:
        phi = np.concatenate([phi[:1], correction_recursion(pz[1 : horizon + r], phi[1:])])

    return CorrectionSequences(
        phi=TimeSeries(phi, t_start=-r),
        growth=TimeSeries(omE * (1.0 + phi * pz), t_start=-r),
        cross_check_error=_identity_residual(phi, pz, r),
    )


def psi_sequence(traj: Trajectory) -> TimeSeries:
    """psi[t] = x[t] / x[t+r] * (1-E)**r on [-r, horizon - r].

    Requires strictly positive biomass on the whole stored range; the first
    offending index is reported otherwise.
    """
    r = traj.params.r
    x = traj.x.values
    bad = np.flatnonzero(~(x > 0.0))
    if bad.size:
        raise DomainError(
            f"biomass is not positive at t={int(bad[0]) - r}; psi is undefined"
        )
    if r == 0:
        return TimeSeries(np.ones(len(x)), t_start=0)
    vals = x[:-r] / x[r:] * (1.0 - traj.params.E) ** r
    return TimeSeries(vals, t_start=-r)


def reconstruct_biomass(traj: Trajectory, psi: TimeSeries) -> TimeSeries:
    """Biomass via the product formula, on [0, horizon].

    x_hat[t+1] = x[0] * (1-E)**(t+1) * prod_{k=-r}^{t-r} (1+psi[k]*p(s[k])),
    accumulated as a sum of logs.  Reproduces the direct recursion to
    rounding error and is the second route of the product/recursion pair.
    """
    params = traj.params
    r = params.r
    horizon = traj.horizon
    if not psi.covers(-r, horizon - r):
        raise UsageError(f"psi must cover [-{r}, {horizon - r}]")
    x0 = traj.x.at(0)
    if x0 == 0.0:
        return TimeSeries(np.zeros(horizon + 1), t_start=0)

    terms = psi.window(-r, horizon - r) * params.uptake.evaluate(traj.s.window(-r, horizon - r))
    if np.any(terms <= -1.0):
        raise DomainError("product formula left its domain: some 1 + psi*p(s) <= 0")
    log_growth = np.cumsum(np.log1p(terms))  # index j: sum over k in [-r, -r+j]
    t = np.arange(1, horizon + 1)
    vals = np.empty(horizon + 1)
    vals[0] = x0
    vals[1:] = x0 * np.exp(t * math.log(1.0 - params.E) + log_growth[:horizon])
    return TimeSeries(vals, t_start=0)


@frozen
class BohlEstimate:
    """Windowed bounds for the asymptotic geometric means of a growth
    sequence.  lower/upper are the min/max window geometric means over all
    windows (t1, t2] with t1 > gap_min and t2 - t1 > window_min; they are
    finite-horizon estimators (lower is upper-biased, upper lower-biased)
    of the true liminf/limsup."""

    lower: float
    upper: float
    window_min: int
    gap_min: int
    horizon: int


def bohl_window_min(r: int, window_min: int | None) -> int:
    """T, the minimum Bohl window length at delay r: max(2r, 50) when
    window_min is None, else window_min, which must be an integer >= 1
    (a UsageError otherwise)."""
    if window_min is None:
        return max(2 * r, 50)
    return _validate_integer("window_min must be >= 1", window_min, 1, UsageError)


def bohl_bounds(
    growth,
    window_min: int,
    gap_min: int | None = None,
    method: str = "auto",
    n_window_lengths: int = 64,
) -> BohlEstimate:
    """Extremal window geometric means of a positive growth sequence.

    lower/upper are exact over all windows (t1, t2] with t1 > gap_min >= 0
    and t2 - t1 > window_min = T, computed from prefix sums of logs.  Only
    lengths T+1 .. 2T+1 are scanned: a longer window splits into two
    admissible windows whose means it averages, so one of them is at least
    as large and one at least as small.  The cost is O(n*T).  `method`
    ("auto" or "full") and `n_window_lengths` are accepted for
    compatibility and have no effect.
    """
    if method not in ("auto", "full"):
        raise UsageError(f"unknown bohl_bounds method {method!r}")
    vals = growth.values if isinstance(growth, TimeSeries) else np.asarray(growth, float)
    window_min = _validate_integer("window_min must be >= 1", window_min, 1, UsageError)
    if gap_min is None:
        gap_min = window_min
    gap_min = _validate_integer("gap_min must be >= 0", gap_min, 0, UsageError)
    n = len(vals)
    if n < gap_min + window_min + 3:
        raise UsageError(
            f"sequence of length {n} too short for window_min={window_min}, gap_min={gap_min}"
        )
    bad = np.flatnonzero(~((vals > 0.0) & np.isfinite(vals)))
    if bad.size:
        k = int(bad[0])
        raise DomainError(f"growth factor at position {k} is {vals[k]}, not finite and positive")

    prefix = np.concatenate([[0.0], np.cumsum(np.log(vals))])
    start = gap_min + 2  # window (t1, t1 + w] is prefix[t1 + 1 + w] - prefix[t1 + 1]
    lo, hi = np.inf, -np.inf
    for w in range(window_min + 1, min(2 * window_min + 1, n - start) + 1):
        means = (prefix[start + w :] - prefix[start : n + 1 - w]) / w
        lo = min(lo, float(means.min()))
        hi = max(hi, float(means.max()))

    return BohlEstimate(
        lower=math.exp(lo),
        upper=math.exp(hi),
        window_min=window_min,
        gap_min=gap_min,
        horizon=n - 1,
    )


@frozen
class PeriodicCorrection:
    """Converged one-period phi profile, aligned so phi[k] sits at phase
    k = t mod period, and mean, the one-period geometric mean of
    (1-E) * (1 + phi * p(z)): > 1 means persistence, <= 1 extinction."""

    phi: np.ndarray
    period: int
    sweeps: int
    residual: float
    mean: float

    def __post_init__(self):
        arr = np.asarray(self.phi, dtype=float)
        arr.flags.writeable = False
        object.__setattr__(self, "phi", arr)


MAX_SWEEPS = 10_000


def periodic_phi(params: ChemostatParams, z: WashoutSolution, tol: float = 1e-12) -> PeriodicCorrection:
    """Periodic delay-correction profile by fixed-point sweeping.

    Starting from phi = 1 on the initial window, the fixed-point recursion
    is iterated period after period, O(omega) each, until the max(omega, r)
    values before a period (all its windows read) agree with the new
    profile at their phases below tol in sup norm; for omega >= r, until
    two consecutive periods agree, or raises ConvergenceError after
    MAX_SWEEPS periods.  Convergence is driven by the same attraction that
    makes the ratio construction forget its seed; the identity
    phi[t+1] * prod (1 + phi[k] p(z[k])) = 1 holds at every phase of the
    returned profile (wrapping around the period).  The mean reads the
    p(z) values the sweeps read.
    """
    _validate_tol(tol)
    omega = z.period
    if omega is None:
        raise UsageError("periodic_phi requires a periodic washout solution")
    r = params.r
    pz = params.uptake.evaluate(z.window(0, omega - 1))

    def certified(phi, sweeps, residual):
        total = 0.0
        for a in ((1.0 - params.E) * (1.0 + phi * pz)).tolist():
            total += math.log(a)
        return PeriodicCorrection(phi, omega, sweeps, residual, math.exp(total / omega))

    if r == 0:
        return certified(np.ones(omega), sweeps=1, residual=0.0)

    # a sweep yields phi at phases 1 .. omega-1, then 0
    phis = _direct_phi(islice(cycle(pz.tolist()), (1 - r) % omega, None), [1.0] * r)
    span = max(omega, r)
    phase = np.arange(1 - span, 1) % omega
    before = np.ones(span)
    for sweep in range(1, MAX_SWEEPS + 1):
        values = np.fromiter(islice(phis, omega), float, omega)
        current = np.roll(values, 1)
        residual = float(np.max(np.abs(before - current[phase])))
        if (sweep - 1) * omega >= span and residual < tol:
            return certified(current, sweeps=sweep, residual=residual)
        before = np.concatenate([before, values])[-span:]
    raise ConvergenceError(
        f"periodic phi did not converge within {MAX_SWEEPS} sweeps "
        f"(last residual {residual:.3e})",
        residual=residual,
    )
