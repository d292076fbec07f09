"""Persistence/extinction classification, periodic orbits, attraction rates.

The decision logic follows the growth-factor thresholds: for a periodic
feed the one-period geometric mean of (1-E)*(1+phi*p(z)) decides the
dichotomy completely (> 1 persistent, <= 1 extinct); for a general bounded
feed the windowed lower/upper means give sufficient conditions only, and
anything in between is reported as inconclusive.  Periodic orbits are
found by plain forward iteration: whenever a positive periodic solution
exists it attracts geometrically, so the period map is a contraction in
practice and a residual-verified profile is as good as a fixed-point
solve.
"""

from __future__ import annotations

import math

import numpy as np

from ._records import frozen
from .core import ChemostatParams, InitialHistory, LinearUptake, DyadicBlocks, _validate_integer, _validate_tol
from .dynamics import (
    Trajectory,
    _initial_state,
    _integrate,
    check_positivity_preconditions,
    simulate,
)
from .errors import ConvergenceError, UsageError
from .exponents import bohl_bounds, bohl_window_min, check_bohl_horizon, periodic_phi, phi_sequence
from .washout import WashoutSolution, washout_periodic, washout_sequence

PERSISTENT = "Persistent"
EXTINCT = "Extinct"
INCONCLUSIVE = "Inconclusive"

BASIS_BOHL = "GeneralBohl"
BASIS_PERIODIC = "PeriodicMean"

# means this close to the threshold 1 are flagged instead of decided
BORDERLINE_BAND = 1e-9

# |biomass| below this multiple of sup z over a whole period counts as washed out
EXTINCTION_FLOOR = 1e-14

# gaps below this are treated as zero when fitting an attraction rate
GAP_FLOOR = 1e-300


@frozen
class ClassificationReport:
    """Verdict with the numbers that justify it.

    lower/upper are the windowed mean bounds (equal for periodic inputs,
    where they are the exact one-period geometric mean).  eta_persist =
    lower - 1 and eta_extinct = 1 - upper are the margins over the
    threshold; the verdict invariant is Persistent => lower > 1 and
    Extinct => upper < 1.  borderline marks a periodic mean within
    BORDERLINE_BAND of 1, where the theory assigns extinction to equality
    but floating point cannot distinguish it.  phi_sweeps and
    phi_residual are the periodic phi sweep certificate (None on the
    GeneralBohl basis).
    """

    verdict: str
    basis: str
    lower: float
    upper: float
    window_min: int | None
    horizon: int
    mean: float | None = None
    borderline: bool = False
    note: str = ""
    phi_sweeps: int | None = None
    phi_residual: float | None = None

    @property
    def eta_persist(self) -> float:
        return self.lower - 1.0

    @property
    def eta_extinct(self) -> float:
        return 1.0 - self.upper


def classify(
    params: ChemostatParams,
    horizon: int = 4000,
    window_min: int | None = None,
    tol: float = 1e-12,
) -> ClassificationReport:
    """Classify the regime from the linearised growth around the washout.

    Periodic inputs use the exact one-period geometric mean; the report's
    horizon is then the period.  General inputs fall back to windowed
    lower/upper estimates over `horizon` samples with minimum window
    `window_min` (default max(2r, 50)) = T, and need a horizon of at
    least max(r, 2T + 2 - r).  `horizon` must be >= r and a given
    `window_min` an integer >= 1 either way.
    """
    _validate_tol(tol)
    horizon = _validate_integer("horizon must be an integer", horizon, -math.inf, UsageError)
    if horizon < params.r:
        raise UsageError(f"horizon {horizon} must be >= delay r={params.r}")
    # checked on either basis, before the washout; only bohl_bounds reads it
    window_min = bohl_window_min(params.r, window_min)
    omega = params.input.period
    if omega is not None:
        z = washout_periodic(params)
        prof = periodic_phi(params, z, tol=tol)
        margin = prof.mean - 1.0
        if margin > BORDERLINE_BAND:
            verdict, note = PERSISTENT, ""
        elif margin < -BORDERLINE_BAND:
            verdict, note = EXTINCT, ""
        else:
            verdict = INCONCLUSIVE
            note = (
                "periodic mean within the borderline band of 1; the theory "
                "assigns mean <= 1 to extinction but the computed margin "
                f"({margin:.2e}) is below numerical resolution"
            )
        return ClassificationReport(
            verdict=verdict,
            basis=BASIS_PERIODIC,
            lower=prof.mean,
            upper=prof.mean,
            window_min=None,
            horizon=omega,
            mean=prof.mean,
            borderline=abs(margin) <= BORDERLINE_BAND,
            note=note,
            phi_sweeps=prof.sweeps,
            phi_residual=prof.residual,
        )

    check_bohl_horizon(horizon, params.r, window_min)
    z = washout_sequence(params, horizon)
    est = bohl_bounds(phi_sequence(params, z, horizon).growth, window_min)
    if est.lower > 1.0:
        verdict = PERSISTENT
    elif est.upper < 1.0:
        verdict = EXTINCT
    else:
        verdict = INCONCLUSIVE
    return ClassificationReport(
        verdict=verdict,
        basis=BASIS_BOHL,
        lower=est.lower,
        upper=est.upper,
        window_min=est.window_min,
        horizon=horizon,
    )


@frozen
class PeriodicOrbit:
    """A residual-verified positive periodic solution.

    s, x hold one period aligned to phase t % period; residual is the sup
    deviation between the last two integrated periods (closure of the
    period map), measured relative to each component's scale so that a
    slowly decaying tail of tiny biomass cannot masquerade as an orbit;
    delta = min over the period of x."""

    period: int
    s: np.ndarray
    x: np.ndarray
    residual: float
    delta: float
    periods_used: int

    def __post_init__(self):
        for name in ("s", "x"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@frozen
class WashoutConvergence:
    """The trajectory collapsed onto the washout solution: biomass fell
    below the extinction floor."""

    washout: WashoutSolution
    periods_used: int
    max_x_last_period: float


def _gap(new, old, s_scale, x_scale):
    """Sup deviation between two stretches (s, x) of the state, s relative
    to s_scale and x to x_scale; nan once the state has blown up."""
    with np.errstate(invalid="ignore", over="ignore"):
        return max(
            float(np.max(np.abs(new[0] - old[0]))) / s_scale,
            float(np.max(np.abs(new[1] - old[1]))) / x_scale,
        )


def find_periodic_orbit(
    params: ChemostatParams,
    init: InitialHistory,
    tol: float = 1e-9,
    max_periods: int = 400,
):
    """Iterate the period map from `init` until it closes or washes out.

    After each period the full (r+1)-step state window is compared with
    the previous one in sup norm; a residual below tol means the period
    map has reached its fixed point, and one more closed-loop period is
    integrated to verify and extract the profile.  If |x| stays at or
    below EXTINCTION_FLOOR * sup z (on a zero feed, times the largest
    initial value, so an all-zero state is a washout) for a whole period
    the run is declared a washout convergence instead.  A state window
    that is not finite at the end of a period raises ConvergenceError at
    once, with a nan residual.  Only the state window and the period
    being integrated are kept, so memory does not grow with the number of
    periods.  Returns PeriodicOrbit or WashoutConvergence.
    """
    _validate_tol(tol)
    max_periods = _validate_integer("max_periods must be >= 1", max_periods, 1, UsageError)
    omega = params.input.period
    if omega is None:
        raise UsageError("find_periodic_orbit requires a periodic input signal")
    z = washout_periodic(params)

    r = params.r
    s, x, ps = _initial_state(params, init)
    # every period starts at a multiple of omega, so one sampled period
    # drives them all
    feed = params.input.sample(0, omega - 1).tolist()
    window = r + 1
    # a zero feed has z = 0: the initial state sets the substrate scale and
    # the washout floor instead, which would otherwise be 1e-300 and 0
    scale = z.z_sup if z.z_sup != 0.0 else max(init.s + init.x)
    s_scale = max(scale, 1e-300)
    end = np.array(s[-window:]), np.array(x[-window:])
    for n in range(1, max_periods + 1):
        # a period reads only the state window: drop what lies before it
        del s[:-window], x[:-window], ps[:-window]
        _integrate(params, s, x, ps, feed)
        prev, end = end, (np.array(s[-window:]), np.array(x[-window:]))
        if not np.isfinite(end).all():
            # no later period can close: stop before the budget goes on nan arithmetic
            raise ConvergenceError(f"period map left the doubles: the state at the end of period {n} "
                                   "is not finite (residual nan)", residual=math.nan)
        # biomass residual is measured against its own scale: a geometric
        # extinction tail keeps a constant relative step and is never
        # mistaken for orbit closure no matter how small it gets
        x_scale = max(float(np.max(end[1])), float(np.max(prev[1])), 1e-300)
        residual = _gap(end, prev, s_scale, x_scale)

        if np.all(np.abs(x[-omega:]) <= EXTINCTION_FLOOR * scale):
            return WashoutConvergence(
                washout=z, periods_used=n, max_x_last_period=max(x[-omega:])
            )
        if residual < tol:
            # closed-loop verification period: re-integrate and compare
            # the whole period, not just the end window
            old = np.array(s[-omega:]), np.array(x[-omega:])
            _integrate(params, s, x, ps, feed)
            new_s, new_x = np.array(s[-omega:]), np.array(x[-omega:])
            closure = _gap((new_s, new_x), old, s_scale, max(float(np.max(new_x)), 1e-300))
            # every period ends at a multiple of omega, so the last omega
            # entries sit at phases 1 .. omega-1, 0; roll so that
            # index = phase t % omega
            return PeriodicOrbit(
                period=omega,
                s=np.roll(new_s, 1),
                x=np.roll(new_x, 1),
                residual=closure,
                delta=float(np.min(new_x)),
                periods_used=n + 1,
            )
    raise ConvergenceError(
        f"period map did not close within {max_periods} periods "
        f"(last residual {residual:.3e})",
        residual=residual,
    )


@frozen
class AttractionRate:
    """Fitted geometric rate of trajectory convergence.

    rho = exp(slope) of the least-squares line through log|gap| against t.
    The biomass gap is the primary quantity; the substrate-gap rate rho_s
    is reported as a diagnostic.  identical is set when both gaps vanish
    everywhere; if only the biomass gap vanishes identically the substrate
    rate is promoted to rho (note says so)."""

    rho: float
    slope: float
    n_points: int
    r_squared: float
    rho_s: float | None
    identical: bool = False
    note: str = ""


def _fit_rate(gap, t0, floor):
    """Least-squares slope of log(gap) over [t0, first sub-floor index)."""
    gap = np.asarray(gap, dtype=float)
    below = np.flatnonzero(gap[t0:] < floor)
    stop = t0 + int(below[0]) if below.size else len(gap)
    tt = np.arange(t0, stop)
    if len(tt) < 2:
        return None
    logs = np.log(gap[t0:stop])
    slope, intercept = np.polyfit(tt, logs, 1)
    fitted = slope * tt + intercept
    ss_res = float(np.sum((logs - fitted) ** 2))
    ss_tot = float(np.sum((logs - np.mean(logs)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), len(tt), r2


def attraction_rate(
    traj_a: Trajectory,
    traj_b: Trajectory,
    burn_in: int = 0,
) -> AttractionRate:
    """Measure the geometric rate at which two runs approach each other."""
    if traj_a.params != traj_b.params:
        raise UsageError("attraction_rate needs two runs of the same system")
    horizon = min(traj_a.horizon, traj_b.horizon)
    burn_in = _validate_integer("burn_in must be an integer", burn_in, -math.inf, UsageError)
    if not 0 <= burn_in < horizon:
        raise UsageError(f"burn_in {burn_in} outside [0, horizon={horizon})")

    gx = np.abs(traj_a.x.window(0, horizon) - traj_b.x.window(0, horizon))
    gs = np.abs(traj_a.s.window(0, horizon) - traj_b.s.window(0, horizon))

    fit_x = _fit_rate(gx, burn_in, GAP_FLOOR)
    fit_s = _fit_rate(gs, burn_in, GAP_FLOOR)
    rho_s = math.exp(fit_s[0]) if fit_s else None

    if fit_x is None and fit_s is None:
        return AttractionRate(
            rho=0.0, slope=-math.inf, n_points=0, r_squared=1.0,
            rho_s=None, identical=True, note="trajectories coincide",
        )
    if fit_x is None:
        slope, n, r2 = fit_s
        return AttractionRate(
            rho=rho_s, slope=slope, n_points=n, r_squared=r2, rho_s=rho_s,
            note="biomass gap identically zero; rate fitted on the substrate gap",
        )
    slope, n, r2 = fit_x
    return AttractionRate(
        rho=math.exp(slope), slope=slope, n_points=n, r_squared=r2, rho_s=rho_s
    )


# ---------------------------------------------------------------------------
# the neither-persistent-nor-extinct demonstration
# ---------------------------------------------------------------------------


@frozen
class BlockEndCheck:
    n: int
    t: int
    x_value: float
    threshold: float
    ok: bool


@frozen
class NeitherNorReport:
    """Outcome of the dyadic-blocks demonstration.

    check_a: biomass at the end of each high block [4**n, 2*4**n) against
    the floor (1-E)**(2(r+1)) * x0.  check_b: infima of x over the low
    blocks, which should decrease as the low blocks lengthen.  check_c:
    classification of the (non-periodic) input, expected Inconclusive.
    The feasibility report and the first negative-substrate time document
    that this regime sits outside the positivity hypotheses; trivial is
    set when the biomass history is identically zero.
    """

    trivial: bool
    params: ChemostatParams | None = None
    feasibility: object = None
    check_a: tuple = ()
    check_a_ok: bool | None = None
    low_block_infima: tuple = ()
    check_b_ok: bool | None = None
    classification: ClassificationReport | None = None
    check_c_ok: bool | None = None
    first_negative_s: int | None = None
    nonfinite_states: int = 0

    @property
    def all_ok(self):
        return bool(self.check_a_ok and self.check_b_ok and self.check_c_ok)


def neither_nor_demo(
    E: float,
    r: int,
    n_max: int,
    x_init: float | None = None,
) -> NeitherNorReport:
    """Simulate the dyadic-blocks construction and evaluate its claims.

    Uses p(s) = s and the alternating input that is huge on [4**n, 2*4**n)
    and E/2 elsewhere, integrating up to 2**(2*n_max+1) + r from the
    substrate level E/2 and the biomass level x_init (default 0.01).  The
    input deliberately violates the positivity hypotheses, so the report
    carries the feasibility flags and any negative-substrate or overflow
    evidence along with the checks.
    """
    signal = DyadicBlocks(E, r)  # validates E, r and guards the high value
    params = ChemostatParams(E=float(E), r=int(r), uptake=LinearUptake(1.0), input=signal)
    n_max = _validate_integer("n_max must be in [1, 9]", n_max, 1, UsageError)
    if n_max > 9:
        # the classification's Bohl scan costs ~16x more per unit of n_max:
        # 8 takes 2 s and 9 takes 43 s on a 2-vCPU Xeon, 30 exceeds any memory
        raise UsageError(f"n_max must be in [1, 9], got {n_max}")
    if x_init is None:
        x_init = 0.01
    init = InitialHistory.constant(params.r, E / 2.0, x_init)
    if all(v == 0.0 for v in init.x):
        return NeitherNorReport(trivial=True, params=params)

    horizon = 2 ** (2 * n_max + 1) + params.r
    z = washout_sequence(params, horizon)
    traj = simulate(params, init, horizon)
    feas = check_positivity_preconditions(params, init, z)

    x0 = traj.x.at(0)
    threshold = (1.0 - params.E) ** (2 * (params.r + 1)) * x0
    checks = []
    for n in range(0, n_max + 1):
        t = 2 * 4**n
        val = traj.x.at(t)
        checks.append(
            BlockEndCheck(
                n=n, t=t, x_value=val, threshold=threshold,
                ok=bool(math.isfinite(val) and val >= threshold),
            )
        )
    check_a_ok = all(c.ok for c in checks)

    infima = []
    for n in range(0, n_max):
        block = traj.x.window(2 * 4**n, 4 ** (n + 1))
        infima.append(float(np.min(block)))
    finite = all(math.isfinite(v) for v in infima)
    decreasing = finite and all(b < a for a, b in zip(infima, infima[1:]))
    check_b_ok = bool(decreasing) if infima else None

    window_min = max(params.r + 1, horizon // 8)
    classification = classify(params, horizon=horizon, window_min=window_min)
    check_c_ok = classification.verdict == INCONCLUSIVE

    nonfinite = int(np.sum(~np.isfinite(traj.x.values)) + np.sum(~np.isfinite(traj.s.values)))
    return NeitherNorReport(
        trivial=False,
        params=params,
        feasibility=feas,
        check_a=tuple(checks),
        check_a_ok=check_a_ok,
        low_block_infima=tuple(infima),
        check_b_ok=check_b_ok,
        classification=classification,
        check_c_ok=check_c_ok,
        first_negative_s=traj.first_negative_s,
        nonfinite_states=nonfinite,
    )
