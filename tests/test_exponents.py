import decimal
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chemodde import (
    ChemostatParams,
    Constant,
    ConvergenceError,
    DomainError,
    DyadicBlocks,
    ExplicitSequence,
    InitialHistory,
    LinearUptake,
    Monod,
    ParameterError,
    Sinusoid,
    TabulatedUptake,
    UsageError,
    bohl_bounds,
    correction_recursion,
    periodic_phi,
    phi_sequence,
    psi_sequence,
    reconstruct_biomass,
    simulate,
    washout_periodic,
    washout_sequence,
)
from chemodde import exponents
from chemodde.cli import fig1_params, fig2_init, fig2_params

from conftest import random_feasible_instance
from test_recurrence import _plain_recursion

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_params():
    # r = 1 with constant p(z) = 1 makes the correction ratio solve
    # phi = 1/(1 + phi), whose positive root is (sqrt(5)-1)/2
    return ChemostatParams(E=0.3, r=1, uptake=LinearUptake(1.0), input=Constant(1.0))


# ---------------------------------------------------------------------------
# phi
# ---------------------------------------------------------------------------


def test_r0_collapses_to_ones():
    params = ChemostatParams(E=0.2, r=0, uptake=Monod(1.0, 1.0), input=Constant(1.0))
    z = washout_sequence(params, horizon=100)
    corr = phi_sequence(params, z, horizon=100)
    assert np.all(corr.phi.values == 1.0)
    assert corr.cross_check_error == 0.0

    traj = simulate(params, InitialHistory(s=(0.3,), x=(0.2,)), horizon=100)
    psi = psi_sequence(traj)
    assert np.all(psi.values == 1.0)


def test_golden_ratio_fixed_point():
    params = golden_params()
    z = washout_sequence(params, horizon=200)
    corr = phi_sequence(params, z, horizon=200)
    assert abs(corr.phi.at(200) - GOLDEN) < 1e-10
    prof = periodic_phi(params, washout_periodic(params))
    assert abs(prof.phi[0] - GOLDEN) < 1e-10


def test_fixed_point_identity():
    # phi[t+1] * prod_{k=t+1-r}^{t} (1 + phi[k] p(z[k])) = 1
    params = fig2_params(0.6)
    z = washout_periodic(params)
    corr = phi_sequence(params, z, horizon=400)
    p = params.uptake.evaluate
    for t in range(0, 400):
        prod = corr.phi.at(t + 1)
        for k in range(t + 1 - params.r, t + 1):
            prod *= 1.0 + corr.phi.at(k) * p(z.at(k))
        assert abs(prod - 1.0) <= 1e-10


def test_dual_construction_agreement(rng):
    for _ in range(10):
        params, _, z = random_feasible_instance(rng, horizon=400)
        corr = phi_sequence(params, z, horizon=400)
        assert corr.cross_check_error <= 1e-10


def test_phi_in_unit_interval(rng):
    for _ in range(10):
        params, _, z = random_feasible_instance(rng, horizon=300)
        corr = phi_sequence(params, z, horizon=300)
        assert np.all(corr.phi.values > 0.0)
        assert np.all(corr.phi.values <= 1.0 + 1e-14)


@st.composite
def _growth_cases(draw):
    """(params, z, horizon): any uptake kind and a constant, sinusoidal or
    sequence feed, with the periodic washout where the feed has a period
    and the draw asks for it."""
    E = draw(st.floats(0.05, 0.9))
    r = draw(st.integers(0, 8))
    horizon = draw(st.integers(r, r + 200))
    uptake = draw(st.sampled_from([
        Monod(1.0, 1.0), LinearUptake(0.4), TabulatedUptake((0.0, 1.0, 2.0), (0.0, 0.5, 0.8)),
    ]))
    feed = draw(st.sampled_from([
        Constant(0.7),
        Sinusoid(amplitude=0.25, period_steps=draw(st.integers(1, 30)), offset=0.6),
        ExplicitSequence(values=(0.4, 0.9, 0.6), periodic=draw(st.booleans())),
    ]))
    params = ChemostatParams(E=E, r=r, uptake=uptake, input=feed)
    periodic = feed.period is not None and draw(st.booleans())
    z = washout_periodic(params) if periodic else washout_sequence(params, horizon)
    return params, z, horizon


@settings(max_examples=60, deadline=None)
@given(_growth_cases())
def test_growth_is_the_growth_factor_expression(case):
    params, z, horizon = case
    r = params.r
    corr = phi_sequence(params, z, horizon)
    expect = (1.0 - params.E) * (1.0 + corr.phi.values * params.uptake.evaluate(z.window(-r, horizon)))
    assert corr.growth.t_start == corr.phi.t_start == -r
    assert corr.growth.values.tobytes() == expect.tobytes()


def _phi_sequence_indexed(params, z, horizon):
    """phi on [-r, horizon] from the log-c generator, reading and writing
    log c one numpy scalar at a time: an oracle independent of the
    fixed-point recursion."""
    r = params.r
    omE = 1.0 - params.E
    lomE = math.log(omE)
    omE_r = omE**r
    pz = params.uptake.evaluate(z.window(-r, horizon)).tolist()
    log_c = np.empty(horizon + 2 * r + 1)
    log_c[: r + 1] = 0.0  # c = 1 on [-r, 0]
    for t in range(0, horizon + r):
        i = t + r
        ratio = math.exp(log_c[i - r] - log_c[i]) * omE_r
        log_c[i + 1] = log_c[i] + lomE + math.log1p(pz[t] * ratio)
    return np.exp(log_c[: horizon + r + 1] - log_c[r:]) * omE_r


def _closed_form_seed(params, pz):
    """phi on [-r, 0], phi[k] = (1-E)**-k / (1 + sum_{j<k+r} (1-E)**(r-j) p(z[j-r])),
    one Python float at a time; pz[j] is p(z[j - r])."""
    r = params.r
    omE = 1.0 - params.E
    seed, total = [], 0.0
    for i in range(r + 1):
        seed.append(omE ** (r - i) / (1.0 + total))
        if i < r:
            total += omE ** (r - i) * pz[i]
    return np.array(seed)


def _plain_phi(params, z, horizon):
    """phi on [-r, horizon]: the closed-form seed, then one plain
    fixed-point pass over every factor; all ones for r = 0."""
    r = params.r
    if r == 0:
        return np.ones(horizon + 1)
    pz = params.uptake.evaluate(z.window(-r, horizon))
    seed = _closed_form_seed(params, pz)
    if horizon == 0:
        return seed
    return np.concatenate([seed[:1], _plain_recursion(pz[1 : horizon + r], seed[1:])])


def _residual_oracle(phi, f, r):
    """max |phi[i+r] * prod_{k=i}^{i+r-1} (1 + phi[k] f[k]) - 1| over
    i >= 1, each window multiplied out left to right."""
    worst = 0.0
    for i in range(1, len(phi) - r):
        worst = max(worst, abs(phi[i + r] * math.prod(1.0 + phi[k] * f[k] for k in range(i, i + r)) - 1.0))
    return worst


@st.composite
def _generator_cases(draw):
    E = draw(st.floats(0.01, 0.95))
    r = draw(st.integers(0, 12))
    horizon = draw(st.integers(0, 300))
    uptake = draw(st.sampled_from([
        Monod(1.0, 1.0), Monod(2.5, 0.3), LinearUptake(0.4), LinearUptake(3.0),
        TabulatedUptake((0.0, 1.0, 2.0), (0.0, 0.5, 0.8)),
    ]))
    feed = draw(st.sampled_from([
        Constant(0.7),
        Sinusoid(amplitude=0.25, period_steps=draw(st.integers(1, 30)), offset=0.6),
        ExplicitSequence(values=(0.4, 0.9, 0.6, 2.5), periodic=True),
    ]))
    return _generator_case(E, r, uptake, feed, horizon)


def _generator_case(E, r, uptake, feed, horizon):
    params = ChemostatParams(E=E, r=r, uptake=uptake, input=feed)
    return params, washout_sequence(params, horizon + r), horizon


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_generator_cases())
@example(_generator_case(0.3, 0, Monod(1.0, 1.0), Constant(0.7), 0))
@example(_generator_case(0.3, 4, LinearUptake(0.4), Constant(0.7), 0))
@example(_generator_case(0.2, 0, TabulatedUptake((0.0, 1.0), (0.0, 0.5)), Constant(0.7), 40))
def test_phi_sequence_matches_indexed_generator(case):
    # bit for bit the closed-form seed and one plain pass.  The log-c
    # generator's phi is off by a few ulp(log c) (up to 2.7 here), and
    # |log c| <= (horizon + 2r) * |log(1 - 0.95)| < 1000 on these cases
    params, z, horizon = case
    r = params.r
    corr = phi_sequence(params, z, horizon)
    phi = _plain_phi(params, z, horizon)
    pz = params.uptake.evaluate(z.window(-r, horizon))
    growth = (1.0 - params.E) * (1.0 + phi * pz)
    for got, want in ((corr.phi, phi), (corr.growth, growth)):
        assert got.t_start == -r
        assert got.values.view(np.int64).tolist() == want.view(np.int64).tolist()
    assert corr.cross_check_error <= 1e-14
    assert corr.cross_check_error == pytest.approx(_residual_oracle(phi, pz, r), abs=4 * r * 2.0**-52)
    log_form = _phi_sequence_indexed(params, z, horizon)
    np.testing.assert_allclose(corr.phi.values, log_form, rtol=8 * 1000 * 2.0**-52, atol=0.0)


def _decimal_phi(params, z, horizon):
    """phi on [-r, horizon] from a 60-digit decimal run of the comparison
    equation c[t+1] = (1-E) c[t] + c[t-r] p(z[t-r]) (1-E)**(r+1) from
    c = 1 on [-r, 0], on the float values of p(z)."""
    r = params.r
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        omE = 1 - decimal.Decimal(params.E)
        lift = omE ** (r + 1)
        pz = [decimal.Decimal(v) for v in params.uptake.evaluate(z.window(-r, horizon)).tolist()]
        c = [decimal.Decimal(1)] * (r + 1)  # list index i holds c[i - r]
        for t in range(horizon + r):
            c.append(omE * c[-1] + c[t] * pz[t] * lift)
        return np.array([float(c[i] / c[i + r] * omE**r) for i in range(horizon + r + 1)])


@pytest.mark.parametrize("params, horizon", [(fig1_params(), 4000), (fig2_params(0.45), 3000)])
def test_phi_sequence_matches_a_decimal_run_of_the_comparison_equation(params, horizon):
    # the log-c generator read 1.6e-13 on the ramp: its ulp(log c) grows
    # with the horizon, while the fixed-point pass stays within a few ulps
    z = washout_sequence(params, horizon)
    got = phi_sequence(params, z, horizon).phi.values
    np.testing.assert_allclose(got, _decimal_phi(params, z, horizon), rtol=1e-14, atol=0.0)


@st.composite
def _residual_cases(draw):
    r = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = r + 1 + draw(st.integers(0, 40))
    return rng.uniform(0.01, 1.0, n), rng.uniform(0.0, 3.0, n), r


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_residual_cases())
def test_identity_residual_matches_a_window_loop(case):
    # on phi that does not solve the identity, so every window counts
    phi, f, r = case
    assert exponents._identity_residual(phi, f, r) == pytest.approx(_residual_oracle(phi, f, r), rel=1e-13)


def test_phi_needs_washout_coverage():
    params = fig2_params(0.6)
    z = washout_sequence(params, horizon=50)
    with pytest.raises(UsageError):
        phi_sequence(params, z, horizon=100)


def _direct_oracle(f, seed):
    """The direct recursion with every window product rebuilt left to
    right, O(r) per step: phi[j+1] = prod_{i=j+1-r}^{j} (1 + phi[i] f[i])**-1
    for j = r-1 .. len(f)-1, after the r seed values."""
    r = len(seed)
    phi = [float(v) for v in seed]
    for j in range(r - 1, len(f)):
        prod = 1.0
        for i in range(j + 1 - r, j + 1):
            prod *= 1.0 + phi[i] * f[i]
        phi.append(1.0 / prod)
    return phi


@st.composite
def _recursion_cases(draw):
    r = draw(st.integers(0, 120))
    n = draw(st.integers(max(r - 1, 0), r + 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f = rng.uniform(0.0, draw(st.sampled_from([0.1, 1.0, 2.5, 10.0])), size=n)
    seed = rng.uniform(0.05, 1.0, size=r)
    return f, seed


@given(_recursion_cases())
@example(([1.0] * 169, np.full(120, 0.5)))  # r beyond the horizon
@example(([0.3] * 79, np.linspace(0.1, 1.0, 7)))  # partial last block
@example(([2.0] * 30, np.ones(1)))
@example(([0.7] * 5, np.ones(6)))  # seed only: r = len(f) + 1
@example(([0.7] * 3, []))  # r = 0: all ones
@settings(max_examples=150, deadline=None)
def test_correction_recursion_matches_direct_oracle(case):
    f, seed = case
    got = correction_recursion(f, seed)
    want = _direct_oracle(f, seed)
    assert len(got) == len(want) == len(f) + 1
    assert got[: len(seed)].tolist() == list(seed)
    assert got == pytest.approx(want, rel=1e-13, abs=0.0)


def test_correction_recursion_reads_f_only_inside_the_horizon():
    # phi[0..m] depends on f[0..m-1] only: a prefix of f gives a prefix of phi
    f = np.random.default_rng(3).uniform(0.0, 2.0, 40)
    full = correction_recursion(f, [1.0, 0.5, 0.25])
    for m in (2, 3, 10, 39):
        assert correction_recursion(f[:m], [1.0, 0.5, 0.25]).tolist() == full[: m + 1].tolist()


def test_correction_recursion_rejects_bad_delay_and_seed():
    with pytest.raises(UsageError, match="at least r - 1 = 3 values, got 2"):
        correction_recursion([1.0, 1.0], [1.0] * 4)
    with pytest.raises(UsageError, match="one-dimensional"):
        correction_recursion([[1.0, 1.0]], [1.0])
    for bad in (math.nan, math.inf, 0.0, -0.5):
        with pytest.raises(DomainError, match=r"seed phi\[1\]"):
            correction_recursion([1.0] * 10, [1.0, bad, 1.0])
    assert correction_recursion([1.0] * 3, []).tolist() == [1.0, 1.0, 1.0, 1.0]


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_correction_recursion_rejects_bad_factors(bad):
    # f = -1 with phi = 1 made a window product 0 (a bare ZeroDivisionError);
    # nan and inf made NaN phi
    with pytest.raises(DomainError, match=r"f\[2\] = .* not finite and nonnegative"):
        correction_recursion([0.5, 0.5, bad, bad, 0.5], [1.0, 1.0])


# ---------------------------------------------------------------------------
# psi and the biomass product formula
# ---------------------------------------------------------------------------


def test_psi_settles_at_survival_fraction():
    # persistent constant regime: growth ratio tends to 1, so
    # psi = (x[t]/x[t+r]) (1-E)**r tends to (1-E)**r
    params = ChemostatParams(E=0.2, r=1, uptake=LinearUptake(0.4), input=Constant(1.0))
    traj = simulate(params, InitialHistory.constant(1, 0.4, 0.3), horizon=3000)
    psi = psi_sequence(traj)
    assert abs(psi.at(2999) - 0.8) < 1e-6


def test_psi_zero_biomass_names_index():
    params = ChemostatParams(E=0.2, r=1, uptake=LinearUptake(0.4), input=Constant(1.0))
    traj = simulate(params, InitialHistory(s=(0.4, 0.4), x=(0.0, 0.3)), horizon=10)
    with pytest.raises(DomainError, match="t=-1"):
        psi_sequence(traj)


def test_reconstruct_matches_simulation_r0(rng):
    params = ChemostatParams(E=0.2, r=0, uptake=Monod(0.8, 1.0), input=Constant(1.0))
    traj = simulate(params, InitialHistory(s=(0.4,), x=(0.3,)), horizon=10)
    xr = reconstruct_biomass(traj, psi_sequence(traj))
    rel = np.abs(xr.values - traj.x.values) / traj.x.values
    assert np.max(rel) <= 1e-12


def test_reconstruct_matches_simulation_fig2():
    params = fig2_params(0.6)
    traj = simulate(params, fig2_init(), horizon=2000)
    xr = reconstruct_biomass(traj, psi_sequence(traj))
    x = traj.x.window(0, 2000)
    assert np.max(np.abs(xr.values - x) / x) <= 1e-9


def test_reconstruct_zero_start_is_zero():
    params = ChemostatParams(E=0.2, r=1, uptake=LinearUptake(0.4), input=Constant(1.0))
    traj = simulate(params, InitialHistory(s=(0.4, 0.4), x=(0.3, 0.0)), horizon=20)
    # x0 = 0 cannot seed the product form; psi is undefined, and the
    # reconstruction contract returns the all-zero sequence
    from chemodde.series import TimeSeries

    psi = TimeSeries(np.ones(22), t_start=-1)
    xr = reconstruct_biomass(traj, psi)
    assert np.all(xr.values == 0.0)


# ---------------------------------------------------------------------------
# windowed geometric-mean bounds
# ---------------------------------------------------------------------------


def test_bohl_constant_sequence():
    est = bohl_bounds(np.full(400, 1.07), window_min=20)
    assert math.isclose(est.lower, 1.07, rel_tol=1e-12)
    assert math.isclose(est.upper, 1.07, rel_tol=1e-12)


def test_bohl_alternating_sequence():
    a, b = 1.3, 0.8
    n, T = 2000, 60
    seq = np.where(np.arange(n) % 2 == 0, a, b)
    est = bohl_bounds(seq, window_min=T)
    mid = math.sqrt(a * b)
    # odd windows carry one unpaired factor; deviation <= |log(a/b)|/(2T)
    bound = mid * (math.exp(abs(math.log(a / b)) / (2 * (T + 1))) - 1.0)
    assert abs(est.lower - mid) <= bound * 1.01
    assert abs(est.upper - mid) <= bound * 1.01
    assert est.lower <= est.upper


def test_bohl_dyadic_blocks_straddles_one():
    # r = 0 and p(s) = s make the growth factor (1-E)(1+z): low blocks pull
    # the window mean below 1, high blocks push it above
    E, r = 0.5, 0
    params = ChemostatParams(E=E, r=r, uptake=LinearUptake(1.0), input=DyadicBlocks(E, r))
    horizon = 2**14
    z = washout_sequence(params, horizon)
    est = bohl_bounds(phi_sequence(params, z, horizon).growth, window_min=50)
    assert est.lower < 1.0 < est.upper


def _bohl_oracle(vals, window_min, gap_min):
    """Exhaustive scan over every window pair (t1, t2] with t1 > gap_min and
    t2 - t1 > window_min; returns the extreme window geometric means."""
    prefix = np.concatenate([[0.0], np.cumsum(np.log(vals))])
    n = len(vals)
    lo, hi = np.inf, -np.inf
    for t1 in range(gap_min + 1, n - window_min - 1):
        t2 = np.arange(t1 + window_min + 1, n)
        means = (prefix[t2 + 1] - prefix[t1 + 1]) / (t2 - t1)
        lo = min(lo, float(means.min()))
        hi = max(hi, float(means.max()))
    return math.exp(lo), math.exp(hi)


@st.composite
def _bohl_cases(draw):
    window_min = draw(st.integers(1, 40))
    gap_min = draw(st.integers(0, 40))
    n = draw(st.integers(gap_min + window_min + 3, gap_min + window_min + 300))
    kind = draw(st.sampled_from(["random", "constant", "alternating"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        vals = np.exp(rng.normal(0.0, draw(st.sampled_from([1e-3, 0.05, 1.0])), size=n))
    elif kind == "constant":
        vals = np.full(n, rng.uniform(0.5, 2.0))
    else:
        vals = np.where(np.arange(n) % 2 == 0, rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
    return vals, window_min, gap_min


@given(_bohl_cases())
@settings(max_examples=200, deadline=None)
def test_bohl_matches_exhaustive_scan(case):
    vals, window_min, gap_min = case
    est = bohl_bounds(vals, window_min, gap_min)
    lower, upper = _bohl_oracle(vals, window_min, gap_min)
    assert est.lower == pytest.approx(lower, rel=1e-12)
    assert est.upper == pytest.approx(upper, rel=1e-12)
    assert (est.window_min, est.gap_min, est.horizon) == (window_min, gap_min, len(vals) - 1)


def test_bohl_exact_above_6000_samples():
    # the former 64-length ladder, used above 6000 samples, reported
    # lower = 0.98221 and upper = 1.01758 here; both miss the true extremes
    seq = np.exp(np.random.default_rng(0).normal(0.0, 0.05, size=6200))
    est = bohl_bounds(seq, window_min=70)
    lower, upper = _bohl_oracle(seq, 70, 70)
    assert est.lower == pytest.approx(lower, rel=1e-12)
    assert est.upper == pytest.approx(upper, rel=1e-12)
    assert est.lower < 0.98200 and est.upper > 1.01770
    assert bohl_bounds(seq, window_min=70, method="full") == est


@pytest.mark.parametrize("call, message", [
    (lambda p: phi_sequence(p, washout_sequence(p, 50), horizon=-1), "horizon must be >= 0, got -1"),
    (lambda p: periodic_phi(p, washout_sequence(p, 50)), "periodic_phi requires a periodic washout solution"),
    (lambda p: reconstruct_biomass(simulate(p, fig2_init(), 40), psi_sequence(simulate(p, fig2_init(), 30))),
     "psi must cover [-5, 35]"),
])
def test_exponents_usage_errors_name_the_rule(call, message):
    with pytest.raises(UsageError) as err:
        call(fig2_params(0.6))
    assert str(err.value) == message


def test_bohl_domain_and_usage_errors():
    for bad in (-0.5, math.inf, math.nan):
        with pytest.raises(DomainError, match="position 1 "):
            bohl_bounds(np.array([1.0, bad] + [1.0] * 200), window_min=10)
    with pytest.raises(UsageError):
        bohl_bounds(np.ones(30), window_min=20)
    with pytest.raises(UsageError, match="windowed"):
        bohl_bounds(np.ones(300), window_min=10, method="windowed")
    # a negative gap_min used to broadcast-fail (-5) or scan windows that
    # wrap around the end of the sequence (-100: upper 1.0158, not 1.0388)
    seq = np.random.default_rng(0).uniform(0.9, 1.1, 400)
    for gap_min in (-1, -5, -100):
        with pytest.raises(UsageError, match="gap_min must be >= 0"):
            bohl_bounds(seq, window_min=20, gap_min=gap_min)


# ---------------------------------------------------------------------------
# periodic correction profile and geometric mean
# ---------------------------------------------------------------------------


def test_periodic_phi_r0_single_sweep():
    params = ChemostatParams(E=0.2, r=0, uptake=Monod(1.0, 1.0), input=Constant(1.0))
    prof = periodic_phi(params, washout_periodic(params))
    assert prof.sweeps == 1
    assert np.all(prof.phi == 1.0)


def test_periodic_phi_satisfies_identity_everywhere():
    params = fig2_params(0.6)
    z = washout_periodic(params)
    prof = periodic_phi(params, z, tol=1e-12)
    p = params.uptake.evaluate
    omega, r = prof.period, params.r
    for t in range(omega):
        prod = prof.phi[(t + 1) % omega]
        for k in range(t + 1 - r, t + 1):
            prod *= 1.0 + prof.phi[k % omega] * p(z.at(k))
        assert abs(prod - 1.0) <= 1e-10


@st.composite
def _periodic_cases(draw):
    r = draw(st.integers(1, 40))
    shape = draw(st.sampled_from(["below", "equal", "multiple", "any"]))
    if shape == "below":
        omega = draw(st.integers(1, r))
    elif shape == "equal":
        omega = r
    elif shape == "multiple":
        omega = r * draw(st.integers(2, max(2, 120 // r)))
    else:
        omega = draw(st.integers(1, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    feed = rng.uniform(0.2, 1.5, size=omega)
    uptake = Monod(p_max=float(rng.uniform(0.1, 2.0)), k_s=float(rng.uniform(0.2, 3.0)))
    params = ChemostatParams(
        E=float(rng.uniform(0.01, 0.5)), r=r, uptake=uptake,
        input=ExplicitSequence(values=tuple(feed), periodic=True),
    )
    return params


def _constant_feed_params(r):
    return ChemostatParams(
        E=0.475, r=r, uptake=Monod(p_max=1.9, k_s=0.6),
        input=ExplicitSequence(values=(0.865,), periodic=True),
    )


@given(_periodic_cases())
@example(fig2_params(0.6))
# omega = 1 < r: stopping when one sweep (one step) changes by less than
# tol left the identity off by 2.5e-10 at r = 4 and 7.9e-8 at r = 28
@example(_constant_feed_params(4))
@example(_constant_feed_params(28))
@settings(max_examples=60, deadline=None)
def test_periodic_phi_matches_oracle_sweeps(params):
    z = washout_periodic(params)
    prof = periodic_phi(params, z)
    omega, r = prof.period, params.r
    pz = params.uptake.evaluate(z.window(0, omega - 1)).tolist()
    # the former periodic_phi: the direct recursion from phi = 1 on [1-r, 0],
    # sweep s filling phases (t+1) % omega for t in [(s-1)*omega, s*omega)
    n = prof.sweeps * omega
    f = [pz[k % omega] for k in range(1 - r, n)]
    phi = dict(zip(range(1 - r, n + 1), _direct_oracle(f, [1.0] * r)))  # keyed by time
    want = np.roll([phi[t] for t in range(n - omega + 1, n + 1)], 1)
    assert np.max(np.abs(prof.phi - want)) <= 1e-13
    # residual: the max(omega, r) values before the last sweep against the
    # last sweep at their phases
    before = range(n - omega - max(omega, r) + 1, n - omega + 1)
    residual = max(abs(phi[t] - want[t % omega]) for t in before)
    assert abs(prof.residual - residual) <= 1e-13
    for t in range(omega):
        prod = prof.phi[(t + 1) % omega]
        for k in range(t + 1 - r, t + 1):
            prod *= 1.0 + prof.phi[k % omega] * pz[k % omega]
        assert abs(prod - 1.0) <= 1e-10


def test_periodic_phi_agrees_with_sequence_tail():
    params = fig2_params(0.6)
    z = washout_periodic(params)
    prof = periodic_phi(params, z)
    corr = phi_sequence(params, z, horizon=2500)
    for t in range(2000, 2501):
        assert abs(corr.phi.at(t) - prof.phi[t % 500]) <= 1e-9


def _range_case(E, r, horizon):
    """Monod(1, 1) on the fig1 ramp, or for horizon 0 on a zero feed, where
    p(z) = 0 makes c fall by exactly (1-E) a step."""
    feed = fig1_params().input if horizon else Constant(0.0)
    params = ChemostatParams(E=E, r=r, uptake=Monod(1.0, 1.0), input=feed)
    return params, washout_sequence(params, max(horizon, r)), horizon


# (1-E) * e = 1: on the zero feed c[t-r] / c[t] reaches e**r, past the
# doubles for r = 710, while phi[-r] = (1-E)**r = 4.476e-309 is subnormal
E_INV_E = 1.0 - math.exp(-1.0)


@pytest.mark.parametrize("E, r, horizon", [(0.5, 1100, 2000), (0.99, 200, 2000)])
def test_phi_generator_outside_the_doubles_is_a_domain_error(E, r, horizon):
    with pytest.raises(DomainError, match=rf"at E = {E}, r = {r}, where \(1-E\)\*\*r = "):
        phi_sequence(*_range_case(E, r, horizon))


@pytest.mark.parametrize("E, r, horizon", [(0.99, 150, 2000), (E_INV_E, 709, 0), (E_INV_E, 710, 0), (E_INV_E, 710, 50)])
def test_phi_generator_just_inside_the_doubles_runs(E, r, horizon):
    corr = phi_sequence(*_range_case(E, r, horizon))
    assert np.all(np.isfinite(corr.phi.values)) and np.all(corr.phi.values > 0.0)
    assert corr.cross_check_error <= 1e-14


def test_periodic_phi_convergence_error_carries_residual(monkeypatch):
    monkeypatch.setattr(exponents, "MAX_SWEEPS", 1)
    params = fig2_params(0.6)
    with pytest.raises(ConvergenceError, match="within 1 sweeps") as err:
        periodic_phi(params, washout_periodic(params))
    assert err.value.residual is not None


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan])
def test_periodic_phi_rejects_bad_tolerance(tol):
    params = fig2_params(0.6)
    with pytest.raises(ParameterError):
        periodic_phi(params, washout_periodic(params), tol=tol)


def test_periodic_mean_r0_closed_form():
    # omega = 1 and phi = 1: the mean is exactly (1-E)(1+p(feed))
    params = ChemostatParams(E=0.2, r=0, uptake=LinearUptake(0.4), input=Constant(1.0))
    z = washout_periodic(params)
    prof = periodic_phi(params, z)
    mean = prof.mean
    assert math.isclose(mean, 0.8 * 1.4, rel_tol=1e-12)


def test_periodic_mean_reported_values():
    for offset, expected in ((0.6, 1.0217), (0.3, 0.9756)):
        params = fig2_params(offset)
        z = washout_periodic(params)
        prof = periodic_phi(params, z)
        assert abs(prof.mean - expected) <= 1e-3


def _periodic_mean_oracle(params, z, prof):
    """The former periodic_mean: p(z) evaluated again over one period, the
    growth factors (1-E) * (1 + phi * p(z)), and their geometric mean with
    the logs summed in phase order."""
    omega = z.period
    growth = (1.0 - params.E) * (1.0 + prof.phi * params.uptake.evaluate(z.window(0, omega - 1)))
    total = 0.0
    for a in growth.tolist():
        total += math.log(a)
    return math.exp(total / omega)


@st.composite
def _periodic_mean_cases(draw):
    """A periodic regime: a sinusoid or periodic-sequence feed of period
    1..60, Monod or tabulated uptake, r in 0..20."""
    r, period = draw(st.integers(0, 20)), draw(st.integers(1, 60))
    if draw(st.booleans()):
        amplitude = draw(st.floats(0.0, 0.5))
        feed = Sinusoid(amplitude=amplitude, period_steps=period, offset=amplitude + draw(st.floats(0.05, 1.5)))
    else:
        feed = ExplicitSequence(values=tuple(draw(st.lists(st.floats(0.0, 2.0), min_size=period, max_size=period))), periodic=True)
    if draw(st.booleans()):
        uptake = Monod(draw(st.floats(0.05, 3.0)), draw(st.floats(0.1, 3.0)))
    else:
        uptake = TabulatedUptake((0.0, 0.5, 1.5), (0.0, draw(st.floats(0.6, 1.5)), 1.6))  # first segment steepest
    return ChemostatParams(E=draw(st.floats(0.02, 0.6)), r=r, uptake=uptake, input=feed)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_periodic_mean_cases())
@example(fig2_params(0.42))
@example(ChemostatParams(E=0.2, r=0, uptake=LinearUptake(0.4), input=Constant(1.0)))
def test_periodic_phi_mean_matches_the_former_periodic_mean(params):
    z = washout_periodic(params)
    prof = periodic_phi(params, z)
    assert prof.mean.hex() == _periodic_mean_oracle(params, z, prof).hex()


def test_periodic_mean_brackets_window_bounds():
    # over a long horizon every window mean sits within O(omega/T) of the
    # one-period geometric mean, and the mean lies between lower and upper
    params = ChemostatParams(
        E=0.25, r=2, uptake=Monod(0.8, 1.0),
        input=Sinusoid(amplitude=0.2, period_steps=40, offset=0.7),
    )
    z = washout_periodic(params)
    prof = periodic_phi(params, z)
    mean = prof.mean
    growth = phi_sequence(params, z, horizon=4000).growth
    T = 200
    est = bohl_bounds(growth, window_min=T)
    logs = np.log(growth.values)
    slack = 2 * params.input.period * (logs.max() - logs.min()) / (T + 1)
    assert est.lower <= mean * (1 + 1e-12)
    assert est.upper >= mean * (1 - 1e-12)
    assert abs(math.log(est.lower) - math.log(mean)) <= slack
    assert abs(math.log(est.upper) - math.log(mean)) <= slack
