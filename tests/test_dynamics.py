import math
import tracemalloc

import numpy as np
import pytest

from chemodde import (
    ChemostatParams,
    Constant,
    DyadicBlocks,
    ExplicitSequence,
    InitialHistory,
    LinearUptake,
    Monod,
    Sinusoid,
    TabulatedUptake,
    UsageError,
    check_positivity_preconditions,
    conservation_deficit,
    correction_recursion,
    initial_stored_nutrient,
    phi_sequence,
    simulate,
    washout_periodic,
    washout_sequence,
)
from chemodde._records import replace
from chemodde.cli import fig1_init, fig1_params, fig2_init, fig2_params
from chemodde.dynamics import _initial_state, _integrate

from conftest import random_feasible_instance


def _half_linear():
    # E = 1/2, r = 1, p(s) = s/2, s0 = 1
    return ChemostatParams(E=0.5, r=1, uptake=LinearUptake(0.5), input=Constant(1.0))


def test_one_step_by_hand():
    # s1 = 0.5*1 + 0.5*(0.5 - 0.2*0.25) = 0.725
    # x1 = 0.5*0.2 + 0.2*0.25*0.25    = 0.1125
    traj = simulate(_half_linear(), InitialHistory(s=(0.5, 0.5), x=(0.2, 0.2)), horizon=1)
    assert math.isclose(traj.s.at(1), 0.725, rel_tol=1e-15)
    assert math.isclose(traj.x.at(1), 0.1125, rel_tol=1e-15)


def test_zero_biomass_reduces_to_washout():
    params = _half_linear()
    init = InitialHistory(s=(0.3, 0.3), x=(0.0, 0.0))
    traj = simulate(params, init, horizon=200)
    assert np.all(traj.x.values == 0.0)
    z = washout_sequence(params, horizon=200)
    # the linear substrate equation forgets its start geometrically
    assert abs(traj.s.at(200) - z.at(200)) <= abs(0.3 - z.at(-1)) * 0.5**200 + 1e-14


def stored_nutrient(traj, t):
    """Literal evaluation of the stored-nutrient sum at time t, term by
    term: the slow oracle of Trajectory.y.  For r = 0 the sum is empty and
    y is identically 0."""
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


def test_stored_nutrient_r0_empty_sum():
    params = ChemostatParams(E=0.2, r=0, uptake=LinearUptake(0.5), input=Constant(1.0))
    traj = simulate(params, InitialHistory(s=(0.4,), x=(0.3,)), horizon=10)
    assert np.all(traj.y.values == 0.0)
    assert stored_nutrient(traj, 5) == 0.0


def test_stored_nutrient_single_term_by_hand():
    # r = 1: y0 = x[-1] * p(s[-1]) * (1-E) = 0.2 * 0.25 * 0.5 = 0.025
    traj = simulate(_half_linear(), InitialHistory(s=(0.5, 0.5), x=(0.2, 0.2)), horizon=5)
    assert math.isclose(traj.y.at(0), 0.025, rel_tol=1e-15)
    assert math.isclose(stored_nutrient(traj, 0), 0.025, rel_tol=1e-15)


def test_stored_nutrient_matches_literal_sum(rng):
    params, init, _ = random_feasible_instance(rng, horizon=60)
    traj = simulate(params, init, horizon=60)
    E, r = params.E, params.r
    p = params.uptake.evaluate
    for t in range(0, 61):
        literal = sum(
            traj.x.at(t - 1 - k) * p(traj.s.at(t - 1 - k)) * (1 - E) ** (k + 1)
            for k in range(r)
        )
        assert abs(traj.y.at(t) - literal) <= 1e-14 * max(1.0, abs(literal))
        assert abs(stored_nutrient(traj, t) - literal) <= 1e-14 * max(1.0, abs(literal))


def test_stored_nutrient_needs_history():
    traj = simulate(_half_linear(), InitialHistory(s=(0.5, 0.5), x=(0.2, 0.2)), horizon=5)
    with pytest.raises(UsageError):
        stored_nutrient(traj, -1)
    with pytest.raises(UsageError):
        stored_nutrient(traj, 6)


def test_conservation_zero_deficit_stays_zero():
    params = _half_linear()
    z = washout_sequence(params, horizon=400)
    # choose x so that s0 + x0 + y0 = z0 = 1: with s = 0.5, x level a:
    # a + a*p(0.5)*(1-E) = 0.5 => a (1 + 0.125) = 0.5
    a = 0.5 / 1.125
    init = InitialHistory(s=(0.5, 0.5), x=(a, a))
    traj = simulate(params, init, horizon=400)
    d = conservation_deficit(traj, z)
    assert abs(d.at(0)) <= 1e-15
    assert np.max(np.abs(d.values)) <= 1e-12 * z.z_sup


def test_conservation_identity_random_instance(rng):
    params, init, z = random_feasible_instance(rng, horizon=500)
    traj = simulate(params, init, horizon=500)
    d = conservation_deficit(traj, z)
    d0 = d.at(0)
    t = np.arange(0, 501)
    expect = (1 - params.E) ** t * d0
    assert np.max(np.abs(d.values - expect)) <= 1e-10 * abs(d0) + 1e-14


def test_conservation_ratio_fig2():
    # a positive initial deficit decays at exactly (1-E) = 7/8 per step
    params = fig2_params(0.6)
    z = washout_periodic(params)
    traj = simulate(params, fig2_init(), horizon=300)
    d = conservation_deficit(traj, z)
    assert d.at(0) > 0
    logs = np.log(np.abs(d.values[:120]))
    slope = np.polyfit(np.arange(120), logs, 1)[0]
    assert math.isclose(math.exp(slope), 7.0 / 8.0, rel_tol=1e-8)


def test_positivity_preconditions_hand_cases():
    params = _half_linear()
    z = washout_sequence(params, horizon=10)
    ok = check_positivity_preconditions(params, InitialHistory(s=(0.5, 0.5), x=(0.2, 0.2)), z)
    assert ok.hypothesis_pz and ok.mass_ok and ok.feasible
    assert math.isclose(ok.initial_mass, 0.725, rel_tol=1e-12)  # 0.5+0.2+0.025

    too_rich = check_positivity_preconditions(params, InitialHistory(s=(1.0, 1.0), x=(0.2, 0.2)), z)
    assert too_rich.hypothesis_pz and not too_rich.mass_ok
    assert not too_rich.feasible  # the mass condition alone decides it
    assert math.isclose(too_rich.initial_mass, 1.25, rel_tol=1e-12)

    empty = check_positivity_preconditions(params, InitialHistory(s=(0.0, 0.0), x=(0.0, 0.0)), z)
    assert empty.mass_ok  # zero initial mass is always below z0


def test_initial_stored_nutrient_matches_trajectory(rng):
    params, init, _ = random_feasible_instance(rng, horizon=10)
    traj = simulate(params, init, horizon=10)
    y0 = initial_stored_nutrient(params, init)
    assert y0 == traj.y.at(0)
    assert y0 == stored_nutrient(traj, 0)  # the literal sum, term for term


def test_dimension_mismatch_is_usage_error():
    params = _half_linear()
    with pytest.raises(UsageError):
        simulate(params, InitialHistory(s=(0.5,), x=(0.2,)), horizon=5)
    with pytest.raises(UsageError):
        simulate(params, InitialHistory(s=(0.5, 0.5), x=(0.2, 0.2)), horizon=-1)


def test_horizon_beyond_one_array_is_refused_before_allocating():
    params = _half_linear()
    # s and x run over [-r, horizon], r = 1
    with pytest.raises(MemoryError, match=f"simulation of {10**19 + 2} steps"):
        simulate(params, InitialHistory(s=(0.5, 0.5), x=(0.2, 0.2)), horizon=10**19)


def test_negative_substrate_recorded_not_fatal():
    # grossly infeasible: huge biomass against a small feed
    params = ChemostatParams(E=0.5, r=0, uptake=LinearUptake(2.0), input=Constant(0.1))
    traj = simulate(params, InitialHistory(s=(2.0,), x=(5.0,)), horizon=50)
    assert traj.first_negative_s is not None
    assert traj.s.at(traj.first_negative_s) < 0.0
    assert np.all(traj.s.window(-0, traj.first_negative_s - 1) >= 0.0)


def test_fig1_profile_persists_then_decays():
    traj = simulate(fig1_params(), fig1_init(), horizon=2000)
    assert np.min(traj.x.window(100, 500)) > 0.1  # alive during the constant phase
    assert traj.x.at(2000) < 1e-12  # gone after the ramp down


def test_recursion_residuals_vanish(rng):
    # the stored sequences satisfy both update rules to rounding error
    params, init, _ = random_feasible_instance(rng, horizon=300)
    traj = simulate(params, init, horizon=300)
    E, r = params.E, params.r
    p = params.uptake.evaluate
    scale = max(np.max(traj.s.values), np.max(traj.x.values), 1.0)
    s0 = params.input.sample(0, 299)
    for t in range(0, 300):
        s_next = E * s0[t] + (1 - E) * (
            traj.s.at(t) - traj.x.at(t) * p(traj.s.at(t))
        )
        x_next = (1 - E) * traj.x.at(t) + traj.x.at(t - r) * p(traj.s.at(t - r)) * (
            1 - E
        ) ** (r + 1)
        assert abs(s_next - traj.s.at(t + 1)) <= 1e-12 * scale
        assert abs(x_next - traj.x.at(t + 1)) <= 1e-12 * scale


def _integrate_indexed(params, s, x, ps, feed):
    """_integrate with every state read back from the lists by index: the
    reference the carried-locals loop must match bit for bit."""
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


def _bits(values):
    return np.array(values, dtype=float).view(np.int64).tolist()


def _assert_integrators_agree(params, init, feeds):
    """Run both integrators over the feeds in turn, each call continuing
    the lists the one before left; returns the reference lists."""
    got = _initial_state(params, init)
    want = _initial_state(params, init)
    for feed in feeds:
        _integrate(params, *got, feed)
        _integrate_indexed(params, *want, feed)
        for g, w in zip(got, want):
            assert _bits(g) == _bits(w)
    return want


@pytest.mark.parametrize("uptake", [
    Monod(1.0, 1.0), LinearUptake(0.4), TabulatedUptake((0.0, 1.0, 2.0), (0.0, 0.5, 0.8)),
])
def test_simulate_matches_indexed_integrator(uptake):
    params = ChemostatParams(E=0.05, r=8, uptake=uptake, input=Sinusoid(0.3, 37, 0.8))
    init = InitialHistory.constant(8, 0.2, 0.1)
    traj = simulate(params, init, horizon=3000)
    s, x, _ = _assert_integrators_agree(params, init, [params.input.sample(0, 2999).tolist()])
    assert _bits(traj.s.values) == _bits(s)
    assert _bits(traj.x.values) == _bits(x)


def test_continued_integration_matches_indexed_integrator():
    # one period per call on the same lists, as find_periodic_orbit makes them
    params = fig2_params(0.6)
    feed = params.input.sample(0, params.input.period - 1).tolist()
    _assert_integrators_agree(params, fig2_init(), [feed] * 6)


def test_r0_integration_matches_indexed_integrator():
    params = ChemostatParams(E=0.3, r=0, uptake=Monod(2.0, 0.5), input=Sinusoid(0.4, 11, 0.9))
    feed = params.input.sample(0, 499).tolist()
    _assert_integrators_agree(params, InitialHistory(s=(0.3,), x=(0.2,)), [feed, [], feed[:7]])


def test_infeasible_dyadic_integration_matches_indexed_integrator():
    # the dyadic feed drives s negative at t = 12 and the states then
    # overflow to inf and nan; the same bits must come out
    params = ChemostatParams(E=0.5, r=2, uptake=LinearUptake(1.0), input=DyadicBlocks(0.5, 2))
    s, x, _ = _assert_integrators_agree(
        params, InitialHistory.constant(2, 0.25, 0.01), [params.input.sample(0, 129).tolist()]
    )
    assert min(s) < 0.0
    states = np.array(s + x)
    assert np.isinf(states).any() and np.isnan(states).any()


def test_results_are_immutable():
    traj = simulate(_half_linear(), InitialHistory(s=(0.5, 0.5), x=(0.2, 0.2)), horizon=5)
    with pytest.raises(ValueError):
        traj.x.values[0] = 99.0
    with pytest.raises(Exception):
        traj.params = None


# ---------------------------------------------------------------------------
# property suites over random feasible instances
# ---------------------------------------------------------------------------


def test_conservation_property_suite():
    rng = np.random.default_rng(7001)
    horizon = 1000
    for _ in range(100):
        params, init, z = random_feasible_instance(rng, horizon=horizon)
        traj = simulate(params, init, horizon=horizon)
        d = conservation_deficit(traj, z)
        t = np.arange(0, horizon + 1)
        expect = (1 - params.E) ** t * d.at(0)
        scale = max(abs(d.at(0)), z.z_sup)
        assert np.max(np.abs(d.values - expect)) <= 1e-10 * scale


def test_r_step_identity_property_suite():
    # x[t] = (1-E)**r * (x[t-r] + y[t-r]) for t >= r
    rng = np.random.default_rng(7002)
    horizon = 1000
    for _ in range(100):
        params, init, _ = random_feasible_instance(rng, horizon=horizon)
        traj = simulate(params, init, horizon=horizon)
        r = params.r
        if r == 0:
            continue  # trivially x = x
        lhs = traj.x.window(r, horizon)
        rhs = (1 - params.E) ** r * (
            traj.x.window(0, horizon - r) + traj.y.window(0, horizon - r)
        )
        denom = np.maximum(np.abs(lhs), 1e-300)
        assert np.max(np.abs(lhs - rhs) / denom) <= 1e-12


def test_positivity_property_suite():
    rng = np.random.default_rng(7003)
    horizon = 1000
    for _ in range(100):
        params, init, z = random_feasible_instance(rng, horizon=horizon)
        report = check_positivity_preconditions(params, init, z)
        assert report.feasible  # by construction
        traj = simulate(params, init, horizon=horizon)
        assert np.all(traj.x.window(1, horizon) >= 0.0)
        assert np.all(traj.s.window(1, horizon) > 0.0)
        assert traj.first_negative_s is None


def test_boundedness_property_suite():
    # when both flags hold, s + x + y never exceeds z
    rng = np.random.default_rng(7004)
    horizon = 500
    for _ in range(50):
        params, init, z = random_feasible_instance(rng, horizon=horizon)
        traj = simulate(params, init, horizon=horizon)
        d = conservation_deficit(traj, z)
        assert np.max(d.values) <= 1e-12 * z.z_sup


def _peak(run):
    """The tracemalloc peak, in bytes, of run() after one warm-up call."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("params, horizon, simulate_peak, washout_peak", [
    # the state recurs from t = 1703 and z within two chunks
    (fig2_params(0.6), 20_000, 964_960, 671_565),
    # z recurs, the decaying biomass never does
    (fig2_params(0.36), 20_000, 2_604_796, 671_493),
    # no period: one plain pass over the whole feed
    (replace(fig2_params(0.6), input=ExplicitSequence(
        np.random.default_rng(0).uniform(0.2, 1.0, 30_000))), 30_000, 3_859_196, 1_704_560),
    # the feed is constant from t = 1500: z stops stepping at t = 2013 and
    # the state, its biomass stuck at 1e-323, at t = 6370 (2.60 MB and
    # 0.97 MB when every step is taken)
    (fig1_params(), 20_000, 965_152, 617_961),
], ids=["fig2-0.6", "fig2-0.36", "sequence-30k", "fig1-ramp"])
def test_simulate_and_washout_peak_memory_stays_pinned(params, horizon, simulate_peak, washout_peak):
    # peaks in bytes, with 5% room: the feed's list must go before the state
    # lists are converted, or the sequence run's simulate peak is 4.58 MB
    assert _peak(lambda: simulate(params, fig2_init(), horizon)) <= 1.05 * simulate_peak
    assert _peak(lambda: washout_sequence(params, horizon)) <= 1.05 * washout_peak


def _fig1_factors(horizon):
    """The factors p(z[1-r .. horizon-1]) and the seed phi[1-r .. 0] that
    phi_sequence hands correction_recursion on the fig1 ramp."""
    params = fig1_params()
    z = washout_sequence(params, horizon)
    f = params.uptake.evaluate(z.window(-params.r, horizon))[1 : horizon + params.r]
    return f, phi_sequence(params, z, horizon).phi.window(1 - params.r, 0)


@pytest.mark.parametrize("factors, recursion_peak", [
    # phi stops stepping after 1,936 of 20,000 values, and only the factors
    # stepped over become floats (0.95 MB with a list of every factor)
    (lambda: _fig1_factors(20_000), 528_361),
    # factors that never repeat: one plain pass
    (lambda: (np.random.default_rng(0).uniform(0.0, 1.0, 30_000), np.full(5, 0.5)), 1_440_309),
], ids=["fig1-ramp", "random-30k"])
def test_correction_recursion_peak_memory_stays_pinned(factors, recursion_peak):
    # peak in bytes, with 5% room: the factors' list is the one the
    # recurrence engine makes, not a second one beside it
    f, seed = factors()
    assert _peak(lambda: correction_recursion(f, seed)) <= 1.05 * recursion_peak
