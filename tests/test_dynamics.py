import math

import numpy as np
import pytest

from chemodde import (
    ChemostatParams,
    Constant,
    InitialHistory,
    LinearUptake,
    UsageError,
    check_positivity_preconditions,
    conservation_deficit,
    initial_stored_nutrient,
    simulate,
    stored_nutrient,
    washout_periodic,
    washout_sequence,
)
from chemodde.cli import fig1_init, fig1_params, fig2_init, fig2_params

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
    assert ok.hypothesis_pz and ok.mass_ok
    assert math.isclose(ok.initial_mass, 0.725, rel_tol=1e-12)  # 0.5+0.2+0.025

    too_rich = check_positivity_preconditions(params, InitialHistory(s=(1.0, 1.0), x=(0.2, 0.2)), z)
    assert too_rich.hypothesis_pz and not too_rich.mass_ok
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
