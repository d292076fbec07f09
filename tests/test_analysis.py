import math

import numpy as np
import pytest

from chemodde import (
    ChemostatParams,
    Constant,
    ConvergenceError,
    ExplicitSequence,
    InitialHistory,
    InputSignal,
    LinearUptake,
    Monod,
    ParameterError,
    PeriodicOrbit,
    UsageError,
    WashoutConvergence,
    attraction_rate,
    classify,
    find_periodic_orbit,
    neither_nor_demo,
    simulate,
    washout_periodic,
    washout_sequence,
)
from chemodde.analysis import BASIS_BOHL, BASIS_PERIODIC, EXTINCT, INCONCLUSIVE, PERSISTENT
from chemodde.cli import _feed, fig2_init, fig2_params


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_classify_periodic_persistent():
    report = classify(fig2_params(0.6))
    assert report.verdict == PERSISTENT
    assert report.basis == BASIS_PERIODIC
    assert abs(report.mean - 1.0217) <= 1e-3
    assert report.lower == report.upper == report.mean
    assert report.eta_persist > 0


def test_classify_periodic_extinct():
    report = classify(fig2_params(0.3))
    assert report.verdict == EXTINCT
    assert abs(report.mean - 0.9756) <= 1e-3
    assert report.eta_extinct > 0


def test_classify_dyadic_inconclusive():
    params = ChemostatParams(
        E=0.5, r=0, uptake=LinearUptake(1.0), input=__import__("chemodde").DyadicBlocks(0.5, 0)
    )
    report = classify(params, horizon=2**12, window_min=256)
    assert report.basis == BASIS_BOHL
    assert report.verdict == INCONCLUSIVE
    assert report.lower < 1.0 < report.upper


def test_classify_verdict_invariants():
    for offset in (0.6, 0.3):
        report = classify(fig2_params(offset))
        if report.verdict == PERSISTENT:
            assert report.lower > 1.0
        elif report.verdict == EXTINCT:
            assert report.upper < 1.0


def test_classify_undelayed_thresholds():
    # r = 0 constant feed: the decision reduces to (1-E)(1+p(feed)) vs 1
    extinct = ChemostatParams(E=0.2, r=0, uptake=LinearUptake(1 / 8), input=Constant(1.0))
    rep = classify(extinct)
    assert math.isclose(rep.mean, 0.9, rel_tol=1e-12)
    assert rep.verdict == EXTINCT

    persistent = ChemostatParams(E=0.2, r=0, uptake=LinearUptake(0.4), input=Constant(1.0))
    rep2 = classify(persistent)
    assert math.isclose(rep2.mean, 1.12, rel_tol=1e-12)
    assert rep2.verdict == PERSISTENT


# ---------------------------------------------------------------------------
# periodic orbits
# ---------------------------------------------------------------------------


def test_fixed_point_by_hand():
    # E = 0.2, feed 1, p(s) = s/2: biomass balance forces p(s*) = E/(1-E),
    # so s* = 0.5; the substrate balance then gives x* = 0.5
    params = ChemostatParams(E=0.2, r=0, uptake=LinearUptake(0.5), input=Constant(1.0))
    orbit = find_periodic_orbit(params, InitialHistory(s=(0.3,), x=(0.3,)), tol=1e-12)
    assert isinstance(orbit, PeriodicOrbit)
    assert orbit.period == 1
    assert abs(orbit.s[0] - 0.5) <= 1e-9
    assert abs(orbit.x[0] - 0.5) <= 1e-9
    assert orbit.residual <= 1e-12


def test_subthreshold_washes_out():
    # mean (1-E)(1+p(1)) = 0.8 * 1.125 = 0.9 < 1: all biomass dies
    params = ChemostatParams(E=0.2, r=0, uptake=LinearUptake(1 / 8), input=Constant(1.0))
    result = find_periodic_orbit(params, InitialHistory(s=(0.3,), x=(0.3,)))
    assert isinstance(result, WashoutConvergence)
    assert result.max_x_last_period < 1e-14 * result.washout.z_sup


def test_fig2_orbit_positive_and_closed():
    params = fig2_params(0.6)
    orbit = find_periodic_orbit(params, fig2_init(), tol=1e-9)
    assert isinstance(orbit, PeriodicOrbit)
    assert orbit.period == 500
    assert orbit.delta > 0.0
    assert orbit.residual < 1e-9
    # closure: one more period from the trailing window reproduces the profile
    r = params.r
    init = InitialHistory(
        s=tuple(orbit.s[(t - r) % 500] for t in range(r + 1)),
        x=tuple(orbit.x[(t - r) % 500] for t in range(r + 1)),
    )
    traj = simulate(params, init, horizon=500)
    for t in range(0, 501):
        assert abs(traj.s.at(t) - orbit.s[t % 500]) <= 1e-8
        assert abs(traj.x.at(t) - orbit.x[t % 500]) <= 1e-8


def test_orbit_profile_satisfies_recursion():
    params = fig2_params(0.6)
    orbit = find_periodic_orbit(params, fig2_init(), tol=1e-10)
    E, r = params.E, params.r
    p = params.uptake.evaluate
    s0 = params.input.sample(0, 499)
    for t in range(500):
        s_next = E * s0[t] + (1 - E) * (
            orbit.s[t] - orbit.x[t] * p(orbit.s[t])
        )
        x_next = (1 - E) * orbit.x[t] + orbit.x[(t - r) % 500] * p(
            orbit.s[(t - r) % 500]
        ) * (1 - E) ** (r + 1)
        assert abs(s_next - orbit.s[(t + 1) % 500]) <= 1e-9
        assert abs(x_next - orbit.x[(t + 1) % 500]) <= 1e-9


def test_zero_biomass_returns_washout_profile():
    params = fig2_params(0.6)
    init = InitialHistory.constant(5, 0.5, 0.0)
    result = find_periodic_orbit(params, init)
    assert isinstance(result, WashoutConvergence)
    z = washout_periodic(params)
    assert np.max(np.abs(result.washout.profile - z.profile)) <= 1e-9
    # and the simulated substrate really lands on that profile
    traj = simulate(params, init, horizon=3000)
    for t in range(2500, 3001):
        assert abs(traj.s.at(t) - z.at(t)) <= 1e-9


def test_orbit_requires_periodic_input():
    from chemodde import ExplicitSequence

    params = ChemostatParams(
        E=0.2, r=0, uptake=LinearUptake(0.5),
        input=ExplicitSequence(values=(1.0, 1.1), periodic=False),
    )
    with pytest.raises(UsageError):
        find_periodic_orbit(params, InitialHistory(s=(0.3,), x=(0.3,)))


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan])
def test_bad_tolerance_rejected(tol):
    ramp = ChemostatParams(
        E=0.2, r=0, uptake=LinearUptake(0.5),
        input=ExplicitSequence(values=(1.0, 1.1), periodic=False),
    )
    for params in (fig2_params(0.6), ramp):
        with pytest.raises(ParameterError):
            classify(params, horizon=200, tol=tol)
    with pytest.raises(ParameterError):
        find_periodic_orbit(fig2_params(0.6), fig2_init(), tol=tol)


@pytest.mark.parametrize("horizon", [-5, 0, 4])
def test_classify_rejects_horizon_below_delay_on_every_basis(horizon):
    ramp = ChemostatParams(
        E=0.2, r=5, uptake=LinearUptake(0.5),
        input=ExplicitSequence(values=(1.0, 1.1), periodic=False),
    )
    for params in (fig2_params(0.6), ramp):  # periodic mean, then Bohl
        with pytest.raises(UsageError, match=f"horizon {horizon} must be >= delay r=5"):
            classify(params, horizon=horizon)
    # the periodic basis reads one period whatever the horizon
    assert classify(fig2_params(0.6), horizon=5).horizon == 500


def test_orbit_rejects_zero_budget():
    with pytest.raises(UsageError):
        find_periodic_orbit(fig2_params(0.6), fig2_init(), max_periods=0)


def test_orbit_convergence_error_carries_residual():
    params = fig2_params(0.6)
    with pytest.raises(ConvergenceError) as err:
        find_periodic_orbit(params, fig2_init(), tol=1e-16, max_periods=3)
    assert err.value.residual is not None


def test_orbit_attracts_perturbed_runs():
    params = fig2_params(0.6)
    orbit = find_periodic_orbit(params, fig2_init(), tol=1e-10)
    traj_a = simulate(params, fig2_init(), horizon=20_000)
    traj_b = simulate(params, InitialHistory.constant(5, 0.45, 0.3), horizon=20_000)
    rate = attraction_rate(traj_a, traj_b, burn_in=500)
    assert rate.rho < 1.0
    # both runs end on the orbit
    assert abs(traj_a.x.at(20_000) - orbit.x[20_000 % 500]) <= 1e-6


# ---------------------------------------------------------------------------
# attraction rate
# ---------------------------------------------------------------------------


def test_attraction_identical_runs_flagged():
    params = fig2_params(0.6)
    traj = simulate(params, fig2_init(), horizon=300)
    rate = attraction_rate(traj, traj)
    assert rate.identical
    assert rate.rho == 0.0


def test_attraction_washout_pair_rate_is_survival():
    # with zero biomass the substrate equation is linear: the gap between
    # two starts decays at exactly (1-E) per step
    params = ChemostatParams(E=0.2, r=0, uptake=LinearUptake(0.5), input=Constant(1.0))
    traj_a = simulate(params, InitialHistory(s=(0.3,), x=(0.0,)), horizon=80)
    traj_b = simulate(params, InitialHistory(s=(0.7,), x=(0.0,)), horizon=80)
    rate = attraction_rate(traj_a, traj_b, burn_in=10)
    assert "substrate" in rate.note  # biomass gap is identically zero
    assert abs(rate.rho - 0.8) <= 1e-6


@pytest.mark.parametrize("burn_in", [-1, 50])
def test_attraction_burn_in_outside_range_names_it(burn_in):
    traj = simulate(fig2_params(0.6), fig2_init(), horizon=50)
    with pytest.raises(UsageError) as err:
        attraction_rate(traj, traj, burn_in=burn_in)
    assert str(err.value) == f"burn_in {burn_in} outside [0, horizon=50)"


def test_attraction_requires_same_system():
    traj_a = simulate(fig2_params(0.6), fig2_init(), horizon=50)
    traj_b = simulate(fig2_params(0.3), fig2_init(), horizon=50)
    with pytest.raises(UsageError):
        attraction_rate(traj_a, traj_b)


def test_classifier_soundness_desk_scale():
    # Persistent verdict: every feasible positive start keeps a common
    # positive floor; Extinct verdict: biomass collapses from every start
    rng = np.random.default_rng(31)
    persistent = fig2_params(0.6)
    floors = []
    for _ in range(20):
        init = InitialHistory.constant(
            5, float(rng.uniform(0.05, 0.6)), float(rng.uniform(0.02, 0.25))
        )
        traj = simulate(persistent, init, horizon=6000)
        floors.append(float(np.min(traj.x.window(3000, 6000))))
    assert min(floors) > 1e-3  # a common uniform floor

    extinct = fig2_params(0.3)
    for _ in range(20):
        x0 = float(rng.uniform(0.02, 0.25))
        init = InitialHistory.constant(5, float(rng.uniform(0.05, 0.6)), x0)
        traj = simulate(extinct, init, horizon=6000)
        assert traj.x.at(6000) < 1e-8 * x0


# ---------------------------------------------------------------------------
# dyadic-blocks demonstration
# ---------------------------------------------------------------------------


def test_demo_trivial_zero_biomass():
    report = neither_nor_demo(0.5, 0, 3, x_init=0.0)
    assert report.trivial
    assert report.check_a == ()


def test_demo_classification_inconclusive():
    report = neither_nor_demo(0.5, 0, 4)
    assert not report.trivial
    assert report.check_c_ok
    assert report.classification.lower < 1.0 < report.classification.upper
    # the input intentionally violates the positivity bound and the report
    # says so rather than hiding it
    assert not report.feasibility.hypothesis_pz


def test_demo_block_end_floor_r2_small_seed():
    # a seed small enough keeps the trajectory in the linear regime through
    # every high block of the run, where the floor bound is honest
    report = neither_nor_demo(0.5, 2, 4, x_init=1e-150)
    assert report.check_a_ok
    assert report.first_negative_s is None
    assert report.nonfinite_states == 0


def test_demo_rejects_bad_arguments():
    with pytest.raises(Exception):
        neither_nor_demo(1.5, 0, 3)
    with pytest.raises(UsageError):
        neither_nor_demo(0.5, 0, 0)


@pytest.mark.parametrize("n_max, admitted", [(9, True), (10, False), (30, False)])
def test_demo_bounds_n_max(monkeypatch, n_max, admitted):
    # n_max = 9 runs for minutes, so the run is cut where integration begins
    class Admitted(Exception):
        pass

    def stop(params, horizon):
        raise Admitted(horizon)

    monkeypatch.setattr("chemodde.analysis.washout_sequence", stop)
    expected = Admitted if admitted else UsageError
    with pytest.raises(expected, match=None if admitted else r"n_max must be in \[1, 9\]"):
        neither_nor_demo(0.1, 2, n_max)


# ---------------------------------------------------------------------------
# feed sampling: the recursions read s0 only through InputSignal.sample
# ---------------------------------------------------------------------------


class _SampleOnlyFeed(InputSignal):
    """A periodic feed whose sample delegates to a periodic sequence and
    counts its calls."""

    def __init__(self, values):
        self.inner = ExplicitSequence(values, periodic=True)
        self.sample_calls = 0

    def sample(self, t_from, t_to):
        self.sample_calls += 1
        return self.inner.sample(t_from, t_to)

    def bounds(self):
        return self.inner.bounds()

    @property
    def period(self):
        return self.inner.period


def _sample_only_pair():
    feed = _SampleOnlyFeed((0.9, 1.1, 1.3, 1.2, 1.0, 0.8, 0.7))
    uptake = Monod(p_max=0.8, k_s=1.0)
    return (ChemostatParams(E=0.125, r=2, uptake=uptake, input=feed),
            ChemostatParams(E=0.125, r=2, uptake=uptake, input=feed.inner))


def test_recursions_read_the_feed_only_through_sample():
    params, plain = _sample_only_pair()
    init = InitialHistory.constant(2, 0.5, 0.2)
    assert np.array_equal(washout_sequence(params, 60).z.values, washout_sequence(plain, 60).z.values)
    assert np.array_equal(washout_periodic(params).profile, washout_periodic(plain).profile)
    assert np.array_equal(simulate(params, init, 60).x.values, simulate(plain, init, 60).x.values)
    orbit = find_periodic_orbit(params, init)
    assert isinstance(orbit, PeriodicOrbit)
    assert np.array_equal(orbit.x, find_periodic_orbit(plain, init).x)
    t = np.arange(-2, 61)
    assert np.array_equal(_feed(params, t), plain.input.sample(-2, 60))


def test_find_periodic_orbit_samples_one_period_once():
    params, _ = _sample_only_pair()
    init = InitialHistory.constant(2, 0.5, 0.2)
    washout_periodic(params)
    assert params.input.sample_calls == 1
    orbit = find_periodic_orbit(params, init)
    assert orbit.periods_used > 2
    # one call inside washout_periodic, one for all periods of the orbit loop
    assert params.input.sample_calls == 1 + 2
