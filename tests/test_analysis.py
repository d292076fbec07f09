import importlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

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
    Sinusoid,
    UsageError,
    WashoutConvergence,
    attraction_rate,
    bohl_bounds,
    classify,
    find_periodic_orbit,
    neither_nor_demo,
    phi_sequence,
    simulate,
    washout_periodic,
    washout_sequence,
)
from chemodde import analysis
from chemodde.analysis import BASIS_BOHL, BASIS_PERIODIC, EXTINCT, INCONCLUSIVE, PERSISTENT
from chemodde.cli import _feed, fig1_params, fig2_init, fig2_params

from conftest import reference


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


def test_classify_periodic_mean_of_exactly_one_is_borderline():
    # r = 0, feed 1, p(s) = s: z = 1 and (1-E)(1+p(z)) = 0.5 * 2 = 1 exactly
    params = ChemostatParams(E=0.5, r=0, uptake=LinearUptake(1.0), input=Constant(1.0))
    report = classify(params)
    assert report.mean == 1.0
    assert report.verdict == INCONCLUSIVE
    assert report.borderline
    assert report.note == (
        "periodic mean within the borderline band of 1; the theory assigns "
        "mean <= 1 to extinction but the computed margin (0.00e+00) is below "
        "numerical resolution"
    )


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


def test_zero_feed_washes_out_against_the_initial_scale():
    # z = 0 made the washout floor 0 and divided the substrate residual by
    # 1e-300, so the period map ran out of periods (last residual 1.8e274)
    params = ChemostatParams(E=0.125, r=5, uptake=Monod(1.0, 1.0), input=Constant(0.0))
    result = find_periodic_orbit(params, InitialHistory.constant(5, 0.5, 0.2))
    assert isinstance(result, WashoutConvergence)
    assert result.washout.z_sup == 0.0
    assert 0.0 < result.max_x_last_period < 1e-14 * 0.5
    assert classify(params).verdict == EXTINCT
    # an all-zero history has no scale either: its floor is 0, which x = 0
    # meets, so it washes out as classify says, not a zero orbit
    result = find_periodic_orbit(params, InitialHistory.constant(5, 0.0, 0.0))
    assert isinstance(result, WashoutConvergence)
    assert result.periods_used == 1 and result.max_x_last_period == 0.0


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
    assert np.max(np.abs(result.washout.z.values - z.z.values)) <= 1e-9
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


def test_classify_rejects_a_horizon_too_short_for_the_bohl_scan(monkeypatch):
    # the fig1 ramp: r = 5 and T = 50, so n = horizon + 6 growth factors
    # reach bohl_bounds' 2T + 3 from horizon 97 on; 96 used to run the
    # washout and the phi pass, then fail on a length the caller never gave
    params = fig1_params()

    def no_washout(*args, **kwargs):
        raise AssertionError("the washout ran before the horizon was checked")

    monkeypatch.setattr(analysis, "washout_sequence", no_washout)
    for horizon, window_min, least in [(96, None, 97), (5, None, 97), (16, 10, 17)]:
        with pytest.raises(UsageError) as err:
            classify(params, horizon=horizon, window_min=window_min)
        assert str(err.value) == (
            f"horizon {horizon} too short for Bohl windows with T = {window_min or 50}; "
            f"the least horizon is {least}"
        )
    monkeypatch.undo()
    assert classify(params, horizon=97).horizon == 97
    assert classify(params, horizon=17, window_min=10).window_min == 10
    assert classify(params, horizon=5, window_min=1).horizon == 5  # the least is r here


_RAMP = ChemostatParams(E=0.2, r=5, uptake=LinearUptake(0.5),
                        input=ExplicitSequence(values=(1.0, 1.1), periodic=False))


@pytest.mark.parametrize("call, message", [
    (lambda p: simulate(p, fig2_init(), 2.5), "horizon must be >= 0, got 2.5"),
    (lambda p: simulate(p, fig2_init(), math.nan), "horizon must be >= 0, got nan"),
    (lambda p: simulate(p, fig2_init(), True), "horizon must be >= 0, got True"),  # ran as horizon 1
    (lambda p: washout_sequence(p, 202.5), "horizon must be an integer, got 202.5"),
    (lambda p: phi_sequence(p, washout_sequence(p, 50), horizon=20.5), "horizon must be >= 0, got 20.5"),
    (lambda p: bohl_bounds(np.ones(300), window_min=2.5), "window_min must be >= 1, got 2.5"),
    (lambda p: bohl_bounds(np.ones(300), window_min=10, gap_min=2.5), "gap_min must be >= 0, got 2.5"),
    (lambda p: classify(_RAMP, window_min=2.5), "window_min must be >= 1, got 2.5"),
    # said "horizon 2.5 must be >= delay r=5"
    (lambda p: classify(p, horizon=2.5), "horizon must be an integer, got 2.5"),
    (lambda p: find_periodic_orbit(p, fig2_init(), max_periods=2.5), "max_periods must be >= 1, got 2.5"),
    (lambda p: find_periodic_orbit(p, fig2_init(), max_periods=math.nan), "max_periods must be >= 1, got nan"),
    (lambda p: neither_nor_demo(0.5, 0, 2.5), "n_max must be in [1, 9], got 2.5"),
    (lambda p: attraction_rate(*[simulate(p, fig2_init(), 50)] * 2, burn_in=2.5), "burn_in must be an integer, got 2.5"),
    (lambda p: classify(p, window_min=2.5), "window_min must be >= 1, got 2.5"),  # returned Persistent
], ids=["simulate-horizon-2.5", "simulate-horizon-nan", "simulate-horizon-True", "washout-horizon",
        "phi_sequence-horizon", "bohl-window_min", "bohl-gap_min", "classify-window_min",
        "classify-horizon", "orbit-max_periods-2.5", "orbit-max_periods-nan",
        "neither_nor-n_max", "attraction-burn_in", "classify-window_min-periodic"])
def test_budgets_that_are_no_integer_are_usage_errors(call, message):
    # each of these ended in a TypeError, ValueError or IndexError, or ran
    with pytest.raises(UsageError) as err:
        call(fig2_params(0.6))
    assert str(err.value) == message


@pytest.mark.parametrize("window_min", [0, 2.5, -3])
def test_classify_checks_window_min_on_a_periodic_feed_before_the_washout(monkeypatch, window_min):
    # the periodic basis reads no window, and classify gave its verdict
    # whatever window_min it was given
    def no_washout(*args, **kwargs):
        raise AssertionError("washout_periodic ran before window_min was checked")

    monkeypatch.setattr(analysis, "washout_periodic", no_washout)
    with pytest.raises(UsageError) as err:
        classify(fig2_params(0.6), window_min=window_min)
    assert str(err.value) == f"window_min must be >= 1, got {window_min}"


def test_classify_of_a_periodic_feed_reports_no_window_min():
    assert classify(fig2_params(0.6), window_min=7).window_min is None


def test_classify_checks_window_min_before_the_phi_pass(monkeypatch):
    # window_min was checked only inside bohl_bounds, after the washout and
    # a whole phi_sequence pass (0.27 s at horizon 200000)
    def no_phi(*args, **kwargs):
        raise AssertionError("phi_sequence ran before window_min was checked")

    monkeypatch.setattr(analysis, "phi_sequence", no_phi)
    with pytest.raises(UsageError, match=r"^window_min must be >= 1, got 0$"):
        classify(_RAMP, horizon=200_000, window_min=0)


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


@st.composite
def _orbit_cases(draw):
    """A regime for find_periodic_orbit, as constructor names and keywords
    that either package can build: a sinusoid or periodic-sequence feed of
    period 1..30, Monod or tabulated uptake, r in 0..19 (so the period is
    often shorter than the state window r + 1), a random initial history,
    and a small or the default period budget."""
    r, period = draw(st.integers(0, 19)), draw(st.integers(1, 30))
    if draw(st.booleans()):
        amplitude = draw(st.floats(0.0, 0.5))
        offset = amplitude + draw(st.floats(0.05, 1.5))
        feed = "Sinusoid", dict(amplitude=amplitude, period_steps=period, offset=offset)
    else:
        values = draw(st.lists(st.floats(0.0, 2.0), min_size=period, max_size=period))
        feed = "ExplicitSequence", dict(values=tuple(values), periodic=True)
    if draw(st.booleans()):
        uptake = "Monod", dict(p_max=draw(st.floats(0.05, 3.0)), k_s=draw(st.floats(0.1, 3.0)))
    else:  # slopes shrink segment by segment, so the first is the steepest
        grid, values, slope = [0.0], [0.0], draw(st.floats(0.1, 3.0))
        for width, shrink in draw(st.lists(st.tuples(st.floats(0.1, 1.0), st.floats(0.0, 0.9)), min_size=1, max_size=4)):
            grid.append(grid[-1] + width)
            values.append(values[-1] + slope * width)
            slope *= shrink
        uptake = "TabulatedUptake", dict(grid=tuple(grid), values=tuple(values))
    window = st.lists(st.floats(0.0, 1.0), min_size=r + 1, max_size=r + 1).map(tuple)
    return dict(
        E=draw(st.floats(0.02, 0.6)), r=r, feed=feed, uptake=uptake, s=draw(window), x=draw(window),
        tol=draw(st.sampled_from([1e-6, 1e-9, 1e-12])), max_periods=draw(st.sampled_from([3, 400])),
    )


def _orbit_outcome(core, analysis, errors, case):
    """find_periodic_orbit of the case as comparable values: the bytes and
    hex floats of an orbit or a washout, or the error's type and message."""
    params = core.ChemostatParams(
        E=case["E"], r=case["r"],
        uptake=getattr(core, case["uptake"][0])(**case["uptake"][1]),
        input=getattr(core, case["feed"][0])(**case["feed"][1]),
    )
    init = core.InitialHistory(s=case["s"], x=case["x"])
    try:
        result = analysis.find_periodic_orbit(params, init, tol=case["tol"], max_periods=case["max_periods"])
    except errors.ChemoddeError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "residual", None)
    if isinstance(result, analysis.WashoutConvergence):
        return "washout", result.periods_used, result.max_x_last_period.hex()
    return ("orbit", result.period, result.s.tobytes(), result.x.tobytes(),
            result.residual.hex(), result.delta.hex(), result.periods_used)


_SHORT_PERIOD = dict(  # period 7 < r + 1 = 13; closes after 55 periods
    E=0.05, r=12, feed=("Sinusoid", dict(amplitude=0.25, period_steps=7, offset=1.5)),
    uptake=("Monod", dict(p_max=1.0, k_s=1.0)), s=(0.5,) * 13, x=(0.2,) * 13, tol=1e-9, max_periods=400,
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_orbit_cases())
@example(_SHORT_PERIOD)
@example({**_SHORT_PERIOD, "max_periods": 53})  # one period short: ConvergenceError
@example({**_SHORT_PERIOD, "r": 0, "s": (0.5,), "x": (0.2,), "uptake": ("Monod", dict(p_max=0.01, k_s=1.0))})  # washout
def test_find_periodic_orbit_matches_the_reference_bit_for_bit(case):
    modules = ("core", "analysis", "errors")
    got = _orbit_outcome(*(importlib.import_module(f"chemodde.{m}") for m in modules), case)
    want = _orbit_outcome(*map(reference, modules), case)
    event(got[0])
    if got == want:
        return
    # the declared differences
    if case["feed"][0] == "ExplicitSequence" and not any(case["feed"][1]["values"]):
        # a zero feed has z = 0, which leaves the reference no scale for its
        # washout floor or substrate residual, so it never washes out; here
        # the initial state sets the scale, and an all-zero state washes out
        # in its first period
        event("zero feed")
        assert want[0] != "washout" and got[0] in ("washout", "ConvergenceError")
        if not any(case["s"] + case["x"]):
            assert got == ("washout", 1, "0x0.0p+0")
    else:
        # a blown-up biomass: the reference counts a negative one as a
        # washout and runs a non-finite state to the end of its budget; here
        # a washout needs |x| below the floor, and a non-finite state stops
        event("blown-up biomass")
        assert (want[0] == "washout" and not float.fromhex(want[2]) >= 0.0
                or want[0] == "ConvergenceError" and math.isnan(want[2]))
        assert got[0] in ("washout", "ConvergenceError")


def test_find_periodic_orbit_memory_does_not_grow_with_the_number_of_periods():
    # at offset 0.427 the period map is still open after 160 periods; only
    # the r+1 steps of its state are kept from one period to the next
    def peak(max_periods):
        tracemalloc.start()
        try:
            with pytest.raises(ConvergenceError, match=f"within {max_periods} periods"):
                find_periodic_orbit(fig2_params(0.427), fig2_init(), max_periods=max_periods)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(160) <= 1.1 * peak(40)


def test_find_periodic_orbit_never_takes_a_blown_up_biomass_for_a_washout():
    # p'(0) * sup z = 10.4 > 1: the substrate goes negative at t = 5 and the
    # biomass runs to -4e4 within two periods, then to -inf and nan; a floor
    # on max x alone called that a washout after 2 periods
    params = ChemostatParams(
        E=0.5, r=0, uptake=LinearUptake(1.0), input=Sinusoid(amplitude=4.0, period_steps=7, offset=8.0),
    )
    init = InitialHistory(s=(0.5,), x=(0.2,))
    with pytest.raises(ConvergenceError, match="within 2 periods") as err:
        find_periodic_orbit(params, init, max_periods=2)
    assert err.value.residual > 1.0
    with pytest.raises(ConvergenceError, match=r"state at the end of period 3 is not finite \(residual nan\)") as err:
        find_periodic_orbit(params, init)
    assert math.isnan(err.value.residual)


def test_find_periodic_orbit_stops_at_the_first_period_that_leaves_the_doubles(monkeypatch):
    # the blow-up run above: s and x are +-inf at the end of period 3, and
    # no residual after it can fall below tol
    params = ChemostatParams(
        E=0.5, r=0, uptake=LinearUptake(1.0), input=Sinusoid(amplitude=4.0, period_steps=7, offset=8.0),
    )
    periods = []
    integrate = analysis._integrate
    monkeypatch.setattr(analysis, "_integrate", lambda *args: periods.append(integrate(*args)))
    with pytest.raises(ConvergenceError, match="period 3 is not finite"):
        find_periodic_orbit(params, InitialHistory(s=(0.5,), x=(0.2,)))
    assert len(periods) == 3


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
    assert np.array_equal(washout_periodic(params).z.values, washout_periodic(plain).z.values)
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
