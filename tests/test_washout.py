import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemodde import (
    ChemostatParams,
    Constant,
    ExplicitSequence,
    InitialHistory,
    InputSignal,
    Monod,
    Sinusoid,
    UsageError,
    classify,
    find_periodic_orbit,
    washout_periodic,
    washout_sequence,
)
from chemodde import washout
from chemodde.washout import default_tail_depth


def _params(E, r, signal):
    return ChemostatParams(E=E, r=r, uptake=Monod(1.0, 1.0), input=signal)


def fig2_input(offset=0.6):
    return Sinusoid(amplitude=0.25, period_steps=500, offset=offset)


def test_constant_input_is_fixed_point():
    # z = (1-E) z + E c has the constant solution z = c
    params = _params(0.3, 2, Constant(0.5))
    z = washout_sequence(params, horizon=50)
    assert np.allclose(z.z.values, 0.5, rtol=1e-12, atol=0)
    zp = washout_periodic(params)
    assert np.allclose(zp.z.values, 0.5, rtol=1e-12, atol=0)


def test_period_two_hand_oracle():
    # E = 1/2, s0 = (0, 1): solving z0 = z1/2 + 1/2, z1 = z0/2 gives
    # z(even) = 2/3, z(odd) = 1/3
    params = _params(0.5, 0, ExplicitSequence(values=(0.0, 1.0), periodic=True))
    zp = washout_periodic(params)
    assert math.isclose(zp.z.values[0], 2.0 / 3.0, rel_tol=1e-12)
    assert math.isclose(zp.z.values[1], 1.0 / 3.0, rel_tol=1e-12)

    zs = washout_sequence(params, horizon=20)
    for t in range(0, 21):
        expect = 2.0 / 3.0 if t % 2 == 0 else 1.0 / 3.0
        assert math.isclose(zs.at(t), expect, rel_tol=1e-12)


def test_recursion_residual_is_tiny():
    params = _params(0.125, 5, fig2_input())
    z = washout_sequence(params, horizon=800)
    s0 = params.input.sample(-5, 799)
    for t in range(-5, 800):
        resid = z.at(t + 1) - ((1 - 0.125) * z.at(t) + 0.125 * s0[t + 5])
        assert abs(resid) <= 1e-12 * z.z_sup


def test_convex_combination_bound_fig2():
    params = _params(0.125, 5, fig2_input())
    z = washout_sequence(params, horizon=3000)
    assert np.all(z.z.values >= 0.35 - 1e-12)
    assert np.all(z.z.values <= 0.85 + 1e-12)
    assert z.z_sup <= 0.85 + 1e-12


def test_periodic_wrap_is_exact():
    params = _params(0.125, 5, fig2_input())
    zp = washout_periodic(params)
    assert zp.period == 500
    assert zp.tail_error_bound == 0.0
    assert (zp.z.t_start, len(zp.z)) == (0, 500)  # exactly one stored period
    for t in (-750, -3, 0, 17, 499, 500, 1234):
        assert zp.at(t + 500) == zp.at(t)
    # one full forward period returns to the start within accumulated rounding
    E = 0.125
    z = zp.z.values[0]
    for s0 in params.input.sample(0, 499):
        z = (1 - E) * z + E * s0
    assert math.isclose(z, zp.z.values[0], rel_tol=1e-10)


def _with_tail_depth(monkeypatch, depth):
    monkeypatch.setattr(washout, "default_tail_depth", lambda E: depth)


def test_periodic_agrees_with_deep_tail_sum(monkeypatch):
    params = _params(0.125, 5, fig2_input())
    zp = washout_periodic(params)
    _with_tail_depth(monkeypatch, 1000)
    zs = washout_sequence(params, horizon=1000)
    for t in range(-5, 1001):
        assert abs(zs.at(t) - zp.at(t)) <= 1e-10


def test_truncation_error_below_recorded_bound(monkeypatch):
    params = _params(0.125, 5, fig2_input())
    zp = washout_periodic(params)
    for depth in (0, 3, 10, 40):
        _with_tail_depth(monkeypatch, depth)
        zs = washout_sequence(params, horizon=200)
        worst = max(abs(zs.at(t) - zp.at(t)) for t in range(-5, 201))
        assert worst <= zs.tail_error_bound + 1e-15
        assert math.isclose(
            zs.tail_error_bound, (1 - 0.125) ** depth * 0.85, rel_tol=1e-12
        )


def test_exponential_forgetting(monkeypatch):
    # two runs started from different truncations differ by exactly
    # (1-E)**(t+r) times their initial difference
    params = _params(0.35, 3, fig2_input())
    zb = washout_sequence(params, horizon=120)
    _with_tail_depth(monkeypatch, 0)
    za = washout_sequence(params, horizon=120)
    delta0 = za.at(-3) - zb.at(-3)
    assert delta0 != 0.0
    for t in range(-3, 121):
        expect = (1 - 0.35) ** (t + 3) * delta0
        assert abs((za.at(t) - zb.at(t)) - expect) <= 1e-10 * abs(delta0)


def test_default_tail_depth_reaches_1e26():
    for E in (0.05, 0.125, 0.5, 0.9):
        depth = default_tail_depth(E)
        assert (1 - E) ** depth < 1e-26
        assert depth == math.ceil(60.0 / -math.log1p(-E))


def test_preconditions():
    params = _params(0.125, 5, fig2_input())
    with pytest.raises(UsageError):
        washout_sequence(params, horizon=3)  # horizon < r
    open_ended = _params(0.125, 5, ExplicitSequence(values=(0.5, 0.6), periodic=False))
    with pytest.raises(UsageError):
        washout_periodic(open_ended)


def test_steps_beyond_one_array_are_refused_before_allocating():
    # the feed runs over default_tail_depth(E) + r + 1 + horizon steps
    params = _params(0.125, 5, fig2_input())
    with pytest.raises(MemoryError, match=f"washout of {10**19 + 6 + default_tail_depth(0.125)} steps"):
        washout_sequence(params, horizon=10**19)


class _HugePeriod(InputSignal):
    """A feed claiming the period 2**61, more steps than one array can
    address; drawing a sample fails the test."""

    def sample(self, t_from, t_to):
        pytest.fail(f"sampled [{t_from}, {t_to}]")

    def bounds(self):
        return (0.0, 1.0)

    @property
    def period(self):
        return 2**61


@pytest.mark.parametrize("call", [
    washout_periodic,
    classify,
    lambda params: find_periodic_orbit(params, InitialHistory.constant(5, 0.5, 0.2)),
], ids=["washout_periodic", "classify", "find_periodic_orbit"])
def test_a_period_beyond_one_array_is_refused_before_sampling(call):
    # sampling the whole period ran Sinusoid.sample's Python loop for ever
    with pytest.raises(MemoryError, match=f"periodic washout of {2**61} steps is beyond"):
        call(_params(0.125, 5, _HugePeriod()))


def test_out_of_range_access_raises():
    params = _params(0.125, 2, fig2_input())
    z = washout_sequence(params, horizon=10)
    with pytest.raises(UsageError):
        z.at(11)
    with pytest.raises(UsageError):
        z.at(-3)
    with pytest.raises(UsageError):
        z.window(0, 11)
    with pytest.raises(UsageError):
        z.window(-3, 0)


_FIG2 = _params(0.125, 5, fig2_input())


@pytest.mark.parametrize("call, message", [
    (lambda: washout_sequence(_FIG2, 50).z.at(2.5), "time must be an integer, got 2.5"),
    (lambda: washout_sequence(_FIG2, 50).z.window(0.5, 3), "time must be an integer, got 0.5"),
    (lambda: washout_sequence(_FIG2, 50).at(2.5), "time must be an integer, got 2.5"),
    (lambda: washout_sequence(_FIG2, 50).window(0, "3"), "time must be an integer, got '3'"),
    (lambda: washout_periodic(_FIG2).at(2.5), "time must be an integer, got 2.5"),
    (lambda: washout_periodic(_FIG2).window(0.5, 3), "time must be an integer, got 0.5"),
], ids=["TimeSeries.at", "TimeSeries.window", "WashoutSolution.at", "WashoutSolution.window",
        "periodic-at", "periodic-window"])
def test_a_time_that_is_no_integer_is_a_usage_error(call, message):
    # these raised numpy's IndexError or TypeError
    with pytest.raises(UsageError) as err:
        call()
    assert str(err.value) == message


def test_integral_times_of_other_types_read_as_ints():
    z, zp = washout_sequence(_FIG2, 50), washout_periodic(_FIG2)
    assert z.at(np.int64(7)) == z.at(7.0) == z.at(7) and zp.at(np.int32(-3)) == zp.at(497)
    assert z.window(np.int64(-2), 3.0).tolist() == [z.at(t) for t in range(-2, 4)]


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_window_matches_at(data):
    # period 37 lets a 200-step range span several periods
    params = _params(0.2, 3, Sinusoid(amplitude=0.25, period_steps=37, offset=0.6))
    truncated = washout_sequence(params, horizon=120)
    a = data.draw(st.integers(-3, 120))
    b = data.draw(st.integers(a, 120))
    assert truncated.window(a, b).tolist() == [truncated.at(t) for t in range(a, b + 1)]
    periodic = washout_periodic(params)
    a = data.draw(st.integers(-400, 400))
    b = data.draw(st.integers(a, a + 200))
    assert periodic.window(a, b).tolist() == [periodic.at(t) for t in range(a, b + 1)]
