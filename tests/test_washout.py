import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemodde import (
    ChemostatParams,
    Constant,
    ExplicitSequence,
    Monod,
    Sinusoid,
    UsageError,
    washout_periodic,
    washout_sequence,
)
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
    assert np.allclose(zp.profile, 0.5, rtol=1e-12, atol=0)


def test_period_two_hand_oracle():
    # E = 1/2, s0 = (0, 1): solving z0 = z1/2 + 1/2, z1 = z0/2 gives
    # z(even) = 2/3, z(odd) = 1/3
    params = _params(0.5, 0, ExplicitSequence(values=(0.0, 1.0), periodic=True))
    zp = washout_periodic(params)
    assert math.isclose(zp.profile[0], 2.0 / 3.0, rel_tol=1e-12)
    assert math.isclose(zp.profile[1], 1.0 / 3.0, rel_tol=1e-12)

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
    for t in (-750, -3, 0, 17, 499, 500, 1234):
        assert zp.at(t + 500) == zp.at(t)
    # one full forward period returns to the start within accumulated rounding
    E = 0.125
    z = zp.profile[0]
    for s0 in params.input.sample(0, 499):
        z = (1 - E) * z + E * s0
    assert math.isclose(z, zp.profile[0], rel_tol=1e-10)


def test_periodic_agrees_with_deep_tail_sum():
    params = _params(0.125, 5, fig2_input())
    zp = washout_periodic(params)
    zs = washout_sequence(params, horizon=1000, tail_depth=1000)
    for t in range(-5, 1001):
        assert abs(zs.at(t) - zp.at(t)) <= 1e-10


def test_truncation_error_below_recorded_bound():
    params = _params(0.125, 5, fig2_input())
    zp = washout_periodic(params)
    for depth in (0, 3, 10, 40):
        zs = washout_sequence(params, horizon=200, tail_depth=depth)
        worst = max(abs(zs.at(t) - zp.at(t)) for t in range(-5, 201))
        assert worst <= zs.tail_error_bound + 1e-15
        assert math.isclose(
            zs.tail_error_bound, (1 - 0.125) ** depth * 0.85, rel_tol=1e-12
        )


def test_exponential_forgetting():
    # two runs started from different truncations differ by exactly
    # (1-E)**(t+r) times their initial difference
    params = _params(0.35, 3, fig2_input())
    za = washout_sequence(params, horizon=120, tail_depth=0)
    zb = washout_sequence(params, horizon=120)
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
    with pytest.raises(UsageError):
        washout_sequence(params, horizon=100, tail_depth=-1)
    open_ended = _params(0.125, 5, ExplicitSequence(values=(0.5, 0.6), periodic=False))
    with pytest.raises(UsageError):
        washout_periodic(open_ended)


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
