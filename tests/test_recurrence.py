"""Exact recurrence in simulate and washout_sequence.

Once a periodic feed's state recurs bit for bit after L steps, both stop
stepping and repeat their last L values.  Every test here holds them to
the plain one-pass recursion, bit for bit: the oracles are local loops,
_integrate over the whole feed and the _forward pass from z = 0.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemodde import (
    ChemostatParams, Constant, ExplicitSequence, InitialHistory, InputSignal, LinearUptake, Monod,
    Sinusoid, simulate, washout, washout_sequence,
)
from chemodde.cli import fig2_init, fig2_params
from chemodde.core import RECURRENCE_MIN_LAG
from chemodde.dynamics import _initial_state, _integrate, _stored_nutrient_series
from chemodde.washout import _forward, default_tail_depth


def _lag(period):
    """The least multiple of period of at least RECURRENCE_MIN_LAG."""
    return -(-RECURRENCE_MIN_LAG // period) * period


def _bits(values):
    return np.array(values, dtype=float).view(np.int64).tolist()


def _plain_simulate(params, init, horizon):
    """s, x and y of one _integrate call over the whole feed."""
    s, x, ps = _initial_state(params, init)
    _integrate(params, s, x, ps, params.input.sample(0, horizon - 1).tolist())
    return s, x, _stored_nutrient_series(params, s, x, ps, horizon).values


def _plain_washout(params, horizon):
    """z on [-r, horizon] from one _forward pass over the tail and the horizon."""
    r, E = params.r, params.E
    tail = default_tail_depth(E)
    feed = params.input.sample(-r - 1 - tail, horizon - 1).tolist()
    return list(_forward(0.0, E, feed))[tail + 1 :]


def _assert_plain(params, init, horizon):
    """simulate and washout_sequence give the plain recursion's bits."""
    traj = simulate(params, init, horizon)
    s, x, y = _plain_simulate(params, init, horizon)
    assert _bits(traj.s.values) == _bits(s)
    assert _bits(traj.x.values) == _bits(x)
    assert _bits(traj.y.values) == _bits(y)
    neg = np.flatnonzero(np.array(s) < 0.0)
    assert traj.first_negative_s == (int(neg[0]) - params.r if neg.size else None)
    if horizon >= params.r:
        z = washout_sequence(params, horizon)
        want = _plain_washout(params, horizon)
        assert _bits(z.z.values) == _bits(want)
        assert _bits([z.z_sup]) == _bits([np.max(want)])
    return traj


@st.composite
def _cases(draw):
    kind = draw(st.sampled_from(["sinusoid", "sequence", "constant"]))
    level = st.floats(0.0, 2.0)
    if kind == "sinusoid":
        amplitude = draw(level)
        signal = Sinusoid(amplitude, draw(st.integers(1, 300)), amplitude + draw(level))
    elif kind == "sequence":
        signal = ExplicitSequence(draw(st.lists(level, min_size=1, max_size=40)), periodic=True)
    else:
        signal = Constant(draw(level))
    period = signal.period
    r = draw(st.integers(0, max(period + 2, 12)))
    # a steep linear uptake against a high feed drives s negative, and the
    # states then run to inf and nan
    uptake = draw(st.one_of(
        st.builds(Monod, st.floats(0.1, 2.0), st.floats(0.2, 3.0)),
        st.builds(LinearUptake, st.floats(0.1, 5.0)),
    ))
    params = ChemostatParams(E=draw(st.floats(0.05, 0.95)), r=r, uptake=uptake, input=signal)
    init = InitialHistory(tuple(draw(st.lists(level, min_size=r + 1, max_size=r + 1))),
                          (draw(level),) * (r + 1))
    horizon = max(0, draw(st.integers(0, 4)) * _lag(period) + draw(st.sampled_from([-1, 0, 1])))
    return params, init, horizon


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_cases())
def test_simulate_and_washout_match_the_plain_recursion(case):
    _assert_plain(*case)


def test_windows_that_differ_only_in_the_sign_of_a_zero_do_not_recur():
    # from s = x = -0.0 on a -0.0 feed the state runs (-0, +0) at t = 1,
    # then (+0, +0) for good: the window at t = L equals the one at t = 0
    # under == but not bit for bit, and repeating the values after t = 0
    # would put s = -0.0 at t = L + 1
    params = ChemostatParams(E=0.5, r=0, uptake=Monod(1.0, 1.0), input=Constant(-0.0))
    lag = _lag(1)
    traj = _assert_plain(params, InitialHistory((-0.0,), (-0.0,)), 3 * lag)
    assert _bits(traj.s.window(0, 1)) == _bits([-0.0, -0.0])
    assert _bits(traj.s.window(lag, lag + 1)) == _bits([0.0, 0.0])


class _ClaimedPeriod(InputSignal):
    """fig2's feed, claiming its period 500, with the sample at t = 15000
    raised by 0.1: the samples do not repeat bit for bit."""

    def __init__(self):
        self.base = fig2_params(0.6).input

    def sample(self, t_from, t_to):
        values = self.base.sample(t_from, t_to).copy()
        if t_from <= 15_000 <= t_to:
            values[15_000 - t_from] += 0.1
        return values

    def bounds(self):
        lo, hi = self.base.bounds()
        return lo, hi + 0.1

    @property
    def period(self):
        return 500


def test_a_claimed_period_the_samples_do_not_keep_runs_the_plain_pass():
    # the state recurs near t = 1700; repeating it to the end would miss
    # the raised sample at t = 15000
    params = dataclasses.replace(fig2_params(0.6), input=_ClaimedPeriod())
    traj = _assert_plain(params, fig2_init(), 20_000)
    assert traj.s.at(15_001) != traj.s.at(14_501)


@pytest.mark.parametrize("params, init", [
    (fig2_params(0.9), fig2_init()),
    # s = 1 is a fixed point of E = 1/2 on a feed of 1 without biomass, so
    # the state recurs at the first chance, t = L
    (ChemostatParams(E=0.5, r=0, uptake=LinearUptake(0.5), input=Constant(1.0)),
     InitialHistory((1.0,), (0.0,))),
], ids=["fig2", "fixed-point"])
@pytest.mark.parametrize("lags, step", [(0, 0), (0, 1), (0, 2), (1, -1), (1, 0), (1, 1), (2, -1)])
def test_horizons_below_two_lags_are_unchanged(params, init, lags, step):
    _assert_plain(params, init, lags * _lag(params.input.period) + step)


class _CountingMonod(Monod):
    """Monod that counts its evaluations in the class attribute calls."""

    calls = 0

    def evaluate(self, s):
        _CountingMonod.calls += 1
        return super().evaluate(s)


def test_a_recurring_fig2_run_stops_stepping():
    # at offset 0.6 the window of s and x recurs from t = 1703 with lag 500;
    # the full pass evaluates the uptake about 20,000 times
    params = dataclasses.replace(fig2_params(0.6), uptake=_CountingMonod(1.0, 1.0))
    _CountingMonod.calls = 0
    traj = simulate(params, fig2_init(), 20_000)
    assert _CountingMonod.calls < 5_000
    s, x, y = _plain_simulate(params, fig2_init(), 20_000)
    assert _bits(traj.s.values) == _bits(s)
    assert _bits(traj.x.values) == _bits(x)
    assert _bits(traj.y.values) == _bits(y)


def test_a_recurring_fig2_washout_stops_stepping(monkeypatch):
    # z recurs with lag 500 within the first chunks; the full pass takes
    # 20,456 steps over the tail, the history and the horizon
    steps = []

    def counting_forward(z, E, feed):
        steps.append(len(feed))
        return _forward(z, E, feed)

    monkeypatch.setattr(washout, "_forward", counting_forward)
    z = washout_sequence(fig2_params(0.6), 20_000)
    assert sum(steps) < 5_000
    assert _bits(z.z.values) == _bits(_plain_washout(fig2_params(0.6), 20_000))
