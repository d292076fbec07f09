"""Exact recurrence in simulate, washout_sequence and correction_recursion.

Once a feed that ends periodic has repeated for good and the state then
recurs bit for bit after L steps, they stop stepping and repeat their last
L values.  Every test here holds them to the plain one-pass recursion, bit
for bit: the oracles are local loops, _integrate over the whole feed, the
_forward pass from z = 0 and one _direct_phi pass over all the factors.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemodde import (
    ChemostatParams, Constant, DyadicBlocks, ExplicitSequence, InitialHistory, InputSignal, LinearUptake,
    Monod, PiecewiseLinear, Sinusoid, correction_recursion, exponents, phi_sequence, simulate, washout,
    washout_sequence,
)
from chemodde._records import replace
from chemodde.cli import fig1_params, fig2_init, fig2_params
from chemodde.core import RECURRENCE_MIN_LAG
from chemodde.dynamics import _initial_state, _integrate, _stored_nutrient_series
from chemodde.exponents import _direct_phi
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


def _draws(draw, least, most):
    """Between least and most uniform values in [0, 2) from a drawn seed."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.uniform(0.0, 2.0, draw(st.integers(least, most)))


@st.composite
def _cases(draw):
    kind = draw(st.sampled_from(["sinusoid", "sequence", "constant", "piecewise", "clamped", "head-tail",
                                 "dyadic"]))
    level = st.floats(0.0, 2.0)
    if kind == "sinusoid":
        amplitude = draw(level)
        signal = Sinusoid(amplitude, draw(st.integers(1, 300)), amplitude + draw(level))
    elif kind == "sequence":
        signal = ExplicitSequence(draw(st.lists(level, min_size=1, max_size=40)), periodic=True)
    elif kind == "constant":
        signal = Constant(draw(level))
    elif kind == "piecewise":  # constant after the last breakpoint
        times = sorted(draw(st.sets(st.integers(-50, 700), min_size=1, max_size=4)))
        signal = PiecewiseLinear(tuple(zip(times, draw(st.lists(level, min_size=len(times),
                                                                 max_size=len(times))))))
    elif kind == "clamped":  # no period, held at its last value past its end
        signal = ExplicitSequence(draw(st.lists(level, min_size=1, max_size=30))
                                  + _draws(draw, 0, 600).tolist())
    elif kind == "head-tail":  # a drawn head, then a constant inside the horizon
        signal = ExplicitSequence(np.concatenate([_draws(draw, 0, 700),
                                                  np.full(draw(st.integers(1, 900)), draw(level))]))
    else:
        signal = DyadicBlocks(draw(st.floats(0.2, 0.8)), draw(st.integers(0, 3)))
    period = signal.period or 1
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


@settings(max_examples=250, deadline=None, derandomize=True)
@given(_cases())
def test_simulate_and_washout_match_the_plain_recursion(case):
    _assert_plain(*case)


def _plain_recursion(f, seed):
    """correction_recursion as one _direct_phi pass over every factor."""
    f, seed = np.asarray(f, dtype=float), np.asarray(seed, dtype=float)
    ahead = np.fromiter(_direct_phi(iter(f.tolist()), seed.tolist()), float, len(f) + 1 - len(seed))
    return np.concatenate([seed, ahead])


@st.composite
def _recursion_cases(draw):
    """f as a drawn head, then a tail that repeats with lag L, the least
    multiple of r of at least RECURRENCE_MIN_LAG; and a seed of r values."""
    r = draw(st.integers(1, 12))
    lag = _lag(r)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # phi recurs within a few lags on small factors; on factors near 1 and
    # above, its last bits can wander for thousands of steps
    scale = draw(st.sampled_from([0.1, 0.5, 2.0]))
    if draw(st.booleans()):
        # 0.0 and -0.0 tie as floats, not as bits
        def values(size):
            return rng.choice([0.0, -0.0, scale], size)
    else:
        def values(size):
            return rng.uniform(0.0, scale, size)
    head = values(draw(st.integers(max(r - 1, 0), 700)))
    pattern = values(draw(st.sampled_from([d for d in (1, 2, r, lag) if lag % d == 0])))
    tail = np.resize(pattern, draw(st.integers(0, 8 * lag + r)))
    return np.concatenate([head, tail]), rng.uniform(0.05, 1.0, r)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_recursion_cases())
def test_correction_recursion_matches_the_plain_pass(case):
    f, seed = case
    assert _bits(correction_recursion(f, seed)) == _bits(_plain_recursion(f, seed))


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
    params = replace(fig2_params(0.6), input=_ClaimedPeriod())
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
    params = replace(fig2_params(0.6), uptake=_CountingMonod(1.0, 1.0))
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


def test_the_fig1_ramp_washout_stops_stepping(monkeypatch):
    # the feed is constant from t = 1500, and z stops stepping at t = 2012
    # after 2,317 steps; the full pass takes 4,305 steps over the tail, the
    # history and the horizon
    steps = []

    def counting_forward(z, E, feed):
        steps.append(len(feed))
        return _forward(z, E, feed)

    monkeypatch.setattr(washout, "_forward", counting_forward)
    z = washout_sequence(fig1_params(), 4_000)
    assert sum(steps) < 2_500
    assert _bits(z.z.values) == _bits(_plain_washout(fig1_params(), 4_000))


def test_the_fig1_ramp_cross_check_stops_stepping(monkeypatch):
    # the one phi pass stops at about the time z does, after 1,936 values;
    # the full pass yields 4,000
    yielded = []

    def counting_phi(f_values, seed):
        for phi in _direct_phi(f_values, seed):
            yielded.append(phi)
            yield phi

    params, horizon = fig1_params(), 4_000
    z = washout_sequence(params, horizon)
    monkeypatch.setattr(exponents, "_direct_phi", counting_phi)
    corr = phi_sequence(params, z, horizon)
    assert len(yielded) < 2_100
    r = params.r
    pz = params.uptake.evaluate(z.window(-r, horizon))
    direct = _plain_recursion(pz[1 : horizon + r], corr.phi.window(1 - r, 0))
    assert _bits(corr.phi.window(1 - r, horizon)) == _bits(direct)
    assert corr.cross_check_error <= 1e-15
