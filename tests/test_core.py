import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chemodde import (
    ChemostatParams,
    Constant,
    DyadicBlocks,
    ExplicitSequence,
    InitialHistory,
    LinearUptake,
    Monod,
    ParameterError,
    PiecewiseLinear,
    Sinusoid,
    TabulatedUptake,
    validate_standing_hypotheses,
)

GRID = np.concatenate([[0.0], np.geomspace(1e-6, 1e4, 60)])


# ---------------------------------------------------------------------------
# uptake functions
# ---------------------------------------------------------------------------


def test_monod_hand_values():
    p = Monod(p_max=0.7, k_s=1.3)
    assert p.evaluate(0.0) == 0.0
    assert math.isclose(p.evaluate(1.3), 0.35, rel_tol=1e-12)
    big = 1e6 * 1.3
    assert math.isclose(p.evaluate(big), 0.7 * 1e6 / (1e6 + 1), rel_tol=1e-12)


@given(
    p_max=st.floats(0.01, 10.0),
    k_s=st.floats(0.01, 10.0),
)
@settings(max_examples=50, deadline=None)
def test_monod_shape(p_max, k_s):
    p = Monod(p_max=p_max, k_s=k_s)
    d0 = p.derivative_at_zero()
    vals = [p.evaluate(s) for s in GRID]
    # the array path gives the scalar values bit for bit, also at s < 0
    points = np.concatenate([[-1e-3, -1e-9], GRID])
    assert p.evaluate(points).tolist() == [p.evaluate(s) for s in points.tolist()]
    ders = [p.derivative(s) for s in GRID]
    assert vals[0] == 0.0
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= d <= d0 * (1 + 1e-12) for d in ders)


def test_linear_uptake_shape():
    p = LinearUptake(slope=0.4)
    assert p.evaluate(0.0) == 0.0
    assert p.derivative(123.0) == p.derivative_at_zero() == 0.4
    # unbounded by design; large arguments are fine
    assert p.evaluate(1e12) == 0.4e12
    points = np.array([-2.0, -0.0, 0.0, 1.5, 1e12])
    assert p.evaluate(points).tolist() == [p.evaluate(s) for s in points.tolist()]


def test_tabulated_follows_samples():
    ref = Monod(p_max=1.0, k_s=1.0)
    grid = np.linspace(0.0, 5.0, 21)
    tab = TabulatedUptake(grid=tuple(grid), values=tuple(ref.evaluate(s) for s in grid))
    for s in grid:
        assert math.isclose(tab.evaluate(s), ref.evaluate(s), rel_tol=0, abs_tol=1e-15)
    # between nodes: monotone, and sandwiched by the node values
    for s in np.linspace(0.01, 4.99, 97):
        lo = ref.evaluate(math.floor(s / 0.25) * 0.25)
        hi = ref.evaluate(math.ceil(s / 0.25) * 0.25)
        assert lo - 1e-15 <= tab.evaluate(s) <= hi + 1e-15
    d0 = tab.derivative_at_zero()
    for s in np.linspace(0.0, 7.0, 71):
        assert 0.0 <= tab.derivative(s) <= d0 + 1e-15
    # held constant past the table
    assert tab.evaluate(100.0) == ref.evaluate(5.0)
    assert tab.derivative(100.0) == 0.0
    # the array path (np.interp) gives the scalar values bit for bit: below
    # zero, at zero, on and between grid points, and past the last point
    points = np.concatenate([
        [-1.0, -1e-12, -0.0, 0.0], grid, np.linspace(0.01, 4.99, 97),
        np.random.default_rng(0).uniform(-1.0, 6.0, 1000), [5.0, 100.0, math.inf],
    ])
    assert tab.evaluate(points).tolist() == [tab.evaluate(s) for s in points.tolist()]


def test_tabulated_validation():
    with pytest.raises(ParameterError):
        TabulatedUptake(grid=(0.5, 1.0), values=(0.0, 0.1))  # must start at 0
    with pytest.raises(ParameterError):
        TabulatedUptake(grid=(0.0, 1.0, 2.0), values=(0.0, 0.5, 0.4))  # decreasing
    with pytest.raises(ParameterError):
        # second segment steeper than the first: p' <= p'(0) broken
        TabulatedUptake(grid=(0.0, 1.0, 2.0), values=(0.0, 0.1, 0.9))


# ---------------------------------------------------------------------------
# input signals
# ---------------------------------------------------------------------------


def test_sinusoid_exact_periodicity():
    sig = Sinusoid(amplitude=0.25, period_steps=7, offset=0.6)
    for t in range(0, 3 * 7):
        # one-step ranges evaluate the formula at t itself
        assert sig.sample(t + 7, t + 7) == sig.sample(t, t)
        assert sig.sample(t - 7, t - 7) == sig.sample(t, t)  # backward extension
    lo, hi = sig.bounds()
    assert 0.0 < lo <= hi
    values = sig.sample(-20, 39)
    assert np.all((lo <= values) & (values <= hi))


def test_sinusoid_matches_formula():
    sig = Sinusoid(amplitude=0.25, period_steps=500, offset=0.6)
    period = sig.sample(0, 499)
    for t in (0, 1, 125, 250, 499):
        expect = 0.25 * math.sin(2 * math.pi * t / 500) + 0.6
        assert math.isclose(period[t], expect, rel_tol=1e-12, abs_tol=1e-15)
        assert sig.sample(t, t)[0] == period[t]


@pytest.mark.parametrize("amplitude, offset, message", [
    (0.25, math.inf, "sinusoid offset must be finite, got inf"),
    (0.25, math.nan, "sinusoid offset must be finite, got nan"),
    (math.inf, 0.6, "sinusoid amplitude must be finite, got inf"),
    (math.nan, 0.6, "sinusoid amplitude must be finite, got nan"),
    (-0.1, 0.6, "sinusoid amplitude must be >= 0, got -0.1"),
    (0.25, 0.2, "sinusoid must stay nonnegative: offset 0.2 < amplitude 0.25"),
])
def test_sinusoid_rejects_bad_amplitude_or_offset(amplitude, offset, message):
    with pytest.raises(ParameterError) as err:
        Sinusoid(amplitude=amplitude, period_steps=500, offset=offset)
    assert str(err.value) == message


def test_constant_and_sequence_bounds():
    c = Constant(0.5)
    assert c.sample(-17, -17) == c.sample(3, 3) == 0.5
    assert c.period == 1

    seq = ExplicitSequence(values=(0.2, 0.4, 0.8), periodic=True)
    assert seq.period == 3
    assert np.array_equal(seq.sample(-9, 11), seq.sample(-6, 14))
    lo, hi = seq.bounds()
    assert (lo, hi) == (0.2, 0.8)

    open_seq = ExplicitSequence(values=(0.2, 0.4, 0.8), periodic=False)
    assert open_seq.period is None
    assert open_seq.sample(-5, -5) == 0.2  # clamps to the first value
    assert open_seq.sample(99, 99) == 0.8


def test_piecewise_linear_clamps_and_interpolates():
    sig = PiecewiseLinear(breakpoints=((0.0, 3.0), (500.0, 3.0), (1500.0, 0.05)))
    values = sig.sample(-10, 5000)
    assert values[0] == 3.0
    assert values[260] == 3.0
    assert math.isclose(values[1010], (3.0 + 0.05) / 2, rel_tol=1e-12)
    assert values[-1] == 0.05
    assert sig.bounds() == (0.05, 3.0)


def test_dyadic_blocks_layout():
    sig = DyadicBlocks(E=0.5, r=0)
    assert sig.high_value == pytest.approx(8.0)
    assert sig.low_value == 0.25
    high_times = {1, 4, 5, 6, 7, 16, 31, 64, 127}
    low_times = {-5, 0, 2, 3, 8, 15, 32, 63, 128}
    values = sig.sample(-5, 128)
    for t in high_times:
        assert values[t + 5] == sig.high_value, t
    for t in low_times:
        assert values[t + 5] == sig.low_value, t
    lo, hi = sig.bounds()
    assert (lo, hi) == (0.25, 8.0)


def test_dyadic_blocks_overflow_guard():
    with pytest.raises(ParameterError):
        DyadicBlocks(E=0.5, r=600)  # 2**1202 overflows a double


def test_piecewise_rejects_nonfinite_times():
    with pytest.raises(ParameterError, match="times must be finite"):
        PiecewiseLinear(breakpoints=((math.nan, 1.0),))
    with pytest.raises(ParameterError, match="times must be finite"):
        PiecewiseLinear(breakpoints=((0.0, 1.0), (math.inf, 2.0)))


# ---------------------------------------------------------------------------
# sample: bit for bit against one scalar oracle per signal
# ---------------------------------------------------------------------------


def _constant_oracle(sig, t):
    """Constant.value_at as it was written before sample was the only reader."""
    return sig.value


def _sinusoid_oracle(sig, t):
    """Sinusoid.value_at as it was written before sample was the only reader."""
    phase = t % sig.period_steps
    return sig.amplitude * math.sin(2.0 * math.pi * phase / sig.period_steps) + sig.offset


def _piecewise_oracle(sig, t):
    """PiecewiseLinear.value_at as it was written before sample existed:
    clamp outside, else the first segment with ta <= t <= tb."""
    pts = sig.breakpoints
    if t <= pts[0][0]:
        return pts[0][1]
    if t >= pts[-1][0]:
        return pts[-1][1]
    for (ta, va), (tb, vb) in zip(pts, pts[1:]):
        if ta <= t <= tb:
            return va + (vb - va) * (t - ta) / (tb - ta)
    raise AssertionError("unreachable")


def _sequence_oracle(sig, t):
    """ExplicitSequence.value_at as it was written before sample existed."""
    n = len(sig.values)
    if sig.periodic:
        return sig.values[t % n]
    return sig.values[min(max(t, 0), n - 1)]


def _dyadic_oracle(sig, t):
    """DyadicBlocks.value_at as it was written before sample was the only reader."""
    if t < 1:
        return sig.low_value
    block = 1  # largest power of 4 that is <= t
    while block * 4 <= t:
        block *= 4
    return sig.high_value if t < 2 * block else sig.low_value


ORACLES = {
    Constant: _constant_oracle,
    Sinusoid: _sinusoid_oracle,
    PiecewiseLinear: _piecewise_oracle,
    ExplicitSequence: _sequence_oracle,
    DyadicBlocks: _dyadic_oracle,
}

_values = st.floats(0.0, 10.0)
_breakpoint_times = st.one_of(
    st.integers(-60, 160).map(float),  # integer breakpoints, interior ones included
    st.floats(-60.0, 160.0),
)


@st.composite
def _sinusoids(draw):
    amplitude = draw(_values)
    return Sinusoid(amplitude, draw(st.integers(1, 40)), amplitude + draw(_values))


@st.composite
def _piecewise(draw):
    times = sorted(draw(st.sets(_breakpoint_times, min_size=1, max_size=5)))
    return PiecewiseLinear(tuple((t, draw(_values)) for t in times))


SIGNALS = st.one_of(
    st.builds(Constant, _values),
    _sinusoids(),
    _piecewise(),
    st.builds(ExplicitSequence, st.lists(_values, min_size=1, max_size=12).map(tuple), st.booleans()),
    st.builds(DyadicBlocks, st.floats(0.05, 0.95), st.integers(0, 4)),
)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def test_sample_strategy_covers_every_input_signal():
    from chemodde import core

    kinds = {cls for cls in vars(core).values()
             if isinstance(cls, type) and issubclass(cls, core.InputSignal) and cls is not core.InputSignal}
    assert kinds == {Constant, Sinusoid, PiecewiseLinear, ExplicitSequence, DyadicBlocks}
    assert kinds == set(ORACLES)


@settings(max_examples=300, deadline=None)
@given(sig=SIGNALS, t_from=st.integers(-200, 200), length=st.one_of(st.just(1), st.integers(0, 300)))
@example(sig=PiecewiseLinear(((0.0, 3.0), (500.0, 3.0), (1500.0, 0.05))), t_from=-20, length=1600)
@example(sig=PiecewiseLinear(((0.0, 1.0), (3.0, 0.3), (7.0, 0.9))), t_from=-2, length=12)
@example(sig=PiecewiseLinear(((2.5, 1.0), (3.5, 0.3))), t_from=-2, length=12)
@example(sig=PiecewiseLinear(((4.0, 0.7),)), t_from=0, length=9)
@example(sig=PiecewiseLinear(((0.0, 0.0), (2.225073858507e-311, 1.0))), t_from=-1, length=3)
@example(sig=Sinusoid(0.25, 7, 0.6), t_from=-30, length=80)
@example(sig=Sinusoid(0.25, 7, 0.6), t_from=-3, length=6)  # shorter than a period
@example(sig=Sinusoid(0.25, 7, 0.6), t_from=-3, length=7)  # exactly one period
@example(sig=Sinusoid(0.25, 7, 0.6), t_from=-3, length=8)  # longer than a period
@example(sig=ExplicitSequence((0.2, 0.4, 0.8), periodic=True), t_from=-10, length=25)
@example(sig=ExplicitSequence((0.2, 0.4, 0.8)), t_from=-10, length=25)
def test_sample_matches_oracle_bit_for_bit(sig, t_from, length):
    t_to = t_from + length - 1
    got = sig.sample(t_from, t_to)
    assert got.dtype == np.float64 and got.shape == (length,)
    oracle = ORACLES[type(sig)]
    assert _bits(got) == _bits([oracle(sig, t) for t in range(t_from, t_to + 1)])


@pytest.mark.parametrize("n", range(21))
def test_dyadic_sample_at_block_edges(n):
    # the high block [4**n, 2*4**n) starts and ends between these pairs
    sig = DyadicBlocks(E=0.1, r=2)
    lo, hi = sig.low_value, sig.high_value
    assert sig.sample(4**n - 1, 4**n).tolist() == [lo, hi]
    assert sig.sample(2 * 4**n - 1, 2 * 4**n).tolist() == [hi, lo]
    for t in (4**n - 1, 4**n, 2 * 4**n - 1, 2 * 4**n):
        assert sig.sample(t, t)[0] == _dyadic_oracle(sig, t), t


# ---------------------------------------------------------------------------
# parameters and history
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("E", [0.0, 1.0, 1.5, -0.1])
def test_params_reject_bad_E(E):
    with pytest.raises(ParameterError):
        ChemostatParams(E=E, r=1, uptake=Monod(1.0, 1.0), input=Constant(1.0))


@pytest.mark.parametrize("r", [-1, 0.5, "two"])
def test_params_reject_bad_r(r):
    with pytest.raises(ParameterError):
        ChemostatParams(E=0.5, r=r, uptake=Monod(1.0, 1.0), input=Constant(1.0))


def test_initial_history():
    init = InitialHistory.constant(3, 0.5, 0.2)
    assert len(init) == 4
    assert init.s == (0.5,) * 4
    with pytest.raises(ParameterError):
        InitialHistory(s=(0.5, -0.1), x=(0.2, 0.2))
    with pytest.raises(ParameterError):
        InitialHistory(s=(0.5,), x=(0.2, 0.2))


# ---------------------------------------------------------------------------
# standing hypotheses
# ---------------------------------------------------------------------------


def test_standing_hypotheses_monod_fig2_bound():
    # p(s) = s/(1+s) has p'(0) = 1; the sinusoid 0.25*sin + 0.6 tops at 0.85
    params = ChemostatParams(
        E=0.125, r=5, uptake=Monod(1.0, 1.0),
        input=Sinusoid(amplitude=0.25, period_steps=500, offset=0.6),
    )
    report = validate_standing_hypotheses(params, z_sup=0.85)
    assert report.hypothesis_pz
    assert math.isclose(report.pz_product, 0.85, rel_tol=1e-12)


def test_standing_hypotheses_boundary_and_violation():
    params = ChemostatParams(E=0.5, r=0, uptake=LinearUptake(1.0), input=Constant(1.0))
    report = validate_standing_hypotheses(params, z_sup=1.0)
    assert report.hypothesis_pz and report.pz_product == 1.0  # equality admitted

    params2 = ChemostatParams(E=0.5, r=0, uptake=LinearUptake(2.0), input=Constant(1.0))
    report2 = validate_standing_hypotheses(params2, z_sup=1.0)
    assert not report2.hypothesis_pz  # failure is reported, not raised
    assert report2.pz_product == 2.0
    assert not report2.feasible
