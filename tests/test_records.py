"""The public record classes behave as frozen values: construction by
position or keyword, defaults, argument errors, refused assignment and
deletion, equality, hashing, repr, validation, undecorated subclasses and
deep copies.  The tests read behaviour only, never how the records are
built."""

import copy

import numpy as np
import pytest

import chemodde
from chemodde import (
    ChemostatParams,
    Constant,
    InputSignal,
    Monod,
    ParameterError,
    TimeSeries,
    WashoutSolution,
)

_SERIES = TimeSeries(np.array([0.5, 0.25]), 0)
_PARAMS = ChemostatParams(0.25, 2, Monod(1.0, 1.0), Constant(1.0))

# record name -> (required fields, optional fields), each a tuple of
# (name, value) in field order; an optional field's value is its default
FIELDS = {
    "AttractionRate": (
        (("rho", 0.5), ("slope", -0.69), ("n_points", 10), ("r_squared", 0.99), ("rho_s", None)),
        (("identical", False), ("note", "")),
    ),
    "BohlEstimate": ((("lower", 0.9), ("upper", 1.1), ("window_min", 8), ("gap_min", 0), ("horizon", 100)), ()),
    "ChemostatParams": ((("E", 0.25), ("r", 2), ("uptake", Monod(1.0, 1.0)), ("input", Constant(1.0))), ()),
    "ClassificationReport": (
        (("verdict", "Persistent"), ("basis", "Periodic"), ("lower", 1.5), ("upper", 1.5),
         ("window_min", None), ("horizon", 100)),
        (("mean", None), ("borderline", False), ("note", ""), ("phi_sweeps", None), ("phi_residual", None)),
    ),
    "Constant": ((("value", 1.0),), ()),
    "CorrectionSequences": ((("phi", _SERIES), ("growth", _SERIES)), (("cross_check_error", 0.0),)),
    "DyadicBlocks": ((("E", 0.25), ("r", 1)), ()),
    "ExplicitSequence": ((("values", (0.5, 1.0, 0.75)),), (("periodic", False),)),
    "FeasibilityReport": (
        (("hypothesis_pz", True), ("pz_product", 0.5), ("z_sup", 1.0), ("derivative_at_zero", 0.5),
         ("mass_ok", True), ("initial_mass", 0.75), ("z0", 1.0)),
        (),
    ),
    "InitialHistory": ((("s", (0.5, 0.5)), ("x", (0.25, 0.25))), ()),
    "LinearUptake": ((("slope", 0.4),), ()),
    "Monod": ((("p_max", 1.0), ("k_s", 2.0)), ()),
    "NeitherNorReport": (
        (("trivial", False),),
        (("params", None), ("feasibility", None), ("check_a", ()), ("check_a_ok", None),
         ("low_block_infima", ()), ("check_b_ok", None), ("classification", None), ("check_c_ok", None),
         ("first_negative_s", None), ("nonfinite_states", 0)),
    ),
    "PeriodicCorrection": (
        (("phi", np.array([1.0, 2.0])), ("period", 2), ("sweeps", 3), ("residual", 0.0), ("mean", 1.25)),
        (),
    ),
    "PeriodicOrbit": (
        (("period", 2), ("s", np.array([0.5, 0.25])), ("x", np.array([0.1, 0.2])), ("residual", 1e-12),
         ("delta", 0.1), ("periods_used", 4)),
        (),
    ),
    "PiecewiseLinear": ((("breakpoints", ((0.0, 1.0), (10.0, 0.5))),), ()),
    "RunConfig": (
        (("params", _PARAMS), ("init", None)),
        (("horizon", None), ("tol", None), ("window_min", None)),
    ),
    "Sinusoid": ((("amplitude", 0.5), ("period_steps", 20), ("offset", 1.0)), ()),
    "TabulatedUptake": ((("grid", (0.0, 1.0, 2.0)), ("values", (0.0, 0.5, 0.75))), ()),
    "TimeSeries": ((("values", np.array([0.5, 0.25])), ("t_start", -1)), ()),
    "Trajectory": (
        (("params", _PARAMS), ("s", _SERIES), ("x", _SERIES), ("y", _SERIES)),
        (("first_negative_s", None),),
    ),
    "WashoutConvergence": (
        (("washout", WashoutSolution(_SERIES, 0.5, 0.0)), ("periods_used", 3), ("max_x_last_period", 1e-9)),
        (),
    ),
    "WashoutSolution": ((("z", _SERIES), ("z_sup", 0.5), ("tail_error_bound", 0.0)), (("period", None),)),
}

# exported classes that are neither errors nor abstract bases
RECORDS = sorted(
    name for name in chemodde.__all__
    if isinstance(getattr(chemodde, name), type)
    and not issubclass(getattr(chemodde, name), Exception)
    and getattr(chemodde, name) not in (chemodde.UptakeFunction, InputSignal)
)


def _values(name):
    required, optional = FIELDS[name]
    return [value for _, value in required + optional]


def _build(name):
    return getattr(chemodde, name)(*_values(name))


def _names(name):
    required, optional = FIELDS[name]
    return [field for field, _ in required + optional]


def test_every_exported_record_has_an_example():
    assert RECORDS == sorted(FIELDS)


@pytest.mark.parametrize("name", RECORDS)
def test_position_and_keyword_give_equal_records_and_defaults_apply(name):
    cls = getattr(chemodde, name)
    required, optional = FIELDS[name]
    by_position = _build(name)
    by_keyword = cls(**dict(required + optional))
    assert by_position == by_keyword
    assert not by_position != by_keyword
    defaulted = cls(*[value for _, value in required])
    assert defaulted == by_position
    for field, default in optional:
        assert getattr(defaulted, field) == default


@pytest.mark.parametrize("name", RECORDS)
def test_missing_unknown_and_repeated_arguments_raise_type_error(name):
    cls = getattr(chemodde, name)
    required, _ = FIELDS[name]
    values = _values(name)
    with pytest.raises(TypeError):
        cls(*[value for _, value in required[:-1]])
    with pytest.raises(TypeError):
        cls(*values, no_such_field=1)
    with pytest.raises(TypeError):
        cls(*values, object())
    with pytest.raises(TypeError):
        cls(*values, **{required[0][0]: required[0][1]})


@pytest.mark.parametrize("name", RECORDS)
def test_fields_cannot_be_assigned_or_deleted(name):
    record = _build(name)
    for field in _names(name):
        before = repr(getattr(record, field))
        with pytest.raises(AttributeError):
            setattr(record, field, 1.0)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert repr(getattr(record, field)) == before
    with pytest.raises(AttributeError):
        record.not_a_field = 1.0


@pytest.mark.parametrize("name", RECORDS)
def test_equal_records_hash_alike_and_other_classes_differ(name):
    cls = getattr(chemodde, name)
    a, b = _build(name), _build(name)
    assert a == b
    try:
        h = hash(a)
    except TypeError:  # an array field makes the record unhashable
        with pytest.raises(TypeError):
            hash(b)
    else:
        assert hash(b) == h
    assert a != object()
    assert a.__eq__(object()) is NotImplemented
    sub = type("Sub", (cls,), {})
    assert sub(*_values(name)) != a


@pytest.mark.parametrize("name", RECORDS)
def test_repr_names_the_class_and_every_field(name):
    record = _build(name)
    fields = ", ".join(f"{field}={getattr(record, field)!r}" for field in _names(name))
    assert repr(record) == f"{name}({fields})"


def test_validation_runs_after_construction():
    with pytest.raises(ParameterError, match="p_max"):
        Monod(p_max=-1.0, k_s=1.0)
    with pytest.raises(ParameterError, match="k_s"):
        Monod(1.0, -1.0)
    with pytest.raises(ParameterError):
        ChemostatParams(E=1.5, r=0, uptake=Monod(1.0, 1.0), input=Constant(1.0))
    # validation may convert a field in place
    assert ChemostatParams(0.25, 2.0, Monod(1.0, 1.0), Constant(1.0)).r == 2


class _Counting(Monod):
    """An undecorated subclass, as tests subclass records to count calls."""

    calls = 0


def test_an_undecorated_subclass_keeps_its_base_fields():
    record = _Counting(1.0, k_s=2.0)
    assert (record.p_max, record.k_s) == (1.0, 2.0)
    assert repr(record) == "_Counting(p_max=1.0, k_s=2.0)"
    assert record == _Counting(p_max=1.0, k_s=2.0)
    assert record != Monod(1.0, 2.0)
    with pytest.raises(AttributeError):
        record.k_s = 3.0
    with pytest.raises(ParameterError):
        _Counting(-1.0, 1.0)
    with pytest.raises(TypeError):
        _Counting(1.0)
    record.note = "not a field"  # as for a dataclass, other names are open
    assert record.note == "not a field"


@pytest.mark.parametrize("name", RECORDS)
def test_a_deep_copy_is_an_equal_frozen_record(name):
    record = _build(name)
    twin = copy.deepcopy(record)
    assert type(twin) is type(record)
    assert repr(twin) == repr(record)
    with pytest.raises(AttributeError):
        setattr(twin, _names(name)[0], 1.0)
    if isinstance(record, InputSignal):
        assert np.array_equal(twin.sample(-3, 30), record.sample(-3, 30))
        assert twin == record
