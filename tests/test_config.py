import re
from pathlib import Path

import numpy as np
import pytest

from chemodde import (
    Constant,
    DyadicBlocks,
    ExplicitSequence,
    LinearUptake,
    Monod,
    ParameterError,
    PiecewiseLinear,
    Sinusoid,
    TabulatedUptake,
    UsageError,
    config,
    parse_config,
    load_config,
)
from chemodde.config import _KINDS, _KNOWN_KEYS, _as_floats

FULL = """
# a fig-2 style run
schema = 1
model.E = 0.125
model.r = 5
uptake.kind = monod
uptake.p_max = 1.0
uptake.k_s = 1.0
input.kind = sinusoid
input.amplitude = 0.25
input.period = 500
input.offset = 0.6   # inline comment
init.s = 0.5 0.5 0.5 0.5 0.5 0.5
init.x = 0.2, 0.2, 0.2, 0.2, 0.2, 0.2
run.horizon = 1500
run.tol = 1e-9
run.T = 40
"""


def test_full_round_trip():
    cfg = parse_config(FULL)
    assert cfg.params.E == 0.125
    assert cfg.params.r == 5
    assert cfg.params.uptake == Monod(p_max=1.0, k_s=1.0)
    assert cfg.params.input == Sinusoid(amplitude=0.25, period_steps=500, offset=0.6)
    assert cfg.init.s == (0.5,) * 6
    assert cfg.init.x == (0.2,) * 6
    assert cfg.horizon == 1500
    assert cfg.tol == 1e-9
    assert cfg.window_min == 40


def test_minimal_config_without_init():
    cfg = parse_config(
        "schema = 1\nmodel.E = 0.2\nmodel.r = 0\n"
        "uptake.kind = linear\nuptake.slope = 0.4\n"
        "input.kind = constant\ninput.value = 1.0\n"
    )
    assert cfg.init is None
    assert cfg.horizon is None


def test_tabulated_and_sequence_kinds():
    cfg = parse_config(
        "schema = 1\nmodel.E = 0.3\nmodel.r = 1\n"
        "uptake.kind = tabulated\nuptake.s = 0 1 2\nuptake.values = 0 0.5 0.8\n"
        "input.kind = sequence\ninput.values = 0.4 0.6\ninput.periodic = true\n"
    )
    assert isinstance(cfg.params.uptake, TabulatedUptake)
    assert cfg.params.input.period == 2


def test_dyadic_kind_uses_model_params():
    cfg = parse_config(
        "schema = 1\nmodel.E = 0.5\nmodel.r = 2\n"
        "uptake.kind = linear\nuptake.slope = 1\n"
        "input.kind = dyadic\n"
    )
    assert cfg.params.input == DyadicBlocks(E=0.5, r=2)


def test_missing_schema_rejected():
    with pytest.raises(UsageError, match="schema"):
        parse_config("model.E = 0.5\nmodel.r = 0\n")


def test_unknown_key_rejected():
    with pytest.raises(UsageError, match="model.EE"):
        parse_config("schema = 1\nmodel.EE = 0.5\n")


def test_invalid_E_names_field():
    text = (
        "schema = 1\nmodel.E = 1.5\nmodel.r = 0\n"
        "uptake.kind = linear\nuptake.slope = 0.4\n"
        "input.kind = constant\ninput.value = 1.0\n"
    )
    with pytest.raises(ParameterError, match="model.E"):
        parse_config(text)


def test_init_length_mismatch():
    text = (
        "schema = 1\nmodel.E = 0.2\nmodel.r = 2\n"
        "uptake.kind = linear\nuptake.slope = 0.4\n"
        "input.kind = constant\ninput.value = 1.0\n"
        "init.s = 0.5 0.5\ninit.x = 0.2 0.2\n"
    )
    with pytest.raises(ParameterError, match="r\\+1"):
        parse_config(text)


def test_duplicate_key_rejected():
    with pytest.raises(UsageError, match="duplicate"):
        parse_config("schema = 1\nschema = 1\n")


def test_config_with_a_byte_order_mark_reads_as_without(tmp_path):
    # the mark was read into the first key: unknown key '\ufeffschema'
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_text(FULL, encoding="utf-8")
    marked.write_text(FULL, encoding="utf-8-sig")
    assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
    assert load_config(marked) == load_config(plain)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(UsageError, match="does not exist"):
        load_config(tmp_path / "nope.cfg")


MINIMAL = (
    "schema = 1\nmodel.E = 0.2\nmodel.r = 0\n"
    "uptake.kind = monod\nuptake.p_max = 1.0\nuptake.k_s = 1.0\n"
    "input.kind = constant\ninput.value = 1.0\n"
)


@pytest.mark.parametrize("text, key, kind", [
    (MINIMAL + "uptake.slope = 0.4\n", "uptake.slope", "uptake.kind = monod"),
    (MINIMAL + "input.period = 7\n", "input.period", "input.kind = constant"),
    (MINIMAL + "input.periodic = true\n", "input.periodic", "input.kind = constant"),
    (MINIMAL.replace("input.kind = constant\ninput.value = 1.0\n",
                     "input.kind = piecewise\ninput.t = 0 5\ninput.values = 1 0.5\n")
     + "input.periodic = false\n", "input.periodic", "input.kind = piecewise"),
    (MINIMAL.replace("input.kind = constant\ninput.value = 1.0\n", "input.kind = dyadic\n")
     + "input.value = 1.0\n", "input.value", "input.kind = dyadic"),
])
def test_key_the_kind_does_not_read_rejected(text, key, kind):
    with pytest.raises(UsageError) as err:
        parse_config(text)
    assert str(err.value) == f"{key} is not read by {kind}"


def _sequence_config(values):
    return (
        "schema = 1\nmodel.E = 0.2\nmodel.r = 0\n"
        "uptake.kind = linear\nuptake.slope = 0.4\n"
        f"input.kind = sequence\ninput.values = {values}\n"
    )


@pytest.mark.parametrize("bad", ["0.5x", "nan?", "--1", "1e"])
def test_bad_token_at_the_end_of_a_long_list_is_named(bad):
    with pytest.raises(ParameterError) as err:
        parse_config(_sequence_config(" ".join(["0.5"] * 30_000 + [bad])))
    assert str(err.value) == f"input.values: expected a number, got {bad!r}"


def test_first_of_several_bad_tokens_is_named():
    with pytest.raises(ParameterError) as err:
        parse_config(_sequence_config("0.5, 0.25 x1 0.5 y2"))
    assert str(err.value) == "input.values: expected a number, got 'x1'"


def test_list_tokens_parse_as_float_parses_each():
    tokens = ["0.5", "1e-3", "1_000.25", "-0.0", "+2", "inf", "-Infinity", "nan", "7"]
    got = np.array(_as_floats("k", " ".join(tokens[:4]) + ", " + ",".join(tokens[4:])))
    assert got.view(np.int64).tolist() == np.array([float(t) for t in tokens]).view(np.int64).tolist()


def test_list_with_a_bad_token_names_the_key_and_the_token():
    with pytest.raises(ParameterError) as err:
        _as_floats("k", "1.0 2.0 abc 4.0")
    assert str(err.value) == "k: expected a number, got 'abc'"


def test_list_mixing_commas_and_whitespace_parses():
    assert _as_floats("k", " 1.5,2\t-3 ,\n4e1,,5 ") == [1.5, 2.0, -3.0, 40.0, 5.0]


@pytest.mark.parametrize("value", ["", "   ", ", ,\t,"])
def test_empty_list_is_refused(value):
    with pytest.raises(ParameterError) as err:
        _as_floats("k", value)
    assert str(err.value) == "k: expected a list of numbers"


# (section, kind, its lines, the object they parse to); the other section
# is monod uptake or a constant feed
KIND_CASES = [
    ("uptake", "monod", "uptake.p_max = 1.5\nuptake.k_s = 0.5\n", Monod(p_max=1.5, k_s=0.5)),
    ("uptake", "linear", "uptake.slope = 0.4\n", LinearUptake(slope=0.4)),
    ("uptake", "tabulated", "uptake.s = 0 1 2\nuptake.values = 0 0.5 0.8\n",
     TabulatedUptake(grid=(0.0, 1.0, 2.0), values=(0.0, 0.5, 0.8))),
    ("input", "constant", "input.value = 1.25\n", Constant(value=1.25)),
    ("input", "sinusoid", "input.amplitude = 0.25\ninput.period = 500\ninput.offset = 0.6\n",
     Sinusoid(amplitude=0.25, period_steps=500, offset=0.6)),
    ("input", "piecewise", "input.t = 0 50 150\ninput.values = 1 0.6 0.2\n",
     PiecewiseLinear(breakpoints=((0.0, 1.0), (50.0, 0.6), (150.0, 0.2)))),
    ("input", "sequence", "input.values = 0.4, 0.9\n", ExplicitSequence(values=(0.4, 0.9))),
    ("input", "sequence", "input.values = 0.4, 0.9\ninput.periodic = true\n",
     ExplicitSequence(values=(0.4, 0.9), periodic=True)),
    ("input", "dyadic", "", DyadicBlocks(E=0.125, r=2)),
]


def test_kind_cases_cover_the_table():
    assert {(section, kind) for section, kind, _, _ in KIND_CASES} == {
        (section, kind) for section, kinds in _KINDS.items() for kind in kinds
    }


@pytest.mark.parametrize("section, kind, lines, expected", KIND_CASES)
def test_each_kind_parses_its_keys_to_its_object(section, kind, lines, expected):
    _, args = _KINDS[section][kind]
    given = {line.split("=")[0].strip() for line in lines.splitlines()}
    reads = {key for key, *_ in args.values() if key.startswith(f"{section}.")}
    optional = {key for key, _, *default in args.values() if default}
    assert reads - optional <= given <= reads
    other = {"uptake": "input.kind = constant\ninput.value = 1.0\n",
             "input": "uptake.kind = monod\nuptake.p_max = 1.0\nuptake.k_s = 1.0\n"}[section]
    cfg = parse_config(f"schema = 1\nmodel.E = 0.125\nmodel.r = 2\n{section}.kind = {kind}\n{lines}{other}")
    assert getattr(cfg.params, section) == expected


def _dotted_keys(text):
    return set(re.findall(r"\b[a-z]+\.[A-Za-z_]\w*", text))


def test_readme_and_docstring_name_exactly_the_known_keys():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Configuration files", 1)[1].split("```")[1]
    dotted = _KNOWN_KEYS - {"schema"}
    for text in (block, config.__doc__):
        assert _dotted_keys(text) == dotted
        assert re.search(r"^\s*schema\b", text, re.MULTILINE)
