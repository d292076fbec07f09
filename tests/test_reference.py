"""CLI output against the frozen reference package: the same argv run
through chemodde.cli.run and chemodde_ref.cli.run gives the same exit code,
the same stdout and stderr once the output directory is named alike, the
same bytes in every CSV file and the same JSON, apart from the declared
differences below.  SVG files are not compared: their polylines and tick
labels changed on purpose.

The commands cover tables that end in an exact cycle, which the CSV writer
formats once: fig2 at 0.9, 0.6 and 0.45 (lag 500 from rows 469, 1203 and
9031), simulate on the sinusoid (lag 500) and on the periodic sequence
(lag 14, twice its period), and washout on both; and a table without one,
fig2 at 0.36.  Two tables stand at the extremes of the float cells: a
feed of 3000 samples without a period, whose blocks hold no repeated
value (simulate and exponents), and an infeasible dyadic run, whose
blocks hold thousands of nan and inf cells (simulate).  exponents,
sliding and classify run on the sinusoid and on the fig1 ramp (a
piecewise feed); periodic runs to an orbit, to washout,
to an orbit after 83 periods, to an orbit whose period 7 is shorter than
its state window r + 1 = 13, and out of its period budget (exit 1).
Feeds that end constant stop stepping at an exact recurrence: fig1 at
horizon 8000, washout on the fig1 ramp, and simulate and exponents on a
sequence without a period that the horizon runs past.
Drawn configs inside the positivity hypotheses add regimes beyond these,
compared only where the reference runs cleanly: error texts and exit
codes for bad inputs changed on purpose.

The declared differences are the rows of DECLARED, each naming the
command, the file, the JSON key or CSV column, its rule and the CHANGES.md
line that declares it.  Every other file, column, key, exit code and
stream must match byte for byte.

The reference runs with floating-point warnings off: its
conservation_deficit sets no errstate, and the dyadic run overflows
there.  chemodde runs under the warnings filter of the test suite."""

import contextlib
import io
import json
import math
from dataclasses import dataclass
from fnmatch import fnmatch
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chemodde import InitialHistory, check_positivity_preconditions, cli, washout_sequence
from chemodde.config import parse_config

from conftest import reference


def _sinusoid_cfg(offset=0.7, horizon=6000, E=0.125, r=5, period=500):
    return f"""
schema = 1
model.E = {E}
model.r = {r}
uptake.kind = monod
uptake.p_max = 1.0
uptake.k_s = 1.0
input.kind = sinusoid
input.amplitude = 0.25
input.period = {period}
input.offset = {offset}
init.s = {" ".join(["0.5"] * (r + 1))}
init.x = {" ".join(["0.2"] * (r + 1))}
run.horizon = {horizon}
"""


SEQUENCE_CFG = """
schema = 1
model.E = 0.2
model.r = 2
uptake.kind = monod
uptake.p_max = 2.0
uptake.k_s = 1.0
input.kind = sequence
input.values = 0.9 1.3 0.7 1.1 1.6 0.8 1.2
input.periodic = true
init.s = 0.3 0.3 0.3
init.x = 0.4 0.4 0.4
run.horizon = 4000
"""

# the fig1 feed: constant 3, then a linear ramp down to 0.05
RAMP_CFG = f"""
schema = 1
model.E = {1.0 / 5.5!r}
model.r = 5
uptake.kind = monod
uptake.p_max = 1.0
uptake.k_s = 1.0
input.kind = piecewise
input.t = 0 500 1500
input.values = 3 3 0.05
run.horizon = 2000
"""

# a feed without a period, as a measured one: each sample a new value
DRIFT_CFG = f"""
schema = 1
model.E = 0.04
model.r = 7
uptake.kind = monod
uptake.p_max = 1.0
uptake.k_s = 1.0
input.kind = sequence
input.values = {" ".join(repr(1.2 + 0.6 * math.sin(i * math.sqrt(2)) + 0.3 * math.sin(i * math.pi / 97))
                         for i in range(3000))}
input.periodic = false
init.s = {" ".join(["0.3"] * 8)}
init.x = {" ".join(["0.1"] * 8)}
run.horizon = 3000
"""

# a feed without a period that the horizon runs past: held at its last
# value from t = 399, so the state recurs near t = 1167 and phi sooner
CLAMPED_CFG = f"""
schema = 1
model.E = 0.1
model.r = 3
uptake.kind = monod
uptake.p_max = 1.0
uptake.k_s = 1.0
input.kind = sequence
input.values = {" ".join(repr(0.9 + 0.2 * math.sin(i * math.sqrt(3))) for i in range(400))}
input.periodic = false
init.s = 0.3 0.3 0.3 0.3
init.x = 0.2 0.2 0.2 0.2
run.horizon = 3000
"""

# the dyadic demonstration feed with too much uptake: s and x overflow
DYADIC_CFG = """
schema = 1
model.E = 0.5
model.r = 0
uptake.kind = linear
uptake.slope = 1.0
input.kind = dyadic
init.s = 0.25
init.x = 0.01
run.horizon = 2048
"""

CONFIGS = {
    "sinusoid.cfg": _sinusoid_cfg(),
    "sequence.cfg": SEQUENCE_CFG,
    "ramp.cfg": RAMP_CFG,
    "washout.cfg": _sinusoid_cfg(offset=0.36),
    "slow.cfg": _sinusoid_cfg(offset=0.43),
    "short.cfg": _sinusoid_cfg(offset=1.5, E=0.05, r=12, period=7),
    "drift.cfg": DRIFT_CFG,
    "dyadic.cfg": DYADIC_CFG,
    "clamped.cfg": CLAMPED_CFG,
}


@dataclass(frozen=True)
class Declared:
    """One declared difference: on `command`'s `file`, the JSON key (dotted
    into nested objects) or CSV column `field` follows `rule`, and the
    CHANGES.md line holding the text `declared` says why.  A rule is ADDED
    (chemodde writes the key, the reference does not), SPELLING (non-finite
    JSON floats spelled as strings) or a tolerance tol: |got - want| <=
    tol * |want - about|, where want - about is the quantity the field's
    error is relative to."""

    command: str
    file: str
    field: str
    rule: object
    declared: str
    about: float = 0.0


ADDED, SPELLING = "added", "spelling"

# The reference's log-c generator leaves phi off by a few ulp(log c): 1.6e-13
# relative on the fig1 ramp at H = 4000 against a 60-digit run of the
# comparison equation, while the fixed-point pass stays within 6e-16.  log c
# grows with the horizon; on the runs here (H <= 6000) the two differ by at
# most 2.1e-13 (drift.cfg), and 1e-12 bounds the error of phi, of a growth
# factor (1-E)(1 + phi p(z)) and of a window geometric mean of those.  A
# sliding product multiplies up to H/2 + 1 <= 4001 growth factors (fig1
# --horizon 8000), so its errors add to at most 4001 * 1.6e-13 < 1e-9.
PHI_TOL = 1e-12
SLIDING_TOL = 1e-9
ONE_PASS = "phi from one fixed-point pass"

DECLARED = [
    Declared("classify", "classify.json", "phi_sweeps", ADDED, "writes them after the existing keys"),
    Declared("classify", "classify.json", "phi_residual", ADDED, "writes them after the existing keys"),
    *(Declared(command, "*.json", "*", SPELLING, "non-finite floats become the CSV's spellings")
      for command in ("classify", "periodic", "neither-nor")),
    Declared("exponents", "exponents.csv", "phi", PHI_TOL, ONE_PASS),
    Declared("exponents", "exponents.csv", "growth_factor", PHI_TOL, ONE_PASS),
    Declared("sliding", "sliding.csv", "sliding_product", SLIDING_TOL, ONE_PASS),
    Declared("fig1", "fig1_sliding.csv", "sliding_product", SLIDING_TOL, ONE_PASS),
    Declared("classify", "classify.json", "lower", PHI_TOL, ONE_PASS),
    Declared("classify", "classify.json", "upper", PHI_TOL, ONE_PASS),
    Declared("classify", "classify.json", "eta_persist", PHI_TOL, ONE_PASS, about=-1.0),  # lower - 1
    Declared("classify", "classify.json", "eta_extinct", PHI_TOL, ONE_PASS, about=1.0),  # 1 - upper
    Declared("neither-nor", "neither_nor.json", "classification.lower", PHI_TOL, ONE_PASS),
    Declared("neither-nor", "neither_nor.json", "classification.upper", PHI_TOL, ONE_PASS),
]
NON_FINITE = {"NaN": "nan", "Infinity": "inf", "-Infinity": "-inf"}


def _rows(command, file):
    return [d for d in DECLARED if d.command == command and fnmatch(file, d.file)]


def _tolerances(command, file):
    """field -> its tolerance row for command's file."""
    return {d.field: d for d in _rows(command, file) if isinstance(d.rule, float)}


def _within(row, got, want):
    """got within row's tolerance of want; other than finite floats equal."""
    if not (isinstance(got, float) and isinstance(want, float) and math.isfinite(want)):
        return got == want
    return abs(got - want) <= row.rule * abs(want - row.about)


def _csv_match(got, want, tolerances):
    """CSV bytes equal, or equal outside the tolerance columns and within
    the tolerance there."""
    if got == want or not tolerances:
        return got == want
    got_rows, want_rows = got.decode().split("\n"), want.decode().split("\n")
    header = got_rows[0].split(",")
    if got_rows[0] != want_rows[0] or len(got_rows) != len(want_rows):
        return False
    for got_row, want_row in zip(got_rows[1:], want_rows[1:]):
        if got_row == want_row:
            continue
        for column, g, w in zip(header, got_row.split(","), want_row.split(","), strict=True):
            if g != w and not (column in tolerances and _within(tolerances[column], float(g), float(w))):
                return False
    return True


def _flat(doc, prefix=""):
    """A JSON object with its nested objects' keys dotted in."""
    flat = {}
    for key, value in doc.items():
        if isinstance(value, dict):
            flat.update(_flat(value, f"{prefix}{key}."))
        else:
            flat[prefix + key] = value
    return flat


def _spelling(command, file):
    """parse_constant for command's JSON file: the reference's NaN,
    Infinity and -Infinity read as chemodde's spellings where declared."""
    return NON_FINITE.get if any(d.rule == SPELLING for d in _rows(command, file)) else None


def _run(main, argv, out):
    """Exit code, stdout and stderr with the output directory named OUT,
    the bytes of each CSV file and the parsed JSON files."""
    text, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(text), contextlib.redirect_stderr(err):
        code = main([*argv, "--out", str(out)])
    csv = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
    docs = {p.name: json.loads(p.read_text(), parse_constant=_spelling(argv[0], p.name))
            for p in sorted(out.glob("*.json"))}
    return code, text.getvalue().replace(str(out), "OUT"), err.getvalue().replace(str(out), "OUT"), csv, docs


def _check(tmp_path, monkeypatch, argv, code, configs=CONFIGS):
    """Compare the runs of argv; code None accepts only a clean reference
    run and rejects the example otherwise."""
    for name, text in configs.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("CHEMODDE_OUT", raising=False)
    own, ref = tmp_path / "own", tmp_path / "ref"
    own.mkdir()
    ref.mkdir()
    with np.errstate(all="ignore"):
        want = _run(reference("cli").run, argv, ref)
    if code is None:
        assume(want[0] == 0)
        code = 0
    got = _run(cli.run, argv, own)
    assert got[0] == want[0] == code
    assert got[1] == want[1]
    assert got[2] == want[2]
    assert bool(got[2]) == (code != 0)
    assert list(got[3]) == list(want[3])
    for name in got[3]:
        assert _csv_match(got[3][name], want[3][name], _tolerances(argv[0], name)), name
    assert list(got[4]) == list(want[4])
    assert got[3] or got[4] or code  # a run that succeeds writes something
    for name, doc in got[4].items():
        doc, ref = _flat(doc), _flat(want[4][name])
        added = {d.field for d in _rows(argv[0], name) if d.rule == ADDED}
        assert added <= set(doc) and not added & set(ref)
        assert set(doc) - added == set(ref), name
        tolerances = _tolerances(argv[0], name)
        for key, value in ref.items():
            assert (_within(tolerances[key], doc[key], value) if key in tolerances else doc[key] == value), key


@pytest.mark.parametrize("argv", [
    ["fig2", "--offset", "0.9"],
    ["fig2", "--offset", "0.6"],
    ["fig2", "--offset", "0.45"],
    ["fig2", "--offset", "0.36"],
    ["simulate", "--config", "sinusoid.cfg"],
    ["washout", "--config", "sinusoid.cfg"],
    ["simulate", "--config", "sequence.cfg"],
    ["washout", "--config", "sequence.cfg"],
    ["simulate", "--config", "drift.cfg"],
    ["simulate", "--config", "dyadic.cfg"],
    ["washout", "--config", "ramp.cfg"],
    ["simulate", "--config", "clamped.cfg"],
])
def test_cli_csv_bytes_match_the_reference(tmp_path, monkeypatch, argv):
    _check(tmp_path, monkeypatch, argv, 0)


@pytest.mark.parametrize("argv, code", [
    (["fig1"], 0),
    (["exponents", "--config", "sinusoid.cfg"], 0),
    (["exponents", "--config", "ramp.cfg"], 0),
    (["sliding", "--config", "sinusoid.cfg"], 0),
    (["sliding", "--config", "ramp.cfg"], 0),
    (["classify", "--config", "sinusoid.cfg"], 0),
    (["classify", "--config", "ramp.cfg"], 0),
    (["periodic", "--config", "sinusoid.cfg"], 0),
    (["periodic", "--config", "washout.cfg"], 0),
    (["periodic", "--config", "slow.cfg"], 0),
    (["periodic", "--config", "short.cfg"], 0),
    (["periodic", "--config", "slow.cfg", "--max-periods", "3"], 1),
    (["neither-nor"], 0),
    (["neither-nor", "--E", "0.3", "--r", "2", "--n-max", "4"], 0),
    (["exponents", "--config", "drift.cfg"], 0),
    (["fig1", "--horizon", "8000"], 0),
    (["exponents", "--config", "clamped.cfg"], 0),
])
def test_cli_output_matches_the_reference(tmp_path, monkeypatch, argv, code):
    _check(tmp_path, monkeypatch, argv, code)


def test_every_declared_difference_has_its_changes_line():
    changes = (Path(__file__).resolve().parents[1] / "CHANGES.md").read_text()
    for row in DECLARED:
        assert row.declared in changes, row


def _words(values):
    return " ".join(map(repr, values))


@st.composite
def _drawn_runs(draw, kind):
    """argv and config text: E, r <= 8, Monod uptake with p'(0) * sup s0 < 1,
    a feed of the given kind, a feasible constant initial history and a
    horizon of 200 to 2000, under a command that reads them."""
    E = draw(st.floats(0.05, 0.9))
    r = draw(st.integers(0, 8))
    hi = draw(st.floats(0.3, 2.0))
    lo = hi * draw(st.floats(0.3, 1.0))
    k_s = draw(st.floats(0.2, 3.0))
    p_max = draw(st.floats(0.1, 0.99)) * k_s / hi
    level = st.floats(lo, hi)
    if kind == "constant":
        feed = f"input.kind = constant\ninput.value = {hi!r}"
    elif kind == "sinusoid":
        mid = (lo + hi) / 2
        feed = (f"input.kind = sinusoid\ninput.amplitude = {mid - lo!r}\n"
                f"input.period = {draw(st.integers(2, 60))}\ninput.offset = {mid!r}")
    elif kind == "piecewise":
        times = sorted(draw(st.sets(st.integers(0, 2000), min_size=1, max_size=4)))
        values = draw(st.lists(level, min_size=len(times), max_size=len(times)))
        feed = f"input.kind = piecewise\ninput.t = {_words(times)}\ninput.values = {_words(values)}"
    else:
        values = draw(st.lists(level, min_size=2, max_size=25 if kind == "periodic" else 400))
        feed = f"input.kind = sequence\ninput.values = {_words(values)}\ninput.periodic = {kind == 'periodic'}"
    horizon = draw(st.integers(200, 2000))
    text = (f"schema = 1\nmodel.E = {E!r}\nmodel.r = {r}\nuptake.kind = monod\n"
            f"uptake.p_max = {p_max!r}\nuptake.k_s = {k_s!r}\n{feed}\nrun.horizon = {horizon}\n")

    params = parse_config(text).params
    z = washout_sequence(params, horizon)
    s_level = lo * draw(st.floats(0.05, 0.4))
    x_level = lo * draw(st.floats(0.02, 0.3))
    for _ in range(60):  # halve x until the mass condition holds
        init = InitialHistory.constant(r, s_level, x_level)
        if check_positivity_preconditions(params, init, z).feasible:
            break
        x_level /= 2
    assume(check_positivity_preconditions(params, init, z).feasible)
    text += f"init.s = {_words(init.s)}\ninit.x = {_words(init.x)}\n"

    commands = ["simulate", "washout", "exponents", "sliding", "classify"]
    if params.input.period is not None:
        commands.append("periodic")
    return [draw(st.sampled_from(commands)), "--config", "drawn.cfg"], text


@pytest.mark.parametrize("kind", ["constant", "sinusoid", "periodic", "sequence", "piecewise"])
@settings(max_examples=4, deadline=None, derandomize=True)
@given(data=st.data())
def test_drawn_configs_match_the_reference(tmp_path_factory, kind, data):
    argv, text = data.draw(_drawn_runs(kind))
    with pytest.MonkeyPatch.context() as monkeypatch:
        _check(tmp_path_factory.mktemp("drawn"), monkeypatch, argv, None, {"drawn.cfg": text})
