import argparse
import contextlib
import io
import json
import math
import os
import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from chemodde import (
    ChemostatParams, Constant, Monod, UsageError, growth_factors, periodic_phi, phi_sequence, svg,
    washout_periodic, washout_sequence,
)
from chemodde.cli import CSV_BLOCK_ROWS, COMMANDS, build_parser, emit_csv, fig2_params, run
from chemodde.config import _KNOWN_KEYS

FIG2_CFG = """
schema = 1
model.E = 0.125
model.r = 5
uptake.kind = monod
uptake.p_max = 1.0
uptake.k_s = 1.0
input.kind = sinusoid
input.amplitude = 0.25
input.period = 500
input.offset = 0.6
init.s = 0.5 0.5 0.5 0.5 0.5 0.5
init.x = 0.2 0.2 0.2 0.2 0.2 0.2
run.horizon = 800
"""

SMALL_CFG = """
schema = 1
model.E = 0.2
model.r = 0
uptake.kind = linear
uptake.slope = 0.4
input.kind = constant
input.value = 1.0
init.s = 0.4
init.x = 0.3
run.horizon = 300
"""


@pytest.fixture
def fig2_cfg(tmp_path):
    path = tmp_path / "fig2.cfg"
    path.write_text(FIG2_CFG)
    return path


@pytest.fixture
def small_cfg(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CFG)
    return path


def _read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, np.array(rows)


# ---------------------------------------------------------------------------
# emitters
# ---------------------------------------------------------------------------


def test_emit_csv_shape(tmp_path):
    path = tmp_path / "t.csv"
    emit_csv(path, ["a", "b", "c"], [[1.0, 2.0], [0.5, 0.25], [3.0, 4.0]])
    text = path.read_text()
    assert text.endswith("\n")
    lines = text.splitlines()
    assert lines[0] == "a,b,c"
    assert len(lines) == 3


def test_emit_csv_empty_rejected(tmp_path):
    with pytest.raises(UsageError):
        emit_csv(tmp_path / "t.csv", ["a"], [[]])
    with pytest.raises(UsageError):
        emit_csv(tmp_path / "t.csv", ["a", "b"], [[1.0]])


def test_csv_round_trips_doubles(tmp_path, small_cfg):
    assert run(["simulate", "--config", str(small_cfg), "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "simulate.csv")
    assert header == ["t", "s0", "z", "s", "x", "y", "deficit"]
    # re-emitting the parsed values reproduces the file byte for byte
    out2 = tmp_path / "again.csv"
    emit_csv(out2, header, [rows[:, i] for i in range(rows.shape[1])])
    assert out2.read_text() == (tmp_path / "simulate.csv").read_text()


# ---------------------------------------------------------------------------
# writers against their cell-by-cell and point-by-point oracles
# ---------------------------------------------------------------------------


def _format_cell(v) -> str:
    """One CSV cell, as emit_csv formatted it cell by cell before it
    formatted whole columns: the oracle of the column-wise writer."""
    f = float(v)
    if math.isfinite(f) and f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


B = CSV_BLOCK_ROWS
SUBNORMALS = [5e-324, -5e-324, 2.225073858507201e-308, 1e-310]
EDGE_FLOATS = [
    0.0, -0.0, math.nan, math.inf, -math.inf, 0.1, 1.5, -2.5, 2.0**53, 1e16, 1e300,
    *SUBNORMALS,
    *(v for big in (1e15, -1e15) for v in (big, math.nextafter(big, 0.0), math.nextafter(big, 2 * big))),
]
EDGE_INTS = [0, -1, 10**15 - 1, -(10**15) + 1, 10**15, -(10**15), 2**53 + 1, 2**63 - 1, -(2**63)]


def _from_pool(draw, pool, n):
    """n values picked from pool, by an rng seeded from the draw."""
    picks = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(0, len(pool), n)
    return [pool[i] for i in picks.tolist()]


@st.composite
def _csv_column(draw, n):
    """A float64 or int64 array, or a plain Python list, of n values drawn
    from the edge cases above and from arbitrary floats or integers."""
    kind = draw(st.sampled_from(["float64", "int64", "list"]))
    if kind == "int64":
        values = st.sampled_from(EDGE_INTS) | st.integers(-(2**63), 2**63 - 1)
    else:
        values = st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=True, allow_infinity=True)
    col = _from_pool(draw, draw(st.lists(values, min_size=1, max_size=24)), n)
    return col if kind == "list" else np.array(col, dtype=kind)


@pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B + 1])
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_emit_csv_matches_cell_oracle(tmp_path, n, data):
    columns = data.draw(st.lists(_csv_column(n), min_size=1, max_size=4))
    names = [f"c{i}" for i in range(len(columns))]
    path = tmp_path / "t.csv"
    emit_csv(path, names, columns)
    lines = path.read_text().split("\n")
    assert lines[0] == ",".join(names) and lines[-1] == "" and len(lines) == n + 2
    arrays = [np.asarray(c) for c in columns]  # what the per-cell writer indexed
    for i, line in enumerate(lines[1:-1]):
        assert line.split(",") == [_format_cell(a[i]) for a in arrays]


def test_emit_csv_peak_memory_does_not_grow_with_rows(tmp_path):
    rng = np.random.default_rng(7)

    def peak(n):
        columns = [np.arange(n), *(rng.random(n) for _ in range(6))]
        tracemalloc.start()
        try:
            emit_csv(tmp_path / "m.csv", list("tabcdef"), columns)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(60_000) <= 1.25 * peak(15_000)


def _polyline_oracle(series):
    """The points of each drawn series, mapped and formatted one point at a
    time as line_chart did before it worked on whole arrays."""
    cleaned = []
    for _, xs, ys, _ in series:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        keep = np.isfinite(xs) & np.isfinite(ys)
        if keep.any():
            cleaned.append((xs[keep], ys[keep]))
    x_min = min(float(xs.min()) for xs, _ in cleaned)
    x_max = max(float(xs.max()) for xs, _ in cleaned)
    y_min = min(float(ys.min()) for _, ys in cleaned)
    y_max = max(float(ys.max()) for _, ys in cleaned)
    if x_max == x_min:
        x_max = x_min + 1.0
    if y_max == y_min:
        y_max = y_min + 1.0
    pad = 0.05 * (y_max - y_min)
    y_min -= pad
    y_max += pad
    plot_w = svg.WIDTH - svg.MARGIN_L - svg.MARGIN_R
    plot_h = svg.HEIGHT - svg.MARGIN_T - svg.MARGIN_B

    def sx(x):
        return svg.MARGIN_L + (x - x_min) / (x_max - x_min) * plot_w

    def sy(y):
        return svg.MARGIN_T + (y_max - y) / (y_max - y_min) * plot_h

    return [" ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys)) for xs, ys in cleaned]


FINITE = st.floats(-1e6, 1e6)


@st.composite
def _chart_series(draw):
    """1-3 series of up to 2 blocks of points; x is a time axis or random,
    some points are non-finite, and a series may be constant in x or y."""
    out = []
    for k in range(draw(st.integers(1, 3))):
        n = draw(st.sampled_from([1, 2, 17, svg.POINT_BLOCK, svg.POINT_BLOCK + 1, 2 * svg.POINT_BLOCK + 1]))
        shape = draw(st.sampled_from(["time", "random", "constant x", "constant y"]))
        pool = draw(st.lists(FINITE, min_size=1, max_size=16))
        if draw(st.booleans()):
            pool += [math.nan, math.inf, -math.inf]
        xs = np.arange(n, dtype=float) if shape == "time" else np.array(_from_pool(draw, pool, n))
        ys = np.array(_from_pool(draw, pool, n))
        if shape == "constant x":
            xs = np.full(n, draw(FINITE))
        elif shape == "constant y":
            ys = np.full(n, draw(FINITE))
        out.append((f"s{k}", xs, ys, svg.STYLE_BIOMASS))
    return out


@settings(max_examples=60, deadline=None)
@given(series=_chart_series())
@example(series=[("c", np.full(5, 2.0), np.full(5, 3.0), svg.STYLE_FEED)])  # both degenerate axes
@example(series=[("c", [0.0, 1.0, math.nan, 3.0], [1.0, math.inf, 2.0, 0.5], svg.STYLE_FEED)])
def test_line_chart_points_match_point_oracle(series):
    drawable = any(np.any(np.isfinite(xs) & np.isfinite(ys)) for _, xs, ys, _ in series)
    if not drawable:
        with pytest.raises(UsageError):
            svg.line_chart("t", series)
        return
    text = svg.line_chart("t", series)
    assert re.findall(r'points="([^"]*)"', text) == _polyline_oracle(series)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def test_fig2_persistent_summary(tmp_path, capsys):
    assert run(["fig2", "--offset", "0.6", "--horizon", "2000", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "1.0213" in out
    assert "Persistent" in out
    assert (tmp_path / "fig2_timeseries.csv").exists()


def test_fig2_extinct_summary(tmp_path, capsys):
    assert run(["fig2", "--offset", "0.3", "--horizon", "2000", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "0.9753" in out
    assert "Extinct" in out


def test_fig2_deterministic_output(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run(["fig2", "--horizon", "1200", "--out", str(a)]) == 0
    assert run(["fig2", "--horizon", "1200", "--out", str(b)]) == 0
    assert (a / "fig2_timeseries.csv").read_bytes() == (b / "fig2_timeseries.csv").read_bytes()


def test_fig1_deterministic_output(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run(["fig1", "--horizon", "1600", "--out", str(a)]) == 0
    assert run(["fig1", "--horizon", "1600", "--out", str(b)]) == 0
    for name in ("fig1_timeseries.csv", "fig1_sliding.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_fig2_svg_has_three_polylines(tmp_path):
    assert run(["fig2", "--horizon", "1000", "--svg", "--out", str(tmp_path)]) == 0
    svg_text = (tmp_path / "fig2_timeseries.svg").read_text()
    assert svg_text.count("<polyline") == 3
    assert svg_text.startswith("<svg")


def test_fig1_outputs(tmp_path, capsys):
    assert run(["fig1", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "fig1_timeseries.csv").exists()
    assert (tmp_path / "fig1_sliding.csv").exists()
    header, rows = _read_csv(tmp_path / "fig1_sliding.csv")
    assert header == ["t", "sliding_product"]
    stat = rows[:, 1]
    # above the threshold during the constant phase, below after the ramp
    assert np.min(stat[300:500]) > 1.0
    assert stat[-1] < 1.0


def test_simulate_invalid_E_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(SMALL_CFG.replace("model.E = 0.2", "model.E = 1.5"))
    code = run(["simulate", "--config", str(bad), "--out", str(tmp_path)])
    assert code == 2
    assert "model.E" in capsys.readouterr().err


def test_unknown_subcommand_exits_2(capsys):
    assert run(["frobnicate"]) == 2


def test_missing_config_exits_2(tmp_path, capsys):
    assert run(["simulate", "--out", str(tmp_path)]) == 2


def test_washout_csv(tmp_path, small_cfg):
    assert run(["washout", "--config", str(small_cfg), "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "washout.csv")
    assert header == ["t", "s0", "z"]
    assert np.allclose(rows[:, 2], 1.0)  # constant feed: z = feed


def test_exponents_csv_and_summary(tmp_path, capsys, fig2_cfg):
    assert run(["exponents", "--config", str(fig2_cfg), "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "exponents.csv")
    assert header == ["t", "z", "phi", "growth_factor"]
    out = capsys.readouterr().out
    assert "lower" in out and "upper" in out


def test_sliding_csv(tmp_path, fig2_cfg):
    assert run(["sliding", "--config", str(fig2_cfg), "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "sliding.csv")
    assert header == ["t", "sliding_product"]
    assert len(rows) == 801


def test_sliding_product_beyond_largest_double_is_inf(tmp_path):
    # growth factor 1.425 per step: half-window log sums pass log(DBL_MAX)
    cfg = tmp_path / "persistent.cfg"
    cfg.write_text(SMALL_CFG.replace("model.E = 0.2", "model.E = 0.05")
                   .replace("uptake.kind = linear\nuptake.slope = 0.4",
                            "uptake.kind = monod\nuptake.p_max = 1\nuptake.k_s = 1"))
    assert run(["sliding", "--config", str(cfg), "--horizon", "20000", "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "sliding.csv")
    assert len(rows) == 20001
    stat = rows[:, 1]
    overflow = np.isinf(stat)
    assert overflow.any() and not overflow.all()

    # the half-window log sums, as the sliding command forms them
    params = ChemostatParams(0.05, 0, Monod(1.0, 1.0), Constant(1.0))
    z = washout_sequence(params, 20000)
    growth = growth_factors(params, z, phi_sequence(params, z, 20000).phi)
    prefix = np.concatenate([[0.0], np.cumsum([math.log(a) for a in growth.values[:20001].tolist()])])
    t = np.arange(20001)
    logs = prefix[t + 1] - prefix[t // 2]
    assert np.all(logs[overflow] > math.log(np.finfo(float).max))
    assert [math.exp(d) for d in logs[~overflow].tolist()] == stat[~overflow].tolist()


def test_allocation_failure_exits_1(tmp_path, capsys):
    # E = 1e-15 puts the washout tail at ~6e16 steps: 426 PiB of int64,
    # beyond any 57-bit address space, so the allocation can never succeed
    cfg = tmp_path / "slow.cfg"
    cfg.write_text(SMALL_CFG.replace("model.E = 0.2", "model.E = 1e-15")
                   .replace("input.kind = constant\ninput.value = 1.0",
                            "input.kind = piecewise\ninput.t = 0 500\ninput.values = 3 0.05"))
    assert run(["classify", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1
    assert not (tmp_path / "classify.json").exists()


CLASSIFY_KEYS = [
    "verdict", "basis", "lower", "upper", "mean", "eta_persist", "eta_extinct",
    "window_min", "horizon", "borderline", "note", "phi_sweeps", "phi_residual",
]


def test_classify_json(tmp_path, fig2_cfg):
    assert run(["classify", "--config", str(fig2_cfg), "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "classify.json").read_text())
    assert list(payload) == CLASSIFY_KEYS
    assert payload["verdict"] == "Persistent"
    assert payload["basis"] == "PeriodicMean"
    # the periodic phi sweep certificate of the same run
    prof = periodic_phi(fig2_params(0.6), washout_periodic(fig2_params(0.6)))
    assert payload["phi_sweeps"] == prof.sweeps >= 2
    assert payload["phi_residual"] == prof.residual < 1e-12


def test_classify_json_bohl_basis_has_no_sweep_certificate(tmp_path):
    cfg = tmp_path / "ramp.cfg"
    cfg.write_text(RAMP_T0_CFG.replace("run.T = 0\n", ""))
    assert run(["classify", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "classify.json").read_text())
    assert list(payload) == CLASSIFY_KEYS
    assert payload["basis"] == "GeneralBohl"
    assert payload["phi_sweeps"] is None and payload["phi_residual"] is None


def test_periodic_orbit_files(tmp_path, fig2_cfg):
    assert run(["periodic", "--config", str(fig2_cfg), "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "periodic_report.json").read_text())
    assert payload["outcome"] == "orbit"
    assert payload["period"] == 500
    header, rows = _read_csv(tmp_path / "periodic_orbit.csv")
    assert header == ["phase", "s0", "s", "x"]
    assert len(rows) == 500


def test_periodic_convergence_failure_exits_1(tmp_path, fig2_cfg, capsys):
    code = run(
        ["periodic", "--config", str(fig2_cfg), "--tol", "1e-16",
         "--max-periods", "2", "--out", str(tmp_path)]
    )
    assert code == 1


@pytest.mark.parametrize("extra", [
    ["periodic", "--max-periods", "0"],
    ["periodic", "--tol", "0"],
    ["classify", "--tol", "-1"],
    ["classify", "--tol", "0"],
    ["classify", "--tol", "nan"],
])
def test_bad_budget_or_tolerance_exits_2(tmp_path, fig2_cfg, capsys, extra):
    assert run(extra + ["--config", str(fig2_cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_neither_nor_json(tmp_path, capsys):
    assert run(["neither-nor", "--E", "0.5", "--r", "0", "--n-max", "3",
                "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "neither_nor.json").read_text())
    assert payload["check_c_ok"] is True


def test_out_env_override(tmp_path, monkeypatch):
    env_dir = tmp_path / "env_dir"
    monkeypatch.setenv("CHEMODDE_OUT", str(env_dir))
    assert run(["fig2", "--horizon", "1000", "--out", str(tmp_path / "ignored")]) == 0
    assert (env_dir / "fig2_timeseries.csv").exists()
    assert not (tmp_path / "ignored").exists()


RAMP_T0_CFG = """
schema = 1
model.E = 0.2
model.r = 2
uptake.kind = monod
uptake.p_max = 1.0
uptake.k_s = 1.0
input.kind = piecewise
input.t = 0 100 300
input.values = 3.0 3.0 0.05
run.horizon = 400
run.T = 0
"""


@pytest.mark.parametrize("command", ["exponents", "classify"])
def test_window_min_zero_exits_2(tmp_path, capsys, command):
    cfg = tmp_path / "ramp.cfg"
    cfg.write_text(RAMP_T0_CFG)
    out = tmp_path / "out"
    assert run([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: window_min must be >= 1, got 0\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, err", [
    (["fig1", "--horizon", "0"], "fig1 summarises the constant phase [100, 500]; horizon 0 < 500"),
    (["fig1", "--horizon", "300"], "fig1 summarises the constant phase [100, 500]; horizon 300 < 500"),
    (["fig2", "--horizon", "0"], "horizon 0 must be >= delay r=5"),
])
def test_bad_figure_horizon_exits_2_before_writing(tmp_path, capsys, argv, err):
    out = tmp_path / "out"
    out.mkdir()
    assert run(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {err}\n"
    assert captured.out == ""
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("argv, err", [
    (["fig2", "--offset", "inf"], "sinusoid offset must be finite, got inf"),
    (["fig2", "--offset", "nan"], "sinusoid offset must be finite, got nan"),
])
def test_fig2_nonfinite_offset_exits_2(tmp_path, capsys, argv, err):
    out = tmp_path / "out"
    assert run(argv + ["--horizon", "100", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {err}\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("horizon", ["-5", "0", "4"])
def test_classify_periodic_feed_validates_horizon(tmp_path, capsys, fig2_cfg, horizon):
    out = tmp_path / "out"
    assert run(["classify", "--config", str(fig2_cfg), "--horizon", horizon, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: horizon {horizon} must be >= delay r=5\n"
    assert not out.exists()


@pytest.mark.parametrize("n_max", ["10", "30"])
def test_neither_nor_n_max_above_9_exits_2(tmp_path, capsys, n_max):
    out = tmp_path / "out"
    assert run(["neither-nor", "--E", "0.1", "--r", "2", "--n-max", n_max, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: n_max must be in [1, 9], got {n_max}\n"
    assert captured.out == ""
    assert not out.exists()


# ---------------------------------------------------------------------------
# flags: each command takes exactly the flags its handler reads
# ---------------------------------------------------------------------------


def _parser_flags():
    """{command: its option strings in order}, read from build_parser()."""
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: [s for a in p._actions for s in a.option_strings if s not in ("-h", "--help")]
        for name, p in sub.choices.items()
    }


def test_readme_flags_match_parser():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    documented = {}
    for line in readme.splitlines():
        cells = line.split("|")
        if len(cells) > 3 and re.fullmatch(r" `[a-z0-9-]+` *", cells[1]):
            documented[cells[1].strip(" `")] = re.findall(r"`(--[\w-]+)`", cells[2])
    assert documented == _parser_flags()


def _run_captured(argv):
    """(exit code, stdout, stderr) of run(argv); argparse's -h exits."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


def test_run_builds_only_the_named_subparser(tmp_path, fig2_cfg, monkeypatch):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    code, _, err = _run_captured(["classify", "--config", str(fig2_cfg), "--out", str(tmp_path)])
    assert (code, err) == (0, "")
    assert built == ["classify"]
    built.clear()
    assert _run_captured(["bogus"])[0] == 2
    assert built == list(COMMANDS)


def test_full_parser_output_without_a_known_command():
    help_text = build_parser().format_help()
    assert _run_captured([]) == (2, help_text, "")
    assert _run_captured(["-h"]) == (0, help_text, "")
    assert _run_captured(["bogus"]) == (
        2, "",
        "error: argument COMMAND: invalid choice: 'bogus' (choose from 'simulate', "
        "'washout', 'exponents', 'sliding', 'classify', 'periodic', 'neither-nor', "
        "'fig1', 'fig2')\n",
    )
    assert _run_captured(["classify", "--bogus"]) == (2, "", "error: unrecognized arguments: --bogus\n")


@pytest.mark.parametrize("command", COMMANDS)
def test_subcommand_help_matches_full_parser(command):
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert _run_captured([command, "-h"]) == (0, sub.choices[command].format_help(), "")


# (command, flag, value): a flag of another command that this one does not read
REMOVED_FLAGS = [
    ("simulate", "--tol", "1e-9"),
    ("washout", "--tol", "1e-9"),
    ("washout", "--svg", None),
    ("exponents", "--tol", "nan"),
    ("exponents", "--svg", None),
    ("sliding", "--tol", "1e-9"),
    ("classify", "--svg", None),
    ("periodic", "--horizon", "10"),
    ("neither-nor", "--horizon", "5"),
    ("neither-nor", "--tol", "-3"),
    ("neither-nor", "--svg", None),
    ("fig1", "--tol", "1e-9"),
    ("fig2", "--tol", "1e-9"),
]


@pytest.mark.parametrize("command, flag, value", REMOVED_FLAGS)
def test_unread_flag_exits_2(tmp_path, capsys, fig2_cfg, command, flag, value):
    extra = [flag] if value is None else [flag, value]
    config = ["--config", str(fig2_cfg)] if "--config" in COMMANDS[command][1] else []
    out = tmp_path / "out"
    assert run([command, *extra, *config, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: unrecognized arguments: {' '.join(extra)}\n"
    assert captured.out == ""
    assert not out.exists()


# a short period keeps periodic and classify fast; the ramp is not periodic
FUZZ_PERIODIC_CFG = """
schema = 1
model.E = 0.125
model.r = 2
uptake.kind = monod
uptake.p_max = 1.0
uptake.k_s = 1.0
input.kind = sinusoid
input.amplitude = 0.25
input.period = 20
input.offset = 0.6
init.s = 0.5 0.5 0.5
init.x = 0.2 0.2 0.2
run.horizon = 300
"""
FUZZ_RAMP_CFG = RAMP_T0_CFG.replace("run.T = 0\n", "init.s = 0.5 0.5 0.5\ninit.x = 0.2 0.2 0.2\n")

# valid values, bounded so that every example runs in well under a second;
# n-max 10 and 30 are the first rejected values and the old traceback
VALID = {
    "--config": st.sampled_from(["../periodic.cfg", "../ramp.cfg"]),
    "--out": st.just("out"),
    "--horizon": st.integers(1, 2000).map(str),
    "--tol": st.floats(1e-12, 1e-3).map(repr),
    "--max-periods": st.integers(1, 400).map(str),
    "--E": st.floats(0.05, 0.95).map(repr),
    "--r": st.integers(0, 10).map(str),
    "--n-max": st.sampled_from([1, 2, 3, 4, 5, 6, 10, 30]).map(str),
    "--x0": st.floats(1e-3, 1.0).map(repr),
    "--offset": st.floats(0.35, 0.9).map(repr),
}
SPECIAL = st.sampled_from(["0", "-1", "nan", "inf"])


def _often(draw):
    """True three times in four, so most examples get past the parser."""
    return draw(st.integers(0, 3)) > 0


def _flag_args(draw, flag):
    if flag == "--svg":
        return [flag]
    return [flag, draw(VALID[flag] if _often(draw) else SPECIAL)]


@st.composite
def _argvs(draw):
    """(argv, foreign): a command with a subset of its own flags, each valid
    or 0, -1, nan, inf, and maybe one flag of another command."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    own = COMMANDS[command][1]
    flags = [flag for flag in own if _often(draw)]
    if command == "fig2" and "--horizon" not in flags:
        flags.append("--horizon")  # its default, 20000 steps, is too slow here
    argv = [command]
    for flag in draw(st.permutations(flags)):
        argv += _flag_args(draw, flag)
    foreign = None if _often(draw) else draw(st.sampled_from(sorted(set(VALID) - set(own))))
    if foreign is not None:
        argv += _flag_args(draw, foreign)
    return argv, foreign


def _run_in(work, argv):
    """run(argv) with work as the current directory, so that relative
    --out and --config values resolve in it; checks the exit contract:
    0, 1 or 2, one `error: ` line exactly when non-zero (no warning, no
    traceback), and nothing written in work on exit 2.  Returns the exit
    code."""
    before = sorted(work.iterdir())
    stderr = io.StringIO()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings():
            # outside pytest a numpy warning would print to stderr
            warnings.simplefilter("error", RuntimeWarning)
            code = run(argv)
    finally:
        os.chdir(cwd)
    err = stderr.getvalue()
    event(f"{argv[0]} exit {code}")
    assert code in (0, 1, 2)
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    else:
        assert err == ""
    if code == 2:
        assert sorted(work.iterdir()) == before
    return code


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_argvs())
@example(case=(["neither-nor", "--n-max", "30"], None))  # was a ValueError traceback
def test_cli_fuzz_exits_cleanly(tmp_path, monkeypatch, case):
    argv, foreign = case
    monkeypatch.delenv("CHEMODDE_OUT", raising=False)
    (tmp_path / "periodic.cfg").write_text(FUZZ_PERIODIC_CFG)
    (tmp_path / "ramp.cfg").write_text(FUZZ_RAMP_CFG)
    code = _run_in(Path(tempfile.mkdtemp(dir=tmp_path)), argv)
    if foreign is not None:
        assert code == 2


@pytest.mark.parametrize("key", ["model.r", "input.period", "run.horizon", "run.T"])
@pytest.mark.parametrize("value", ["inf", "-inf", "1e400"])
def test_integer_key_out_of_range_exits_2(tmp_path, capsys, key, value):
    text = re.sub(rf"^{re.escape(key)} = .*$", f"{key} = {value}", FIG2_CFG + "run.T = 40\n", flags=re.M)
    assert f"{key} = {value}\n" in text
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert run(["classify", "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {key}: expected an integer, got '{value}'\n"
    assert captured.out == ""
    assert not out.exists()


# a valid value for each config key, bounded so that every example runs in
# well under a second; lists match their partners (input.t and
# input.values, uptake.s and uptake.values) and init.* hold r+1 values
def _config_values(r):
    floats = lambda lo, hi: st.floats(lo, hi).map(repr)  # noqa: E731
    init = st.lists(st.floats(0.0, 1.0), min_size=r + 1, max_size=r + 1).map(
        lambda v: " ".join(map(repr, v))
    )
    return {
        "schema": st.just("1"),
        "model.E": floats(0.05, 0.95),
        "model.r": st.just(str(r)),
        "uptake.kind": st.sampled_from(["monod", "linear", "tabulated"]),
        "uptake.p_max": floats(0.1, 2.0),
        "uptake.k_s": floats(0.2, 3.0),
        "uptake.slope": floats(0.05, 1.0),
        "uptake.s": st.just("0 1 2"),
        "uptake.values": st.just("0 0.5 0.8"),
        "input.kind": st.sampled_from(["constant", "sinusoid", "piecewise", "sequence", "dyadic"]),
        "input.value": floats(0.0, 2.0),
        "input.amplitude": floats(0.0, 0.3),
        "input.period": st.integers(1, 40).map(str),
        "input.offset": floats(0.3, 1.0),
        "input.t": st.just("0 50 150"),
        "input.values": st.just("1.0 0.6 0.2"),
        "input.periodic": st.sampled_from(["true", "false"]),
        "init.s": init,
        "init.x": init,
        "run.horizon": st.integers(0, 2000).map(str),
        "run.tol": floats(1e-12, 1e-3),
        "run.T": st.integers(1, 100).map(str),
    }


CONFIG_COMMANDS = sorted(name for name, (_, flags, _) in COMMANDS.items() if "--config" in flags)
CONFIG_SPECIAL = st.sampled_from(["0", "-1", "nan", "inf", "1e400", "", "garbage"])
# a mutation sets a key to a special value or, as often, drops or
# duplicates the key or adds an unknown one
CONFIG_MUTATIONS = st.one_of(CONFIG_SPECIAL, st.sampled_from(["<drop>", "<duplicate>", "<unknown>"]))


@st.composite
def _config_texts(draw):
    """`key = value` lines for every known key in a random order, each
    valid except for up to three mutations: a value of 0, -1, nan, inf,
    1e400, empty or garbage, a dropped key, a duplicated key or an unknown
    key."""
    valid = _config_values(draw(st.integers(0, 4)))
    keys = sorted(_KNOWN_KEYS)
    pairs = {key: draw(valid[key]) for key in keys}
    extra = []
    for key, mutation in draw(st.lists(st.tuples(st.sampled_from(keys), CONFIG_MUTATIONS), max_size=3)):
        if mutation == "<drop>":
            pairs.pop(key, None)
        elif mutation == "<duplicate>":
            extra.append(f"{key} = {draw(valid[key])}")
        elif mutation == "<unknown>":
            extra.append("model.EE = 0.5")
        else:
            pairs[key] = mutation
    lines = [f"{key} = {value}" for key, value in pairs.items()] + extra
    return "\n".join(draw(st.permutations(lines))) + "\n"


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(CONFIG_COMMANDS), text=_config_texts())
@example(command="classify", text=FIG2_CFG.replace("model.r = 5", "model.r = 1e400"))  # was an OverflowError
@example(command="washout", text=RAMP_T0_CFG.replace("0 100 300", "0 nan 300"))  # was an AssertionError
@example(command="simulate", text=(  # infeasible: numpy warned on stderr at exit 0
    "schema = 1\nmodel.E = 0.75\nmodel.r = 0\nuptake.kind = linear\nuptake.slope = 1.0\n"
    "input.kind = dyadic\ninit.s = 0.0\ninit.x = 1.0\nrun.horizon = 19\n"
))
def test_cli_config_fuzz_exits_cleanly(tmp_path, monkeypatch, command, text):
    monkeypatch.delenv("CHEMODDE_OUT", raising=False)
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    (work / "run.cfg").write_text(text)
    _run_in(work, [command, "--config", "run.cfg", "--out", "out"])
