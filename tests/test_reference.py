"""CLI output against the frozen reference package: the same argv run
through chemodde.cli.run and chemodde_ref.cli.run gives the same exit code,
the same stdout once the output directory is named alike, and the same
bytes in every CSV file.  The commands cover tables that end in an exact
cycle, which the CSV writer formats once: fig2 at 0.9, 0.6 and 0.45 (lag
500 from rows 469, 1203 and 9031), simulate on the sinusoid (lag 500) and
on the periodic sequence (lag 14, twice its period), and washout on both;
and a table without one, fig2 at 0.36."""

import contextlib
import io

import pytest

from chemodde import cli

from conftest import reference_cli

SINUSOID_CFG = """
schema = 1
model.E = 0.125
model.r = 5
uptake.kind = monod
uptake.p_max = 1.0
uptake.k_s = 1.0
input.kind = sinusoid
input.amplitude = 0.25
input.period = 500
input.offset = 0.7
init.s = 0.5 0.5 0.5 0.5 0.5 0.5
init.x = 0.2 0.2 0.2 0.2 0.2 0.2
run.horizon = 6000
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


def _run(main, argv, out):
    """Exit code, stdout with the output directory named OUT, and the bytes
    of each CSV file written."""
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        code = main([*argv, "--out", str(out)])
    csv = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
    return code, text.getvalue().replace(str(out), "OUT"), csv


@pytest.mark.parametrize("argv", [
    ["fig2", "--offset", "0.9"],
    ["fig2", "--offset", "0.6"],
    ["fig2", "--offset", "0.45"],
    ["fig2", "--offset", "0.36"],
    ["simulate", "--config", "sinusoid.cfg"],
    ["washout", "--config", "sinusoid.cfg"],
    ["simulate", "--config", "sequence.cfg"],
    ["washout", "--config", "sequence.cfg"],
])
def test_cli_csv_bytes_match_the_reference(tmp_path, monkeypatch, argv):
    (tmp_path / "sinusoid.cfg").write_text(SINUSOID_CFG)
    (tmp_path / "sequence.cfg").write_text(SEQUENCE_CFG)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("CHEMODDE_OUT", raising=False)
    own, ref = tmp_path / "own", tmp_path / "ref"
    own.mkdir()
    ref.mkdir()
    got = _run(cli.run, argv, own)
    want = _run(reference_cli().run, argv, ref)
    assert got[0] == want[0] == 0
    assert got[1] == want[1]
    assert list(got[2]) == list(want[2]) and got[2]  # the same files, at least one
    for name in got[2]:
        assert got[2][name] == want[2][name], name
