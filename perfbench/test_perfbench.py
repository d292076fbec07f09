"""Self-tests of the benchmark at tiny input sizes.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import inspect
import json
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

import checks
import layers
import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCALE = "0.05"


def _bench(capsys, workload, trace, seed=3):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0.2",
            "--trace", str(trace), "--scale", SCALE]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def _chemodde_bindings():
    """Every function-valued attribute of chemodde modules and classes."""
    bound = {}
    for module in tracing.chemodde_modules():
        for name, obj in vars(module).items():
            if inspect.isfunction(obj):
                bound[(module.__name__, name)] = obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if inspect.isfunction(member):
                        bound[(module.__name__, name, attr)] = member
    return bound


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_end_to_end_metric(capsys, workload):
    record, result = _bench(capsys, workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert record["seed"] == 3 and record["nproc"] and record["numpy"] and record["python"]
    assert record["run_rel_tail"]["samples"] == record["run_rel"]["n"] == record["run_s"]["n"]
    # the frozen reference is a package of its own, never traced as chemodde
    assert not any(m.__name__.startswith("chemodde_ref") for m in tracing.chemodde_modules())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_pass_prints_every_layer_metric_and_restores_chemodde(capsys, workload):
    import chemodde.cli  # noqa: F401  (the benchmark imports the same package)

    before = _chemodde_bindings()
    record, result = _bench(capsys, workload, trace=1)
    assert result["correct"], record["failures"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    after = _chemodde_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    # self times partition the traced invocation time
    m = result["metrics"]
    assert record["self_time_sum_s"] == pytest.approx(m["trace.run_s"]["value"], rel=0.01)
    assert m["core.uptake_calls"]["value"] > 0 and m["washout.calls"]["value"] >= 1


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("make", workloads.MAKERS.values())
def test_inputs_depend_on_seed_and_index_only(tmp_path, make):
    def config(seed, index, name):
        d = tmp_path / name
        d.mkdir()
        job = make(seed, 1, index, d, 0.05)
        argvs = [[a.replace(str(d), "OUT") for a in argv] for argv in job.argvs]
        return [p.read_text() for p in sorted(d.iterdir())], argvs

    a = config(5, 4, "a")
    assert a == config(5, 4, "b")
    assert a != config(6, 4, "c")
    assert a != config(5, 5, "d")


def test_draws_cover_every_cell_of_each_block():
    cells = [tuple(int(u * n) for u, n in zip(workloads._draws(9, 1, i, (3, 2)), (3, 2)))
             for i in range(12)]
    grid = sorted((a, b) for a in range(3) for b in range(2))
    assert sorted(cells[:6]) == sorted(cells[6:]) == grid


def test_tail_is_the_90th_percentile():
    assert run.tail(list(range(1, 20))) == 18.0
    assert run.tail([3.0]) == 3.0


def test_bohl_window_count_refuses_a_changed_bohl_bounds():
    counter = tracing.CallCounter(layers.HOOKS)
    args = {"growth": np.ones(50), "window_min": 5, "gap_min": None}
    with pytest.raises(RuntimeError, match="must be redefined"):
        layers._bohl(args, None, counter)
    layers._bohl({**args, "method": "full", "n_window_lengths": 64}, None, counter)
    assert counter.counts["exponents.bohl_windows"] == 38 * 39 // 2


def test_brute_force_bohl_matches_the_exhaustive_scan():
    from chemodde.exponents import bohl_bounds

    rng = np.random.default_rng(0)
    growth = np.exp(rng.normal(0.0, 0.05, 400))
    est = bohl_bounds(growth, 30, gap_min=20, method="full")
    assert checks.brute_force_bohl(growth, 30, 20) == pytest.approx((est.lower, est.upper), rel=1e-12)
