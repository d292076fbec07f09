"""Benchmark of the chemodde command-line interface.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: chemodde is imported from ./src.
Each workload is a closed loop of jobs, one client in one thread: a job
writes a freshly generated input (from the seed) and makes the CLI
invocations a user would make on it, in-process through
`chemodde.cli.run(argv)`.  Only the invocations are timed; every job's
outputs are then checked (checks.py) and any failure counts against
`failed`.

--trace 0 reports the end-to-end metrics.  Every timed job is run twice on
the same input, back to back invocation by invocation: by chemodde and by
a frozen copy of chemodde as it was when the benchmark was defined
(reference/chemodde_ref), the one that goes first alternating.  On a
shared host the CPU speed can change by up to 1.8 times over seconds to
minutes; the two runs of a pair see the same speed, so their ratio holds
steady where a wall time does not.
  run_rel      median over jobs of chemodde's time / the reference's time
  run_rel_tail the 90th percentile of chemodde's job times / that of the
               reference's (the run record gives the sample count)
  setup_s      time for a fresh interpreter to import chemodde.cli: the
               median ratio of that time to the reference's, probed in
               pairs at even intervals over the run, times the reference's
               import time where the benchmark was defined (0.161 s)
  peak_rss_mb  peak resident memory of a fresh child process making one
               pass over a fixed list of the workload's jobs
The run record also holds both sides' wall times (run_s,
reference_run_s, setup_wall_s and reference_setup_wall_s).
--trace 1 reports the per-layer metrics (layers.py): untraced and traced
runs of the same inputs alternate, then a counting pass runs a fixed list
of jobs.

The last line of standard output is the result as JSON; the line before it
is the run record.  The full record, with output digests and spans, is
written to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import layers
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# a frozen copy of the chemodde package as it was when the benchmark was
# defined, imported as chemodde_ref: every timed job is run by both, back
# to back, and the end-to-end times are the ratios (see run_untraced)
REFERENCE = HERE / "reference"

# workload -> (jobs in the peak-RSS pass, jobs in the counting pass); each
# workload runs the job kind of the same name (workloads.MAKERS)
WORKLOADS = {
    "fig2_svg": (3, 2),
    "ramp_classify": (6, 3),
    "periodic_delay": (6, 3),
    "measured_feed": (1, 1),
}


SETUP_RUNS = 7
IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import {}; "
    "print(time.perf_counter() - t0)"
)
# the time to import the reference's cli on the host where the benchmark
# was defined: the median import time of chemodde.cli, then the same code,
# over 120 runs (baseline.json, earlier_designs.unpaired_setup)
REFERENCE_IMPORT_S = 0.161


def _child_env(path=SRC):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(path), env.get("PYTHONPATH")]))
    env.pop("CHEMODDE_OUT", None)
    return env


def invoke(cli, argvs):
    """Run CLI invocations in-process: (seconds, stdout, exit code, stderr)
    per invocation.  Only cli.run itself is on the clock."""
    results = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = cli.run(list(argv))
            except Exception:  # a traceback is a failed invocation, not a crash
                code = None
                t1 = time.perf_counter()
                traceback.print_exc()
            else:
                t1 = time.perf_counter()
        results.append((t1 - t0, out.getvalue(), code, err.getvalue()))
    return results


def tail(samples):
    """The 90th percentile (statistics.quantiles, n=10); a lone sample is
    its own.  Not the highest percentile with 10 samples above it: a 24-s
    run holds as few as 10 pairs on measured_feed and 15 to 27 on
    fig2_svg, so that one would fall below the median there, or switch
    between two statistics with the host's speed."""
    return statistics.quantiles(samples, n=10)[-1] if len(samples) > 1 else samples[0]


def quartiles(samples):
    """Median, quartiles (statistics.quantiles, n=4) and spread, the
    distance between the quartiles as a share of the median."""
    q1, _, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    median = statistics.median(samples)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "min": min(samples), "max": max(samples), "n": len(samples)}


def _sizes(meta):
    """Job parameters, with generated arrays replaced by their length."""
    return {k: (len(v) if isinstance(v, np.ndarray) else v) for k, v in meta.items()}


class Bench:
    def __init__(self, workload, seed, scale, work):
        self.make = workloads.MAKERS[workload]
        self.rss_jobs, self.count_jobs = WORKLOADS[workload]
        self.seed = seed
        self.scale = scale
        self.work = work
        self.cli = importlib.import_module("chemodde.cli")
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.digests = []
        self.inputs = []
        self.per_command = {}

    def job(self, stream, index, tag=""):
        """Job `index` of `stream`, in a directory of its own; the "ref"
        and "traced" tags mark a second copy of an input already recorded."""
        job_dir = self.work / f"{stream}{tag and '-' + tag}-{index}"
        job_dir.mkdir()
        job = self.make(self.seed, workloads.STREAMS[stream], index, job_dir, self.scale)
        if tag not in ("ref", "traced"):
            self.inputs.append({"stream": stream, "index": index, **_sizes(job.meta)})
        return job

    def timed(self, job):
        """Run a job: (seconds on the clock, invocation results)."""
        results = invoke(self.cli, job.argvs)
        for argv, r in zip(job.argvs, results):
            self.per_command.setdefault(argv[0], []).append(r[0])
        return sum(r[0] for r in results), results

    def paired(self, index):
        """Job `index` of the time stream, each invocation run by chemodde
        and by the frozen reference on copies of the same input, back to
        back, the one that goes first alternating: (chemodde seconds,
        reference seconds, chemodde's job and results, problems).  The
        reference's outputs are not checked, but a failed reference
        invocation fails the job."""
        job, ref_job = self.job("time", index), self.job("time", index, tag="ref")
        own_results, own_s, ref_s, problems = [], 0.0, 0.0, []
        for i, argv in enumerate(job.argvs):
            for side in ("own", "ref") if (index + i) % 2 == 0 else ("ref", "own"):
                if side == "own":
                    (result,) = invoke(self.cli, [argv])
                    own_results.append(result)
                    own_s += result[0]
                    self.per_command.setdefault(argv[0], []).append(result[0])
                else:
                    ((seconds, _, code, _),) = invoke(self.reference, [ref_job.argvs[i]])
                    ref_s += seconds
                    if code != 0:
                        problems.append(f"reference {argv[0]} exited {code}")
        shutil.rmtree(ref_job.out)
        return own_s, ref_s, job, own_results, problems

    def settle(self, job, results, extra_problems=()):
        """Check a finished job, record its digests and remove its files."""
        self.attempted += len(results)
        problems = [
            f"{argv[0]} exited {code}: {(err.strip().splitlines() or [''])[-1]}"
            for argv, (_, _, code, err) in zip(job.argvs, results) if code != 0
        ]
        if not problems:
            problems = checks.check_job(job, [r[1] for r in results]) + list(extra_problems)
        if problems:
            self.failed += len(results)
            self.failures.append({"job": job.out.name, "problems": problems})
        self.digests.append({
            "job": job.out.name,
            "sha256": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                       for p in sorted(job.out.iterdir()) if not p.name.endswith(".cfg")},
        })
        shutil.rmtree(job.out)

    def warm_up(self):
        job = self.job("warm", 0)
        self.settle(job, invoke(self.cli, job.argvs))

    # -- end-to-end --------------------------------------------------------

    def setup_pair(self, index):
        """(chemodde's, the reference's) import time of their cli, each in
        a fresh interpreter, back to back, the one that goes first
        alternating."""
        times = {}
        for side in ("own", "ref") if index % 2 == 0 else ("ref", "own"):
            module, path = ("chemodde.cli", SRC) if side == "own" else ("chemodde_ref.cli", REFERENCE)
            proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE.format(module)], cwd=ROOT,
                                  env=_child_env(path), capture_output=True, text=True,
                                  timeout=60, check=True)
            times[side] = float(proc.stdout.strip().splitlines()[-1])
        return times["own"], times["ref"]

    def peak_rss(self):
        """ru_maxrss (KiB) of a fresh child that runs the RSS pass jobs."""
        jobs = [self.job("rss", k) for k in range(self.rss_jobs)]
        spec = self.work / "rss-pass.json"
        spec.write_text(json.dumps([list(argv) for job in jobs for argv in job.argvs]))
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--rss-pass", str(spec)],
                              cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                              timeout=150, check=True)
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        results = [tuple(r) for r in report["results"]]
        for job in jobs:
            n = len(job.argvs)
            self.settle(job, results[:n])
            results = results[n:]
        return report["maxrss_kb"]

    def run_untraced(self, seconds):
        """Jobs in pairs (`paired`) and their time ratios.  Set-up is
        paired the same way (`setup_pair`), its probes spread evenly over
        the run; setup_s is the median ratio expressed in seconds at the
        speed of the host where the benchmark was defined."""
        if str(REFERENCE) not in sys.path:
            sys.path.insert(0, str(REFERENCE))
        self.reference = importlib.import_module("chemodde_ref.cli")
        self.setup_pair(0)  # fills the bytecode caches; not recorded
        rss_kb = self.peak_rss()
        self.warm_up()
        ref_job = self.job("warm", 0, tag="ref")
        invoke(self.reference, ref_job.argvs)
        shutil.rmtree(ref_job.out)
        setup, own, ref = [], [], []
        start = time.perf_counter()
        while not own or time.perf_counter() - start < seconds:
            if len(setup) * seconds < SETUP_RUNS * (time.perf_counter() - start):
                setup.append(self.setup_pair(len(setup)))
            own_s, ref_s, job, results, problems = self.paired(len(own))
            self.settle(job, results, extra_problems=problems)
            own.append(own_s)
            ref.append(ref_s)
        while len(setup) < SETUP_RUNS:
            setup.append(self.setup_pair(len(setup)))
        setup_ratios = [o / r for o, r in setup]
        ratios = [o / r for o, r in zip(own, ref)]
        own_tail, ref_tail = tail(own), tail(ref)
        metrics = {
            "run_rel": (statistics.median(ratios), "ratio"),
            "run_rel_tail": (own_tail / ref_tail, "ratio"),
            "setup_s": (REFERENCE_IMPORT_S * statistics.median(setup_ratios), "s"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        }
        record = {
            "run_rel": quartiles(ratios),
            "run_rel_tail": {"percentile": 90, "samples": len(own),
                             "samples_beyond": sum(x > own_tail for x in own),
                             "run_s": own_tail, "reference_run_s": ref_tail},
            "run_s": quartiles(own),
            "reference_run_s": quartiles(ref),
            "setup_rel": quartiles(setup_ratios),
            "setup_wall_s": quartiles([o for o, _ in setup]),
            "reference_setup_wall_s": quartiles([r for _, r in setup]),
            "peak_rss_kb": rss_kb,
            "rss_pass_jobs": self.rss_jobs,
        }
        return metrics, record, {"samples_s": own, "reference_samples_s": ref}

    # -- per layer ---------------------------------------------------------

    def run_traced(self, seconds):
        self.warm_up()
        tracer = tracing.SpanTracer()
        untraced, traced = [], []
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < seconds:
            index = len(traced)
            pair = {}
            # both sides run the same input, written afresh for each; the
            # side that runs first alternates so warm caches favour neither
            for side in ("plain", "traced") if index % 2 == 0 else ("traced", "plain"):
                job = self.job("time", index, tag=side)
                if side == "traced":
                    tracer.job = index
                    with tracing.Patches() as patches:
                        patches.replace_functions(tracer.wrap)
                        results = invoke(self.cli, job.argvs)
                    pair[side] = sum(r[0] for r in results)
                else:
                    pair[side], results = self.timed(job)
                self.settle(job, results)
            untraced.append(pair["plain"])
            traced.append(pair["traced"])

        counters = []
        for k in range(self.count_jobs):
            job = self.job("count", k)
            counter = tracing.CallCounter(layers.HOOKS)
            with tracing.Patches() as patches:
                counter.install(patches)
                results = invoke(self.cli, job.argvs)
            counters.append(counter)
            self.settle(job, results, extra_problems=layers.certificate_problems(counter))

        overheads = [t - u for t, u in zip(traced, untraced)]
        metrics = layers.per_layer(tracer, traced, overheads, counters)
        self_sum = sum(metrics[name][0] for name in layers.TIME_METRICS)
        record = {
            "untraced_run_s": quartiles(untraced),
            "traced_run_s": quartiles(traced),
            "self_time_sum_s": self_sum,
            "count_pass_jobs": self.count_jobs,
        }
        spans = [[s.job, s.name, s.start, s.end, s.parent] for s in tracer.spans]
        return metrics, record, {"spans": spans, "overheads_s": overheads}


def rss_pass(spec_path):
    """Child process: run the listed invocations, report ru_maxrss."""
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("chemodde.cli")
    results = invoke(cli, json.loads(Path(spec_path).read_text()))
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"maxrss_kb": maxrss, "results": results}))
    return 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="input size factor; below 1 only for the self-tests")
    p.add_argument("--rss-pass", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.rss_pass is None and args.workload is None:
        p.error("--workload is required")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "chemodde" / "cli.py").is_file():
        print(f"error: no chemodde sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.rss_pass:
        return rss_pass(args.rss_pass)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ.pop("CHEMODDE_OUT", None)

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    bench = Bench(args.workload, args.seed, args.scale, work)
    try:
        run = bench.run_traced if args.trace else bench.run_untraced
        metrics, record, detail = run(args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale,
        **record,
        "per_command_median_s": {k: statistics.median(v) for k, v in bench.per_command.items()},
        "attempted": bench.attempted, "failed": bench.failed,
        "error_rate": bench.failed / bench.attempted,
        "failures": bench.failures[:5],
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__,
        "first_timed_input": next(i for i in bench.inputs if i["stream"] == "time"),
    }
    full = {**record, **detail, "inputs": bench.inputs, "digests": bench.digests}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(full, indent=1) + "\n")

    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
