"""Per-layer metrics: which span or count feeds which metric.

Layer names are chemodde module names.  Times are self times (a span
minus its traced children) averaged per job over the traced pass, so the
times of all layers add up to the traced job time.  Counts, sizes and
certificates come from the separate counting pass over a fixed list of
jobs, so for one seed they repeat exactly: counts and sizes are per job,
certificates are the worst value seen.
"""

from __future__ import annotations

import statistics
from collections import Counter
from pathlib import Path

import numpy as np

# span label (module.function) -> time metric; unlisted labels of a module
# fall back to MODULE_TIME, anything else to trace.other_s
SPAN_TIME = {
    "dynamics.simulate": "dynamics.simulate_s",
    "dynamics.conservation_deficit": "dynamics.deficit_s",
    "exponents.phi_sequence": "exponents.phi_sequence_s",
    "exponents.correction_recursion": "exponents.cross_check_s",
    "exponents.growth_factors": "exponents.growth_factors_s",
    "exponents.bohl_bounds": "exponents.bohl_s",
    "exponents.periodic_phi": "exponents.periodic_phi_s",
    "exponents.periodic_mean": "exponents.periodic_mean_s",
    "analysis.classify": "analysis.classify_self_s",
    "analysis.find_periodic_orbit": "analysis.orbit_s",
    "cli.emit_csv": "cli.emit_csv_s",
}
MODULE_TIME = {
    "config": "config.load_s",
    "washout": "washout.s",
    "cli": "cli.self_s",
    "svg": "svg.line_chart_s",
}
OTHER_TIME = "trace.other_s"

TIME_METRICS = sorted({*SPAN_TIME.values(), *MODULE_TIME.values(), OTHER_TIME})

COUNT_METRICS = {
    "core.uptake_calls": "count",
    "core.input_calls": "count",
    "series.at_calls": "count",
    "washout.calls": "count",
    "exponents.bohl_windows": "count",
    "exponents.periodic_phi_sweeps": "count",
    "exponents.periodic_phi_ops": "count",
    "analysis.orbit_periods": "count",
    "cli.csv_bytes": "bytes",
    "svg.bytes": "bytes",
}

# certificate -> largest value the Tier-1 tests accept (None: reported only)
CERTIFICATES = {
    "washout.tail_error_bound": None,
    "exponents.cross_check_error": 1e-10,
    "exponents.periodic_phi_residual": 1e-12,
    "analysis.orbit_residual": 1e-9,
    "dynamics.conservation_err": 1e-10,
}


def time_metric(label):
    if label in SPAN_TIME:
        return SPAN_TIME[label]
    return MODULE_TIME.get(label.split(".", 1)[0], OTHER_TIME)


def bohl_windows(n, window_min, gap_min, method, n_window_lengths):
    """Window means bohl_bounds evaluates: every (t1, t2] pair on the
    exhaustive path, one pass per ladder length on the windowed path.

    Modelled from the algorithm of bohl_bounds (its 6000-sample switch and
    geometric ladder of window lengths), not observed; _bohl refuses to
    count once bohl_bounds no longer takes `method`."""
    if gap_min is None:
        gap_min = window_min
    if method == "auto":
        method = "full" if n <= 6000 else "windowed"
    if method == "full":
        m = n - window_min - gap_min - 2
        return m * (m + 1) // 2
    lengths = np.unique(np.geomspace(window_min + 1, n - gap_min - 2, n_window_lengths).astype(int))
    return int(sum(n - w - gap_min - 1 for w in lengths))


def _washout(args, result, c):
    c.counts["washout.calls"] += 1
    c.record("washout.tail_error_bound", result.tail_error_bound)


def _phi(args, result, c):
    c.record("exponents.cross_check_error", result.cross_check_error)


def _bohl(args, result, c):
    if not {"method", "n_window_lengths"} <= args.keys():
        raise RuntimeError("bohl_bounds no longer takes method and n_window_lengths; "
                           "exponents.bohl_windows models the old scan and must be redefined")
    growth = args["growth"]
    n = len(growth.values) if hasattr(growth, "values") else len(growth)
    c.counts["exponents.bohl_windows"] += bohl_windows(
        n, args["window_min"], args["gap_min"], args["method"], args["n_window_lengths"])


def _periodic_phi(args, result, c):
    c.counts["exponents.periodic_phi_sweeps"] += result.sweeps
    c.counts["exponents.periodic_phi_ops"] += result.sweeps * result.period * args["params"].r
    c.record("exponents.periodic_phi_residual", result.residual)


def _orbit(args, result, c):
    c.counts["analysis.orbit_periods"] += result.periods_used
    if hasattr(result, "residual"):
        c.record("analysis.orbit_residual", result.residual)


def _simulate(args, result, c):
    c.counts["dynamics.steps"] += args["horizon"]


def _deficit(args, result, c):
    d = result.values
    E = args["traj"].params.E
    expect = (1.0 - E) ** np.arange(len(d)) * d[0]
    scale = max(abs(d[0]), args["z"].z_sup)
    c.record("dynamics.conservation_err", float(np.max(np.abs(d - expect))) / scale)


def _csv(args, result, c):
    c.counts["cli.csv_bytes"] += Path(args["path"]).stat().st_size


def _svg(args, result, c):
    c.counts["svg.bytes"] += len(result.encode())


HOOKS = {
    "washout.washout_sequence": _washout,
    "washout.washout_periodic": _washout,
    "exponents.phi_sequence": _phi,
    "exponents.bohl_bounds": _bohl,
    "exponents.periodic_phi": _periodic_phi,
    "analysis.find_periodic_orbit": _orbit,
    "dynamics.simulate": _simulate,
    "dynamics.conservation_deficit": _deficit,
    "cli.emit_csv": _csv,
    "svg.line_chart": _svg,
}


def certificate_problems(counter):
    """Certificates of one counted job that exceed their Tier-1 tolerance."""
    problems = []
    for name, limit in CERTIFICATES.items():
        worst = max(counter.values.get(name, [0.0]))
        if limit is not None and not worst <= limit:
            problems.append(f"{name} = {worst:.3e} exceeds {limit:.0e}")
    return problems


PER_LAYER_UNITS = {
    **dict.fromkeys(TIME_METRICS, "s"),
    **COUNT_METRICS,
    "dynamics.ns_per_step": "ns",
    **dict.fromkeys(CERTIFICATES, "1"),
    "trace.run_s": "s",
    "trace.overhead_s": "s",
}


def per_layer(tracer, traced_s, overheads_s, counters):
    """Every per-layer metric as {name: (value, unit)}: times per traced
    job, counts per counted job."""
    jobs = sorted({s.job for s in tracer.spans})
    per_job = {job: dict.fromkeys(TIME_METRICS, 0.0) for job in jobs}
    for span, own in zip(tracer.spans, tracer.self_times()):
        per_job[span.job][time_metric(span.name)] += own
    values = {name: statistics.fmean(per_job[j][name] for j in jobs) for name in TIME_METRICS}
    n = len(counters)
    total = sum((c.counts for c in counters), start=Counter())
    for name in COUNT_METRICS:
        values[name] = total[name] / n
    steps = total["dynamics.steps"] / n
    values["dynamics.ns_per_step"] = values["dynamics.simulate_s"] / steps * 1e9 if steps else 0.0
    for name in CERTIFICATES:
        values[name] = max((v for c in counters for v in c.values.get(name, [])), default=0.0)
    values["trace.run_s"] = statistics.fmean(traced_s)
    values["trace.overhead_s"] = statistics.median(overheads_s)
    return {name: (values[name], PER_LAYER_UNITS[name]) for name in PER_LAYER_UNITS}
