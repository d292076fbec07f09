"""Seeded job generators for the chemodde CLI benchmark, one per workload.

A job is the batch of CLI invocations a user makes on one generated input:
one invocation for fig2_svg and ramp_classify, two for periodic_delay and
measured_feed.  Job k of stream s under seed n depends on (n, s, k) only,
so the same seed gives the same inputs however many jobs a run reaches.

Parameters are drawn by stratified sampling (`_draws`): each block of
consecutive jobs covers every cell of a parameter grid once, in an order
the seed permutes.  Per-job cost depends on these parameters (the periodic
sweep on E and the period, the cross-check on r), so every run's median
is taken over the same mix of costs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

STREAMS = {"warm": 0, "time": 1, "rss": 2, "count": 3}


@dataclass(frozen=True)
class Job:
    """CLI argument lists for one input, plus what the checks need to know."""

    kind: str
    argvs: tuple
    out: Path
    meta: dict


def _draws(seed, stream, index, shape):
    """One draw in [0, 1) per dimension of `shape`, by full-factorial
    stratification: each block of prod(shape) consecutive jobs visits every
    cell of the grid once, in an order the seed permutes, and the draw is
    uniform within the cell."""
    cells = math.prod(shape)
    block, pos = divmod(index, cells)
    cell = np.random.default_rng([seed, stream, block]).permutation(cells)[pos]
    jitter = np.random.default_rng([seed, stream, index, 1]).random(len(shape))
    return [(int(k) + float(j)) / n for k, j, n in zip(np.unravel_index(cell, shape), jitter, shape)]


def _write_config(path: Path, pairs: dict) -> None:
    path.write_text("".join(f"{k} = {v}\n" for k, v in pairs.items()))


def _numbers(values) -> str:
    return " ".join(repr(float(v)) for v in values)


MONOD = {"uptake.kind": "monod", "uptake.p_max": "1.0", "uptake.k_s": "1.0"}


def fig2_job(seed, stream, index, job_dir: Path, scale=1.0) -> Job:
    """`fig2 --svg` with the feed offset drawn from [0.35, 0.9]: both
    verdicts occur (the threshold sits near 0.43) and biomass stays far
    above the subnormal range."""
    (u,) = _draws(seed, stream, index, (8,))
    offset = 0.35 + 0.55 * u
    horizon = int(round(20_000 * scale))
    argv = ["fig2", "--svg", "--offset", repr(offset), "--out", str(job_dir)]
    if horizon != 20_000:
        argv += ["--horizon", str(horizon)]
    meta = {"offset": offset, "E": 1.0 / 8.0, "r": 5, "period": 500, "horizon": horizon}
    return Job("fig2_svg", (tuple(argv),), job_dir, meta)


def ramp_job(seed, stream, index, job_dir: Path, scale=1.0) -> Job:
    """`classify` on the fig1 ramp: feed 3.0 held, then ramped down to 0.05,
    with the two ramp breakpoints jittered."""
    u1, u2 = _draws(seed, stream, index, (4, 4))
    b1, b2 = 400.0 + 200.0 * u1, 1300.0 + 400.0 * u2
    horizon = int(round(4000 * scale))
    E, r = 1.0 / 5.5, 5
    breakpoints = ((0.0, 3.0), (b1 * scale, 3.0), (b2 * scale, 0.05))
    cfg = job_dir / "ramp.cfg"
    _write_config(cfg, {
        "schema": 1, "model.E": repr(E), "model.r": r, **MONOD,
        "input.kind": "piecewise",
        "input.t": _numbers(t for t, _ in breakpoints),
        "input.values": _numbers(v for _, v in breakpoints),
        "run.horizon": horizon,
    })
    argv = ("classify", "--config", str(cfg), "--out", str(job_dir))
    meta = {"E": E, "r": r, "breakpoints": breakpoints, "horizon": horizon}
    return Job("ramp_classify", (argv,), job_dir, meta)


def periodic_job(seed, stream, index, job_dir: Path, scale=1.0) -> Job:
    """`classify` then `periodic` on a persistent sinusoidal feed with a
    long delay r = 100; the period and E set the sweep and orbit cost."""
    u1, u2 = _draws(seed, stream, index, (4, 4))
    E, period = 0.005 + 0.015 * u1, 200 + int(301 * u2)
    r = 100
    cfg = job_dir / "periodic.cfg"
    _write_config(cfg, {
        "schema": 1, "model.E": repr(E), "model.r": r, **MONOD,
        "input.kind": "sinusoid", "input.amplitude": "0.25",
        "input.period": period, "input.offset": "0.9",
        "init.s": _numbers([0.5] * (r + 1)), "init.x": _numbers([0.2] * (r + 1)),
    })
    argvs = (
        ("classify", "--config", str(cfg), "--out", str(job_dir)),
        ("periodic", "--config", str(cfg), "--out", str(job_dir)),
    )
    meta = {"E": E, "r": r, "period": period, "amplitude": 0.25, "offset": 0.9}
    return Job("periodic_delay", argvs, job_dir, meta)


def _bounded_walk(rng, n, lo, hi, start, step):
    """Random walk reflected into [lo, hi]."""
    x = start - lo + np.cumsum(rng.normal(0.0, step, n))
    span = hi - lo
    x = np.mod(x, 2.0 * span)
    return lo + np.where(x > span, 2.0 * span - x, x)


def measured_job(seed, stream, index, job_dir: Path, scale=1.0) -> Job:
    """`simulate` then `exponents` on a measured (sequence) feed: a bounded
    random walk in [0.2, 1.0], so p'(0) * sup z <= 1 for Monod(1, 1), with
    an initial history below the washout mass; both positivity hypotheses
    hold."""
    # cost grows with r (the cross-check is O(n r)), not with E
    u1, u2 = _draws(seed, stream, index, (6, 1))
    r, E = 5 + int(6 * u1), 0.03 + 0.02 * u2
    n = int(round(30_000 * scale))
    rng = np.random.default_rng([seed, stream, index, 2])
    feed = _bounded_walk(rng, n, 0.2, 1.0, rng.uniform(0.4, 0.8), 0.02)
    s_init, x_init = 0.3 * feed[0], 0.1 * feed[0]
    cfg = job_dir / "measured.cfg"
    _write_config(cfg, {
        "schema": 1, "model.E": repr(E), "model.r": r, **MONOD,
        "input.kind": "sequence", "input.values": _numbers(feed),
        "init.s": _numbers([s_init] * (r + 1)), "init.x": _numbers([x_init] * (r + 1)),
        "run.horizon": n - 1,
    })
    argvs = (
        ("simulate", "--config", str(cfg), "--out", str(job_dir)),
        ("exponents", "--config", str(cfg), "--out", str(job_dir)),
    )
    meta = {"E": E, "r": r, "feed": feed, "horizon": n - 1}
    return Job("measured_feed", argvs, job_dir, meta)


MAKERS = {
    "fig2_svg": fig2_job,
    "ramp_classify": ramp_job,
    "periodic_delay": periodic_job,
    "measured_feed": measured_job,
}
