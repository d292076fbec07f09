"""Batch command-line front end.

Subcommands: simulate, washout, exponents, sliding, classify, periodic,
neither-nor, fig1, fig2.  Results go to CSV (and optionally SVG) files in
the output directory; a one-screen summary is printed.  Each subcommand
takes only the flags its handler reads (COMMANDS); any other flag is a
usage error.  Exit codes: 0 on success, 1 on domain or convergence
errors or a failed allocation, 2 on usage errors.  The CHEMODDE_OUT
environment variable overrides --out.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import analysis, dynamics, exponents, svg, washout
from .config import RunConfig, load_config
from .core import ChemostatParams, InitialHistory, Monod, PiecewiseLinear, Sinusoid
from .errors import ChemoddeError, ParameterError, UsageError

DEFAULT_HORIZON = 2000


# ---------------------------------------------------------------------------
# emitters
# ---------------------------------------------------------------------------


# rows formatted and written at a time: memory stays bounded whatever n is
CSV_BLOCK_ROWS = 1024


def emit_csv(path, names, columns) -> None:
    """Write aligned columns as CSV: header row, shortest-roundtrip floats,
    integral values below 1e15 in magnitude as integers, newline-terminated,
    locale-independent.  Rows are formatted and written CSV_BLOCK_ROWS at a
    time."""
    columns = [np.asarray(c) for c in columns]
    if len(names) != len(columns) or not columns:
        raise UsageError("emit_csv needs one name per column")
    n = len(columns[0])
    if n == 0 or any(len(c) != n for c in columns):
        raise UsageError("emit_csv needs non-empty columns of equal length")
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for lo in range(0, n, CSV_BLOCK_ROWS):
            cells = [_format_cells(c[lo : lo + CSV_BLOCK_ROWS]) for c in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _format_cells(col) -> list:
    """Each value v of col as str(int(v)) when v is finite, integral and
    below 1e15 in magnitude, else as repr(float(v)).  Those cells become
    Python ints and the rest floats, so one C repr of the list writes all."""
    f = col.astype(float)
    values = f.astype(object)
    integral = (np.abs(f) < 1e15) & (f == np.trunc(f))  # false on nan, inf
    values[integral] = f[integral].astype(np.int64)
    return repr(values.tolist())[1:-1].split(", ")


def emit_svg(path, title, series) -> None:
    Path(path).write_text(svg.line_chart(title, series))


def emit_json(path, payload) -> None:
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def _write_timeseries(out, stem, title, cols, with_svg) -> None:
    """stem.csv with the named columns; with_svg adds stem.svg, the feed,
    substrate and biomass drawn against the first column."""
    emit_csv(out / f"{stem}.csv", list(cols), list(cols.values()))
    if with_svg:
        t = next(iter(cols.values()))
        emit_svg(
            out / f"{stem}.svg",
            title,
            [
                ("feed s0", t, cols["s0"], svg.STYLE_FEED),
                ("substrate s", t, cols["s"], svg.STYLE_SUBSTRATE),
                ("biomass x", t, cols["x"], svg.STYLE_BIOMASS),
            ],
        )


def _write_sliding(out, stem, t, stat, with_svg) -> None:
    """stem.csv with the sliding product; with_svg adds stem.svg against
    the threshold 1."""
    emit_csv(out / f"{stem}.csv", ["t", "sliding_product"], [t, stat])
    if with_svg:
        emit_svg(
            out / f"{stem}.svg",
            "sliding half-window product",
            [
                ("product", t, stat, svg.STYLE_SUBSTRATE),
                ("threshold 1", t, np.ones_like(stat), svg.STYLE_FEED),
            ],
        )


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _out_dir(args) -> Path:
    out = os.environ.get("CHEMODDE_OUT") or args.out
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load(args) -> RunConfig:
    if not args.config:
        raise UsageError("this subcommand needs --config PATH")
    cfg = load_config(args.config)
    given = vars(args)  # --horizon and --tol exist only where they are read
    return replace(cfg, **{k: given[k] for k in ("horizon", "tol") if given.get(k) is not None})


def _need_init(cfg: RunConfig) -> InitialHistory:
    if cfg.init is None:
        raise UsageError("this subcommand needs init.s and init.x in the config")
    return cfg.init


def _horizon(cfg: RunConfig) -> int:
    return cfg.horizon if cfg.horizon is not None else DEFAULT_HORIZON


def _feed(params, t):
    """The feed s0 at the consecutive integer times t, as a column."""
    return params.input.sample(int(t[0]), int(t[-1]))


def _simulation_bundle(params, init, horizon):
    z = washout.washout_sequence(params, horizon)
    traj = dynamics.simulate(params, init, horizon)
    deficit = dynamics.conservation_deficit(traj, z)
    t = np.arange(-params.r, horizon + 1)
    s0 = _feed(params, t)
    # y and the deficit start at t = 0; pad the history window with nan
    y = np.concatenate([np.full(params.r, np.nan), traj.y.values])
    d = np.concatenate([np.full(params.r, np.nan), deficit.values])
    return traj, z, {
        "t": t,
        "s0": s0,
        "z": z.window(-params.r, horizon),
        "s": traj.s.values,
        "x": traj.x.values,
        "y": y,
        "deficit": d,
    }


def _exp_or_inf(d):
    """math.exp(d), or inf where the result overflows a double."""
    try:
        return math.exp(d)
    except OverflowError:
        return math.inf


def _sliding_product(params, z, horizon):
    """Times u in [0, horizon] and the half-window growth product
    prod_{k=u//2}^{u} a[k - r]: the factor at k uses the delayed pair
    (phi, z) at k - r.  A product beyond the largest double is inf."""
    corr = exponents.phi_sequence(params, z, horizon)
    growth = exponents.growth_factors(params, z, corr.phi)
    logs = [math.log(a) for a in growth.values[: horizon + 1].tolist()]
    prefix = np.concatenate([[0.0], np.cumsum(logs)])
    t = np.arange(0, horizon + 1)
    return t, np.array([_exp_or_inf(d) for d in (prefix[t + 1] - prefix[t // 2]).tolist()])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_simulate(args) -> int:
    cfg = _load(args)
    horizon = _horizon(cfg)
    traj, z, cols = _simulation_bundle(cfg.params, _need_init(cfg), horizon)
    out = _out_dir(args)
    _write_timeseries(out, "simulate", "simulation", cols, args.svg)
    feas = dynamics.check_positivity_preconditions(cfg.params, cfg.init, z)
    print(f"simulated {horizon} steps; wrote {out / 'simulate.csv'}")
    print(
        f"feasibility: p'(0)*z_sup = {feas.pz_product:.6g} "
        f"({'ok' if feas.hypothesis_pz else 'VIOLATED'}), "
        f"initial mass {feas.initial_mass:.6g} vs z0 {feas.z0:.6g} "
        f"({'ok' if feas.mass_ok else 'VIOLATED'})"
    )
    if traj.first_negative_s is not None:
        print(f"warning: substrate went negative at t = {traj.first_negative_s}")
    print(f"final state: s = {traj.s.at(horizon):.6g}, x = {traj.x.at(horizon):.6g}")
    return 0


def _cmd_washout(args) -> int:
    cfg = _load(args)
    horizon = _horizon(cfg)
    z = washout.washout_sequence(cfg.params, horizon)
    t = np.arange(-cfg.params.r, horizon + 1)
    s0 = _feed(cfg.params, t)
    out = _out_dir(args)
    emit_csv(out / "washout.csv", ["t", "s0", "z"], [t, s0, z.z.values])
    print(f"wrote {out / 'washout.csv'}")
    print(f"z_sup = {z.z_sup:.9g}, tail error bound = {z.tail_error_bound:.3e}")
    return 0


def _cmd_exponents(args) -> int:
    cfg = _load(args)
    horizon = _horizon(cfg)
    params = cfg.params
    z = washout.washout_sequence(params, horizon)
    corr = exponents.phi_sequence(params, z, horizon)
    growth = exponents.growth_factors(params, z, corr.phi)
    window_min = (
        exponents.default_window_min(params.r) if cfg.window_min is None else cfg.window_min
    )
    est = exponents.bohl_bounds(growth, window_min)
    out = _out_dir(args)
    emit_csv(
        out / "exponents.csv",
        ["t", "z", "phi", "growth_factor"],
        [corr.phi.times(), z.window(-params.r, horizon), corr.phi.values, growth.values],
    )
    print(f"wrote {out / 'exponents.csv'}")
    print(
        f"window means: lower = {est.lower:.9g}, upper = {est.upper:.9g} "
        f"(T = {est.window_min}, horizon = {horizon})"
    )
    return 0


def _cmd_sliding(args) -> int:
    cfg = _load(args)
    horizon = _horizon(cfg)
    z = washout.washout_sequence(cfg.params, horizon)
    t, stat = _sliding_product(cfg.params, z, horizon)
    out = _out_dir(args)
    _write_sliding(out, "sliding", t, stat, args.svg)
    print(f"wrote {out / 'sliding.csv'}")
    return 0


def _cmd_classify(args) -> int:
    cfg = _load(args)
    report = analysis.classify(
        cfg.params,
        horizon=_horizon(cfg),
        window_min=cfg.window_min,
        tol=1e-12 if cfg.tol is None else cfg.tol,
    )
    out = _out_dir(args)
    emit_json(out / "classify.json", {
        "verdict": report.verdict,
        "basis": report.basis,
        "lower": report.lower,
        "upper": report.upper,
        "mean": report.mean,
        "eta_persist": report.eta_persist,
        "eta_extinct": report.eta_extinct,
        "window_min": report.window_min,
        "horizon": report.horizon,
        "borderline": report.borderline,
        "note": report.note,
        "phi_sweeps": report.phi_sweeps,
        "phi_residual": report.phi_residual,
    })
    print(f"wrote {out / 'classify.json'}")
    print(f"verdict: {report.verdict} (basis {report.basis}, lower {report.lower:.6g}, upper {report.upper:.6g})")
    return 0


def _cmd_periodic(args) -> int:
    cfg = _load(args)
    init = _need_init(cfg)
    result = analysis.find_periodic_orbit(
        cfg.params,
        init,
        tol=1e-9 if cfg.tol is None else cfg.tol,
        max_periods=args.max_periods,
    )
    out = _out_dir(args)
    if isinstance(result, analysis.WashoutConvergence):
        emit_json(out / "periodic_report.json", {
            "outcome": "washout",
            "periods_used": result.periods_used,
            "max_x_last_period": result.max_x_last_period,
        })
        print(
            f"trajectory converged to the washout solution after "
            f"{result.periods_used} periods (max x {result.max_x_last_period:.3e})"
        )
        return 0
    phase = np.arange(result.period)
    cols = {"phase": phase, "s0": _feed(cfg.params, phase), "s": result.s, "x": result.x}
    _write_timeseries(out, "periodic_orbit", f"periodic orbit (period {result.period})", cols, args.svg)
    emit_json(out / "periodic_report.json", {
        "outcome": "orbit",
        "period": result.period,
        "residual": result.residual,
        "min_x": result.delta,
        "periods_used": result.periods_used,
    })
    print(f"wrote {out / 'periodic_orbit.csv'}")
    print(
        f"found period-{result.period} orbit: min x = {result.delta:.6g}, "
        f"residual = {result.residual:.3e}, periods used = {result.periods_used}"
    )
    return 0


def _cmd_neither_nor(args) -> int:
    report = analysis.neither_nor_demo(args.E, args.r, args.n_max, x_init=args.x0)
    out = _out_dir(args)
    emit_json(out / "neither_nor.json", {
        "trivial": report.trivial,
        "check_a_ok": report.check_a_ok,
        "check_b_ok": report.check_b_ok,
        "check_c_ok": report.check_c_ok,
        "check_a": [asdict(c) for c in report.check_a],
        "low_block_infima": list(report.low_block_infima),
        "first_negative_s": report.first_negative_s,
        "nonfinite_states": report.nonfinite_states,
        "classification": None
        if report.classification is None
        else {
            "verdict": report.classification.verdict,
            "lower": report.classification.lower,
            "upper": report.classification.upper,
        },
    })
    print(f"wrote {out / 'neither_nor.json'}")
    if report.trivial:
        print("trivial case: biomass history is identically zero, x stays 0")
        return 0
    print(
        f"checks: block-end floor {report.check_a_ok}, "
        f"low-block infima decreasing {report.check_b_ok}, "
        f"classification inconclusive {report.check_c_ok}"
    )
    if report.feasibility is not None and not report.feasibility.hypothesis_pz:
        print(
            "note: this input violates the positivity bound "
            f"(p'(0)*z_sup = {report.feasibility.pz_product:.3g} > 1), as designed"
        )
    if report.first_negative_s is not None:
        print(f"warning: substrate went negative at t = {report.first_negative_s}")
    return 0


FIG1_FEED_HIGH = 3.0
FIG1_FEED_LOW = 0.05


def fig1_params() -> ChemostatParams:
    """Constant feed, then a linear ramp down to a level far below the
    persistence threshold.  r = 5, E = 1/5.5, saturating uptake."""
    return ChemostatParams(
        E=1.0 / 5.5,
        r=5,
        uptake=Monod(p_max=1.0, k_s=1.0),
        input=PiecewiseLinear(
            breakpoints=((0.0, FIG1_FEED_HIGH), (500.0, FIG1_FEED_HIGH), (1500.0, FIG1_FEED_LOW))
        ),
    )


def fig1_init() -> InitialHistory:
    return InitialHistory.constant(5, 0.25, 0.5)


def _cmd_fig1(args) -> int:
    params = fig1_params()
    horizon = args.horizon
    if horizon < 500:
        raise UsageError(f"fig1 summarises the constant phase [100, 500]; horizon {horizon} < 500")
    traj, z, cols = _simulation_bundle(params, fig1_init(), horizon)
    t, stat = _sliding_product(params, z, horizon)

    out = _out_dir(args)
    _write_timeseries(out, "fig1_timeseries", "constant-then-ramp feed", cols, args.svg)
    _write_sliding(out, "fig1_sliding", t, stat, args.svg)
    print(f"wrote {out / 'fig1_timeseries.csv'} and {out / 'fig1_sliding.csv'}")
    print(
        f"biomass: min over constant phase = {np.min(traj.x.window(100, 500)):.6g}, "
        f"final = {traj.x.at(horizon):.3e}"
    )
    return 0


def fig2_params(offset: float) -> ChemostatParams:
    """Sinusoidal feed sin(2*pi*t/500)/4 + offset with r = 5, E = 1/8."""
    return ChemostatParams(
        E=1.0 / 8.0,
        r=5,
        uptake=Monod(p_max=1.0, k_s=1.0),
        input=Sinusoid(amplitude=0.25, period_steps=500, offset=offset),
    )


def fig2_init() -> InitialHistory:
    return InitialHistory.constant(5, 0.5, 0.2)


def _cmd_fig2(args) -> int:
    params = fig2_params(args.offset)
    horizon = args.horizon
    traj, z, cols = _simulation_bundle(params, fig2_init(), horizon)
    report = analysis.classify(params)
    out = _out_dir(args)
    _write_timeseries(out, "fig2_timeseries", f"periodic feed, offset {args.offset}", cols, args.svg)
    print(f"wrote {out / 'fig2_timeseries.csv'}")
    print(
        f"periodic mean of (1-E)(1+phi p(z)) = {report.mean:.4f} -> verdict {report.verdict}"
    )
    print(f"final biomass x({horizon}) = {traj.x.at(horizon):.3e}")
    return 0


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# each flag's argparse keywords; COMMANDS lists the flags each handler reads
_FLAGS = {
    "--config": dict(help="path to a key = value config file"),
    "--out": dict(default=".", help="output directory (env CHEMODDE_OUT overrides)"),
    "--horizon": dict(type=int, help="steps past time 0"),
    "--tol": dict(type=float, help="tolerance override"),
    "--svg": dict(action="store_true", help="also write SVG charts"),
    "--max-periods": dict(type=int, default=400),
    "--E": dict(type=float, default=0.5),
    "--r": dict(type=int, default=0),
    "--n-max": dict(type=int, default=5),
    "--x0": dict(type=float, help="initial biomass level"),
    "--offset": dict(type=float, default=0.6),
}

# command -> (handler, its flags, per-command defaults)
COMMANDS = {
    "simulate": (_cmd_simulate, ("--config", "--out", "--horizon", "--svg"), {}),
    "washout": (_cmd_washout, ("--config", "--out", "--horizon"), {}),
    "exponents": (_cmd_exponents, ("--config", "--out", "--horizon"), {}),
    "sliding": (_cmd_sliding, ("--config", "--out", "--horizon", "--svg"), {}),
    "classify": (_cmd_classify, ("--config", "--out", "--horizon", "--tol"), {}),
    "periodic": (_cmd_periodic, ("--config", "--out", "--tol", "--svg", "--max-periods"), {}),
    "neither-nor": (_cmd_neither_nor, ("--out", "--E", "--r", "--n-max", "--x0"), {}),
    "fig1": (_cmd_fig1, ("--out", "--horizon", "--svg"), {"horizon": DEFAULT_HORIZON}),
    "fig2": (_cmd_fig2, ("--out", "--horizon", "--svg", "--offset"), {"horizon": 20_000}),
}


def build_parser(names=COMMANDS) -> argparse.ArgumentParser:
    """The parser with a subparser for each of the named commands."""
    parser = _Parser(prog="chemodde", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name in names:
        fn, flags, defaults = COMMANDS[name]
        p = sub.add_parser(name)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(fn=fn, **defaults)
    return parser


def run(argv) -> int:
    # a known command needs only its own subparser; anything else gets the
    # full parser, whose help and errors list every command
    parser = build_parser(argv[:1] if argv and argv[0] in COMMANDS else COMMANDS)
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_help()
            return 2
        return args.fn(args)
    except (UsageError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ChemoddeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # a range too long to allocate, e.g. the washout tail for E near 0
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
