"""Output checks for the benchmark's CLI invocations.

Every check reads what a CLI user gets (files and printed summary) and
raises CheckFailed at the first problem; check_job turns that into the
job's list of problems.  The checks recompute the identities from the outputs with numpy
and do not call chemodde.  Tolerances are those of the Tier-1 tests:
conservation 1e-10 relative to max(|d0|, sup z), the phi fixed-point
identity 1e-10 (the cross-check tolerance), orbit closure 1e-9.

Not certified: on measured_feed the Bohl bounds come from the
approximate "windowed" scan that bohl_bounds switches to above 6000
samples, so they are not the true extreme window means (a known defect,
ROADMAP item 3).  The check there only brackets them by the extremes of the
growth factors; exactness is checked on ramp_classify, where the scan is
exhaustive.
"""

from __future__ import annotations

import json
import math
import re
import xml.etree.ElementTree as ET

import numpy as np

CONSERVATION_TOL = 1e-10
PHI_IDENTITY_TOL = 1e-10
ORBIT_TOL = 1e-9
RECURSION_TOL = 1e-12
BOHL_REL_TOL = 1e-9

TIMESERIES_HEADER = ["t", "s0", "z", "s", "x", "y", "deficit"]


class CheckFailed(Exception):
    pass


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _read_csv(path, header):
    _require(path.is_file(), f"missing output {path.name}")
    with path.open() as fh:
        first = fh.readline().rstrip("\n")
    _require(first == ",".join(header), f"{path.name}: header {first!r}")
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise CheckFailed(f"{path.name}: unparseable ({exc})") from None
    _require(data.shape[1] == len(header), f"{path.name}: {data.shape[1]} columns")
    return {name: data[:, i] for i, name in enumerate(header)}


def _read_json(path):
    _require(path.is_file(), f"missing output {path.name}")
    try:
        return json.loads(path.read_text())
    except ValueError as exc:
        raise CheckFailed(f"{path.name}: unparseable ({exc})") from None


def _monod(s):
    return s / (1.0 + s)


def _max_rel(a, b, scale):
    return float(np.max(np.abs(a - b))) / scale


def _check_trajectory(cols, E, r, horizon, feed):
    """Washout, state and conservation identities on a t,s0,z,s,x,y,deficit
    table covering [-r, horizon]."""
    t = cols["t"]
    _require(len(t) == horizon + r + 1 and t[0] == -r and t[-1] == horizon,
             f"time column covers [{t[0]:g}, {t[-1]:g}], expected [{-r}, {horizon}]")
    s0, z, s, x, y, d = (cols[k] for k in ("s0", "z", "s", "x", "y", "deficit"))
    omE = 1.0 - E
    # the CLI evaluates the feed in scalar math, numpy may differ by an ulp
    _require(float(np.max(np.abs(s0 - feed))) <= 1e-14, "s0 column is not the generated feed")
    z_sup = float(np.max(z))
    err = _max_rel(z[1:], omE * z[:-1] + E * s0[:-1], z_sup)
    _require(err <= RECURSION_TOL, f"washout recursion residual {err:.2e}")
    j = np.arange(r, r + horizon)
    err = _max_rel(s[j + 1], E * s0[j] + omE * (s[j] - x[j] * _monod(s[j])), z_sup)
    _require(err <= RECURSION_TOL, f"substrate recursion residual {err:.2e}")
    x_next = omE * x[j] + x[j - r] * _monod(s[j - r]) * omE ** (r + 1)
    err = float(np.max(np.abs(x[j + 1] - x_next) / np.maximum(np.abs(x[j + 1]), 1e-300)))
    _require(err <= RECURSION_TOL, f"biomass recursion residual {err:.2e}")
    dd = d[r:]
    err = _max_rel(dd, s[r:] + x[r:] + y[r:] - z[r:], z_sup)
    _require(err <= RECURSION_TOL, f"deficit column differs from s + x + y - z by {err:.2e}")
    expect = omE ** np.arange(horizon + 1) * dd[0]
    err = _max_rel(dd, expect, max(abs(dd[0]), z_sup))
    _require(err <= CONSERVATION_TOL, f"conservation identity error {err:.2e}")


def _sinusoid(t, amplitude, period, offset):
    phase = np.mod(t, period)
    return amplitude * np.sin(2.0 * np.pi * phase / period) + offset


def _search(pattern, text, what):
    m = re.search(pattern, text)
    _require(m is not None, f"summary lacks {what}")
    return m


def check_fig2(job, stdouts):
    m = job.meta
    E, r, horizon, period = m["E"], m["r"], m["horizon"], m["period"]
    cols = _read_csv(job.out / "fig2_timeseries.csv", TIMESERIES_HEADER)
    feed = _sinusoid(np.arange(-r, horizon + 1), 0.25, period, m["offset"])
    _check_trajectory(cols, E, r, horizon, feed)

    svg = job.out / "fig2_timeseries.svg"
    _require(svg.is_file(), "missing output fig2_timeseries.svg")
    try:
        root = ET.fromstring(svg.read_text())
    except ET.ParseError as exc:
        raise CheckFailed(f"fig2_timeseries.svg: unparseable ({exc})") from None
    lines = root.findall("{http://www.w3.org/2000/svg}polyline")
    _require(len(lines) == 3, f"SVG has {len(lines)} polylines, expected 3")

    out = stdouts[0]
    hit = _search(r"= ([0-9.]+) -> verdict (\w+)", out, "the periodic mean and verdict")
    mean, verdict = float(hit.group(1)), hit.group(2)
    _require(verdict in ("Persistent", "Extinct"), f"verdict {verdict}")
    if mean != 1.0:  # printed to 4 decimals; at 1.0000 either verdict is consistent
        _require((verdict == "Persistent") == (mean > 1.0), f"verdict {verdict} with mean {mean}")
    final = float(_search(r"final biomass x\(\d+\) = (\S+)", out, "the final biomass").group(1))
    x = cols["x"]
    _require(math.isclose(final, x[-1], rel_tol=1e-3), "printed final biomass differs from the CSV")
    last, previous = x[-period:], x[-2 * period : -period]
    if verdict == "Persistent":
        _require(float(np.min(last)) > 1e-12, "Persistent verdict but biomass has collapsed")
    else:
        ratio = float(np.max(last) / np.max(previous))
        _require(ratio < 1.0 - 1e-6, f"Extinct verdict but biomass is not decaying ({ratio:.6f})")


def _washout_reference(s0_before, s0, E):
    """z on [-r, horizon] for a feed that is constant (s0_before) up to -r:
    the exact washout there is that constant, then z[t+1] = (1-E) z[t] + E s0[t]."""
    omE = 1.0 - E
    z = [s0_before]
    for v in s0.tolist()[:-1]:
        z.append(omE * z[-1] + E * v)
    return np.array(z)


def _phi_reference(z, E, r, horizon):
    """phi on [-r, horizon] from the log-form generator with c = 1 on [-r, 0]."""
    omE = 1.0 - E
    lomE, omE_r = math.log(omE), omE**r
    zl = z.tolist()
    log_c = [0.0] * (r + 1)
    for i in range(r, horizon + 2 * r):
        ratio = math.exp(log_c[i - r] - log_c[i]) * omE_r
        p = zl[i - r] / (1.0 + zl[i - r])
        log_c.append(log_c[i] + lomE + math.log1p(p * ratio))
    log_c = np.array(log_c)
    idx = np.arange(horizon + r + 1)
    return np.exp(log_c[idx] - log_c[idx + r]) * omE_r


def brute_force_bohl(growth, window_min, gap_min):
    """Min and max geometric mean over every window (t1, t2] with
    t1 > gap_min and t2 - t1 > window_min."""
    n = len(growth)
    prefix = np.concatenate([[0.0], np.cumsum(np.log(growth))])
    lo, hi = math.inf, -math.inf
    for length in range(window_min + 1, n - gap_min - 1):
        # windows (t1, t1 + length] for t1 in [gap_min + 1, n - 1 - length]
        sums = prefix[gap_min + 2 + length :] - prefix[gap_min + 2 : n + 1 - length]
        lo = min(lo, float(sums.min()) / length)
        hi = max(hi, float(sums.max()) / length)
    return math.exp(lo), math.exp(hi)


def _verdict_for(lower, upper):
    if lower > 1.0:
        return "Persistent"
    if upper < 1.0:
        return "Extinct"
    return "Inconclusive"


def check_ramp(job, stdouts):
    m = job.meta
    E, r, horizon = m["E"], m["r"], m["horizon"]
    rep = _read_json(job.out / "classify.json")
    _require(rep.get("basis") == "GeneralBohl", f"basis {rep.get('basis')}")
    _require(rep.get("horizon") == horizon, f"horizon {rep.get('horizon')}")
    lower, upper, window_min = rep["lower"], rep["upper"], rep["window_min"]
    _require(window_min == max(2 * r, 50), f"window_min {window_min}")
    _require(rep["verdict"] == _verdict_for(lower, upper),
             f"verdict {rep['verdict']} with lower {lower}, upper {upper}")

    ts, vs = zip(*m["breakpoints"])
    s0 = np.interp(np.arange(-r, horizon + 1, dtype=float), ts, vs)
    z = _washout_reference(vs[0], s0, E)
    phi = _phi_reference(z, E, r, horizon)
    growth = (1.0 - E) * (1.0 + phi * _monod(z))
    ref_lo, ref_hi = brute_force_bohl(growth, window_min, window_min)
    _require(math.isclose(lower, ref_lo, rel_tol=BOHL_REL_TOL),
             f"lower {lower!r} differs from the brute-force scan {ref_lo!r}")
    _require(math.isclose(upper, ref_hi, rel_tol=BOHL_REL_TOL),
             f"upper {upper!r} differs from the brute-force scan {ref_hi!r}")


def check_periodic(job, stdouts):
    m = job.meta
    E, r, period = m["E"], m["r"], m["period"]
    rep = _read_json(job.out / "classify.json")
    _require(rep.get("basis") == "PeriodicMean", f"basis {rep.get('basis')}")
    mean = rep["mean"]
    _require(rep["lower"] == rep["upper"] == mean, "periodic lower/upper differ from the mean")
    _require(rep["horizon"] == period, f"classify horizon {rep['horizon']} is not the period")
    _require(rep["verdict"] == ("Persistent" if mean > 1.0 else "Extinct"),
             f"verdict {rep['verdict']} with mean {mean}")

    orbit = _read_json(job.out / "periodic_report.json")
    if rep["verdict"] == "Extinct":
        _require(orbit.get("outcome") == "washout", "Extinct verdict but an orbit was found")
        return
    _require(orbit.get("outcome") == "orbit", "Persistent verdict but no orbit was found")
    _require(orbit["period"] == period, f"orbit period {orbit['period']}")
    _require(orbit["residual"] < ORBIT_TOL, f"orbit residual {orbit['residual']:.2e}")

    cols = _read_csv(job.out / "periodic_orbit.csv", ["phase", "s0", "s", "x"])
    k = np.arange(period)
    _require(np.array_equal(cols["phase"], k), "phase column is not 0..period-1")
    feed = _sinusoid(k, m["amplitude"], period, m["offset"])
    _require(np.max(np.abs(cols["s0"] - feed)) <= 1e-14, "s0 column is not the requested feed")
    s0, s, x = cols["s0"], cols["s"], cols["x"]
    _require(float(np.min(x)) == orbit["min_x"] and orbit["min_x"] > 0.0,
             "orbit minimum differs from the CSV or is not positive")
    omE = 1.0 - E
    nxt, back = (k + 1) % period, (k - r) % period
    s_scale = float(np.max(s0))
    err = _max_rel(s[nxt], E * s0 + omE * (s - x * _monod(s)), s_scale)
    _require(err <= 10 * ORBIT_TOL, f"orbit substrate step residual {err:.2e}")
    err = _max_rel(x[nxt], omE * x + x[back] * _monod(s[back]) * omE ** (r + 1), float(np.max(x)))
    _require(err <= 10 * ORBIT_TOL, f"orbit biomass step residual {err:.2e}")


def check_measured(job, stdouts):
    m = job.meta
    E, r, horizon, feed = m["E"], m["r"], m["horizon"], m["feed"]
    sim_out, exp_out = stdouts
    _require(sim_out.count("(ok)") == 2, "simulate reports a violated positivity hypothesis")
    _require("went negative" not in sim_out, "simulate reports a negative substrate")
    cols = _read_csv(job.out / "simulate.csv", TIMESERIES_HEADER)
    s0 = np.concatenate([np.full(r, feed[0]), feed[: horizon + 1]])
    _check_trajectory(cols, E, r, horizon, s0)
    x = cols["x"]
    _require(float(np.min(x)) > 0.0, "biomass is not positive")

    exp = _read_csv(job.out / "exponents.csv", ["t", "z", "phi", "growth_factor"])
    _require(np.array_equal(exp["t"], cols["t"]), "exponents.csv time column differs")
    _require(np.array_equal(exp["z"], cols["z"]), "exponents.csv z differs from simulate.csv")
    z, phi, growth = exp["z"], exp["phi"], exp["growth_factor"]
    # phi[t+1] * prod_{k=t+1-r}^{t} (1 + phi[k] p(z[k])) = 1 for t >= 0
    logs = np.concatenate([[0.0], np.cumsum(np.log1p(phi * _monod(z)))])
    j = np.arange(r, r + horizon)  # row of time t
    window = logs[j + 1] - logs[j + 1 - r]
    err = float(np.max(np.abs(np.expm1(np.log(phi[j + 1]) + window))))
    _require(err <= PHI_IDENTITY_TOL, f"phi fixed-point identity error {err:.2e}")
    err = _max_rel(growth, (1.0 - E) * (1.0 + phi * _monod(z)), 1.0)
    _require(err <= RECURSION_TOL, f"growth factor column residual {err:.2e}")

    hit = _search(r"lower = (\S+), upper = (\S+) \(T = (\d+)", exp_out, "the window means")
    lower, upper = float(hit.group(1)), float(hit.group(2))
    slack = 1e-8  # the summary prints 9 significant digits
    _require(float(np.min(growth)) - slack <= lower <= upper <= float(np.max(growth)) + slack,
             f"window means [{lower}, {upper}] outside the growth factor range")
    if lower > 1.0:
        second_half = x[len(x) // 2 :]
        _require(float(np.min(second_half)) > 1e-6 * float(np.max(x)),
                 "lower window mean > 1 but biomass collapses")


CHECKS = {
    "fig2_svg": check_fig2,
    "ramp_classify": check_ramp,
    "periodic_delay": check_periodic,
    "measured_feed": check_measured,
}


def check_job(job, stdouts):
    """Problems found in the job's outputs (empty when they are correct)."""
    try:
        CHECKS[job.kind](job, stdouts)
    except CheckFailed as exc:
        return [str(exc)]
    except (OSError, KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"outputs unreadable: {type(exc).__name__}: {exc}"]
    return []
