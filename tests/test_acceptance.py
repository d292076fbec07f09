"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see every line; tolerances
are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from chemodde import (
    ChemostatParams,
    Constant,
    InitialHistory,
    LinearUptake,
    PeriodicOrbit,
    attraction_rate,
    check_positivity_preconditions,
    classify,
    conservation_deficit,
    find_periodic_orbit,
    neither_nor_demo,
    periodic_phi,
    phi_sequence,
    psi_sequence,
    reconstruct_biomass,
    simulate,
    washout_periodic,
    washout_sequence,
)
from chemodde.analysis import EXTINCT, PERSISTENT
from chemodde.cli import fig2_init, fig2_params

from conftest import random_feasible_instance
from lemma_suites import run_extinction_suite, run_forward_suite, run_ratio_bound_suite

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {num:>2} {name}: {status}{suffix}")
    return ok


# ---------------------------------------------------------------------------
# shared instance set for criteria 3-5 (E in [0.05, 0.9], r in [0, 10],
# saturating uptake, 10**3 steps, both feasibility flags hold)
# ---------------------------------------------------------------------------

_HORIZON_PROPS = 1000


@pytest.fixture(scope="module")
def instance_set():
    rng = np.random.default_rng(424242)
    out = []
    for _ in range(100):
        params, init, z = random_feasible_instance(rng, horizon=_HORIZON_PROPS)
        traj = simulate(params, init, horizon=_HORIZON_PROPS)
        out.append((params, init, z, traj))
    return out


def test_criterion_01_periodic_mean_reproduction():
    results = []
    for offset, expected in ((0.6, 1.0217), (0.3, 0.9756)):
        params = fig2_params(offset)
        start = time.perf_counter()
        z = washout_periodic(params)
        prof = periodic_phi(params, z)
        mean = prof.mean
        elapsed = time.perf_counter() - start
        results.append((offset, mean, expected, elapsed))
    ok = all(abs(m - e) <= 1e-3 and dt < 1.0 for _, m, e, dt in results)
    detail = "; ".join(
        f"a={o}: mean {m:.4f} vs {e} in {dt * 1e3:.0f} ms" for o, m, e, dt in results
    )
    assert _report(1, "periodic-mean reproduction", ok, detail)


def test_criterion_02_fig2_dynamics():
    start = time.perf_counter()
    persistent = fig2_params(0.6)
    orbit = find_periodic_orbit(persistent, fig2_init(), tol=1e-9)
    orbit_ok = (
        isinstance(orbit, PeriodicOrbit)
        and orbit.period == 500
        and orbit.delta > 0.0
        and orbit.residual < 1e-9
    )

    traj_a = simulate(persistent, fig2_init(), horizon=20_000)
    traj_b = simulate(persistent, InitialHistory.constant(5, 0.45, 0.3), horizon=20_000)
    rate = attraction_rate(traj_a, traj_b, burn_in=500)
    attraction_ok = rate.rho < 1.0

    extinct = fig2_params(0.3)
    traj_e = simulate(extinct, fig2_init(), horizon=20_000)
    extinction_ok = traj_e.x.at(20_000) < 1e-8 and np.max(
        traj_e.x.window(19_500, 20_000)
    ) < 1e-8
    elapsed = time.perf_counter() - start

    ok = orbit_ok and attraction_ok and extinction_ok and elapsed < 5.0
    detail = (
        f"orbit min x {orbit.delta:.3g}, residual {orbit.residual:.1e}; "
        f"rho {rate.rho:.4f}; x(2e4) {traj_e.x.at(20_000):.2e}; {elapsed:.2f} s"
    )
    assert _report(2, "periodic orbit / attraction / extinction", ok, detail)


def test_criterion_03_conservation_identity(instance_set):
    worst = 0.0
    for params, init, z, traj in instance_set:
        d = conservation_deficit(traj, z)
        t = np.arange(0, _HORIZON_PROPS + 1)
        expect = (1 - params.E) ** t * d.at(0)
        scale = max(abs(d.at(0)), z.z_sup)
        worst = max(worst, float(np.max(np.abs(d.values - expect))) / scale)
    ok = worst <= 1e-10
    assert _report(3, "conservation identity over 100 instances", ok, f"worst {worst:.2e}")


def test_criterion_04_r_step_identity(instance_set):
    worst = 0.0
    for params, init, z, traj in instance_set:
        r = params.r
        if r == 0:
            continue
        lhs = traj.x.window(r, _HORIZON_PROPS)
        rhs = (1 - params.E) ** r * (
            traj.x.window(0, _HORIZON_PROPS - r) + traj.y.window(0, _HORIZON_PROPS - r)
        )
        denom = np.maximum(np.abs(lhs), 1e-300)
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / denom)))
    ok = worst <= 1e-12
    assert _report(4, "r-step biomass identity", ok, f"worst relative {worst:.2e}")


def test_criterion_05_positivity(instance_set):
    violations = 0
    for params, init, z, traj in instance_set:
        assert check_positivity_preconditions(params, init, z).feasible
        if not np.all(traj.x.window(1, _HORIZON_PROPS) >= 0.0):
            violations += 1
        elif not np.all(traj.s.window(1, _HORIZON_PROPS) > 0.0):
            violations += 1
    ok = violations == 0
    assert _report(5, "positivity under both flags", ok, f"{violations} violations")


def test_criterion_06_undelayed_collapse():
    # r = 0 forces both correction ratios to 1 exactly, and the verdict
    # reduces to (1-E)(1+p(feed)) vs 1; slopes 1/8 and 0.4 with E = 0.2
    # give means 0.9 (extinct) and 1.12 (persistent)
    cases = ((1 / 8, 0.9, EXTINCT), (0.4, 1.12, PERSISTENT))
    details = []
    ok = True
    for slope, mean_expect, verdict_expect in cases:
        params = ChemostatParams(E=0.2, r=0, uptake=LinearUptake(slope), input=Constant(1.0))
        z = washout_sequence(params, horizon=200)
        corr = phi_sequence(params, z, horizon=200)
        phi_exact = bool(np.all(corr.phi.values == 1.0))
        traj = simulate(params, InitialHistory(s=(0.4,), x=(0.3,)), horizon=10_000)
        psi_exact = True
        if verdict_expect == PERSISTENT:
            psi_exact = bool(np.all(psi_sequence(traj).values == 1.0))
        report = classify(params)
        threshold_ok = (
            math.isclose(report.mean, mean_expect, rel_tol=1e-12)
            and report.verdict == verdict_expect
        )
        if verdict_expect == EXTINCT:
            sim_ok = traj.x.at(10_000) < 1e-8 * traj.x.at(0)
        else:
            sim_ok = float(np.min(traj.x.window(5000, 10_000))) > 1e-3
        ok = ok and phi_exact and psi_exact and threshold_ok and sim_ok
        details.append(f"slope {slope:g}: mean {report.mean:.6g} -> {report.verdict}")
    assert _report(6, "undelayed collapse to threshold", ok, "; ".join(details))


def test_criterion_07_golden_ratio_fixed_point():
    params = ChemostatParams(E=0.3, r=1, uptake=LinearUptake(1.0), input=Constant(1.0))
    z = washout_sequence(params, horizon=300)
    corr = phi_sequence(params, z, horizon=300)
    err = abs(corr.phi.at(300) - GOLDEN)
    prof = periodic_phi(params, washout_periodic(params), tol=1e-14)
    err_prof = abs(prof.phi[0] - GOLDEN)
    ok = err <= 1e-10 and err_prof <= 1e-10
    assert _report(
        7, "golden-ratio correction fixed point", ok,
        f"sequence err {err:.1e}, profile err {err_prof:.1e}",
    )


def test_criterion_08_product_formula_equivalence():
    params = fig2_params(0.6)
    traj = simulate(params, fig2_init(), horizon=2000)
    xr = reconstruct_biomass(traj, psi_sequence(traj))
    x = traj.x.window(0, 2000)
    worst = float(np.max(np.abs(xr.values - x) / x))
    ok = worst <= 1e-9
    assert _report(8, "biomass product-formula equivalence", ok, f"worst relative {worst:.2e}")


def test_criterion_09_closed_form_fixed_point():
    params = ChemostatParams(E=0.2, r=0, uptake=LinearUptake(0.5), input=Constant(1.0))
    orbit = find_periodic_orbit(params, InitialHistory(s=(0.3,), x=(0.3,)), tol=1e-12)
    ok = (
        isinstance(orbit, PeriodicOrbit)
        and abs(orbit.s[0] - 0.5) <= 1e-9
        and abs(orbit.x[0] - 0.5) <= 1e-9
    )
    assert _report(
        9, "closed-form fixed point (0.5, 0.5)", ok,
        f"s* {orbit.s[0]:.12f}, x* {orbit.x[0]:.12f}",
    )


def test_criterion_10_neither_nor_demo():
    # The dyadic-blocks input drives p'(0) * sup z far above 1, so the
    # positivity bound fails by construction.  Whenever biomass approaches
    # the unit level inside a long high block, the coupled update is a
    # strongly unstable saddle: substrate is driven negative and both
    # components blow up in magnitude, which destroys the block-end floor
    # (a) and the decreasing-infima pattern (b) for deep block counts.
    # Small seeds that avoid the blow-up instead grow net per cycle, so
    # the infima increase and (b) fails anyway.  The checks are evaluated
    # exactly as stated and the outcome is reported honestly.
    start = time.perf_counter()
    report = neither_nor_demo(0.5, 0, 5)
    elapsed = time.perf_counter() - start
    ok = bool(report.all_ok and elapsed < 5.0)
    detail = (
        f"block-end floor {report.check_a_ok}, infima decreasing {report.check_b_ok}, "
        f"inconclusive {report.check_c_ok}, first negative s at "
        f"{report.first_negative_s}, {elapsed:.2f} s"
    )
    assert _report(10, "neither-persistent-nor-extinct demo", ok, detail)


def test_criterion_11_comparison_lemma_suites():
    worst_ext = run_extinction_suite(100, seed=424243, slack_exponent=lambda r: r)
    worst_fwd = run_forward_suite(100, seed=424244)
    worst_ratio = run_ratio_bound_suite(100, seed=424245)
    ok = worst_ext <= 1e-12 and worst_fwd < 0.0 and worst_ratio <= 1e-12
    detail = (
        f"extinction {worst_ext:.2e}, forward {worst_fwd:.2e}, ratio {worst_ratio:.2e} "
        "(extinction suite uses the corrected slack exponent r)"
    )
    assert _report(11, "comparison-inequality suites", ok, detail)
