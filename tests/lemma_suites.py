"""Synthetic comparison-inequality suites shared by the property tests and
the acceptance gate.

Three inequalities relate the correction recursions driven by an upper
sequence f and a lower sequence g:

* extinction comparison: with f >= g >= 0 and M = max f, window products of
  (1 + phi*f) dominate those of (1 + psi*g) up to a bounded slack factor.
  The slack (1+M)**(r-1) fails on short windows (see
  counterexample_extinction_slack), so the suite certifies the corrected
  slack (1+M)**r on every window and the original exponent on long windows
  only.
* forward comparison: with f > g + eps uniformly, the window product ratio
  eventually exceeds (1+eta)**(2*(t2-t1)) for explicitly constructed eta
  and window threshold T.
* ratio bound for paired linear recursions: with |f-g| < eps < inf f, the
  solution ratio c/x grows no faster than (inf f / (inf f - eps))
  per r+1 steps over its initial window maximum.

Each run_* function returns the worst signed violation found (<= 0 means
the inequality held everywhere).
"""

import math

import numpy as np

from chemodde import correction_recursion


def _correction(f, n, seed):
    """phi on [1-r, n] keyed by time, from f keyed by time on [1-r, n-1]
    and the seed phi on [1-r, 0], r = len(seed)."""
    r = len(seed)
    phi = correction_recursion([f[k] for k in range(1 - r, n)], seed)
    return dict(zip(range(1 - r, n + 1), phi.tolist()))


def _random_pair(rng, r, n, dominated=True):
    f = {k: float(rng.uniform(0.0, 2.5)) for k in range(1 - r, n + 1)}
    if dominated:
        g = {k: f[k] * float(rng.uniform(0.0, 1.0)) for k in f}
    else:
        g = {k: float(rng.uniform(0.0, 2.5)) for k in f}
    return f, g


def run_extinction_suite(n_instances, seed, slack_exponent, min_window=1):
    """Worst violation of
    (1+M)**slack * prod(1+phi f) >= prod(1+psi g) over k in [t1+1-r, t2-r],
    across all windows with t2 - t1 >= min_window, t1 >= 0.
    slack_exponent is a callable r -> exponent."""
    rng = np.random.default_rng(seed)
    worst = -math.inf
    n = 90
    for _ in range(n_instances):
        r = int(rng.integers(1, 6))
        f, g = _random_pair(rng, r, n)
        M = max(f.values())
        seeds = rng.uniform(0.05, 1.0, r)
        phi = _correction(f, n, seeds)
        psi = _correction(g, n, seeds)
        kmin = 1 - r
        pf = [0.0]
        pg = [0.0]
        for k in range(kmin, n + 1):
            pf.append(pf[-1] + math.log1p(phi[k] * f[k]))
            pg.append(pg[-1] + math.log1p(psi[k] * g[k]))
        slack = slack_exponent(r) * math.log1p(M)
        for t1 in range(0, n - r - 1):
            for t2 in range(t1 + max(1, min_window), n - r):
                a = t1 + 1 - r - kmin
                b = t2 - r - kmin + 1
                viol = (pg[b] - pg[a]) - (pf[b] - pf[a]) - slack
                if viol > worst:
                    worst = viol
    return worst


def counterexample_extinction_slack():
    """Hand instance violating the (1+M)**(r-1) slack on a length-1 window.

    r = 1, f = (3, 1, ...), g = (0, 1, ...), equal seeds 1: then
    phi[1] = 1/4, psi[1] = 1 and the window {1} compares 1.25 against 2.
    Returns (lhs, rhs) with lhs < rhs demonstrating the violation.
    """
    r = 1
    f = {0: 3.0, 1: 1.0}
    g = {0: 0.0, 1: 1.0}
    phi = _correction(f, 1, [1.0])
    psi = _correction(g, 1, [1.0])
    M = max(f.values())
    lhs = (1.0 + M) ** (r - 1) * (1.0 + phi[1] * f[1])
    rhs = 1.0 + psi[1] * g[1]
    return lhs, rhs


def forward_eta_T(M, eps, r):
    """The explicit margin eta and window threshold T for the forward
    comparison, from the constructive argument:

        m = (1+M)**(-r+1),  kappa = 1 + eps/(2M)
        (1+eta)**3 = min(((kappa/m + M + eps)/(1/m + M))**(1/r),
                         1 + m*eps/2/(1+M))
        (1+eta)**(T - 3(r-1)) = (1+M)**(r-1)
    """
    m = (1.0 + M) ** (-r + 1)
    kappa = 1.0 + eps / (2.0 * M)
    cand1 = ((kappa / m + M + eps) / (1.0 / m + M)) ** (1.0 / r)
    cand2 = 1.0 + m * eps / 2.0 / (1.0 + M)
    eta = min(cand1, cand2) ** (1.0 / 3.0) - 1.0
    T = 3 * (r - 1) + (r - 1) * math.log1p(M) / math.log1p(eta)
    return eta, max(int(math.ceil(T)), r)


def run_forward_suite(n_instances, seed):
    """Worst violation of
    prod_{k=t1+1}^{t2} (1+phi[k-r] f[k-r]) / (1+psi[k-r] g[k-r])
        > (1+eta)**(2(t2-t1))
    over sampled windows with t1 >= T and t2 - t1 >= T."""
    rng = np.random.default_rng(seed)
    worst = -math.inf
    for _ in range(n_instances):
        r = int(rng.integers(1, 3))
        M = float(rng.uniform(1.0, 2.0))
        eps = float(rng.uniform(0.4, 0.7)) * M
        eta, T = forward_eta_T(M, eps, r)
        n = 2 * T + 40 + r
        f = {}
        g = {}
        for k in range(1 - r, n + 1):
            fv = float(rng.uniform(eps, M))
            f[k] = fv
            g[k] = float(rng.uniform(0.0, fv - eps))
        seeds = rng.uniform(0.05, 1.0, r)
        phi = _correction(f, n, seeds)
        psi = _correction(g, n, seeds)
        for t1 in (T, T + 7):
            for t2 in (t1 + T, t1 + T + 29):
                acc = 0.0
                for k in range(t1 + 1, t2 + 1):
                    acc += math.log1p(phi[k - r] * f[k - r])
                    acc -= math.log1p(psi[k - r] * g[k - r])
                viol = 2.0 * (t2 - t1) * math.log1p(eta) - acc
                if viol > worst:
                    worst = viol
    return worst


def run_ratio_bound_suite(n_instances, seed):
    """Worst violation of
    c[t]/x[t] <= (inf f/(inf f - eps))**(t/(r+1)) * max_{0<=s<=r} c[s]/x[s]
    for paired recursions u[t+1] = (1-E)(u[t] + h[t-r] u[t-r]) with
    |f - g| < eps < inf f."""
    rng = np.random.default_rng(seed)
    worst = -math.inf
    for _ in range(n_instances):
        r = int(rng.integers(0, 5))
        E = float(rng.uniform(0.05, 0.8))
        n = 200
        inf_f = float(rng.uniform(0.3, 1.0))
        sup_f = inf_f + float(rng.uniform(0.1, 1.0))
        eps = float(rng.uniform(0.05, 0.95)) * inf_f
        f = {}
        g = {}
        for k in range(-r, n + 1):
            fv = float(rng.uniform(inf_f, sup_f))
            f[k] = fv
            g[k] = fv + float(rng.uniform(-eps, eps)) * 0.999
        c = {t: float(rng.uniform(0.5, 2.0)) for t in range(-r, 1)}
        x = {t: float(rng.uniform(0.5, 2.0)) for t in range(-r, 1)}
        for t in range(0, n):
            c[t + 1] = (1 - E) * (c[t] + f[t - r] * c[t - r])
            x[t + 1] = (1 - E) * (x[t] + g[t - r] * x[t - r])
        base = max(c[s] / x[s] for s in range(0, r + 1))
        growth = inf_f / (inf_f - eps)
        for t in range(0, n + 1):
            bound = growth ** (t / (r + 1)) * base
            viol = c[t] / x[t] - bound
            if viol > worst:
                worst = viol
    return worst
