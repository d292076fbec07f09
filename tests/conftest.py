import numpy as np
import pytest

from chemodde import (
    ChemostatParams,
    Constant,
    ExplicitSequence,
    InitialHistory,
    Monod,
    Sinusoid,
    check_positivity_preconditions,
    washout_sequence,
)


def random_feasible_instance(rng, horizon=1000):
    """A random problem satisfying both positivity preconditions.

    E in [0.05, 0.9], r in [0, 10], saturating uptake scaled so that
    p'(0) * sup(s0) <= 1 by construction; the initial history is shrunk
    until s0 + x0 + y0 <= z0 holds as well.  Returns (params, init, z).
    """
    E = float(rng.uniform(0.05, 0.9))
    r = int(rng.integers(0, 11))
    sup_s0 = float(rng.uniform(0.3, 2.0))
    inf_s0 = sup_s0 * float(rng.uniform(0.3, 0.9))
    kind = rng.integers(0, 3)
    if kind == 0:
        signal = Constant(value=sup_s0)
        inf_s0 = sup_s0
    elif kind == 1:
        offset = (sup_s0 + inf_s0) / 2.0
        signal = Sinusoid(
            amplitude=offset - inf_s0,
            period_steps=int(rng.integers(2, 60)),
            offset=offset,
        )
    else:
        values = rng.uniform(inf_s0, sup_s0, size=int(rng.integers(2, 25)))
        signal = ExplicitSequence(values=tuple(values), periodic=True)

    k_s = float(rng.uniform(0.2, 3.0))
    p_max = float(rng.uniform(0.1, 1.0)) * k_s / sup_s0  # p'(0)*sup(s0) <= 1
    params = ChemostatParams(E=E, r=r, uptake=Monod(p_max=p_max, k_s=k_s), input=signal)
    z = washout_sequence(params, horizon)

    s_level = inf_s0 * float(rng.uniform(0.05, 0.4))
    x_level = inf_s0 * float(rng.uniform(0.02, 0.3))
    init = InitialHistory.constant(r, s_level, x_level)
    for _ in range(60):  # shrink until the mass condition holds
        report = check_positivity_preconditions(params, init, z)
        if report.feasible:
            break
        x_level *= 0.5
        init = InitialHistory.constant(r, s_level, x_level)
    assert check_positivity_preconditions(params, init, z).feasible
    return params, init, z


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def reference(module):
    """chemodde_ref.<module>, from the frozen copy of the package that the
    benchmark times against (perfbench/reference), imported read-only:
    without writing bytecode into that directory."""
    import importlib
    import sys
    from pathlib import Path

    root = str(Path(__file__).resolve().parents[1] / "perfbench" / "reference")
    if root not in sys.path:
        sys.path.append(root)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        return importlib.import_module(f"chemodde_ref.{module}")
    finally:
        sys.dont_write_bytecode = dont_write
