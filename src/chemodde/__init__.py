"""Simulation and analysis of a discrete delayed one-species chemostat.

The model advances substrate s and biomass x with a maturation delay r:

    s[t+1] = E*s0[t] + (1-E)*(s[t] - x[t]*p(s[t]))
    x[t+1] = (1-E)*x[t] + x[t-r]*p(s[t-r])*(1-E)**(r+1)

The package integrates the system, computes the washout solution and the
delay-correction ratios, estimates windowed growth-rate bounds, classifies
persistence versus extinction, and finds attracting periodic orbits.
"""

from .analysis import (
    AttractionRate,
    ClassificationReport,
    NeitherNorReport,
    PeriodicOrbit,
    WashoutConvergence,
    attraction_rate,
    classify,
    find_periodic_orbit,
    neither_nor_demo,
)
from .config import RunConfig, load_config, parse_config
from .core import (
    ChemostatParams,
    Constant,
    DyadicBlocks,
    ExplicitSequence,
    FeasibilityReport,
    InitialHistory,
    InputSignal,
    LinearUptake,
    Monod,
    PiecewiseLinear,
    Sinusoid,
    TabulatedUptake,
    UptakeFunction,
)
from .dynamics import (
    Trajectory,
    check_positivity_preconditions,
    conservation_deficit,
    initial_stored_nutrient,
    simulate,
)
from .errors import (
    ChemoddeError,
    ConvergenceError,
    DomainError,
    ParameterError,
    UsageError,
)
from .exponents import (
    BohlEstimate,
    CorrectionSequences,
    PeriodicCorrection,
    bohl_bounds,
    correction_recursion,
    periodic_phi,
    phi_sequence,
    psi_sequence,
    reconstruct_biomass,
)
from .series import TimeSeries
from .washout import WashoutSolution, washout_periodic, washout_sequence

__version__ = "0.1.0"

__all__ = [
    "AttractionRate",
    "BohlEstimate",
    "ChemoddeError",
    "ChemostatParams",
    "ClassificationReport",
    "Constant",
    "ConvergenceError",
    "CorrectionSequences",
    "DomainError",
    "DyadicBlocks",
    "ExplicitSequence",
    "FeasibilityReport",
    "InitialHistory",
    "InputSignal",
    "LinearUptake",
    "Monod",
    "NeitherNorReport",
    "ParameterError",
    "PeriodicCorrection",
    "PeriodicOrbit",
    "PiecewiseLinear",
    "RunConfig",
    "Sinusoid",
    "TabulatedUptake",
    "TimeSeries",
    "Trajectory",
    "UptakeFunction",
    "UsageError",
    "WashoutConvergence",
    "WashoutSolution",
    "attraction_rate",
    "bohl_bounds",
    "check_positivity_preconditions",
    "classify",
    "conservation_deficit",
    "correction_recursion",
    "find_periodic_orbit",
    "initial_stored_nutrient",
    "load_config",
    "neither_nor_demo",
    "parse_config",
    "periodic_phi",
    "phi_sequence",
    "psi_sequence",
    "reconstruct_biomass",
    "simulate",
    "washout_periodic",
    "washout_sequence",
]
