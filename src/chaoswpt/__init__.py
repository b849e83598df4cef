"""Chaotic-waveform wireless power transfer: simulation and closed forms.

The names below are the documented API (see README.md); everything else is
reachable through its submodule.
"""

from .analytic import (
    beta_crossover,
    make_oracle,
    oracle_cdf,
    oracle_moment,
    papr_analytic,
    pdf_eval,
    z_with_correlator,
    z_without_correlator,
)
from .chaos import generate_sequence
from .distcheck import verify_distributions
from .harvester import DcEstimate, EhCircuit
from .montecarlo import (
    RunConfig,
    RunResult,
    SweepResult,
    SweepRow,
    fit_scaling,
    measure_papr,
    run_once,
    sweep_beta,
)

__version__ = "0.1.0"

__all__ = [
    "RunConfig",
    "RunResult",
    "SweepRow",
    "SweepResult",
    "DcEstimate",
    "EhCircuit",
    "run_once",
    "sweep_beta",
    "fit_scaling",
    "measure_papr",
    "verify_distributions",
    "generate_sequence",
    "z_with_correlator",
    "z_without_correlator",
    "papr_analytic",
    "beta_crossover",
    "make_oracle",
    "pdf_eval",
    "oracle_cdf",
    "oracle_moment",
    "__version__",
]
