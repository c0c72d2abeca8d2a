"""The paper's primary contribution: m-step preconditioned CG.

* :mod:`repro.core.pcg` — Algorithm 1 (the PCG driver) and plain CG;
* :mod:`repro.core.splittings` — ``K = P − Q`` splittings (Jacobi, SSOR, …);
* :mod:`repro.core.mstep` — the m-step preconditioner (2.2)/(2.6);
* :mod:`repro.core.polynomial` — least-squares and min–max parametrization
  of the ``αᵢ`` (Section 2.2, Table 1);
* :mod:`repro.core.spectral` — eigenvalue intervals of ``P⁻¹K`` and exact
  condition numbers of ``M_m⁻¹K``;
* :mod:`repro.core.convergence` — stopping rules (the paper's ``‖Δu‖_∞``
  flag-network test and residual alternatives).
"""

from repro.core.autotune import MRecommendation, predicted_cost_curve, recommend_m
from repro.core.convergence import (
    AbsoluteResidual,
    DeltaInfNorm,
    RelativeResidual,
    StoppingRule,
)
from repro.core.ichol import ICBreakdown, ICPreconditioner, ichol0
from repro.core.mstep import IdentityPreconditioner, MStepPreconditioner
from repro.core.pcg import BlockPCGResult, PCGResult, block_pcg, cg, pcg
from repro.core.polynomial import (
    PAPER_TABLE1,
    FitReport,
    eigenvalue_map,
    fit_report,
    least_squares_coefficients,
    minmax_coefficients,
    neumann_coefficients,
    normalize_leading,
    q_polynomial,
)
from repro.core.spectral import (
    condition_number,
    full_splitting_spectrum,
    preconditioned_condition_number,
    preconditioned_spectrum,
    spectrum_interval,
)
from repro.core.splittings import (
    JacobiSplitting,
    RichardsonSplitting,
    SORSplitting,
    Splitting,
    SSORSplitting,
)

__all__ = [
    "MRecommendation",
    "predicted_cost_curve",
    "recommend_m",
    "AbsoluteResidual",
    "DeltaInfNorm",
    "RelativeResidual",
    "StoppingRule",
    "ICBreakdown",
    "ICPreconditioner",
    "ichol0",
    "IdentityPreconditioner",
    "MStepPreconditioner",
    "BlockPCGResult",
    "PCGResult",
    "block_pcg",
    "cg",
    "pcg",
    "PAPER_TABLE1",
    "FitReport",
    "eigenvalue_map",
    "fit_report",
    "least_squares_coefficients",
    "minmax_coefficients",
    "neumann_coefficients",
    "normalize_leading",
    "q_polynomial",
    "condition_number",
    "full_splitting_spectrum",
    "preconditioned_condition_number",
    "preconditioned_spectrum",
    "spectrum_interval",
    "JacobiSplitting",
    "RichardsonSplitting",
    "SORSplitting",
    "Splitting",
    "SSORSplitting",
]
