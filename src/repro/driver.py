"""High-level driver: the m-step multicolor SSOR PCG method end to end.

Ties the layers together the way Section 3 describes: color the problem,
permute into the block form (3.1), build the m-step SSOR preconditioner
(optionally parametrized from the measured spectrum of ``P⁻¹K``), run
Algorithm 1, and hand back the solution in natural ordering with full
instrumentation.  This is the API the examples and the Table-2/Table-3
benchmarks drive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.convergence import StoppingRule
from repro.core.pcg import PCGResult
from repro.core.polynomial import (
    least_squares_coefficients,
    minmax_coefficients,
    neumann_coefficients,
)
from repro.core.spectral import spectrum_interval
from repro.multicolor.blocked import BlockedMatrix
from repro.multicolor.ordering import MulticolorOrdering
from repro.multicolor.sor import MStepSSOR
from repro.util import require

__all__ = [
    "TABLE2_EPS",
    "TABLE2_SCHEDULE",
    "TABLE3_SCHEDULE",
    "MStepSolve",
    "build_blocked_system",
    "cell_label",
    "mstep_coefficients",
    "ssor_interval",
    "solve_mstep_ssor",
]

#: The m-schedule of Tables 2 and 3: ``(m, parametrized)`` in paper row
#: order.  Canonical here so the benchmarks, the perf harness and the
#: backend-equivalence suite sweep exactly the same cells.
TABLE2_SCHEDULE = [
    (0, False), (1, False), (2, False), (2, True), (3, False), (3, True),
    (4, True), (5, True), (6, True), (7, True), (8, True), (9, True),
    (10, True),
]
TABLE3_SCHEDULE = [
    (0, False), (1, False), (2, False), (2, True), (3, False), (3, True),
    (4, False), (4, True), (5, True), (6, True),
]

#: Stopping tolerance of the Table-2 regeneration (CLI and benchmarks —
#: and, through them, the gated iteration counts in BENCH_kernels.json).
#: The paper's ε is unstated; ‖Δu‖∞ < 10⁻⁷ delivers a uniform ~10⁻⁶
#: *relative* solution accuracy across all four meshes (an absolute 10⁻⁶
#: lets the test fire on a CG stall at a = 62/80, breaking the paper's
#: I ∝ a scaling).
TABLE2_EPS = 1e-7


def cell_label(m: int, parametrized: bool) -> str:
    """Table-2/3 row label of one schedule cell: ``0``, ``3``, ``3P``, …"""
    if m == 0:
        return "0"
    return f"{m}P" if parametrized else f"{m}"


def build_blocked_system(problem) -> BlockedMatrix:
    """Color-order a model problem into the block system (3.1).

    ``problem`` is any object exposing ``k``, ``f``, ``group_of_unknown``
    and ``group_labels`` (see :mod:`repro.fem.model_problems`).
    """
    ordering = MulticolorOrdering.from_groups(
        problem.group_of_unknown, problem.group_labels
    )
    return BlockedMatrix.from_matrix(problem.k, ordering)


def ssor_interval(blocked: BlockedMatrix) -> tuple[float, float]:
    """``[λ₁, 1]`` of ``P⁻¹K`` for the ω = 1 SSOR splitting on the blocked
    system: :func:`~repro.core.spectral.spectrum_interval` driven by the
    merged m = 1 sweep — the call every assembled ω = 1 session makes."""
    return spectrum_interval(blocked.permuted, MStepSSOR(blocked, np.ones(1)).apply)


def mstep_coefficients(
    m: int,
    parametrized: bool,
    interval: tuple[float, float] | None,
    criterion: str = "least_squares",
    weight: str = "uniform",
) -> np.ndarray:
    """The ``αᵢ`` for an m-step method.

    Unparametrized → all ones; parametrized → fitted on ``interval`` by the
    requested criterion (``"least_squares"`` or ``"minmax"``), as in
    Section 2.2.
    """
    require(m >= 1, "m must be at least 1")
    if not parametrized:
        return neumann_coefficients(m)
    require(interval is not None, "parametrized coefficients need the interval")
    if criterion == "least_squares":
        return least_squares_coefficients(m, interval, weight=weight)
    if criterion == "minmax":
        return minmax_coefficients(m, interval)
    raise ValueError(f"unknown parametrization criterion {criterion!r}")


@dataclass
class MStepSolve:
    """Full record of one m-step SSOR PCG solve."""

    result: PCGResult
    u: np.ndarray  # natural ordering
    m: int
    parametrized: bool
    coefficients: np.ndarray | None
    interval: tuple[float, float] | None
    #: The permuted block system the solve ran on — ``None`` for the
    #: matrix-free ``"stencil"`` backend, which never permutes.
    blocked: BlockedMatrix | None

    @property
    def iterations(self) -> int:
        return self.result.iterations

    @property
    def label(self) -> str:
        """Table-2/3 row label: ``0``, ``1``, …, or ``2P``, ``3P``, …"""
        return cell_label(self.m, self.parametrized)


def solve_mstep_ssor(
    problem,
    m: int,
    parametrized: bool = False,
    criterion: str = "least_squares",
    weight: str = "uniform",
    eps: float = 1e-6,
    stopping: StoppingRule | None = None,
    interval: tuple[float, float] | None = None,
    blocked: BlockedMatrix | None = None,
    maxiter: int | None = None,
    track_residual: bool = False,
    backend: str | None = None,
) -> MStepSolve:
    """Solve a model problem with the m-step multicolor SSOR PCG method.

    ``m = 0`` runs unpreconditioned CG (the paper's first table row).  For
    parametrized runs the eigenvalue interval is measured from the operator
    unless supplied (benchmarks compute it once per mesh and pass it in).

    The preconditioner is the Conrad–Wallach merged multicolor sweep of
    Algorithm 2 (:class:`~repro.multicolor.sor.MStepSSOR`); ``backend``
    picks the operator: ``"vectorized"`` (also ``None``) the assembled,
    permuted block system, ``"stencil"`` the matrix-free operator of the
    regular-mesh scenarios.

    Since the pipeline refactor this is a thin veneer over a one-cell
    :class:`~repro.pipeline.SolverSession` — multi-cell or multi-RHS work
    should build a session (and a :class:`~repro.pipeline.SolverPlan`)
    directly so the compiled state is reused instead of rebuilt per call;
    for many right-hand sides use
    :meth:`~repro.pipeline.SolverSession.solve_cell_block` /
    :meth:`~repro.pipeline.SolverSession.execute_block`, which run one
    :func:`repro.core.pcg.block_pcg` lockstep per cell (per-column
    bitwise identical to repeated calls of this function).
    """
    from repro.pipeline import SolverPlan, SolverSession

    plan = SolverPlan.single(
        m,
        parametrized,
        eps=eps,
        criterion=criterion,
        weight=weight,
        backend=backend,
        maxiter=maxiter,
    )
    session = SolverSession(problem, plan=plan, blocked=blocked, interval=interval)
    return session.solve_cell(
        m, parametrized, stopping=stopping, track_residual=track_residual
    )
