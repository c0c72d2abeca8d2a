"""Solver plans: the declarative half of the plan → compile → execute pipeline.

A :class:`SolverPlan` names *what* to run — the ``(m, parametrized)``
schedule cells, the parametrization criterion, the stopping tolerance and
the backend — without touching any problem.  :class:`~repro.pipeline.session.SolverSession` compiles a plan
against one problem (coloring, blocked system, cached kernels) and then
executes it for many cells and many right-hand sides.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.driver import TABLE2_SCHEDULE, TABLE3_SCHEDULE, cell_label
from repro.kernels.backend import resolve_solver_backend
from repro.util import require

__all__ = ["SolverPlan", "cell_label"]


@dataclass(frozen=True)
class SolverPlan:
    """An immutable solve schedule plus method configuration.

    Attributes
    ----------
    schedule:
        ``(m, parametrized)`` cells in execution order (a Table-2 row set,
        or a single cell for one-off solves).
    eps:
        ``‖Δu‖∞`` stopping tolerance.
    criterion, weight:
        Parametrization of the αᵢ (see
        :func:`repro.driver.mstep_coefficients`).
    backend:
        ``"vectorized"`` (also ``None``) or ``"stencil"`` — the
        matrix-free operator path for the regular-mesh scenarios.  Session
        solves run the paper's ω = 1 merged sweep on either.
        ``"reference"`` is a kernel backend only: it selects the
        hand-rolled sweeps and row-sequential solves of the machine
        simulator passes, and a session solve rejects it.
    maxiter:
        Outer-iteration cap (``None`` → solver default).
    block_rhs:
        The right-hand-side block width this plan is sized for — the
        ``k`` of the batched multi-RHS path
        (:meth:`~repro.pipeline.session.SolverSession.execute_block`).
        ``1`` is the classic one-vector-at-a-time numerics; larger values
        declare that executions will carry ``k`` simultaneous right-hand
        sides, which the width-aware (4.2) cost model uses to price the
        amortized preconditioner step when autotuning ``m``
        (:func:`repro.core.autotune.recommend_m` with ``width=k``).
        Executions may still pass blocks of any width; this is the
        *declared* width for planning, not a cap.
    """

    schedule: tuple[tuple[int, bool], ...]
    eps: float = 1e-6
    criterion: str = "least_squares"
    weight: str = "uniform"
    backend: str | None = None
    maxiter: int | None = None
    block_rhs: int = 1

    def __post_init__(self) -> None:
        schedule = tuple((int(m), bool(p)) for m, p in self.schedule)
        object.__setattr__(self, "schedule", schedule)
        require(len(schedule) >= 1, "a plan needs at least one schedule cell")
        require(all(m >= 0 for m, _ in schedule), "m must be non-negative")
        require(self.eps > 0, "eps must be positive")
        resolve_solver_backend(self.backend)  # raises listing valid choices
        require(self.block_rhs >= 1, "block_rhs must be at least 1")

    # ------------------------------------------------------------- factories
    @classmethod
    def table2(cls, **overrides) -> "SolverPlan":
        """The 13-cell m-schedule of the paper's Table 2."""
        return cls(schedule=tuple(TABLE2_SCHEDULE), **overrides)

    @classmethod
    def table3(cls, **overrides) -> "SolverPlan":
        """The 10-cell m-schedule of the paper's Table 3."""
        return cls(schedule=tuple(TABLE3_SCHEDULE), **overrides)

    @classmethod
    def single(cls, m: int, parametrized: bool = False, **overrides) -> "SolverPlan":
        """A one-cell plan (one-off solves through the same pipeline)."""
        return cls(schedule=((m, parametrized),), **overrides)

    # ------------------------------------------------------------- inspection
    @property
    def needs_interval(self) -> bool:
        """Whether any cell requires the measured spectrum of P⁻¹K."""
        return any(p for m, p in self.schedule if m >= 1)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(cell_label(m, p) for m, p in self.schedule)

    def with_(self, **overrides) -> "SolverPlan":
        """A copy with fields replaced (plans are immutable)."""
        return replace(self, **overrides)
