"""SolverSession: compile a plan once, execute many cells and right-hand sides.

The expensive, value-independent work of the m-step multicolor SSOR PCG
method — coloring the problem, permuting into the block system (3.1),
measuring the spectrum of ``P⁻¹K``, binding the merged-sweep kernels,
laying out the machine simulators — depends only on the problem and the
plan, never on which schedule cell or right-hand side is being solved.  Before this module every entry point re-derived some of it
per cell; a :class:`SolverSession` does each piece exactly once and then
serves:

* :meth:`solve_cell_block` / :meth:`execute_block` — the session's one
  solve path: the ``k`` columns of an ``(n, k)`` right-hand-side block
  advance through one :func:`repro.core.pcg.block_pcg` call per cell
  (lockstep groups of at most 8 columns) on the plan's operator (the
  permuted CSR block system, or the
  matrix-free stencil), batched through the compiled kernels, per-column
  bitwise identical to ``k`` separate Algorithm-1 solves
  (:meth:`execute_many` routes through this path, and
  ``sharding=`` fans the columns across worker processes);
* :meth:`solve_cell` / :meth:`execute` — driver-level single-RHS solves
  (the engine behind :func:`repro.driver.solve_mstep_ssor`): column 0 of
  a one-column :meth:`solve_cell_block`;
* :meth:`cyber` / :meth:`run_cyber_schedule` — the CYBER 203/205
  simulator, including the batched lockstep pass that runs a whole
  Table-2 schedule through **one** simulator sweep
  (:meth:`repro.machines.cyber.CyberMachine.solve_schedule`);
* :meth:`fem` / :meth:`fem_solve` / :meth:`run_fem_schedule` — Finite
  Element Machine solves, one cell or the whole Table-3 schedule, through
  the machine's lockstep pass
  (:meth:`repro.machines.fem_machine.FiniteElementMachine.solve_schedule`).

:attr:`stats` counts the compile-level artifacts (colorings, interval
measurements, applicator factorizations, machine layouts) so tests can
assert structurally that executing N cells × K right-hand sides performs
exactly one of each.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from repro.core.convergence import StoppingRule
from repro.core.pcg import BlockPCGResult, block_pcg
from repro.core.spectral import spectrum_interval
from repro.driver import (
    MStepSolve,
    build_blocked_system,
    cell_label,
    mstep_coefficients,
    ssor_interval,
)
from repro.fem.matrixfree import stencil_operator
from repro.kernels.backend import REFERENCE, STENCIL
from repro.kernels.stencil import StencilSSOR
from repro.machines import CYBER_203, FEM_1983, CyberMachine, FiniteElementMachine
from repro.multicolor.blocked import BlockedMatrix
from repro.multicolor.sor import MStepSSOR
from repro.parallel import (
    ApplicatorRecipe,
    ShardSpec,
    column_groups,
    operator_handle,
    sharded_block_pcg,
    sharded_schedule,
    shard_token,
    warm_shard,
)
from repro.parallel import shm
from repro.parallel.executor import run_tasks
from repro.parallel.shards import matrix_token
from repro.pipeline.plan import SolverPlan
from repro.pipeline.problems import build_scenario
from repro.util import require

__all__ = ["BlockMStepSolve", "SessionStats", "SolverSession"]


def _release_tokens(tokens: set) -> None:
    """Free a session's shared-memory publications (GC finalizer target).

    Module-level and handed only the token set so the
    :func:`weakref.finalize` registration holds no reference back to the
    session; :meth:`~repro.parallel.shm.SegmentRegistry.release` is
    pid-guarded, so a forked worker inheriting the set can never unlink
    the parent's segments.
    """
    try:
        reg = shm.registry()
        for token in tuple(tokens):
            reg.release(token)
    except Exception:  # pragma: no cover - interpreter-teardown ordering
        pass
    tokens.clear()


def _normalize_sharding(sharding) -> tuple[int, int | None]:
    """``sharding`` → ``(workers, group)``.

    Accepts ``None`` (serial), an int worker count, or a ``(workers,
    group)`` pair — ``group`` being the columns-per-shard override of
    :func:`repro.parallel.column_groups`.
    """
    if sharding is None:
        return 1, None
    if isinstance(sharding, int):
        return max(sharding, 1), None
    workers, group = sharding
    return max(int(workers), 1), (None if group is None else int(group))


@dataclass
class SessionStats:
    """Compile-artifact counters — the session's structural contract.

    ``colorings``/``intervals``/``applicator_builds``/``machine_builds``
    count the expensive once-per-session steps; ``solves`` counts the
    cheap per-execution work (one per right-hand side, so a ``k``-wide
    block solve adds ``k``) and ``block_solves`` the
    :func:`~repro.core.pcg.block_pcg` passes those columns rode in on —
    every solve runs the block path, so a single-RHS
    :meth:`SolverSession.solve_cell` adds one of each.  A correctly
    compiled session serving many cells and right-hand sides increments
    only ``solves``/``block_solves`` — one compile for any k.
    """

    colorings: int = 0
    intervals: int = 0
    coefficient_builds: int = 0
    applicator_builds: int = 0
    machine_builds: int = 0
    solves: int = 0
    block_solves: int = 0
    #: Column-group shards dispatched to the repro.parallel executor (a
    #: sharded block solve adds one per group; serial solves add none).
    shard_dispatches: int = 0
    #: Which operator representation the last solve ran on: ``"csr"``
    #: (the assembled, permuted block system) or ``"stencil"`` (the
    #: matrix-free path).  Not a compile count — surfaced by
    #: ``repro request --stats`` and the benchmarks.
    operator_backend: str = "csr"

    def compile_counts(self) -> dict[str, int]:
        return {
            "colorings": self.colorings,
            "intervals": self.intervals,
            "coefficient_builds": self.coefficient_builds,
            "applicator_builds": self.applicator_builds,
            "machine_builds": self.machine_builds,
        }


@dataclass
class BlockMStepSolve:
    """Full record of one m-step SSOR PCG **block** solve (``k`` RHS).

    The block analogue of :class:`repro.driver.MStepSolve`:
    :attr:`result` is the :class:`~repro.core.pcg.BlockPCGResult` of the
    lockstep pass and :attr:`u` holds the ``(n, k)`` iterates in natural
    ordering.  :meth:`column` materializes any column as a plain
    :class:`~repro.driver.MStepSolve`, bitwise identical to the record an
    independent single-RHS solve of that column would produce.
    """

    result: BlockPCGResult
    u: np.ndarray  # (n, k), natural ordering
    m: int
    parametrized: bool
    coefficients: np.ndarray | None
    interval: tuple[float, float] | None
    #: ``None`` for the matrix-free ``"stencil"`` backend (no permutation).
    blocked: BlockedMatrix | None

    @property
    def k(self) -> int:
        """Number of right-hand-side columns."""
        return self.result.k

    @property
    def iterations(self) -> np.ndarray:
        """Per-column completed-iteration counts."""
        return self.result.iterations

    @property
    def label(self) -> str:
        """Table-2/3 row label: ``0``, ``1``, …, or ``2P``, ``3P``, …"""
        return cell_label(self.m, self.parametrized)

    def column(self, j: int) -> MStepSolve:
        """The j-th right-hand side's solve as a standalone record."""
        return MStepSolve(
            result=self.result.column(j),
            u=np.ascontiguousarray(self.u[:, j]),
            m=self.m,
            parametrized=self.parametrized,
            coefficients=self.coefficients,
            interval=self.interval,
            blocked=self.blocked,
        )


class SolverSession:
    """One problem + one plan, compiled once, executed many times."""

    def __init__(
        self,
        problem,
        plan: SolverPlan | None = None,
        blocked=None,
        interval: tuple[float, float] | None = None,
    ):
        self.problem = problem
        self.plan = plan if plan is not None else SolverPlan.single(0)
        self.stats = SessionStats()
        self._blocked = blocked
        self._interval = interval
        self._coefficients: dict = {}
        self._applicators: dict = {}
        self._stencil = None
        self._stencil_applicators: dict = {}
        self._machines: dict = {}
        self._compiled = False
        # Shared-memory operator tokens this session published; released
        # when the session is closed or garbage-collected (the registry's
        # atexit hook is only the backstop).
        self._shm_tokens: set[str] = set()
        self._shm_finalizer = weakref.finalize(
            self, _release_tokens, self._shm_tokens
        )

    @classmethod
    def from_scenario(
        cls, name: str, plan: SolverPlan | None = None, **params
    ) -> "SolverSession":
        """Build a session for a registered scenario (see
        :mod:`repro.pipeline.problems`)."""
        return cls(build_scenario(name, **params), plan=plan)

    # ------------------------------------------------------------ compiled state
    @property
    def blocked(self):
        """The multicolor blocked system — colored and permuted once."""
        if self._blocked is None:
            require(
                getattr(self.problem, "k", None) is not None,
                "matrix-free problem (assemble=False) has no blocked "
                "system; only the 'stencil' backend can serve it",
            )
            self._blocked = build_blocked_system(self.problem)
            self.stats.colorings += 1
        return self._blocked

    @property
    def interval(self) -> tuple[float, float]:
        """``[λ₁, λ_n]`` of ``P⁻¹K`` — measured once, reused everywhere.

        One routine on every backend
        (:func:`~repro.core.spectral.spectrum_interval`): ``λ_n = 1`` and
        a Lanczos ``λ₁`` from the plan's operator with its m = 1 SSOR
        sweep, built outside the applicator caches.  The assembled
        backends make :func:`repro.driver.ssor_interval`'s call; the
        stencil backend runs the same recurrence matrix-free and agrees
        to rounding.
        """
        if self._interval is None:
            if self.plan.backend == STENCIL:
                stencil = self.stencil()
                sweep = StencilSSOR(stencil, np.ones(1)).apply
                self._interval = spectrum_interval(stencil, sweep)
            else:
                self._interval = ssor_interval(self.blocked)
            self.stats.intervals += 1
        return self._interval

    def stencil(self):
        """The problem's matrix-free operator — built once, cached.

        The stencil analogue of :attr:`blocked`: carries the coloring (the
        operator's ``groups``) without ever permuting or assembling, so
        building it counts as the session's coloring.
        """
        if self._stencil is None:
            self._stencil = stencil_operator(self.problem)
            self.stats.colorings += 1
        return self._stencil

    def coefficients(self, m: int, parametrized: bool) -> np.ndarray | None:
        """The cell's αᵢ under the plan's criterion (cached; None for m = 0)."""
        if m == 0:
            return None
        key = (m, parametrized)
        if key not in self._coefficients:
            interval = self.interval if parametrized else None
            self._coefficients[key] = mstep_coefficients(
                m, parametrized, interval, self.plan.criterion, self.plan.weight
            )
            self.stats.coefficient_builds += 1
        return self._coefficients[key]

    def applicator(self, m: int, parametrized: bool):
        """The cell's compiled merged-sweep preconditioner (cached): an
        :class:`~repro.multicolor.sor.MStepSSOR` on the blocked system."""
        if m == 0:
            return None
        key = (m, parametrized)
        if key not in self._applicators:
            self._applicators[key] = MStepSSOR(
                self.blocked, self.coefficients(m, parametrized)
            )
            self.stats.applicator_builds += 1
        return self._applicators[key]

    def stencil_applicator(self, m: int, parametrized: bool):
        """The cell's matrix-free m-step sweep preconditioner (cached).

        The stencil backend's counterpart of :meth:`applicator`: a
        :class:`~repro.kernels.StencilSSOR` running the Conrad–Wallach
        merged sweeps color-wise straight off the stencil — no factors,
        so "building" one is just binding coefficients to the operator.
        """
        if m == 0:
            return None
        key = (m, parametrized)
        if key not in self._stencil_applicators:
            self._stencil_applicators[key] = StencilSSOR(
                self.stencil(), self.coefficients(m, parametrized)
            )
            self.stats.applicator_builds += 1
        return self._stencil_applicators[key]

    def _operator(self):
        """The plan's operator and the blocked system it is permuted into.

        The assembled backends solve on ``blocked.permuted`` under the
        blocked system's multicolor ordering; the ``"stencil"`` backend
        solves on the matrix-free operator in natural ordering, so its
        blocked system is ``None`` (no permutation).
        """
        if self.plan.backend == STENCIL:
            return self.stencil(), None
        blocked = self.blocked
        return blocked.permuted, blocked

    def _applicator(self, m: int, parametrized: bool):
        """The cell's cached preconditioner on the plan's operator."""
        if self.plan.backend == STENCIL:
            return self.stencil_applicator(m, parametrized)
        return self.applicator(m, parametrized)

    def _shard_recipe(self, m: int, parametrized: bool) -> ApplicatorRecipe:
        """The cell's applicator as a picklable rebuild recipe.

        Worker processes of the sharded block path reconstruct the exact
        applicator the serial path runs — the merged multicolor sweep, or
        the matrix-free :class:`~repro.kernels.stencil.StencilSSOR` — from
        this description plus the shard's operator handle, through the
        same constructors.  The assembled sweep needs the permuted
        system's color-group sizes; the stencil carries its own groups.
        """
        coefficients = self.coefficients(m, parametrized)
        if coefficients is None or self.plan.backend == STENCIL:
            return ApplicatorRecipe(coefficients)
        ordering = self.blocked.ordering
        return ApplicatorRecipe(
            coefficients,
            group_sizes=tuple(ordering.counts.tolist()),
            labels=tuple(ordering.labels),
        )

    def compile(self) -> "SolverSession":
        """Force every plan artifact now (idempotent).

        Touches the plan's operator (the blocked system, or the stencil),
        the interval (iff some cell is parametrized), and every cell's
        coefficients and applicator, so a compiled session's executes
        perform no factorization work at all.
        """
        if self._compiled:
            return self
        self._operator()
        if self.plan.needs_interval:
            _ = self.interval
        for m, parametrized in self.plan.schedule:
            self._applicator(m, parametrized)
        self._compiled = True
        return self

    def prewarm_sharding(self, sharding) -> int:
        """Pay the sharded path's one-time costs now, not on the first solve.

        Compiles the session, publishes the plan's operator to the
        shared-memory registry (:func:`~repro.parallel.operator_handle`:
        the permuted CSR arrays, or on the stencil backend the
        matrix-free diagonals, reused by every later dispatch against
        this session and released with it), starts the worker pool, and
        dispatches :func:`~repro.parallel.warm_shard` specs so each
        worker attaches the operator and factorizes every plan cell's
        applicator *before* the first timed solve.  Returns the number of
        warm dispatches issued; serial sharding (``None`` or one worker)
        is a no-op.

        Warm-started this way, a steady-state
        :meth:`solve_cell_block` dispatch ships only segment handles,
        column indices and the recipe — about 1.1 KB per spec.
        """
        workers, _ = _normalize_sharding(sharding)
        if workers <= 1:
            return 0
        self.compile()
        operator, _ = self._operator()
        recipes: dict[str, ApplicatorRecipe] = {}
        for m, parametrized in self.plan.schedule:
            recipe = self._shard_recipe(m, parametrized)
            recipes.setdefault(shard_token(operator, recipe), recipe)
        handle = operator_handle(operator)
        self._shm_tokens.add(matrix_token(operator))
        specs = [
            ShardSpec(
                token=token, matrix=handle, recipe=recipe, columns=np.arange(0)
            )
            for token, recipe in recipes.items()
            for _ in range(workers)  # one warm task per pool slot
        ]
        run_tasks(warm_shard, specs, workers)
        return len(specs)

    def calibrated_model(self, which: str = "fem"):
        """A :class:`~repro.analysis.models.PerformanceModel` calibrated on
        this problem's simulated machine layout.

        ``which`` names the machine the (4.1) quantities are charged on:
        ``"fem"`` (the Finite Element Machine, the default) or ``"cyber"``
        (the CYBER vector timing model).  Returns ``None`` when the
        problem has no plate mesh to lay a machine out on — callers fall
        back to a default B/A ratio.  The machine itself comes from the
        session's cache, so repeated calibrations build nothing.  Shared
        by the CLI's ``--m auto`` and the serving daemon's ``m = "auto"``
        resolution.
        """
        from repro.analysis import PerformanceModel
        from repro.fem.model_problems import PlateProblem

        problem = self.problem
        if not isinstance(problem, PlateProblem) or getattr(
            problem, "mesh", None
        ) is None:
            return None
        if problem.k is None:
            # Matrix-free problem: no assembled system to lay a machine
            # out on — callers fall back to the default B/A ratio.
            return None
        return PerformanceModel.from_machine(
            self.cyber() if which == "cyber" else self.fem(1)
        )

    def close(self) -> None:
        """Release this session's shared-memory publications (idempotent).

        Also runs automatically when the session is garbage-collected;
        worker pools and any segments published outside a session are
        torn down by :func:`repro.parallel.shutdown_pools` instead.
        """
        self._shm_finalizer()

    # ----------------------------------------------------------------- execution
    def solve_cell(
        self,
        m: int,
        parametrized: bool = False,
        f: np.ndarray | None = None,
        eps: float | None = None,
        stopping: StoppingRule | None = None,
        maxiter: int | None = None,
        track_residual: bool = False,
    ) -> MStepSolve:
        """One cell against the compiled state, for any right-hand side.

        Column 0 of a one-column :meth:`solve_cell_block`: bitwise
        Algorithm 1 (:func:`repro.core.pcg.pcg`) on the plan's operator
        with the session's cached applicator, and the engine behind
        :func:`repro.driver.solve_mstep_ssor` (a one-cell session).
        Coloring, interval, coefficients and the preconditioner
        factorization come from the session caches.
        """
        F = None if f is None else np.asarray(f, dtype=float)[:, None]
        return self.solve_cell_block(
            m, parametrized, F=F, eps=eps, stopping=stopping,
            maxiter=maxiter, track_residual=track_residual,
        ).column(0)

    def solve_cell_block(
        self,
        m: int,
        parametrized: bool = False,
        F: np.ndarray | None = None,
        eps: float | None = None,
        stopping: StoppingRule | None = None,
        maxiter: int | None = None,
        track_residual: bool = False,
        sharding=None,
    ) -> BlockMStepSolve:
        """One cell against an ``(n, k)`` block of right-hand sides.

        The session's one solve path: the ``k`` columns advance through
        one :func:`~repro.core.pcg.block_pcg` call against the compiled
        caches, in lockstep groups of at most 8 columns — one batched
        matrix product and one batched preconditioner application per
        group and outer iteration, columns retiring individually as they
        converge.  Per-column iterates, iteration
        counts and counters are bitwise identical to ``k`` separate
        :meth:`solve_cell` calls (the acceptance contract of the block
        path, pinned in the tests).

        The plan picks the operator once.  The assembled backends permute
        the block into the multicolor system and the iterates back out;
        the ``"stencil"`` backend never permutes — K is the same matrix,
        so the iteration is the similarity-transformed twin of the
        permuted CSR run (iterates map through the permutation, iteration
        counts agree exactly).

        ``F`` may be any memory order (Fortran-ordered or strided blocks
        are handled); ``None`` solves the problem's own load as a
        single-column block.

        ``sharding`` — ``workers`` or ``(workers, group)`` — fans the
        block's column groups across worker processes
        (:func:`repro.parallel.sharded_block_pcg`).  Workers rebuild the
        cell's applicator from a picklable recipe derived from the
        compiled plan (never from a pickled live applicator), so every
        column stays bitwise identical to the serial path for any
        worker/group partition.  ``None`` (or 1 worker, or ``k ≤ 1``)
        is exactly the serial lockstep.

        A ``"reference"`` plan raises ``ValueError``: that kernel backend
        selects the machine passes' hand-rolled numerics and has no
        session solve of its own.
        """
        require(m >= 0, "m must be non-negative")
        require(
            self.plan.backend != REFERENCE,
            "session solves run on the 'vectorized' or 'stencil' backend; "
            "'reference' selects the machine simulators' kernels only",
        )
        operator, blocked = self._operator()
        F = np.asarray(self.problem.f if F is None else F, dtype=float)
        if F.ndim == 1:
            F = F[:, None]
        require(F.ndim == 2, "F must be an (n, k) block of right-hand sides")
        if blocked is not None:
            F = blocked.ordering.permute_vector(F)
        F = np.ascontiguousarray(F)

        interval = self.interval if m >= 1 and parametrized else self._interval
        coefficients = self.coefficients(m, parametrized)

        workers, group = _normalize_sharding(sharding)
        groups = column_groups(F.shape[1], workers, group) if workers > 1 else []
        options = dict(
            eps=eps if eps is not None else self.plan.eps,
            stopping=stopping,
            maxiter=maxiter if maxiter is not None else self.plan.maxiter,
            track_residual=track_residual,
        )
        if len(groups) > 1:
            # Workers rebuild the applicator from the recipe; the parent
            # never factorizes (or pickles) a live one on this path.
            result = sharded_block_pcg(
                operator, F, recipe=self._shard_recipe(m, parametrized),
                workers=workers, group=group, **options,
            )
            self.stats.shard_dispatches += len(groups)
            # The dispatch published segments under the operator's token;
            # tie their lifetime to this session.
            self._shm_tokens.add(matrix_token(operator))
        else:
            result = block_pcg(
                operator, F,
                preconditioner=self._applicator(m, parametrized), **options,
            )
        self.stats.solves += result.k
        self.stats.block_solves += 1
        self.stats.operator_backend = STENCIL if blocked is None else "csr"
        return BlockMStepSolve(
            result=result,
            u=result.u if blocked is None else blocked.ordering.unpermute_vector(result.u),
            m=m,
            parametrized=parametrized,
            coefficients=coefficients,
            interval=interval,
            blocked=blocked,
        )

    def execute(self, f: np.ndarray | None = None) -> list[MStepSolve]:
        """Every plan cell in order against one right-hand side."""
        self.compile()
        return [
            self.solve_cell(m, parametrized, f=f)
            for m, parametrized in self.plan.schedule
        ]

    def execute_block(
        self, F: np.ndarray | None = None, sharding=None
    ) -> list[BlockMStepSolve]:
        """Every plan cell in order against an ``(n, k)`` block of RHS.

        One compile serves any ``k``: the session's coloring, interval,
        coefficients and factorized applicators are built exactly once
        regardless of the block width (``stats.compile_counts()`` is the
        structural witness; the tests assert it).  ``sharding`` —
        ``workers`` or ``(workers, group)`` — fans every cell's column
        groups across worker processes, bitwise identical to the serial
        path (see :meth:`solve_cell_block`).
        """
        self.compile()
        return [
            self.solve_cell_block(m, parametrized, F=F, sharding=sharding)
            for m, parametrized in self.plan.schedule
        ]

    def execute_many(self, rhs_list) -> list[list[MStepSolve]]:
        """Every plan cell for every right-hand side (one compile serves all).

        Since the block-PCG refactor the right-hand sides are stacked into
        one ``(n, k)`` block and each cell runs a single
        :func:`~repro.core.pcg.block_pcg` lockstep over all of them; the
        returned per-RHS records are bitwise identical to the former
        solve-at-a-time path (block-PCG's per-column contract).
        """
        rhs = [np.asarray(f, dtype=float) for f in rhs_list]
        if not rhs:
            self.compile()
            return []
        block_solves = self.execute_block(np.stack(rhs, axis=1))
        return [
            [cell.column(j) for cell in block_solves]
            for j in range(len(rhs))
        ]

    # ------------------------------------------------------------------ machines
    def schedule_cells(self) -> list[tuple[int, np.ndarray | None]]:
        """The plan's cells as ``(m, coefficients)`` pairs for the machines."""
        return [
            (m, self.coefficients(m, parametrized))
            for m, parametrized in self.plan.schedule
        ]

    def cyber(self, timing=None) -> CyberMachine:
        """The CYBER simulator for this problem (laid out once, cached)."""
        timing = timing if timing is not None else CYBER_203
        key = ("cyber", timing)
        if key not in self._machines:
            self._machines[key] = CyberMachine(self.problem, timing)
            self.stats.machine_builds += 1
        return self._machines[key]

    def _require_machine_plan(self) -> None:
        """Reject stencil plans: the simulators replay the assembled system."""
        require(
            self.plan.backend != STENCIL,
            "the machine simulators replay the assembled multicolor "
            "system; the stencil backend has no machine path",
        )

    def run_cyber_schedule(
        self,
        eps: float | None = None,
        maxiter: int | None = None,
        timing=None,
        workers: int = 1,
    ):
        """The plan's full schedule on the CYBER simulator.

        Every cell runs through **one** lockstep simulator pass on the
        plan's kernel backend
        (:meth:`~repro.machines.cyber.CyberMachine.solve_schedule`: the
        batched ``(n, k)`` merged-sweep kernels, or per-cell reference
        sweeps, with per-cell charge replay), bitwise identical to
        per-cell :meth:`~repro.machines.cyber.CyberMachine.solve` calls in
        iteration counts, clocks, op ledgers and iterates.

        ``workers > 1`` fans the schedule's cells across worker processes
        (:func:`repro.parallel.sharded_schedule`): each worker lays out
        its own machine from the pickled problem and runs its cell chunk
        through ``solve_schedule``, whose partition-invariant per-cell
        contract keeps every record bitwise identical to the
        single-process pass.
        """
        self._require_machine_plan()
        cells = self.schedule_cells()
        eps = eps if eps is not None else self.plan.eps
        if workers > 1:
            return sharded_schedule(
                self.problem, cells, machine="cyber", workers=workers,
                eps=eps, maxiter=maxiter, timing=timing,
                backend=self.plan.backend,
            )
        return self.cyber(timing).solve_schedule(
            cells, eps=eps, maxiter=maxiter, backend=self.plan.backend
        )

    def run_fem_schedule(
        self,
        n_procs: int = 1,
        eps: float | None = None,
        maxiter: int | None = None,
        workers: int = 1,
        timing=None,
        reduction: str = "software",
    ):
        """The plan's full schedule on the Finite Element Machine.

        The FEM analogue of :meth:`run_cyber_schedule`, sharded the same
        way by ``workers``: one lockstep pass
        (:meth:`~repro.machines.fem_machine.FiniteElementMachine.solve_schedule`)
        bitwise identical to per-cell
        :meth:`~repro.machines.fem_machine.FiniteElementMachine.solve`
        calls in iteration counts, charged clocks, communication ledgers
        and iterates.  The pass runs the merged sweep over the session's
        blocked system (one zero-padded sweep per lockstep group, off the
        sweep plan the session's own solves use); the machine caches its
        sweep and the session caches the machine, so repeated runs rebuild
        nothing.  ``timing`` and ``reduction`` configure the
        machine as in :meth:`fem`, on both paths.
        """
        self._require_machine_plan()
        cells = self.schedule_cells()
        eps = eps if eps is not None else self.plan.eps
        if workers > 1:
            return sharded_schedule(
                self.problem, cells, machine="fem", workers=workers,
                eps=eps, maxiter=maxiter, n_procs=n_procs,
                backend=self.plan.backend, timing=timing, reduction=reduction,
            )
        return self.fem(n_procs, timing, reduction).solve_schedule(
            cells, eps=eps, maxiter=maxiter, backend=self.plan.backend
        )

    def fem(
        self, n_procs: int = 1, timing=None, reduction: str = "software"
    ) -> FiniteElementMachine:
        """A Finite Element Machine sharing the session's blocked system
        (``timing`` ``None`` → ``FEM_1983``; ``reduction`` ``"software"``
        or ``"circuit"``), laid out once per configuration and cached."""
        timing = timing if timing is not None else FEM_1983
        key = ("fem", n_procs, timing, reduction)
        if key not in self._machines:
            self._machines[key] = FiniteElementMachine(
                self.problem, n_procs, timing=timing, reduction=reduction,
                blocked=self.blocked,
            )
            self.stats.machine_builds += 1
        return self._machines[key]

    def fem_solve(
        self,
        m: int,
        parametrized: bool = False,
        n_procs: int = 1,
        eps: float | None = None,
        timing=None,
        reduction: str = "software",
    ):
        """One FEM-simulator cell
        (:meth:`~repro.machines.charges.ChargedMachine.solve`).

        Runs on the session's cached machine, whose one merged sweep
        serves every cell and every m, so repeated cells rebuild nothing.
        """
        self._require_machine_plan()
        self.stats.solves += 1
        return self.fem(n_procs, timing, reduction).solve(
            m,
            self.coefficients(m, parametrized),
            eps=eps if eps is not None else self.plan.eps,
            backend=self.plan.backend,
        )
