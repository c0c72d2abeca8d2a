"""The Finite Element Machine simulator (§3.2, Table 3).

Executes the m-step multicolor SSOR PCG method exactly as the reference
solver does — so iteration counts are *identical for any processor count*,
the property Table 3 exhibits — while charging a lockstep (BSP-style) cost
model built from the paper's description of the machine:

* each processor owns a color-balanced rectangle of unconstrained nodes and
  the 14-coefficient stencil rows of its equations (Figures 3, 5);
* every CG iteration exchanges the border ``p`` components with neighbors
  over the local links, one packaged record per neighbor;
* every preconditioner step exchanges border ``r̃`` components after each
  color phase (3 forward exchanges, 2 backward — the ``c mod 2 = 0``
  sends of Algorithm 3);
* the two inner products need a global reduction — software
  store-and-forward on the 1983 machine, or the sum/max circuit (O(log₂ P));
* the convergence test uses the signal flag network.

A phase's time is the maximum over processors of its compute plus its
communication (processors are synchronized by the data dependencies between
phases); per-iteration costs are static because they depend only on the
partition, not on values.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.core.mstep import MStepPreconditioner
from repro.core.splittings import SSORSplitting
from repro.driver import build_blocked_system, cell_label
from repro.fem.model_problems import PlateProblem
from repro.machines.cells import SchedulePreconditioner, normalize_cell
from repro.machines.charges import ChargedMachine, ChargeStream, Recording
from repro.machines.comm import CommLog
from repro.machines.timing import FEM_1983, ArrayTimingModel
from repro.machines.topology import Assignment, ProcessorGrid
from repro.core.pcg import PCGResult, block_pcg, pcg
from repro.util import require

__all__ = ["FEMResult", "FiniteElementMachine", "speedup_table"]


@dataclass
class FEMResult:
    """One Table-3 cell: a Finite Element Machine solve."""

    label: str
    m: int
    parametrized: bool
    n_procs: int
    iterations: int
    converged: bool
    seconds: float
    compute_seconds: float
    comm_seconds: float
    reduction_seconds: float
    flag_seconds: float
    total_records: int
    total_words: int
    u_natural: np.ndarray

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FEMResult(m={self.label}, P={self.n_procs}, I={self.iterations}, "
            f"T={self.seconds:.2f}s)"
        )


class FiniteElementMachine(ChargedMachine):
    """The plate problem distributed over a processor array."""

    def __init__(
        self,
        problem: PlateProblem,
        n_procs: int | Assignment = 1,
        timing: ArrayTimingModel = FEM_1983,
        reduction: str = "software",
        blocked=None,
    ):
        self.problem = problem
        self.timing = timing
        require(reduction in ("software", "circuit"), "unknown reduction mode")
        self.reduction = reduction
        if isinstance(n_procs, Assignment):
            self.assignment = n_procs
        else:
            grid = ProcessorGrid.for_count(n_procs, problem.mesh)
            self.assignment = Assignment.rectangles(problem.mesh, grid)
        self.blocked = blocked if blocked is not None else build_blocked_system(problem)
        # Shared splitting applicators of the batched schedule pass, one
        # per kernel backend — factorized once per machine lifetime so
        # repeated solve_schedule calls (e.g. through a SolverSession's
        # cached machine) pay no rebuild.
        self._schedule_applicators: dict = {}
        self._precompute_static_costs()

    # -------------------------------------------------------- static costing
    def _precompute_static_costs(self) -> None:
        assignment = self.assignment
        mesh = self.problem.mesh
        k_csr = self.problem.k.tocsr()
        row_nnz = np.diff(k_csr.indptr)
        groups = self.problem.group_of_unknown
        n_procs = assignment.n_procs

        self._owned = [u.size for u in assignment.unknowns_of_proc]
        self._owned_backward = []  # unknowns in groups 1..nc−2 (backward solves)
        self._matvec_flops = []
        self._precond_mult_flops = []
        nc = self.problem.n_groups
        for p in range(n_procs):
            unknowns = assignment.unknowns_of_proc[p]
            self._matvec_flops.append(int(2 * row_nnz[unknowns].sum()))
            # Off-diagonal entries touched once per merged SSOR step.
            self._precond_mult_flops.append(int(2 * (row_nnz[unknowns] - 1).sum()))
            g = groups[unknowns]
            self._owned_backward.append(int(np.count_nonzero((g >= 1) & (g <= nc - 2))))

        # Border words for the p-exchange (all colors) and the per-step
        # r̃-exchanges.  Forward: one record per node color, both dofs
        # packaged ("the two equations at the same node [are] the same
        # color" for communication).  Backward: the ``send r̃_{c+1}, r̃_c``
        # events of Algorithm 3 — (Gv, Gu) after the Gu solve and (Bv, Bu)
        # after the Bu solve, which is exactly what the downstream solves'
        # data dependencies require (same-node couplings are always local,
        # so Rv never needs a remote Ru and the R pair is not re-sent).
        self._kp_exchange_words: dict[tuple[int, int], int] = {}
        self._fwd_words: dict[tuple[int, int], list[int]] = {}
        self._bwd_words: dict[tuple[int, int], list[int]] = {}
        for (p, q), nodes in assignment.border_pairs.items():
            colors = mesh.node_colors[nodes]
            per_color = np.bincount(colors, minlength=3)
            self._kp_exchange_words[(p, q)] = 2 * nodes.size
            # forward events: node colors R, B, G → 2 words per node of color
            self._fwd_words[(p, q)] = [2 * int(c) for c in per_color]
            # backward events: (Gv, Gu) then (Bv, Bu)
            self._bwd_words[(p, q)] = [2 * int(per_color[2]), 2 * int(per_color[1])]

    def _exchange_phase_time(
        self, words: dict[tuple[int, int], int], comm: CommLog
    ) -> float:
        """Max over processors of (send + receive) time for one exchange,
        each record logged on ``comm``."""
        per_proc = np.zeros(self.assignment.n_procs)
        for (p, q), w in words.items():
            t = comm.add_record(p, q, w)
            per_proc[p] += t  # send
            per_proc[q] += t  # matching receive
        return float(per_proc.max()) if per_proc.size else 0.0

    def _precond_step_compute(self, width: int = 1) -> float:
        """Compute seconds of one merged Conrad–Wallach step (max over procs).

        Per processor: all off-diagonal stencil coefficients touched once
        (2 flops each), 4 flops per solved component (forward all colors,
        backward the interior colors), plus the fixed per-color-phase setup
        overhead of the stencil data structures (2·nc − 1 phases).

        ``width > 1`` models a dense color-block sweep over an ``(n, width)``
        block of right-hand sides: the flops scale with the block width
        while the per-color-phase setup is paid once per *block*, not once
        per vector — the same startup amortization the kernel layer's
        batched triangular solves realize in software.
        """
        t_flop = self.timing.flop_time
        phases = 2 * self.problem.n_groups - 1
        return (
            max(
                self._precond_mult_flops[p] * width * t_flop
                + 4 * (self._owned[p] + self._owned_backward[p]) * width * t_flop
                for p in range(self.assignment.n_procs)
            )
            + phases * self.timing.color_phase_overhead
        )

    # ------------------------------------------------------- recorded stream
    @functools.cached_property
    def _stream(self) -> ChargeStream:
        """The outer charges of a solve, recorded once per segment.

        Startup: ``K u⁰``, ``r⁰ = f − K u⁰``, then after ``M r̃⁰ = r⁰`` the
        inner product ``ρ₀``.  Each iteration: ``K p``, ``(p, Kp)``, the
        ``u`` update with its ``|Δu|`` pass and the flag-network test, the
        ``r`` update; then after ``M r̃ = r``, ``(r̃, r)`` and the ``p``
        update.  A converged last iteration stops at the flag test.
        """
        return ChargeStream(
            startup=(self._record("exchange", "matvec", 2), self._record("dot")),
            iteration=(
                self._record("exchange", "matvec", "dot", 3, "flag", 2),
                self._record("dot", 2),
            ),
            converged=self._record("exchange", "matvec", "dot", 3, "flag"),
            kinds=("compute", "comm", "reduction", "flag"),
        )

    def _record(self, *phases) -> Recording:
        """Charge ``phases`` in order onto a new recording with the traffic
        they log (``records`` and ``words``, through a :class:`CommLog`).

        A phase is ``"exchange"`` (the border ``p`` components ``K p``
        needs), ``"matvec"``, ``"dot"`` (local partial sums, then the global
        reduction), ``"flag"`` (the convergence test) or an int ``k``: a
        vector update of ``k`` flops per owned unknown.
        """
        recording, comm = Recording(), CommLog(self.timing)
        t_flop = self.timing.flop_time
        n_procs = self.assignment.n_procs
        max_owned = max(self._owned)
        for phase in phases:
            if phase == "exchange":  # 0.0 on one processor: no border pairs
                words = self._kp_exchange_words
                recording.charge("comm", self._exchange_phase_time(words, comm))
            elif phase == "matvec":
                recording.charge("compute", max(self._matvec_flops) * t_flop)
            elif phase == "dot":
                recording.charge("compute", 2 * max_owned * t_flop)
                recording.charge(
                    "reduction", comm.add_reduction(n_procs, self.reduction)
                )
            elif phase == "flag":
                recording.charge("flag", comm.add_flag_sync())
            else:
                recording.charge("compute", phase * max_owned * t_flop)
        recording.tally("records", comm.total_records)
        recording.tally("words", comm.total_words)
        return recording

    def _application(self, m: int, width: int = 1) -> Recording:
        """One recorded m-step application on an ``(n, width)`` block.

        Each merged Conrad–Wallach step is its compute plus the 5 border
        exchanges.  At ``width > 1`` each exchange still packages one
        record per neighbor — the per-record latency amortizes over the
        block — with ``width`` times the words.  The application charges
        compute and communication once each, summed step by step, and a
        step's communication as its total less its compute: the rounding
        the pinned clocks have.
        """

        def build() -> Recording:
            recording, comm = Recording(), CommLog(self.timing)
            compute = self._precond_step_compute(width)
            exchanges = 0.0  # stays 0.0 on one processor: no border pairs
            # forward: the R, B and G phases; backward: (Gv, Gu), (Bv, Bu)
            for events, n_events in ((self._fwd_words, 3), (self._bwd_words, 2)):
                for event in range(n_events):
                    words = {
                        pair: w[event] * width
                        for pair, w in events.items()
                        if w[event] > 0
                    }
                    exchanges += self._exchange_phase_time(words, comm)
            step_comm = (compute + exchanges) - compute
            total_compute = total_comm = 0.0
            for _ in range(m):
                total_compute += compute
                total_comm += step_comm
            recording.charge("compute", total_compute)
            recording.charge("comm", total_comm)
            recording.tally("records", m * comm.total_records)
            recording.tally("words", m * comm.total_words)
            return recording

        return self._stream.recorded((m, width), build)

    def _step(self) -> Recording:
        """One recorded preconditioner step (every step charges alike)."""
        return self._application(1)

    # ------------------------------------------------------------------ solve
    def solve(
        self,
        m: int,
        coefficients: np.ndarray | None = None,
        eps: float = 1e-6,
        maxiter: int | None = None,
        backend: str | None = None,
    ) -> FEMResult:
        """Run the method; numerics identical to the reference solver.

        Algorithm 1 is :func:`~repro.core.pcg.pcg` with a freshly built
        :class:`~repro.core.mstep.MStepPreconditioner` over the SSOR
        splitting, whose triangular solves dispatch on ``backend``: the
        kernel layer's cached
        :class:`~repro.kernels.ColorBlockTriangularSolver` sweeps
        (``"vectorized"``) or the row-sequential ``"reference"`` pin.  The
        charged clock depends only on the iteration count — which every
        path reproduces — so the cost model is backend-invariant.  This is
        the per-cell reference :meth:`solve_schedule` is pinned to.
        """
        coefficients, parametrized = normalize_cell(m, coefficients)
        preconditioner = None
        if coefficients is not None:
            preconditioner = MStepPreconditioner(
                SSORSplitting(self.blocked.permuted, backend=backend), coefficients
            )
        result = pcg(
            self.blocked.permuted,
            self._load(),
            preconditioner=preconditioner,
            eps=eps,
            maxiter=maxiter,
        )
        return self._charged_result(
            m, parametrized, preconditioner is not None, result
        )

    def _load(self) -> np.ndarray:
        """The plate load in the blocked system's multicolor order."""
        return self.blocked.ordering.permute_vector(
            np.asarray(self.problem.f, dtype=float)
        )

    def _charged_result(
        self, m: int, parametrized: bool, preconditioned: bool, solve: PCGResult
    ) -> FEMResult:
        """Charge one solve's clock and package the :class:`FEMResult`.

        Replays the recorded stream (:attr:`_stream`): it depends only on
        ``m``, whether a preconditioner ran, the iteration count and the
        convergence flag, so any execution path that reproduces the
        iteration count (the per-cell :meth:`solve` or the one
        ``block_pcg`` of :meth:`solve_schedule`) lands on the
        bitwise-identical clock and communication ledger by construction.
        """
        stream = self._stream
        log, _ = stream.replay(
            self._application(m)
            if preconditioned
            else stream.recorded("plain CG", Recording),  # r̃ = r charges nothing
            solve,
        )
        seconds = log.seconds
        return FEMResult(
            label=cell_label(m, parametrized),
            m=m,
            parametrized=parametrized,
            n_procs=self.assignment.n_procs,
            iterations=solve.iterations,
            converged=solve.converged,
            seconds=log.total_seconds(),
            compute_seconds=seconds["compute"],
            comm_seconds=seconds["comm"],
            reduction_seconds=seconds["reduction"],
            flag_seconds=seconds["flag"],
            total_records=log.counts.get("records", 0),
            total_words=log.counts.get("words", 0),
            u_natural=self.blocked.ordering.unpermute_vector(solve.u),
        )

    def _schedule_applicator(self, backend: str | None) -> MStepPreconditioner:
        """The cached shared applicator of :meth:`solve_schedule`.

        Every application overrides the coefficient schedule, so one
        factorized SSOR splitting per backend serves any mix of cells and
        any m.
        """
        if backend not in self._schedule_applicators:
            self._schedule_applicators[backend] = MStepPreconditioner(
                SSORSplitting(self.blocked.permuted, backend=backend),
                np.ones(1),
            )
        return self._schedule_applicators[backend]

    def solve_schedule(
        self,
        cells,
        eps: float = 1e-6,
        maxiter: int | None = None,
        backend: str | None = None,
    ) -> list[FEMResult]:
        """All schedule cells through **one** :func:`~repro.core.pcg.block_pcg`.

        The Finite Element Machine analogue of
        :meth:`repro.machines.cyber.CyberMachine.solve_schedule`:
        ``cells`` is a sequence of ``(m, coefficients)`` pairs — one per
        Table-3 row (``coefficients`` may be ``None`` for all-ones or
        plain CG).  Column ``j`` of the block solve is cell ``j``: each
        iteration runs one batched ``K``-product over the active block,
        and *all* active preconditioned cells — whatever their m — run
        through **one** application of the machine's cached splitting
        applicator (:meth:`~repro.core.mstep.MStepPreconditioner.apply`
        with an ``(m, k)`` per-column coefficient block, ``m`` the longest
        active schedule, smaller-m schedules zero-padded at the top so
        their columns sit at exactly zero until their own first Horner
        step; a lone cell runs its schedule unpadded).

        Numerics per cell are bit-identical to :meth:`solve`'s — every
        batched kernel is per-column bitwise equal to its single-vector
        form — and the clock is charged through the same structural
        replay (:meth:`_charged_result`), so iteration counts, charged
        seconds, communication ledgers and iterates all match the
        per-cell path bitwise (pinned in the tests and gated as
        ``fem_schedule`` in ``BENCH_kernels.json``).
        """
        cells = [(m, *normalize_cell(m, coefficients)) for m, coefficients in cells]
        schedules = [coefficients for _, coefficients, _ in cells]
        steps = [0 if s is None else s.size for s in schedules]
        max_m = max(steps, default=0)
        padded = np.zeros((max_m, len(cells)))
        for j, s in enumerate(schedules):
            if s is not None:
                padded[: s.size, j] = s
        precond = self._schedule_applicator(backend) if max_m else None

        def sweep(columns: list[int], r: np.ndarray) -> np.ndarray:
            if r.ndim == 1:
                return precond.apply(r, coefficients=schedules[columns[0]])
            active = [steps[j] for j in columns]
            # Padding rows no active column reaches are skipped: the
            # Horner then runs only the longest active schedule's steps.
            return precond.apply(
                r, coefficients=padded[: max(active), columns], column_steps=active
            )

        n = self.blocked.n
        result = block_pcg(
            self.blocked.permuted,
            np.broadcast_to(self._load()[:, None], (n, len(cells))),
            SchedulePreconditioner(
                [None if s is None else 0 for s in schedules], sweep
            ),
            eps=eps,
            maxiter=maxiter,
        )
        return [
            self._charged_result(
                m, parametrized, coefficients is not None, result.column(j)
            )
            for j, (m, coefficients, parametrized) in enumerate(cells)
        ]


def speedup_table(results_by_procs: dict[int, FEMResult]) -> dict[int, float]:
    """Speedups relative to the one-processor run (Table 3's columns)."""
    require(1 in results_by_procs, "need the one-processor baseline")
    base = results_by_procs[1].seconds
    return {p: base / r.seconds for p, r in sorted(results_by_procs.items())}
