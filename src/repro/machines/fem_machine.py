"""The Finite Element Machine simulator (§3.2, Table 3).

Executes the m-step multicolor SSOR PCG method as the session's solves do
— Algorithm 1 over the blocked system with Algorithm 2's merged sweep
(:class:`~repro.multicolor.sor.MStepSSOR`), a schedule's cells through one
lockstep pass (:meth:`~repro.machines.charges.ChargedMachine.solve_schedule`)
— so iteration counts are *identical for any processor count*, the
property Table 3 exhibits, while charging a lockstep (BSP-style) cost
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
from repro.core.pcg import PCGResult
from repro.core.splittings import SSORSplitting
from repro.driver import build_blocked_system, cell_label
from repro.fem.model_problems import PlateProblem
from repro.kernels.backend import REFERENCE
from repro.machines.charges import ChargedMachine, ChargeStream, Recording
from repro.machines.comm import CommLog
from repro.machines.timing import FEM_1983, ArrayTimingModel
from repro.machines.topology import Assignment, ProcessorGrid
from repro.multicolor.sor import MStepSSOR
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
        self._merged_sweep: MStepSSOR | None = None
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
        update.  A converged last iteration stops at the flag test, a
        broken-down one (``(p, Kp) ≤ 0``) at that inner product.
        """
        return ChargeStream(
            startup=(self._record("exchange", "matvec", 2), self._record("dot")),
            iteration=(
                self._record("exchange", "matvec", "dot", 3, "flag", 2),
                self._record("dot", 2),
            ),
            converged=self._record("exchange", "matvec", "dot", 3, "flag"),
            breakdown=self._record("exchange", "matvec", "dot"),
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
    def _system(self):
        """The schedule pass's operator and load: the blocked system and
        the plate load in its multicolor order."""
        f = np.asarray(self.problem.f, dtype=float)
        return self.blocked.permuted, self.blocked.ordering.permute_vector(f)

    def _sweep_kernel(self) -> MStepSSOR:
        """Algorithm 2's merged sweep over the blocked system, built once;
        it shares ``blocked.sweep_plan`` with the session's solves."""
        if self._merged_sweep is None:
            self._merged_sweep = MStepSSOR(self.blocked, np.ones(1))
        return self._merged_sweep

    @functools.cached_property
    def _reference_splitting(self) -> SSORSplitting:
        return SSORSplitting(self.blocked.permuted, backend=REFERENCE)

    def _precondition_reference(
        self, coefficients: np.ndarray, r: np.ndarray
    ) -> np.ndarray:
        """Algorithm 2 as the Horner recurrence of (2.6) over the SSOR
        splitting: m − 1 products with ``K`` and m row-sequential ``P⁻¹``
        solves — the paper-faithful pin the merged sweep is tested
        against."""
        return MStepPreconditioner(self._reference_splitting, coefficients).apply(r)

    def _charged_result(
        self, m: int, parametrized: bool, preconditioned: bool, solve: PCGResult
    ) -> FEMResult:
        """Charge one solve's clock and package the :class:`FEMResult`.

        Replays the recorded stream (:attr:`_stream`): it depends only on
        ``m``, whether a preconditioner ran, the iteration count and how
        the last iteration ended, so a cell's clock and communication
        ledger are the same whichever cells share its pass.
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


def speedup_table(results_by_procs: dict[int, FEMResult]) -> dict[int, float]:
    """Speedups relative to the one-processor run (Table 3's columns)."""
    require(1 in results_by_procs, "need the one-processor baseline")
    base = results_by_procs[1].seconds
    return {p: base / r.seconds for p, r in sorted(results_by_procs.items())}
