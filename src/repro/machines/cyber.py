"""The CYBER 203/205 implementation of the m-step SSOR PCG method (§3.1).

Reproduces the paper's vector-machine organization faithfully:

* **Padded color vectors.**  The six color groups R(u), R(v), B(u), B(v),
  G(u), G(v) are laid out contiguously *including the constrained nodes*,
  raising the maximum vector length from a·b/3 to a(b+1)/3 (the paper's
  ``v``).  Constrained slots are held at zero by the control-vector mask —
  stores there are suppressed at no extra cost, while every vector
  operation is charged at full padded length.
* **Matrix by diagonals.**  All 36 blocks of (3.1) — and hence the products
  ``K p``, ``B_jcᵀ r̃`` and ``B_cj r̃`` — are stored and multiplied by
  diagonals (Madsen–Rodrique–Karush 1976); each diagonal is one
  multiply-add stream.
* **Inner products** pay the partial-sum penalty of
  :meth:`~repro.machines.timing.VectorTimingModel.dot_time` ("considerably
  slower than the other vector operations").
* The m-step preconditioner is Algorithm 2's Conrad–Wallach merged sweep:
  the kernel path runs :class:`repro.multicolor.sor.MStepSSOR` on the
  masked, padded system, the ``"reference"`` path hand-rolled per-color
  solves over the diagonal storage; both charge the same vector-op stream.

Numerics are exact (NumPy); only the clock is simulated.  Algorithm 1 is
:func:`repro.core.pcg.block_pcg`
(:meth:`~repro.machines.charges.ChargedMachine.solve_schedule`, one cell
or a whole schedule) over :attr:`CyberMachine.k`, a CSR whose rows list
their entries in by-diagonals order, so the shared CSR product
(:func:`repro.kernels.ops.matvec_into`) sums each row as the machine's
multiply-add streams do.  The clock replays the vector-op stream the
machine issues (:attr:`CyberMachine._stream`).  The iterates are identical
(to roundoff-in-summation-order) to the reference Algorithm 1 on the
eliminated system, which the tests verify.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.core.pcg import PCGResult
from repro.driver import cell_label
from repro.fem.model_problems import PlateProblem
from repro.fem.plane_stress import assemble_plate_full
from repro.kernels import ops as kernel_ops
from repro.kernels.sweep import mstep_passes
from repro.machines.charges import ChargedMachine, ChargeStream, Recording
from repro.machines.diagonals import DiagonalStorage
from repro.machines.timing import CYBER_203, VectorTimingModel
from repro.multicolor.blocked import BlockedMatrix
from repro.multicolor.ordering import MulticolorOrdering
from repro.multicolor.sor import MStepSSOR
from repro.util import require

__all__ = ["CyberResult", "CyberMachine"]


@dataclass
class CyberResult:
    """One Table-2 cell: a CYBER solve of the plate problem."""

    label: str
    m: int
    parametrized: bool
    iterations: int
    converged: bool
    seconds: float
    max_vector_length: int
    op_breakdown: dict[str, tuple[int, float]]
    u_natural: np.ndarray
    preconditioner_seconds: float
    outer_seconds: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CyberResult(m={self.label}, I={self.iterations}, "
            f"T={self.seconds:.4f}s, v={self.max_vector_length})"
        )


def by_diagonals_csr(slices, diagonals, blocks, free_mask) -> sp.csr_matrix:
    """The padded ``K`` as a CSR whose rows sum in by-diagonals order.

    A row of color ``c`` lists ``D_c``'s entry, then every stored diagonal
    of its block row in storage order (a stable sort by row of the
    concatenated :attr:`DiagonalStorage.terms`, stored zeros included);
    constrained rows are empty.  A CSR product sums each row from +0.0 in
    that order, so it is bitwise the machine's multiply-add streams
    (``diag·x``, then one multiply-add per diagonal) but for one input: a
    free row whose every product is −0 sums to +0 here, −0 there.
    Indices are 32-bit, as the compiled product takes.
    """
    rows, cols, values = [], [], []
    for c, sc in enumerate(slices):
        span = np.arange(sc.start, sc.stop)
        rows.append(span)
        cols.append(span)
        values.append(diagonals[c])
        for j, storage in blocks[c].items():
            for k, start, stop, seg in storage.terms:
                rows.append(span[start:stop])
                cols.append(np.arange(start + k, stop + k) + slices[j].start)
                values.append(seg)
    rows = np.concatenate(rows)
    order = np.argsort(rows, kind="stable")
    order = order[free_mask[rows[order]]]
    n = free_mask.size
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows[order], minlength=n), out=indptr[1:])
    data, indices = np.concatenate(values)[order], np.concatenate(cols)[order]
    return sp.csr_matrix((data, indices.astype(np.int32), indptr), shape=(n, n))


class CyberMachine(ChargedMachine):
    """The plate problem laid out for the CYBER, ready to solve repeatedly.

    :meth:`solve` and :meth:`solve_schedule` run their cells through
    :func:`~repro.core.pcg.block_pcg` on :attr:`k`, the padded system as a
    CSR in by-diagonals order (:func:`by_diagonals_csr`), and charge each
    ``K p`` as the stream of one multiply-add per stored diagonal.
    """

    def __init__(
        self,
        problem: PlateProblem,
        timing: VectorTimingModel = CYBER_203,
    ):
        self.problem = problem
        self.timing = timing
        mesh = problem.mesh

        # Padded dof universe: 2·node + component over *all* nodes.
        n_nodes = mesh.n_nodes
        node_of_dof = np.repeat(np.arange(n_nodes), 2)
        comp_of_dof = np.tile(np.array([0, 1]), n_nodes)
        groups = 2 * mesh.node_colors[node_of_dof] + comp_of_dof
        self.ordering = MulticolorOrdering.from_groups(
            groups, PlateProblem.GROUP_LABELS
        )

        k_full, f_full = assemble_plate_full(
            mesh, problem.material, element_scale=problem.element_scale
        )
        self._k_full = k_full  # the padded system _sweep_kernel masks
        permuted = self.ordering.permute_matrix(k_full)
        self.slices = self.ordering.group_slices
        self.n_groups = 6
        self.n_padded = 2 * n_nodes

        # Control vector: True on unconstrained slots (multicolor order).
        free = np.repeat(~mesh.is_constrained, 2)
        self.free_mask = self.ordering.permute_vector(free)
        self.group_free = [self.free_mask[s] for s in self.slices]

        # Blocks by diagonals: D_c plus every off-diagonal block.
        self.diagonals = []
        self.blocks: list[dict[int, DiagonalStorage]] = []
        for c in range(self.n_groups):
            rows = permuted[self.slices[c]]
            dc = rows[:, self.slices[c]].diagonal().copy()
            require(bool(np.all(dc > 0)), "padded diagonal must be positive")
            self.diagonals.append(dc)
            row_blocks: dict[int, DiagonalStorage] = {}
            for j in range(self.n_groups):
                if j == c:
                    continue
                block = rows[:, self.slices[j]].tocsr()
                if block.nnz:
                    storage = DiagonalStorage.from_block(block)
                    if storage.n_diagonals:
                        row_blocks[j] = storage
            self.blocks.append(row_blocks)
        #: ``K`` as block_pcg multiplies it: masked, in by-diagonals order.
        self.k = by_diagonals_csr(
            self.slices, self.diagonals, self.blocks, self.free_mask
        )

        # Right-hand side, masked to the free slots.
        f_mc = self.ordering.permute_vector(f_full)
        f_mc[~self.free_mask] = 0.0
        self.f = f_mc

        self.max_vector_length = max(
            (s.stop - s.start) for s in self.slices
        )
        self._merged_sweep: MStepSSOR | None = None

    # ------------------------------------------------------------- primitives
    def _charge_matvec(self, out) -> None:
        """Charge one ``K x`` by diagonals to ``out``.

        One ``multiply`` per color row and one ``diag_madd`` per stored
        diagonal, each at its own length: the vector-op stream the
        matrix-by-diagonals product issues on the machine, onto the
        :class:`~repro.machines.charges.Recording` ``out``.  The numbers
        come from :attr:`k`, whose rows sum in this stream's order.
        """
        for c in range(self.n_groups):
            out.charge("multiply", self.timing.vector_op_time(self.diagonals[c].shape[0]))
            for storage in self.blocks[c].values():
                for _, start, stop, _ in storage.terms:
                    out.charge("diag_madd", self.timing.vector_op_time(stop - start))

    # -------------------------------------------------- preconditioner charge
    def _charge_precondition(self, out, m: int, width: int = 1):
        """Charge Algorithm 2's stream to ``out`` without executing it.

        The cost of the merged Conrad–Wallach sweeps is purely structural —
        one multiply-add per stored diagonal of each touched block, one
        axpy/add/divide triple per color solve — so both numeric backends
        charge this identical stream (the control-vector masking rides
        along free).  ``width > 1`` charges an ``(n, width)`` batched
        application: the same operations at block width, each paying a
        single pipeline startup (:meth:`VectorTimingModel.block_op_time`).

        The passes are the schedule every sweep walks
        (:func:`~repro.kernels.sweep.mstep_passes`), the one
        :meth:`_precondition_reference` spells out by hand; the
        backend-equivalence suite pins the two in lockstep.  Returns
        ``out``.
        """
        return self._charge_passes(out, mstep_passes(self.n_groups, m), width)

    def _charge_passes(self, out, passes, width: int = 1):
        """Charge color passes of the m-step schedule to ``out``; returns it."""
        op_seconds = self.timing.block_op_time  # width 1: vector_op_time
        for p in passes:
            c = p.c
            for j in range(c + 1, self.n_groups) if p.upper else range(c):
                storage = self.blocks[c].get(j)
                if storage is None:
                    continue
                for _, start, stop, _ in storage.terms:
                    out.charge("diag_madd", op_seconds(stop - start, width))
            if p.do_solve:
                seconds = op_seconds(self.diagonals[c].shape[0], width)
                out.charge("axpy", seconds)
                out.charge("add", seconds)
                out.charge("divide", seconds)
        return out

    # ------------------------------------------------ preconditioner numerics
    def _precondition_reference(
        self, coefficients: np.ndarray, r: np.ndarray
    ) -> np.ndarray:
        """Algorithm 2 by hand-rolled per-color solves over the diagonal
        storage — the paper-faithful pin the kernel path is tested against."""
        nc = self.n_groups
        m = coefficients.size
        rt = np.zeros_like(r)
        rg = [r[s] for s in self.slices]
        xg = [rt[s] for s in self.slices]
        y = [np.zeros(d.shape[0]) for d in self.diagonals]

        def row_sum(c: int, js) -> np.ndarray:
            acc = np.zeros(self.diagonals[c].shape[0])
            for j in js:
                storage = self.blocks[c].get(j)
                if storage is not None:
                    storage.matvec(xg[j], out=acc)
            return acc

        def solve(c: int, x: np.ndarray, yc: np.ndarray, alpha: float) -> np.ndarray:
            rhs = x + kernel_ops.axpy(alpha, rg[c], yc)
            sol = rhs / self.diagonals[c]
            sol[~self.group_free[c]] = 0.0
            return sol

        for s in range(1, m + 1):
            alpha = float(coefficients[m - s])
            for c in range(nc):
                x = row_sum(c, range(c))
                np.negative(x, out=x)
                xg[c][:] = solve(c, x, y[c], alpha)
                y[c] = x
            for c in range(nc - 2, 0, -1):
                x = row_sum(c, range(c + 1, nc))
                np.negative(x, out=x)
                xg[c][:] = solve(c, x, y[c], alpha)
                y[c] = x
            y[nc - 1] = np.zeros_like(y[nc - 1])
            x = row_sum(0, range(1, nc))
            np.negative(x, out=x)
            if s == m:
                xg[0][:] = solve(0, x, np.zeros_like(x), alpha)
            else:
                y[0] = x
        return rt

    def _sweep_kernel(self) -> MStepSSOR:
        """The cached kernel-layer realization of Algorithm 2 (built once).

        :class:`~repro.multicolor.sor.MStepSSOR` on the padded system with
        the control vector baked into the operator: constrained slots keep
        their diagonal but lose every off-diagonal coupling, so their
        entries of ``r̃`` stay zero with no per-color masking pass.  Callers
        pass each cell's α schedule to
        :meth:`~repro.multicolor.sor.MStepSSOR.apply_schedule` — ``(m,)``
        for one right-hand side, ``(m, k)`` for an ``(n, k)`` block.
        """
        if self._merged_sweep is None:
            k = self._k_full.tocsr()
            mask = sp.diags(
                np.repeat(~self.problem.mesh.is_constrained, 2).astype(float)
            )
            diagonal = sp.diags(k.diagonal())
            masked = mask @ (k - diagonal) @ mask + diagonal
            self._merged_sweep = MStepSSOR(
                BlockedMatrix.from_matrix(masked, self.ordering, validate=False),
                np.ones(1),
            )
        return self._merged_sweep

    # ------------------------------------------------------- recorded stream
    @functools.cached_property
    def _stream(self) -> ChargeStream:
        """The outer charges of a solve, recorded once per segment.

        Startup: ``u⁰ = 0`` (``fill``), ``r⁰ = f`` (``copy``), then after
        ``M r̃⁰ = r⁰`` the copy ``p⁰ = r̃⁰`` and ``ρ₀``.  Each iteration:
        ``K p`` by diagonals, ``(p, Kp)``, α on the scalar unit, ``α p``
        (``scale``), the ``u`` update (``add``) with ``‖Δu‖∞``
        (``abs_max``), the ``r`` update (``axpy``); then after
        ``M r̃ = r``, ``(r̃, r)``, β and the ``p`` update.  A converged last
        iteration stops at ``‖Δu‖∞``, a broken-down one (``(p, Kp) ≤ 0``)
        at that inner product.
        """
        return ChargeStream(
            startup=(self._record("fill", "copy"), self._record("copy", "dot")),
            iteration=(
                self._record(
                    "matvec", "dot", "scalar", "scale", "add", "abs_max", "axpy"
                ),
                self._record("dot", "scalar", "axpy"),
            ),
            converged=self._record(
                "matvec", "dot", "scalar", "scale", "add", "abs_max"
            ),
            breakdown=self._record("matvec", "dot"),
        )

    def _record(self, *kinds: str) -> Recording:
        """One segment: per kind, ``"matvec"`` (:meth:`_charge_matvec`) or
        one op of that kind at full padded length — an inner product or
        ``abs_max`` with the partial-sum penalty, a ``scalar`` on the
        scalar unit, any other an elementwise vector op."""
        t, n = self.timing, self.n_padded
        seconds = {"dot": t.dot_time(n), "abs_max": t.dot_time(n),
                   "scalar": t.scalar_op_time()}
        recording = Recording()
        for kind in kinds:
            if kind == "matvec":
                self._charge_matvec(recording)
            else:
                recording.charge(kind, seconds.get(kind, t.vector_op_time(n)))
        return recording

    def _application(self, m: int, width: int = 1) -> Recording:
        """One recorded m-step application on an ``(n, width)`` block."""
        return self._stream.recorded(
            (m, width), lambda: self._charge_precondition(Recording(), m, width)
        )

    def _step(self) -> Recording:
        """One recorded non-final step: the first of a two-step sweep (a
        last step adds color 0's closing solve)."""
        first = [p for p in mstep_passes(self.n_groups, 2) if p.s == 1]
        return self._stream.recorded(
            "step", lambda: self._charge_passes(Recording(), first)
        )

    # ------------------------------------------------------------------ solve
    def _system(self):
        """The schedule pass's operator and load: :attr:`k` and the masked
        right-hand side."""
        return self.k, self.f

    def _charged_result(
        self, m: int, parametrized: bool, preconditioned: bool, solve: PCGResult
    ) -> CyberResult:
        """Charge one cell's clock and package the :class:`CyberResult`.

        Replays the recorded stream (:attr:`_stream`,
        :meth:`~repro.machines.charges.ChargeStream.replay`): it depends
        only on ``m``, the iteration count and how the last iteration
        ended — converged, broke down (``(p, Kp) ≤ 0``, so only the
        product and that inner product ran; ``solve.delta_history`` is one
        short) or stopped by ``maxiter`` (a full iteration) — so a cell's
        ledger and clock are the same whichever cells share its pass.
        """
        stream = self._stream
        application = (
            self._application(m)
            if preconditioned
            # r̃ = r: a copy, not preconditioner time
            else stream.recorded("copy", lambda: self._record("copy"))
        )
        log, precond_seconds = stream.replay(application, solve, preconditioned)
        seconds = log.total_seconds()
        return CyberResult(
            label=cell_label(m, parametrized),
            m=m,
            parametrized=parametrized,
            iterations=solve.iterations,
            converged=solve.converged,
            seconds=seconds,
            max_vector_length=self.max_vector_length,
            op_breakdown=log.breakdown(),
            u_natural=self._to_natural(solve.u),
            preconditioner_seconds=precond_seconds,
            outer_seconds=seconds - precond_seconds,
        )

    def _to_natural(self, u_padded_mc: np.ndarray) -> np.ndarray:
        """Padded multicolor vector → reduced natural-ordering solution."""
        mesh = self.problem.mesh
        padded_natural = self.ordering.unpermute_vector(u_padded_mc)
        free_nodes = mesh.unconstrained_nodes
        free_dofs = np.empty(2 * free_nodes.size, dtype=np.int64)
        free_dofs[0::2] = 2 * free_nodes
        free_dofs[1::2] = 2 * free_nodes + 1
        return padded_natural[free_dofs]

    # ------------------------------------------------------------ diagnostics
    def diagonal_counts(self) -> dict[str, int]:
        """Diagonals per block row — the storage scheme of (3.2)."""
        labels = PlateProblem.GROUP_LABELS
        out = {}
        for c in range(self.n_groups):
            total = 1  # D_c itself
            total += sum(s.n_diagonals for s in self.blocks[c].values())
            out[labels[c]] = total
        return out

    def storage_report(self) -> dict[str, int]:
        """Memory footprint in 64-bit words of the diagonal storage scheme.

        The paper's bookkeeping: ≤14 coefficients per equation for the
        matrix (by diagonals, padded constrained slots included) plus the
        working vectors of Algorithms 1–2 (u, r, r̃, p, y and the saved
        K·p), each of full padded length.
        """
        matrix_words = sum(d.shape[0] for d in self.diagonals)
        for row in self.blocks:
            for storage in row.values():
                matrix_words += sum(seg.shape[0] for seg in storage.data)
        vector_words = 6 * self.n_padded  # u, r, r̃, p, y, Kp
        return {
            "matrix_words": int(matrix_words),
            "vector_words": int(vector_words),
            "total_words": int(matrix_words + vector_words),
            "words_per_equation": int(
                round((matrix_words + vector_words) / self.n_padded)
            ),
        }
