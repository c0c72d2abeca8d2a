"""A real distributed-memory (SPMD) execution of Algorithm 1 + Algorithm 3.

Where :class:`~repro.machines.fem_machine.FiniteElementMachine` charges a
*cost model* while computing globally, this engine actually distributes the
data the way Section 3.2 describes and runs per-processor code:

* each processor stores only its owned unknowns, its stencil rows (columns
  remapped to a local ``[owned | halo]`` layout), and halo buffers for the
  border values it receives;
* every transfer moves through an explicit message plan — (sender-local
  gather indices → receiver-halo positions) per processor pair — at *node*
  granularity (both displacements of a border node travel together, the
  paper's packaged records);
* the m-step SSOR sweep runs color phase by color phase with exchanges at
  exactly the points Algorithm 3 prescribes: after each node color in the
  forward sweep, and after the Gu and Bu solves in the backward sweep
  (same-node couplings are always processor-local, which is why the R pair
  never needs a backward re-send);
* inner products are computed as per-processor partials added one at a
  time in rank order — a deterministic simulation of the machine's global
  sum that does not depend on how the interpreter sums a sequence.

:meth:`SPMDSolver.solve` runs one cell of Algorithm 1 on per-processor
vectors and books every transfer on a :class:`MessageLedger` of its own.
Because local row kernels sum their columns in a *different order* than the
global solver, iterates agree with the reference only to roundoff; the
test-suite pins iteration counts within ±2 and solutions to ~1e-6, pins
each solve's iteration count and ledger as literals, and — more
importantly — cross-validates the *measured* message ledger against the
static counts the FiniteElementMachine cost model charges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.driver import build_blocked_system
from repro.kernels.ops import matvec_accumulate
from repro.machines.cells import normalize_cell
from repro.machines.topology import Assignment
from repro.util import inner, require

__all__ = ["SPMDSolver", "SPMDResult", "MessageLedger"]


@dataclass
class MessageLedger:
    """Words actually moved, by phase kind and directed pair."""

    words_by_kind: dict[str, int] = field(default_factory=dict)
    words_by_pair: dict[tuple[int, int], int] = field(default_factory=dict)
    messages: int = 0

    def log(self, kind: str, src: int, dst: int, n_words: int) -> None:
        if n_words <= 0:
            return
        self.messages += 1
        self.words_by_kind[kind] = self.words_by_kind.get(kind, 0) + n_words
        key = (src, dst)
        self.words_by_pair[key] = self.words_by_pair.get(key, 0) + n_words

    @property
    def total_words(self) -> int:
        return sum(self.words_by_kind.values())


@dataclass
class SPMDResult:
    iterations: int
    converged: bool
    u_natural: np.ndarray
    ledger: MessageLedger
    n_procs: int


class _Plan:
    """One directed transfer: gather from the owner, fill the halo."""

    __slots__ = ("src", "dst", "src_local", "dst_halo", "groups")

    def __init__(self, src, dst, src_local, dst_halo, groups):
        self.src = src
        self.dst = dst
        self.src_local = src_local  # indices into owner's owned array
        self.dst_halo = dst_halo  # indices into receiver's halo array
        self.groups = groups  # color group of each transferred value


class SPMDSolver:
    """Distributed m-step multicolor SSOR PCG on an :class:`Assignment`."""

    def __init__(self, problem, assignment: Assignment, blocked=None):
        self.problem = problem
        self.assignment = assignment
        blocked = blocked if blocked is not None else build_blocked_system(problem)
        self.blocked = blocked
        ordering = blocked.ordering
        self.ordering = ordering
        self.n = blocked.n
        self.nc = ordering.n_groups
        n_procs = assignment.n_procs
        self.n_procs = n_procs

        permuted = blocked.permuted.tocsr()
        groups_mc = np.sort(ordering.groups)  # group of each multicolor index

        owner_mc = assignment.proc_of_unknown[ordering.perm]
        self.owned_idx = [
            np.flatnonzero(owner_mc == p) for p in range(n_procs)
        ]
        # local position of each multicolor index within its owner
        local_pos = np.empty(self.n, dtype=np.int64)
        for p in range(n_procs):
            local_pos[self.owned_idx[p]] = np.arange(self.owned_idx[p].size)

        # Node-granular halo: referenced remote indices, closed over (u, v)
        # pairs of the same node (the paper's packaged records).
        mesh = problem.mesh
        node_of_mc = mesh.dof_node[ordering.perm]
        self.halo_idx: list[np.ndarray] = []
        for p in range(n_procs):
            rows = permuted[self.owned_idx[p]]
            referenced = np.unique(rows.tocoo().col)
            remote = referenced[owner_mc[referenced] != p]
            remote_nodes = np.unique(node_of_mc[remote])
            node_mask = np.isin(node_of_mc, remote_nodes) & (owner_mc != p)
            self.halo_idx.append(np.flatnonzero(node_mask))

        # Local matrices: rows owned by p over columns [owned | halo].
        self.local_k: list[sp.csr_matrix] = []
        self.local_col_groups: list[np.ndarray] = []
        self.local_diag: list[np.ndarray] = []
        self.rows_of_group: list[list[np.ndarray]] = []
        for p in range(n_procs):
            owned = self.owned_idx[p]
            halo = self.halo_idx[p]
            col_map = -np.ones(self.n, dtype=np.int64)
            col_map[owned] = np.arange(owned.size)
            col_map[halo] = owned.size + np.arange(halo.size)
            rows = permuted[owned].tocoo()
            keep = col_map[rows.col] >= 0
            require(bool(np.all(keep)), "referenced column missing from halo")
            local = sp.csr_matrix(
                (rows.data, (rows.row, col_map[rows.col])),
                shape=(owned.size, owned.size + halo.size),
            )
            self.local_k.append(local)
            self.local_col_groups.append(
                np.concatenate([groups_mc[owned], groups_mc[halo]])
                if owned.size + halo.size
                else np.empty(0, dtype=np.int64)
            )
            self.local_diag.append(permuted[owned][:, owned].diagonal().copy())
            rg = groups_mc[owned]
            self.rows_of_group.append(
                [np.flatnonzero(rg == c) for c in range(self.nc)]
            )

        # Per-processor, per-row-color, per-column-group sweep blocks.
        self.sweep_blocks: list[list[dict[int, sp.csr_matrix]]] = []
        for p in range(n_procs):
            per_color: list[dict[int, sp.csr_matrix]] = []
            col_groups = self.local_col_groups[p]
            for c in range(self.nc):
                rows_c = self.rows_of_group[p][c]
                row_block = self.local_k[p][rows_c]
                blocks: dict[int, sp.csr_matrix] = {}
                for j in range(self.nc):
                    if j == c:
                        # Same-group coupling is the diagonal only (proper
                        # coloring); it is applied through local_diag.
                        continue
                    cols = np.flatnonzero(col_groups == j)
                    if cols.size == 0:
                        continue
                    sub = row_block[:, cols].tocsr()
                    if sub.nnz:
                        blocks[j] = sub
                per_color.append(blocks)
            self.sweep_blocks.append(per_color)

        # Column selections per group (for gathering sweep inputs).
        self.cols_of_group: list[list[np.ndarray]] = [
            [np.flatnonzero(self.local_col_groups[p] == j) for j in range(self.nc)]
            for p in range(n_procs)
        ]

        # Message plans per directed pair.
        self.plans: list[_Plan] = []
        for p in range(n_procs):
            halo = self.halo_idx[p]
            if halo.size == 0:
                continue
            halo_owner = owner_mc[halo]
            for q in range(n_procs):
                sel = np.flatnonzero(halo_owner == q)
                if sel.size == 0:
                    continue
                src_local = local_pos[halo[sel]]
                self.plans.append(
                    _Plan(
                        src=q,
                        dst=p,
                        src_local=src_local,
                        dst_halo=sel,
                        groups=groups_mc[halo[sel]],
                    )
                )

        # Each plan's (src_local, dst_halo) selection per color-group set,
        # made on the first exchange of that set (see _transfers).
        self._selections: dict = {}

        # Sink of direct exchange/matvec/precondition calls; every solve
        # result books onto a ledger of its own.
        self.ledger = MessageLedger()

    # ------------------------------------------------------------ primitives
    def scatter(self, x_mc: np.ndarray) -> list[np.ndarray]:
        return [np.array(x_mc[idx], dtype=float) for idx in self.owned_idx]

    def gather(self, xd: list[np.ndarray]) -> np.ndarray:
        out = np.empty(self.n)
        for p, idx in enumerate(self.owned_idx):
            out[idx] = xd[p]
        return out

    def new_halos(self) -> list[np.ndarray]:
        """Fresh ``(halo,)`` buffers, one per processor."""
        return [np.zeros(idx.size) for idx in self.halo_idx]

    def exchange(
        self,
        xd: list[np.ndarray],
        halos: list[np.ndarray],
        kind: str,
        groups=None,
        ledger: MessageLedger | None = None,
    ) -> None:
        """Fill halo buffers from owners; optionally only some color groups.

        Every transfer is booked on ``ledger`` — by default the solver's
        own; a solve hands in the ledger of its result.
        """
        if ledger is None:
            ledger = self.ledger
        for plan, src_sel, dst_sel in self._transfers(groups):
            halos[plan.dst][dst_sel] = xd[plan.src][src_sel]
            ledger.log(kind, plan.src, plan.dst, src_sel.size)

    def _transfers(self, groups) -> list[tuple[_Plan, np.ndarray, np.ndarray]]:
        """Every plan that moves a value of ``groups`` (all groups when
        ``None``) with its ``(src_local, dst_halo)`` selection, computed
        once per group set: the sweep refreshes the same color pairs on
        every step."""
        key = None if groups is None else tuple(groups)
        transfers = self._selections.get(key)
        if transfers is None:
            transfers = []
            for plan in self.plans:
                if key is None:
                    transfers.append((plan, plan.src_local, plan.dst_halo))
                    continue
                mask = np.isin(plan.groups, key)
                if np.any(mask):
                    transfers.append(
                        (plan, plan.src_local[mask], plan.dst_halo[mask])
                    )
            self._selections[key] = transfers
        return transfers

    def matvec(
        self,
        xd: list[np.ndarray],
        halos: list[np.ndarray],
        ledger: MessageLedger | None = None,
    ) -> list[np.ndarray]:
        self.exchange(xd, halos, kind="p_exchange", ledger=ledger)
        out = []
        for p in range(self.n_procs):
            local = (
                np.concatenate([xd[p], halos[p]]) if halos[p].size else xd[p]
            )
            out.append(self.local_k[p] @ local)
        return out

    def dot(self, xd: list[np.ndarray], yd: list[np.ndarray]) -> float:
        # Each processor's partial is the fixed-order local dot; the
        # partials then add one at a time in rank order (builtin ``sum``
        # compensates float sums from Python 3.12 on).
        total = 0.0
        for p in range(self.n_procs):
            total += inner(xd[p], yd[p])
        return total

    def axpy(self, alpha: float, xd, yd) -> list[np.ndarray]:
        return [yd[p] + alpha * xd[p] for p in range(self.n_procs)]

    def inf_norm(self, xd) -> float:
        # The flag network: each processor tests its own portion; the global
        # verdict is the max of local maxima.
        return max(
            (float(np.max(np.abs(x))) if x.size else 0.0) for x in xd
        )

    # -------------------------------------------------------------- m-step SSOR
    def _solve_color(self, p, c, x_sum, y_c, alpha, rd):
        rows_c = self.rows_of_group[p][c]
        return (x_sum + y_c + alpha * rd[p][rows_c]) / self.local_diag[p][rows_c]

    def _row_sum(self, p, c, rt_full, js) -> np.ndarray:
        # The same per-color accumulation the kernel layer's color-block
        # sweeps run, here over each processor's local sub-blocks: scipy's
        # compiled CSR matvec accumulates straight into the sum (identical
        # arithmetic to `acc += block @ x`, one temporary less per block).
        acc = np.zeros(self.rows_of_group[p][c].size)
        for j in js:
            block = self.sweep_blocks[p][c].get(j)
            if block is not None:
                matvec_accumulate(block, rt_full[self.cols_of_group[p][j]], acc)
        return acc

    def precondition(
        self,
        coefficients: np.ndarray,
        rd: list[np.ndarray],
        ledger: MessageLedger | None = None,
    ) -> list[np.ndarray]:
        """Distributed Algorithm 3 (merged Conrad–Wallach sweeps).

        ``rd`` holds one residual as per-processor ``(owned,)`` vectors and
        ``coefficients`` its ``(m,)`` α schedule; every exchange is booked
        on ``ledger`` (see :meth:`exchange`).
        """
        nc = self.nc
        coefficients = np.asarray(coefficients, dtype=float)
        m = coefficients.shape[0]
        n_procs = self.n_procs
        rt = [np.zeros_like(rd[p]) for p in range(n_procs)]
        halos = self.new_halos()
        # rt_full[p]: local [owned | halo] view of r̃, refreshed lazily.
        rt_full = [
            np.concatenate([rt[p], halos[p]]) if halos[p].size else rt[p].copy()
            for p in range(n_procs)
        ]
        y = [
            [np.zeros(self.rows_of_group[p][c].size) for c in range(nc)]
            for p in range(n_procs)
        ]

        def refresh(groups, kind):
            self.exchange(rt, halos, kind=kind, groups=groups, ledger=ledger)
            for p in range(n_procs):
                owned_count = self.owned_idx[p].size
                if halos[p].size:
                    rt_full[p][:owned_count] = rt[p]
                    rt_full[p][owned_count:] = halos[p]
                else:
                    rt_full[p][:] = rt[p]

        def set_color(p, c, values):
            rows_c = self.rows_of_group[p][c]
            rt[p][rows_c] = values
            rt_full[p][rows_c] = values

        for s in range(1, m + 1):
            alpha = float(coefficients[m - s])
            # ---- forward sweep, exchanging after each node-color pair ----
            for c in range(nc):
                for p in range(n_procs):
                    x = -self._row_sum(p, c, rt_full[p], range(c))
                    set_color(p, c, self._solve_color(p, c, x, y[p][c], alpha, rd))
                    y[p][c] = x
                if c % 2 == 1:  # node-color pair (c−1, c) complete
                    refresh(groups=[c - 1, c], kind="precond_fwd")
            # ---- backward sweep over interior colors -------------------
            for c in range(nc - 2, 0, -1):
                for p in range(n_procs):
                    x = -self._row_sum(p, c, rt_full[p], range(c + 1, nc))
                    set_color(p, c, self._solve_color(p, c, x, y[p][c], alpha, rd))
                    y[p][c] = x
                if c % 2 == 0:  # after Gu (c = nc−2) and Bu (c = 2) solves
                    refresh(groups=[c, c + 1], kind="precond_bwd")
            for p in range(n_procs):
                y[p][nc - 1] = np.zeros(self.rows_of_group[p][nc - 1].size)
            # ---- first color: close the step or prepare the next -------
            for p in range(n_procs):
                x = -self._row_sum(p, 0, rt_full[p], range(1, nc))
                if s == m:
                    rows_0 = self.rows_of_group[p][0]
                    values = (x + alpha * rd[p][rows_0]) / self.local_diag[p][rows_0]
                    set_color(p, 0, values)
                else:
                    y[p][0] = x
        return rt

    # ------------------------------------------------------------------ solve
    def solve(
        self,
        m: int,
        coefficients: np.ndarray | None = None,
        eps: float = 1e-6,
        maxiter: int | None = None,
    ) -> SPMDResult:
        """Algorithm 1 for one ``(m, coefficients)`` cell, distributed.

        Every vector lives as per-processor pieces, inner products are
        rank-order reductions (:meth:`dot`) and the stop test is the flag
        network's max of local maxima (:meth:`inf_norm`).  The result owns
        a fresh :class:`MessageLedger`: a second solve on the same solver
        reports its own traffic, not a running total.
        """
        coefficients, _ = normalize_cell(m, coefficients)
        ledger = MessageLedger()
        n_procs = self.n_procs
        f_mc = self.ordering.permute_vector(np.asarray(self.problem.f, dtype=float))
        maxiter = maxiter if maxiter is not None else 5 * self.n + 100

        def precondition(rd):
            if m == 0:
                return [x.copy() for x in rd]
            return self.precondition(coefficients, rd, ledger=ledger)

        # Startup: u⁰ = 0, r⁰ = f, r̃⁰ = M⁻¹r⁰, p⁰ = r̃⁰, ρ₀.
        rd = self.scatter(f_mc)
        ud = [np.zeros_like(x) for x in rd]
        rtd = precondition(rd)
        pd = [x.copy() for x in rtd]
        rho = self.dot(rtd, rd)

        iterations, converged = 0, False
        for iterations in range(1, maxiter + 1):
            kpd = self.matvec(pd, self.new_halos(), ledger=ledger)
            denom = self.dot(pd, kpd)
            if denom <= 0.0:
                converged = rho == 0.0
                break
            alpha = rho / denom
            stepd = [alpha * pd[p] for p in range(n_procs)]
            ud = self.axpy(1.0, stepd, ud)
            if self.inf_norm(stepd) < eps:
                converged = True
                break
            rd = self.axpy(-alpha, kpd, rd)
            rtd = precondition(rd)
            rho_new = self.dot(rtd, rd)
            beta = rho_new / rho
            rho = rho_new
            pd = self.axpy(beta, pd, rtd)

        return SPMDResult(
            iterations=iterations,
            converged=converged,
            u_natural=self.ordering.unpermute_vector(self.gather(ud)),
            ledger=ledger,
            n_procs=n_procs,
        )
