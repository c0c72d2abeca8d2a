"""A real distributed-memory (SPMD) execution of Algorithm 1 + Algorithm 3.

Where :class:`~repro.machines.fem_machine.FiniteElementMachine` charges a
*cost model* while computing globally, this engine actually distributes the
data the way Section 3.2 describes and runs per-processor code:

* each processor stores only its owned unknowns, its rows of the permuted
  stiffness matrix (entries in their stored order, columns remapped to a
  local ``[owned | halo]`` layout), and halo buffers for the border values
  it receives;
* every transfer moves through an explicit message plan — (sender-local
  gather indices → receiver-halo positions) per processor pair — at *node*
  granularity (both displacements of a border node travel together, the
  paper's packaged records);
* the m-step SSOR sweep is Algorithm 2's merged pass list
  (:func:`repro.kernels.sweep.mstep_passes`) run color by color on every
  processor, with exchanges at exactly the points Algorithm 3 prescribes:
  after each node color in the forward sweep, and after the Gu and Bu
  solves in the backward sweep (same-node couplings are always
  processor-local, which is why the R pair never needs a backward
  re-send).

:meth:`SPMDSolver.solve` is Algorithm 1 itself, one
:func:`repro.core.pcg.pcg` call over global-vector faces of the two
distributed operations: K·p scatters p, exchanges its borders, runs each
processor's rows and gathers; M⁻¹r scatters r, runs the distributed sweep
and gathers.  Every transfer is booked on the result's own
:class:`MessageLedger`.  Each local row sums its entries in the global
matrix's stored order and each sweep pass solves with the serial sweep's
association, so every distributed product, sweep and solve is **bitwise**
the serial one — ``pcg(blocked.permuted, f, MStepSSOR(blocked, α))`` — on
every processor grid.  The inner products are Algorithm 1's global
fixed-order dots; the FiniteElementMachine charges the sum circuit that
would form them.  The test-suite pins distributed ≡ serial, pins each
solve's iteration count and ledger as literals, and cross-validates the
*measured* message ledger against the static counts the
FiniteElementMachine cost model charges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from repro.core.pcg import pcg
from repro.driver import build_blocked_system
from repro.kernels.sweep import mstep_passes
from repro.machines.cells import normalize_cell
from repro.machines.topology import Assignment
from repro.util import require

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


def _local_rows(ptr, col, val, rows, col_map) -> sp.csr_matrix:
    """Rows ``rows`` of the square CSR ``(ptr, col, val)``, each row's
    entries in stored order, over the local columns ``col_map`` (global
    index → local position, −1 where absent)."""
    a = sp.csr_matrix((val, col, ptr), shape=(len(ptr) - 1,) * 2)[rows]
    cols = col_map[a.indices]
    require(bool(np.all(cols >= 0)), "referenced column missing from halo")
    n_local = int(np.count_nonzero(col_map >= 0))
    return sp.csr_matrix((a.data, cols, a.indptr), shape=(rows.size, n_local))


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
        plan = blocked.sweep_plan
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
            referenced = np.unique(permuted[self.owned_idx[p]].indices)
            remote = referenced[owner_mc[referenced] != p]
            remote_nodes = np.unique(node_of_mc[remote])
            node_mask = np.isin(node_of_mc, remote_nodes) & (owner_mc != p)
            self.halo_idx.append(np.flatnonzero(node_mask))

        # Local rows over columns [owned | halo]: the whole rows for K·p,
        # and per color the serial sweep plan's lower and upper halves
        # with the color's D_c, all in the permuted matrix's stored order.
        # Each half is kept as its csr_matvec arguments, checked once here.
        self.local_k: list[sp.csr_matrix] = []
        self._colors: list[list[tuple]] = []
        for p in range(n_procs):
            owned, halo = self.owned_idx[p], self.halo_idx[p]
            col_map = np.full(self.n, -1, dtype=np.int64)
            col_map[owned] = np.arange(owned.size)
            col_map[halo] = owned.size + np.arange(halo.size)
            self.local_k.append(_local_rows(
                permuted.indptr, permuted.indices, permuted.data, owned, col_map
            ))
            lower, upper = (
                _local_rows(*half, owned, col_map) for half in (plan.lower, plan.upper)
            )
            diag = plan.diag[owned]
            bounds = np.searchsorted(groups_mc[owned], np.arange(self.nc + 1))
            colors = []
            for c in range(self.nc):
                rows = slice(int(bounds[c]), int(bounds[c + 1]))
                halves = tuple(
                    (*h.shape, h.indptr, h.indices, h.data)
                    for h in (lower[rows], upper[rows])
                )
                colors.append((rows, halves, diag[rows]))
            self._colors.append(colors)

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
        return [
            k @ np.concatenate([x, halo])
            for k, x, halo in zip(self.local_k, xd, halos)
        ]

    # -------------------------------------------------------------- m-step SSOR
    def precondition(
        self,
        coefficients: np.ndarray,
        rd: list[np.ndarray],
        ledger: MessageLedger | None = None,
    ) -> list[np.ndarray]:
        """Distributed Algorithm 3: Algorithm 2's merged pass list with the
        border exchanges.

        ``rd`` holds one residual as per-processor ``(owned,)`` vectors and
        ``coefficients`` its ``(m,)`` α schedule.  Every processor runs each
        pass over its rows of the color, and the pass solves
        ``((α·r − y) − acc) / d`` as the serial sweep
        (:func:`repro.kernels.sweep.sweep_numpy`) does.  The node pair
        ``(c − 1, c)`` is sent after each odd color's forward pass, the
        pair ``(c, c + 1)`` after each even color ``c ≥ 2``'s backward
        pass; every exchange is booked on ``ledger`` (see
        :meth:`exchange`).
        """
        coefficients = np.asarray(coefficients, dtype=float)
        m = coefficients.shape[0]
        # rt[p] is processor p's [owned | halo] r̃; exchanges fill its halo.
        rt = [np.zeros(k.shape[1]) for k in self.local_k]
        owned = [x[: r.size] for x, r in zip(rt, rd)]
        halos = [x[r.size :] for x, r in zip(rt, rd)]
        y = [np.zeros_like(r) for r in rd]
        step = 0
        for ps in mstep_passes(self.nc, m):
            if ps.s != step:
                step = ps.s
                ar = [r * coefficients[m - step] for r in rd]
            for p, colors in enumerate(self._colors):
                rows, halves, diag = colors[ps.c]
                acc = np.zeros_like(diag)
                _sparsetools.csr_matvec(*halves[ps.upper], rt[p], acc)
                if ps.do_solve:
                    z = ar[p][rows] - y[p][rows] if ps.use_y else ar[p][rows]
                    rt[p][rows] = (z - acc) / diag
                if ps.store_y:
                    y[p][rows] = acc
                if ps.zero_y:
                    y[p][rows] = 0.0
            if ps.c % 2 == 1 and not ps.upper:
                self.exchange(
                    owned, halos, "precond_fwd", (ps.c - 1, ps.c), ledger
                )
            elif ps.c % 2 == 0 and ps.c >= 2 and ps.upper:
                self.exchange(
                    owned, halos, "precond_bwd", (ps.c, ps.c + 1), ledger
                )
        return owned

    # ------------------------------------------------------------------ solve
    def solve(
        self,
        m: int,
        coefficients: np.ndarray | None = None,
        eps: float = 1e-6,
        maxiter: int | None = None,
    ) -> SPMDResult:
        """Algorithm 1 for one ``(m, coefficients)`` cell, distributed.

        One :func:`repro.core.pcg.pcg` call whose K·p and M⁻¹r run on the
        processors (``m = 0`` is plain CG), so the iterate, iteration count
        and convergence are bitwise the serial solve's.  The result owns a
        fresh :class:`MessageLedger`: a second solve on the same solver
        reports its own traffic, not a running total.
        """
        coefficients, _ = normalize_cell(m, coefficients)
        ledger = MessageLedger()
        f_mc = self.ordering.permute_vector(np.asarray(self.problem.f, dtype=float))
        result = pcg(
            _Product(self, ledger),
            f_mc,
            preconditioner=None if m == 0 else _Sweep(self, coefficients, ledger),
            eps=eps,
            maxiter=maxiter,
        )
        return SPMDResult(
            iterations=result.iterations,
            converged=result.converged,
            u_natural=self.ordering.unpermute_vector(result.u),
            ledger=ledger,
            n_procs=self.n_procs,
        )


class _Product:
    """K·x on global vectors: scatter, :meth:`SPMDSolver.matvec`, gather."""

    def __init__(self, solver: SPMDSolver, ledger: MessageLedger):
        self.solver, self.ledger = solver, ledger
        self.shape = (solver.n, solver.n)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        s = self.solver
        return s.gather(s.matvec(s.scatter(x), s.new_halos(), ledger=self.ledger))


class _Sweep:
    """M⁻¹r on global vectors: scatter, :meth:`SPMDSolver.precondition`,
    gather."""

    def __init__(self, solver: SPMDSolver, coefficients, ledger: MessageLedger):
        self.solver, self.coefficients, self.ledger = solver, coefficients, ledger

    def apply(self, r: np.ndarray) -> np.ndarray:
        s = self.solver
        rd = s.precondition(self.coefficients, s.scatter(r), ledger=self.ledger)
        return s.gather(rd)
