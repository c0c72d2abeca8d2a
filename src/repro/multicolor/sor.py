"""Multicolor SOR sweeps and the m-step SSOR application (Algorithm 2).

The SSOR iteration under a multicolor ordering is a forward followed by a
backward multicolor SOR sweep.  The Conrad–Wallach (1979) technique stores
the partial neighbor sums computed in each half sweep in an auxiliary vector
``y`` so the double sweep costs only one sweep's worth of off-diagonal block
multiplies — ``nc·(nc−1)`` of them per preconditioner step, exactly as the
paper claims ("only as expensive as one Multicolor SOR iteration").

:class:`MStepSSOR` applies

```
M_m⁻¹ r = (α₀ I + α₁ G + … + α_{m−1} G^{m−1}) P⁻¹ r        (2.6)
```

for the SSOR splitting (ω = 1) via the Horner recurrence
``r̃ ← G r̃ + P⁻¹ (α_{m−s} r)``, ``s = 1…m``, each step realized as the
Conrad–Wallach double sweep with right-hand side ``α_{m−s}·r``.  The
published loop bounds are OCR-damaged in the scan; the version here is the
mathematically forced one:

* backward sweeps run over the interior colors ``nc−2 … 1`` — the last
  color's backward solve has identical inputs to its forward solve, and the
  first color's backward solve would be overwritten unread by the next
  forward sweep;
* after each backward sweep the first color's *upper* neighbor sum is
  computed and saved (it feeds the next forward sweep's first solve), and
  the last color's saved sum is reset to the empty upper sum;
* after the final step the first color receives its closing solve with
  coefficient α₀ — the paper's explicit step (3)
  ``D₁ r̃₁ = −Σ_{j≥2} B₁ⱼ r̃ⱼ + y + α₀ r₁``.

``apply_reference`` implements the same operator transparently (full
forward + backward sweeps per step) and the test-suite proves the two paths
agree to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.kernels._native import load_native
from repro.kernels.sweep import apply_sweep
from repro.kernels.workspace import WorkspacePool
from repro.multicolor.blocked import BlockedMatrix
from repro.util import OperationCounter, inf_norm, require

__all__ = [
    "sor_forward_sweep",
    "sor_backward_sweep",
    "ssor_iteration",
    "multicolor_sor_solve",
    "MStepSSOR",
]


def _group_views(blocked: BlockedMatrix, x: np.ndarray) -> list[np.ndarray]:
    return [x[s] for s in blocked.group_slices]


def _block_sum(pairs, x_groups: list[np.ndarray], n: int) -> np.ndarray:
    """``Σ B_cj x_j`` over a cached ``(j, block)`` list (length-``n`` rows).

    Seeding the accumulator with the first product (instead of zeros)
    saves one vector pass per call.
    """
    if not pairs:
        return np.zeros(n)
    j0, b0 = pairs[0]
    acc = b0 @ x_groups[j0]
    for j, block in pairs[1:]:
        acc += block @ x_groups[j]
    return acc


def _sor_sweep(blocked, x, b, omega, counter, colors) -> None:
    """One multicolor SOR sweep over ``colors``, updating ``x`` in place."""
    xg = _group_views(blocked, x)
    bg = _group_views(blocked, b)
    offdiag = blocked.offdiag_block_list
    for c in colors:
        acc = _block_sum(offdiag[c], xg, blocked.diagonals[c].shape[0])
        update = (bg[c] - acc) / blocked.diagonals[c]
        if omega == 1.0:
            xg[c][:] = update
        else:
            xg[c][:] = (1.0 - omega) * xg[c] + omega * update
        if counter is not None:
            counter.extra["block_multiplies"] = (
                counter.extra.get("block_multiplies", 0) + len(blocked.blocks[c])
            )
            counter.extra["diag_solves"] = counter.extra.get("diag_solves", 0) + 1


def sor_forward_sweep(
    blocked: BlockedMatrix,
    x: np.ndarray,
    b: np.ndarray,
    omega: float = 1.0,
    counter: OperationCounter | None = None,
) -> None:
    """One forward multicolor SOR sweep, updating ``x`` in place.

    For each color ``c`` in increasing order:
    ``x_c ← (1−ω)·x_c + ω·D_c⁻¹(b_c − Σ_{j≠c} B_cj x_j)`` with the lower
    colors already holding their new values.
    """
    _sor_sweep(blocked, x, b, omega, counter, range(blocked.n_groups))


def sor_backward_sweep(
    blocked: BlockedMatrix,
    x: np.ndarray,
    b: np.ndarray,
    omega: float = 1.0,
    counter: OperationCounter | None = None,
) -> None:
    """One backward multicolor SOR sweep (colors in decreasing order)."""
    _sor_sweep(blocked, x, b, omega, counter, reversed(range(blocked.n_groups)))


def ssor_iteration(
    blocked: BlockedMatrix,
    x: np.ndarray,
    b: np.ndarray,
    omega: float = 1.0,
    counter: OperationCounter | None = None,
) -> None:
    """One (naive) SSOR iteration: forward then backward sweep, in place.

    This is the transparent double sweep — 2·nc·(nc−1) block multiplies —
    used as the reference against which the Conrad–Wallach path is verified.
    """
    sor_forward_sweep(blocked, x, b, omega, counter)
    sor_backward_sweep(blocked, x, b, omega, counter)


def multicolor_sor_solve(
    blocked: BlockedMatrix,
    b: np.ndarray,
    omega: float = 1.0,
    tol: float = 1e-10,
    maxiter: int = 10_000,
    x0: np.ndarray | None = None,
) -> tuple[np.ndarray, int, bool]:
    """Solve ``K x = b`` by multicolor SOR (Adams–Ortega 1982).

    Returns ``(x, iterations, converged)``; convergence is declared when the
    sweep changes no component by more than ``tol`` in absolute value.  SOR
    converges for SPD matrices whenever ``0 < ω < 2``.
    """
    require(0.0 < omega < 2.0, "SOR requires 0 < ω < 2 for SPD convergence")
    x = np.zeros_like(b, dtype=float) if x0 is None else np.array(x0, dtype=float)
    for iteration in range(1, maxiter + 1):
        previous = x.copy()
        sor_forward_sweep(blocked, x, b, omega)
        if inf_norm(x - previous) < tol:
            return x, iteration, True
    return x, maxiter, False


@dataclass
class MStepSSOR:
    """m-step (optionally parametrized) multicolor SSOR application.

    Parameters
    ----------
    blocked:
        The blocked color system.
    coefficients:
        ``(α₀, …, α_{m−1})`` of (2.6).  All ones reproduces the
        unparametrized m-step preconditioner (2.2).
    """

    blocked: BlockedMatrix
    coefficients: np.ndarray
    counter: OperationCounter = field(default_factory=OperationCounter)
    workspace: WorkspacePool = field(default_factory=WorkspacePool, repr=False)

    #: ``(n, k)`` block applications are per-column bitwise identical to
    #: single-vector ones (see :func:`repro.core.pcg.block_pcg`).
    block_capable = True

    def __post_init__(self) -> None:
        # Contiguous: the compiled walker reads the α's through a pointer.
        self.coefficients = np.ascontiguousarray(self.coefficients, dtype=float)
        require(self.coefficients.ndim == 1, "coefficients must be a vector")
        require(self.coefficients.size >= 1, "need at least one step (m ≥ 1)")

    @property
    def m(self) -> int:
        return int(self.coefficients.size)

    # ------------------------------------------------------- fast application
    def apply(self, r: np.ndarray) -> np.ndarray:
        """``M_m⁻¹ r`` via the Conrad–Wallach merged sweeps (Algorithm 2).

        Accepts a vector ``(n,)`` or an ``(n, k)`` block of right-hand
        sides (one batched pass, per-column bit-identical to single
        applications); counters are charged **per column**, so a block
        application books exactly what ``k`` solo applications would.
        One compiled call runs the whole schedule off the system's
        :attr:`~repro.multicolor.blocked.BlockedMatrix.sweep_plan` when
        the kernel pack loads; otherwise its numpy twin walks the same
        plan (:func:`repro.kernels.sweep.sweep_numpy`), with the same
        bits.  Either way the buffers are pooled, so a PCG solve's steady
        state allocates nothing here.  The returned array is a pooled
        buffer, valid until the next application on this object — copy it
        if it must outlive that.
        """
        return self.apply_schedule(self.coefficients, r)

    def apply_schedule(self, coefficients: np.ndarray, r: np.ndarray) -> np.ndarray:
        """:meth:`apply` with a per-call α schedule instead of the bound one.

        ``coefficients`` is ``(m,)`` — one schedule for every right-hand
        side — or ``(m, k)`` for an ``(n, k)`` block ``r`` whose columns
        carry *different* schedules (the batched Table-2 and Table-3 cells
        of :meth:`repro.machines.charges.ChargedMachine.solve_schedule`).
        The α's enter only through the per-step ``α·r`` product, column by
        column, so each column's arithmetic is bit-identical to a
        single-vector application with its own schedule.  A shorter
        schedule zero-padded at the top is too: its column solves only
        zeros until its own first step, and the sums stashed for that
        step land on a zero accumulator, so they are +0.
        """
        return apply_sweep(
            self, self.blocked.sweep_plan, load_native(), coefficients, r
        )

    # -------------------------------------------------- reference application
    def apply_reference(self, r: np.ndarray) -> np.ndarray:
        """``M_m⁻¹ r`` via explicit Horner steps with full SSOR double sweeps.

        ``r̃ ← G r̃ + P⁻¹(α_{m−s} r)`` where one stationary step on
        ``K z = α r`` *is* the forward+backward sweep pair.  Used by tests to
        pin down :meth:`apply`; twice the block multiplies, same result.
        """
        r = np.asarray(r, dtype=float)
        rt = np.zeros_like(r)
        m = self.m
        for s in range(1, m + 1):
            ssor_iteration(self.blocked, rt, self.coefficients[m - s] * r)
        return rt

    def as_dense_operator(self) -> np.ndarray:
        """Materialize ``M_m⁻¹`` by applying it to unit vectors (tests only)."""
        n = self.blocked.n
        out = np.empty((n, n))
        eye = np.eye(n)
        for col in range(n):
            out[:, col] = self.apply(eye[:, col])
        return out
