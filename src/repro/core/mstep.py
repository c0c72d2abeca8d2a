"""The m-step preconditioner ``M_m`` of Section 2 (equations 2.2 / 2.6).

``M_m⁻¹ = (α₀ I + α₁ G + … + α_{m−1} G^{m−1}) P⁻¹`` for a splitting
``K = P − Q`` with ``G = P⁻¹Q``.  Setting every ``αᵢ = 1`` recovers the
unparametrized preconditioner (2.2) — "m steps of the iterative method" —
and for the Jacobi splitting the truncated Neumann series.

Application uses the Horner recurrence the paper builds Algorithm 2 around:

```
r̃ ← 0;  repeat m times (s = 1 … m):  r̃ ← G r̃ + α_{m−s} · P⁻¹ r
```

costing one ``P⁻¹`` solve up front plus ``(m−1)`` products with ``K`` and
``(m−1)`` further ``P⁻¹`` solves.  ``M_m`` is symmetric whenever ``P`` is
(Adams 1982 gives the precise SPD conditions; for the SSOR splitting with
0 < ω < 2 they hold, and positivity on the spectrum is checked separately by
:func:`repro.core.polynomial.fit_report`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.splittings import Splitting
from repro.kernels import WorkspacePool, matvec_into
from repro.util import OperationCounter, require

__all__ = ["MStepPreconditioner", "IdentityPreconditioner"]


@dataclass
class IdentityPreconditioner:
    """``M = I`` — plain conjugate gradients ("K = I" in the paper).

    Accepts ``(n,)`` vectors or ``(n, k)`` blocks; block applications
    charge one ``precond_applications`` per column, so
    :func:`repro.core.pcg.block_pcg` counters reconcile column for column
    with independent solves.
    """

    #: Block applications are per-column bitwise identical to single ones.
    block_capable = True

    counter: OperationCounter = field(default_factory=OperationCounter)

    def apply(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        self.counter.precond_applications += 1 if r.ndim == 1 else int(r.shape[1])
        return r.copy()

    @property
    def m(self) -> int:
        return 0


class MStepPreconditioner:
    """Generic (splitting-based) m-step preconditioner.

    Parameters
    ----------
    splitting:
        The splitting providing ``P⁻¹`` and ``G``.  Must be symmetric for
        use inside PCG (checked; pass ``allow_nonsymmetric=True`` only for
        experiments outside PCG).
    coefficients:
        ``(α₀, …, α_{m−1})``; use ``np.ones(m)`` for the unparametrized
        method (2.2).
    """

    def __init__(
        self,
        splitting: Splitting,
        coefficients: np.ndarray,
        allow_nonsymmetric: bool = False,
    ):
        coefficients = np.atleast_1d(np.asarray(coefficients, dtype=float))
        require(coefficients.ndim == 1 and coefficients.size >= 1,
                "coefficients must be a non-empty vector")
        if not splitting.symmetric and not allow_nonsymmetric:
            raise ValueError(
                f"{splitting.name} splitting gives a nonsymmetric M; PCG requires "
                "symmetric positive definite preconditioning (Section 2.1)"
            )
        self.splitting = splitting
        self.coefficients = coefficients
        self.counter = OperationCounter()
        self._workspace = WorkspacePool()

    #: Block applications are per-column bitwise identical to single ones
    #: (see :func:`repro.core.pcg.block_pcg`).
    block_capable = True

    @property
    def m(self) -> int:
        return int(self.coefficients.size)

    def apply(self, r: np.ndarray) -> np.ndarray:
        """``M_m⁻¹ r`` via the Horner recurrence.

        Accepts a vector ``(n,)`` or a block of right-hand sides ``(n, k)``
        (applied column-wise in one batched pass); counters are charged
        per column.  The steady state runs entirely out of preallocated
        workspace buffers; the returned array is one of them and stays
        valid until the next ``apply`` call — copy it if it must outlive
        that.
        """
        r = np.asarray(r, dtype=float)
        ncols = 1 if r.ndim == 1 else int(r.shape[1])
        coefficients = self.coefficients
        m = self.m
        ws = self._workspace
        q = self.splitting.apply_p_inv(r, out=ws.get("q", r.shape))
        rt = ws.get("rt", r.shape)
        np.multiply(q, coefficients[m - 1], out=rt)
        kv = ws.get("kv", r.shape)
        pv = ws.get("pv", r.shape)
        for s in range(2, m + 1):
            matvec_into(self.splitting.k, rt, kv)
            gz = self.splitting.apply_p_inv(kv, out=pv)
            rt -= gz
            np.multiply(q, coefficients[m - s], out=kv)
            rt += kv
        counter = self.counter
        counter.precond_applications += ncols
        counter.precond_steps += m * ncols
        counter.extra["p_solves"] = counter.extra.get("p_solves", 0) + m * ncols
        counter.extra["inner_matvecs"] = (
            counter.extra.get("inner_matvecs", 0) + (m - 1) * ncols
        )
        return rt

    def as_dense_operator(self) -> np.ndarray:
        """Materialize ``M_m⁻¹`` in one batched application (analysis/tests)."""
        n = self.splitting.n
        return self.apply(np.eye(n)).copy()
