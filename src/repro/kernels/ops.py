"""Fused, allocation-free vector primitives.

The outer PCG iteration and the Horner recurrence of the m-step
preconditioner are built from three updates — ``y ← y + α·x`` (axpy),
``y ← x + β·y`` (xpay) and ``out ← K·x`` — which naive numpy spells as
``y += alpha * x`` etc., allocating a temporary per call.  These helpers
perform the same arithmetic through ``np.multiply(..., out=)`` or in
compiled code, so the steady-state iteration touches only preallocated
buffers.

All results are bit-identical to the naive spellings: they execute the
same elementary operations in the same order (IEEE addition is
commutative, so ``β·y + x`` equals ``x + β·y`` bitwise).
:func:`bind_cg_updates` fuses Algorithm 1's axpy and xpay updates with
the fixed-order dot (:func:`repro.util.column_dots`) over resident
``(n, a)`` blocks — compiled where the kernel pack loads, numpy
otherwise, bitwise the same.  :func:`matvec_into` runs a CSR block
product of 2–8 columns as one compiled call (``csr_product``), which
sums each row in scipy's ``csr_matvecs`` order.  Blocks wider than
:data:`~repro.kernels._native.BLOCK_WIDTH` take the numpy and scipy
paths: :func:`repro.core.pcg.block_pcg` never makes them.
"""

from __future__ import annotations

import ctypes
import weakref

import numpy as np
import scipy.sparse as sp

from repro.kernels._native import BLOCK_WIDTH, load_native, pointer
from repro.util.linalg import dots_numpy

try:  # scipy's compiled CSR kernels; absent only on exotic builds.
    from scipy.sparse import _sparsetools as _csr_tools

    _csr_matvec = _csr_tools.csr_matvec
    _csr_matvecs = getattr(_csr_tools, "csr_matvecs", None)
except (ImportError, AttributeError):  # pragma: no cover - fallback guard
    _csr_matvec = None
    _csr_matvecs = None

__all__ = [
    "axpy",
    "bind_cg_updates",
    "row_scale",
    "supports_matvec_into",
    "supports_matvec_block",
    "matvec_into",
    "matvec_accumulate",
]


def axpy(alpha: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``y + α·x`` with a single temporary (the result itself)."""
    out = np.multiply(x, alpha)
    out += y
    return out


def row_scale(x: np.ndarray, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Scale the rows of ``x`` by the vector ``v``; works on (n,) and (n, k)."""
    scale = v if x.ndim == 1 else v[:, None]
    if out is None:
        return x * scale
    np.multiply(x, scale, out=out)
    return out


def supports_matvec_into(a, x: np.ndarray, out: np.ndarray) -> bool:
    """Whether :func:`matvec_into` has a zero-allocation path for ``a @ x``."""
    if isinstance(a, np.ndarray):
        return True
    if not sp.issparse(a) and callable(getattr(a, "matvec_into", None)):
        # Matrix-free operators (repro.kernels.stencil.StencilOperator)
        # bring their own fused in-place product.
        return True
    return _csr_fits(a, x, out)


def supports_matvec_block(a) -> bool:
    """Whether ``a @ X`` on an ``(n, k)`` block is per-column bitwise safe.

    True for float64 CSR with scipy's compiled ``csr_matvecs`` available,
    and for matrix-free operators that declare ``block_matvec_bitwise``
    (:class:`repro.kernels.stencil.StencilOperator`, the CYBER simulator's
    matrix by diagonals) — the cases where
    every column of the block product is bit-identical to the
    single-vector form (both accumulate each row's nonzeros in index
    order).  :func:`repro.core.pcg.block_pcg` uses this to decide between
    one batched product and a per-column loop.
    """
    if not sp.issparse(a) and getattr(a, "block_matvec_bitwise", False):
        return True
    return (
        _csr_matvecs is not None
        and sp.issparse(a)
        and a.format == "csr"
        and a.dtype == np.float64
    )


def _csr_fits(a, x: np.ndarray, out: np.ndarray) -> bool:
    """Whether ``a @ x`` can run in place into ``out`` on scipy's compiled
    CSR kernels: a float64 CSR ``a`` and C-ordered float64 ``(n,)`` or
    ``(n, k)`` operands of matching shapes, ``out`` writable.  The
    kernels trust their dimensions blindly, so anything else must take
    ``a @ x``, which raises on a mismatch."""
    return (
        (_csr_matvec if x.ndim == 1 else _csr_matvecs) is not None
        and sp.issparse(a)
        and a.format == "csr"
        and a.dtype == np.float64
        and x.dtype == np.float64
        and out.dtype == np.float64
        and x.flags.c_contiguous
        and out.flags.c_contiguous
        and out.flags.writeable
        and x.ndim in (1, 2)
        and a.shape == (out.shape[0], x.shape[0])
        and x.shape[1:] == out.shape[1:]
    )


def _csr_accumulate(a, x: np.ndarray, out: np.ndarray) -> None:
    """``out += a @ x`` on scipy's ``csr_matvec(s)``, for operands that
    :func:`_csr_fits`."""
    if x.ndim == 1:
        _csr_matvec(a.shape[0], a.shape[1], a.indptr, a.indices, a.data, x, out)
    else:
        _csr_matvecs(
            a.shape[0], a.shape[1], x.shape[1],
            a.indptr, a.indices, a.data, x.ravel(), out.ravel(),
        )


#: Block widths of the compiled CSR product: the generated fixed-width
#: row bodies, 2.7× (k = 2) to 3.9× (k = 8) scipy's ``csr_matvecs`` at
#: plate a = 41.  A vector stays on scipy's ``csr_matvec``, which is as
#: fast (25.7 µs against 27.1 µs there); so does a direct product wider
#: than ``BLOCK_WIDTH``, which no solve makes.
PRODUCT_WIDTHS = range(2, BLOCK_WIDTH + 1)

#: id(matrix) → (a weak reference to it, the (indptr, indices, data) it
#: was bound over, the bound compiled product).  Keyed by id because a
#: ``csr_matrix`` is unhashable, and kept off the matrix so it still
#: pickles; an entry goes with its matrix, and rebinds when any of the
#: three arrays is reassigned.
_PRODUCTS: dict[int, tuple] = {}


def _bound_product(a, pack):
    """The compiled block product bound to ``a``'s arrays, or ``None``
    when they are not the contiguous 32-bit-indexed ones it takes."""
    key = id(a)
    entry = _PRODUCTS.get(key)
    if entry is not None:
        ref, (indptr, indices, data), call = entry
        if ref() is a and indptr is a.indptr and indices is a.indices and data is a.data:
            return call
    arrays = (a.indptr, a.indices, a.data)
    if not (
        all(arr.dtype == np.int32 for arr in arrays[:2])
        and all(arr.flags.c_contiguous for arr in arrays)
        and arrays[0].size == a.shape[0] + 1
    ):
        return None
    call = pack.bind_product(*arrays)
    _PRODUCTS[key] = (
        weakref.ref(a, lambda _, key=key, table=_PRODUCTS: table.pop(key, None)),
        arrays,
        call,
    )
    return call


def matvec_into(a, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out ← a @ x`` without allocating the result when possible.

    CSR matrices go through scipy's compiled ``csr_matvec`` /
    ``csr_matvecs`` (which accumulate, hence the zero-fill), except a
    C-ordered block of 2–8 columns off 32-bit indices, which runs the
    pack's ``csr_product`` with the same bits; dense operators go
    through ``np.matmul(..., out=)``; anything else falls back to
    ``a @ x``.
    """
    if isinstance(a, np.ndarray):
        np.matmul(a, x, out=out)
        return out
    if not sp.issparse(a) and callable(getattr(a, "matvec_into", None)):
        return a.matvec_into(x, out)
    if not _csr_fits(a, x, out):
        out[:] = a @ x
        return out
    if x.ndim == 2 and x.shape[1] in PRODUCT_WIDTHS:
        pack = load_native()
        call = None if pack is None else _bound_product(a, pack)
        if call is not None:
            call(x.shape[1], pointer(x), pointer(out))
            return out
    out.fill(0.0)
    _csr_accumulate(a, x, out)
    return out


def matvec_accumulate(a, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out += a @ x`` without a temporary when the compiled path applies.

    Scipy's ``csr_matvec`` / ``csr_matvecs`` *accumulate* into their output
    (the reason :func:`matvec_into` zero-fills first) — here that is exactly
    the semantics wanted, so the block sums of the multicolor sweeps can run
    over preallocated accumulators.  Handles ``(n,)`` vectors and ``(n, k)``
    blocks; anything outside the fast path falls back to ``out += a @ x``
    (one temporary, same arithmetic).
    """
    if not sp.issparse(a) and callable(getattr(a, "matvec_accumulate", None)):
        return a.matvec_accumulate(x, out)
    if _csr_fits(a, x, out):
        _csr_accumulate(a, x, out)
        return out
    out += a @ x
    return out


def bind_cg_updates(u, r, p, kp, rho, denom, delta):
    """Algorithm 1's fused vector passes over resident ``(n, a)`` blocks.

    ``u``, ``r``, ``p`` and ``kp`` are C-ordered float64 ``(n, a)``
    blocks, one column per active right-hand side; ``rho``, ``denom`` and
    ``delta`` are C-contiguous ``(a,)`` scalars.  Returns
    ``(axpy, xpay)``:

    * ``axpy()`` sets ``denom = (p, Kp)`` per column.  If any entry is
      ``<= 0`` (breakdown) it returns their count and changes nothing
      else; otherwise it runs ``α = ρ/denom``, ``u += α·p``,
      ``r −= α·Kp`` and ``delta = max|α·p|`` (NaN if any step is NaN)
      and returns 0.
    * ``xpay(rt)`` runs ``ρ' = (r̃, r)``, ``β = ρ'/ρ``, ``ρ ← ρ'`` and
      ``p ← r̃ + β·p``; ``rt`` is ``(n, a)``, or ``(n,)`` when a = 1.

    Each pass is bitwise the numpy spelling it replaces (the same
    multiply → add chain per element; the max is exact).  The compiled
    passes and the resident blocks are bound here once; ``xpay`` takes
    r̃'s pointer per call.  Blocks wider than ``BLOCK_WIDTH`` take the
    numpy twin.
    """
    n, a = u.shape
    blocks, scalars = (u, r, p, kp), (rho, denom, delta)
    if not all(
        x.dtype == np.float64 and x.flags.c_contiguous and x.shape == want
        for group, want in ((blocks, (n, a)), (scalars, (a,)))
        for x in group
    ):
        raise ValueError("bind_cg_updates needs C-ordered float64 (n, a) and (a,) arrays")
    pack = load_native() if a <= BLOCK_WIDTH else None
    if pack is None:
        return _cg_updates_numpy(u, r, p, kp, rho, denom, delta)
    ptr = pack.pointer
    n_, a_ = ctypes.c_long(n), ctypes.c_long(a)
    p_, kp_, rho_, u_, r_, denom_, delta_ = (
        ptr(x) for x in (p, kp, rho, u, r, denom, delta)
    )
    cg_axpy, cg_xpay = pack.cg_axpy, pack.cg_xpay

    def axpy() -> int:
        return cg_axpy(n_, a_, p_, kp_, rho_, u_, r_, denom_, delta_)

    def xpay(rt: np.ndarray) -> None:
        rt = np.ascontiguousarray(rt, dtype=np.float64).reshape(n, a)
        cg_xpay(n_, a_, ptr(rt), r_, rho_, p_)

    return axpy, xpay


def _cg_updates_numpy(u, r, p, kp, rho, denom, delta):
    """:func:`bind_cg_updates` in numpy: the compiled passes' bitwise twin."""
    n, a = u.shape
    step = np.empty((n, a))

    def axpy() -> int:
        dots_numpy(p, kp, denom)
        broken = int(np.count_nonzero(denom <= 0.0))
        if broken:
            return broken
        alpha = rho / denom
        np.multiply(p, alpha, out=step)
        np.add(u, step, out=u)
        np.max(np.abs(step), axis=0, initial=0.0, out=delta)
        np.multiply(kp, alpha, out=step)
        np.subtract(r, step, out=r)
        return 0

    def xpay(rt: np.ndarray) -> None:
        rt = np.asarray(rt, dtype=np.float64).reshape(n, a)
        rho_new = dots_numpy(rt, r, np.empty(a))
        with np.errstate(divide="ignore", invalid="ignore"):
            beta = rho_new / rho
        rho[:] = rho_new
        np.multiply(p, beta, out=p)
        np.add(p, rt, out=p)

    return axpy, xpay
