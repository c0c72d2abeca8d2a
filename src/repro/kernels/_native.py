"""Optional compiled kernels: the stencil products and sweeps, and the
fixed-order reductions of the PCG loop.

The pure-numpy stencil product pays one multiply pass and one add pass
per diagonal; at solver sizes the arrays are cache-resident, so those
extra sweeps — not DRAM — are the bottleneck.  The C kernels here fuse
the product; per row they compute::

    out[i] = (out[i] +) v₀[i]·x[i+o₀] + v₁[i]·x[i+o₁] + … + v_d[i]·x[i+o_d]

over the in-window diagonals, the terms accumulating in ascending-offset
order, i.e. ascending column order per row — so every product is
**bitwise identical** to both the numpy shifted-slice path and scipy's
``csr_matvec``.  Two forms exist:

* the *value-row* product (``stencil_values_b``; a vector is its
  one-column block, run as row tiles) reads the value rows ``v_d`` in
  place and serves every stencil and every block;
* the *constant* vector product (``stencil_apply_v``) multiplies by the
  dominant constant of each diagonal (a regular-mesh diagonal is one
  number almost everywhere), then overwrites the handful of "special"
  rows — boundary margins plus the rows where any diagonal deviates from
  its constant — with the exact per-row sum.  It reads only ``x``, which
  makes it the faster vector product where it applies.

``stencil_ssor`` runs the whole m-step multicolor SSOR sweep (Algorithm
2) off a :class:`~repro.kernels.stencil.SweepPlan`, for vectors and
blocks alike.

The pack also owns Algorithm 1's reductions.  ``fixed_dots`` is the one
inner product of the package (:func:`repro.util.column_dots`): 8 lanes,
lane ``l`` summing the products of rows ``i ≡ l (mod 8)`` in index order
from ``+0.0``, the lanes combined as
``((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7))``.  Over a C-ordered ``(n, k)``
block it returns the k column dots, each bitwise the dot of that column
alone, and no answer depends on a BLAS build or thread count.
``cg_axpy`` and ``cg_xpay`` fuse that dot with the CG vector updates
:func:`repro.core.pcg.block_pcg` runs on its resident blocks.

Compilation happens lazily, once per interpreter, with ``cc`` into a
content-hashed shared library under ``_build/`` next to this module; the
flags deliberately include ``-ffp-contract=off`` so no fused
multiply-add can change the rounding of the ``mul → add`` chain.  When
no compiler is available (or ``REPRO_NO_NATIVE`` is set) the loader
returns ``None`` and the operator silently keeps its numpy path — the
kernel is an accelerator, never a dependency.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

import numpy as np

__all__ = ["load_native"]

#: Generated cases of the constant-diagonal vector loop.  A constant trip
#: count lets the compiler unroll the diagonal chain and vectorize the
#: row loop; other diagonal counts take the runtime loop (still one
#: pass, just scalar).  5 is the scalar 5-point stencils (poisson,
#: anisotropic), the only stencils whose diagonals are all
#: scalar-dominated; the plate's 15 never reach this kernel.
_SPECIALIZED = (5,)

_CASE_TEMPLATE = """
        case {nd}:
            for (i = lo; i < hi; ++i) {{
                double acc = accumulate ? out[i] : 0.0;
                for (k = 0; k < {nd}; ++k)
                    acc += cs[k] * x[i + offs[k]];
                out[i] = acc;
            }}
            break;
"""

#: Rows per tile of the vector value-row product.  The tile's partial
#: sums stay in L1 while each diagonal streams through it, so
#: consecutive adds are independent; a per-row chain of ``nd`` dependent
#: adds is latency-bound (~2× slower on the plate).
_VALUES_TILE = 512

_VALUES_ROWS_TEMPLATE = """
static void values_rows_k{kk}(
    long n, long nd, const long *offs, const double *vals,
    long lo, long hi, int window, const double *x, double *out, int accumulate)
{{
    long i, d, j;
    for (i = lo; i < hi; ++i) {{
        double acc[{kk}];
        double *orow = out + (size_t)i * {kk};
        for (j = 0; j < {kk}; ++j)
            acc[j] = accumulate ? orow[j] : 0.0;
        for (d = 0; d < nd; ++d) {{
            const long c = i + offs[d];
            const double v = vals[(size_t)d * (size_t)n + (size_t)i];
            const double *xr;
            if (window && (c < 0 || c >= n))
                continue;
            xr = x + (size_t)c * {kk};
            for (j = 0; j < {kk}; ++j)
                acc[j] += v * xr[j];
        }}
        for (j = 0; j < {kk}; ++j)
            orow[j] = acc[j];
    }}
}}
"""


#: Specialized entry counts of the fused sweep's interior rows.  Constant
#: trip counts let the compiler unroll the short gather chain per row;
#: 1–12 covers every color half of the 5-point scalar stencils (4) and
#: of the 15-diagonal interleaved plate stencil (at most 11 per half).
_SWEEP_NE = tuple(range(1, 13))

_SWEEP_CASE_TEMPLATE = """
        case {ne}:
            for (q = qa; q < qb; ++q) {{
                const long row = rows[q];
                const double *crow = cm + (size_t)(q - g0) * {ne};
                double acc = 0.0;
{terms}                SSOR_TAIL_V
            }}
            break;
"""


def _sweep_case(ne: int) -> str:
    terms = "".join(
        f"                acc += crow[{i}] * rt[row + offs[{i}]];\n"
        for i in range(ne)
    )
    return _SWEEP_CASE_TEMPLATE.format(ne=ne, terms=terms)


#: Generated RHS widths of the block sweep and block product.  A
#: compile-time k turns the per-row column loops into fully unrolled
#: straight-line SIMD over a register-resident accumulator (the runtime-k
#: loop pays ~2× at k ≤ 6, and an accumulator behind a pointer that may
#: alias the operands costs a load and store per term); wider blocks take
#: the generic body, whose per-element cost is already amortized.  A
#: one-column block takes the hand-written vector loops instead.
_BLOCK_K = tuple(range(2, 9))

_BLOCK_ROWS_TEMPLATE = """
static void ssor_rows_k{kk}(
    long n, long qa, long qb, long g0, long ne,
    const long *rows, const double *diag, const long *offs, const double *cm,
    double alpha, const double *r, double *rt, double *y,
    int use_y, int do_solve, int store_y, int clip)
{{
    long q, e, j;
    for (q = qa; q < qb; ++q) {{
        const long row = rows[q];
        const double *crow = cm + (size_t)(q - g0) * (size_t)ne;
        double *yq = y + (size_t)q * {kk};
        double acc[{kk}];
        for (j = 0; j < {kk}; ++j)
            acc[j] = 0.0;
        for (e = 0; e < ne; ++e) {{
            long col = row + offs[e];
            const double cf = crow[e];
            const double *rc;
            if (clip) {{
                if (col < 0) col = 0; else if (col >= n) col = n - 1;
            }}
            rc = rt + (size_t)col * {kk};
            for (j = 0; j < {kk}; ++j)
                acc[j] += cf * rc[j];
        }}
        if (do_solve) {{
            const double *rr = r + (size_t)row * {kk};
            double *rtr = rt + (size_t)row * {kk};
            const double d = diag[q];
            for (j = 0; j < {kk}; ++j) {{
                double ar = alpha * rr[j];
                double z = use_y ? ((ar - yq[j]) - acc[j]) : (ar - acc[j]);
                rtr[j] = z / d;
            }}
        }}
        if (store_y)
            for (j = 0; j < {kk}; ++j)
                yq[j] = acc[j];
    }}
}}
"""


def _width_switch(body: str, args: str, generic: str, widths) -> str:
    """``switch (k)`` onto the generated ``body<k>``, else ``generic``."""
    cases = "".join(
        f"    case {kk}: {body}{kk}({args}); return;\n" for kk in widths
    )
    return f"    switch (k) {{\n{cases}    }}\n    {generic};\n"


#: Specialized widths of the reductions and fused CG updates: the vector
#: and the sweep widths.  A compile-time width keeps the 8 lanes × k
#: partial sums in registers; a one-column block is the vector form, and
#: wider blocks take the generic runtime-k body.
_DOT_K = (1,) + _BLOCK_K

#: Bodies of the dot and the two fused CG passes over a C-ordered (n, K)
#: block, once per specialized width (``sfx`` = ``k<K>``, no width
#: parameter) and once generic (``sfx`` = ``any``, runtime ``k``).
_CG_TEMPLATE = """
static void dots_{sfx}(
    long n, {kparam}const double *x, const double *y, double *out)
{{
    double l[DOT_LANES][{kk}];
    long i, t, j;
    const long n8 = n - n % DOT_LANES;
    for (t = 0; t < DOT_LANES; ++t)
        for (j = 0; j < {kk}; ++j)
            l[t][j] = 0.0;
    for (i = 0; i < n8; i += DOT_LANES)
        for (t = 0; t < DOT_LANES; ++t) {{
            const double *xr = x + (size_t)(i + t) * {kk};
            const double *yr = y + (size_t)(i + t) * {kk};
            for (j = 0; j < {kk}; ++j)
                l[t][j] += xr[j] * yr[j];
        }}
    for (t = 0; n8 + t < n; ++t) {{
        const double *xr = x + (size_t)(n8 + t) * {kk};
        const double *yr = y + (size_t)(n8 + t) * {kk};
        for (j = 0; j < {kk}; ++j)
            l[t][j] += xr[j] * yr[j];
    }}
    for (j = 0; j < {kk}; ++j)
        out[j] = ((l[0][j] + l[1][j]) + (l[2][j] + l[3][j]))
               + ((l[4][j] + l[5][j]) + (l[6][j] + l[7][j]));
}}

static void axpy_{sfx}(
    long n, {kparam}const double *p, const double *kp, const double *rho,
    const double *denom, double *u, double *r, double *delta)
{{
    double alpha[{kk}], top[{kk}];
    long i, j;
    for (j = 0; j < {kk}; ++j) {{
        alpha[j] = rho[j] / denom[j];
        top[j] = 0.0;
    }}
    for (i = 0; i < n; ++i) {{
        const size_t o = (size_t)i * {kk};
        for (j = 0; j < {kk}; ++j) {{
            const double s = alpha[j] * p[o + j];
            const double a = __builtin_fabs(s);
            u[o + j] += s;
            r[o + j] -= alpha[j] * kp[o + j];
            top[j] = (a > top[j] || a != a) ? a : top[j];  /* NaN sticks */
        }}
    }}
    for (j = 0; j < {kk}; ++j)
        delta[j] = top[j];
}}

static void xpay_{sfx}(
    long n, {kparam}const double *rt, const double *rho_new, double *rho,
    double *p)
{{
    double beta[{kk}];
    long i, j;
    for (j = 0; j < {kk}; ++j) {{
        beta[j] = rho_new[j] / rho[j];
        rho[j] = rho_new[j];
    }}
    for (i = 0; i < n; ++i) {{
        const size_t o = (size_t)i * {kk};
        for (j = 0; j < {kk}; ++j)
            p[o + j] = rt[o + j] + beta[j] * p[o + j];
    }}
}}
"""


def _cg_source() -> str:
    """The fixed-order dot and the fused CG passes, width-dispatched."""
    bodies = "".join(
        _CG_TEMPLATE.format(sfx=f"k{kk}", kparam="", kk=kk) for kk in _DOT_K
    ) + _CG_TEMPLATE.format(sfx="any", kparam="long k, ", kk="k")

    def dispatch(name: str, params: str, args: str) -> str:
        return (
            f"static void {name}(long n, long k, {params})\n{{\n"
            + _width_switch(
                f"{name}_k", "n, " + args, f"{name}_any(n, k, {args})", _DOT_K
            )
            + "}\n"
        )

    return (
        "\n#define DOT_LANES 8\n"
        + bodies
        + dispatch("dots", "const double *x, const double *y, double *out",
                   "x, y, out")
        + dispatch(
            "axpy",
            "const double *p, const double *kp, const double *rho, "
            "const double *denom, double *u, double *r, double *delta",
            "p, kp, rho, denom, u, r, delta",
        )
        + dispatch(
            "xpay",
            "const double *rt, const double *rho_new, double *rho, double *p",
            "rt, rho_new, rho, p",
        )
        + """
/* out[j] = (x[:, j], y[:, j]) for C-ordered (n, k) blocks, in the fixed
   lane order; a vector is the one-column block. */
void fixed_dots(long n, long k, const double *x, const double *y,
                double *out)
{
    if (k >= 1)
        dots(n, k, x, y, out);
}

/* Algorithm 1 steps (1), (2) and (4) on the active block: denom = (p, Kp)
   per column.  A column with denom <= 0 has broken down: then nothing is
   updated and the number of such columns is returned.  Otherwise
   alpha = rho / denom, u += alpha p, r -= alpha Kp and delta = max |alpha p|
   per column (a NaN step makes delta NaN, as numpy's max does). */
long cg_axpy(long n, long k, const double *p, const double *kp,
             const double *rho, double *u, double *r, double *denom,
             double *delta)
{
    long j, broken = 0;
    if (k < 1)
        return 0;
    dots(n, k, p, kp, denom);
    for (j = 0; j < k; ++j)
        if (denom[j] <= 0.0)
            ++broken;
    if (!broken)
        axpy(n, k, p, kp, rho, denom, u, r, delta);
    return broken;
}

/* Steps (6) and (7): rho_new = (rt, r), beta = rho_new / rho, rho = rho_new,
   p = rt + beta p. */
void cg_xpay(long n, long k, const double *rt, const double *r, double *rho,
             double *p)
{
    if (k >= 1) {
        double rho_new[k];
        dots(n, k, rt, r, rho_new);
        xpay(n, k, rt, rho_new, rho, p);
    }
}
"""
    )


def _source() -> str:
    vec_cases = "".join(_CASE_TEMPLATE.format(nd=nd) for nd in _SPECIALIZED)
    values_rows = "".join(_VALUES_ROWS_TEMPLATE.format(kk=kk) for kk in _BLOCK_K)
    values_dispatch = _width_switch(
        "values_rows_k",
        "n, nd, offs, vals, lo, hi, window, x, out, accumulate",
        "values_rows_any(n, nd, offs, vals, k, lo, hi, window, x, out, accumulate)",
        _BLOCK_K,
    )
    sweep_cases = "".join(_sweep_case(ne) for ne in _SWEEP_NE)
    block_rows = "".join(_BLOCK_ROWS_TEMPLATE.format(kk=kk) for kk in _BLOCK_K)
    rows_args = (
        "qa, qb, g0, ne, rows, diag, offs, cm, alpha, r, rt, y, "
        "use_y, do_solve, store_y, clip"
    )
    sweep_dispatch = _width_switch(
        "ssor_rows_k", "n, " + rows_args,
        "ssor_rows_any(n, k, " + rows_args + ")",
        _BLOCK_K,
    )
    return (
        """
#include <stddef.h>

#define VALUES_TILE """
        + str(_VALUES_TILE)
        + """

/* out (+)= K x for contiguous (n,) vectors off the value rows
   vals[d * n + i] = K[i, i + offs[d]], tiled by rows and walked
   diagonal-major: each diagonal adds its in-window terms to the whole
   tile before the next one starts, so per element the terms still land
   in ascending-offset order. */
static void stencil_values_v(
    long n, long nd, const long *offs, const double *vals,
    const double *x, double *out, int accumulate)
{
    double acc[VALUES_TILE];
    long t0, d, i;
    for (t0 = 0; t0 < n; t0 += VALUES_TILE) {
        const long t1 = n - t0 < VALUES_TILE ? n : t0 + VALUES_TILE;
        for (i = t0; i < t1; ++i)
            acc[i - t0] = accumulate ? out[i] : 0.0;
        for (d = 0; d < nd; ++d) {
            const long o = offs[d];
            const double *v = vals + (size_t)d * (size_t)n;
            long lo = t0, hi = t1;
            if (lo < -o) lo = -o;
            if (hi > n - o) hi = n - o;
            for (i = lo; i < hi; ++i)
                acc[i - t0] += v[i] * x[i + o];
        }
        for (i = t0; i < t1; ++i)
            out[i] = acc[i - t0];
    }
}

"""
        + values_rows
        + """
/* Rows [lo, hi) of the block value-row product for the widths without
   a generated body; window != 0 skips the terms whose column leaves
   [0, n) (the margin rows only). */
static void values_rows_any(
    long n, long nd, const long *offs, const double *vals, long k,
    long lo, long hi, int window, const double *x, double *out, int accumulate)
{
    long i, d, j;
    for (i = lo; i < hi; ++i) {
        double *orow = out + (size_t)i * k;
        if (!accumulate)
            for (j = 0; j < k; ++j)
                orow[j] = 0.0;
        for (d = 0; d < nd; ++d) {
            const long c = i + offs[d];
            const double v = vals[(size_t)d * (size_t)n + (size_t)i];
            const double *xr;
            if (window && (c < 0 || c >= n))
                continue;
            xr = x + (size_t)c * k;
            for (j = 0; j < k; ++j)
                orow[j] += v * xr[j];
        }
    }
}

static void values_rows(
    long n, long nd, const long *offs, const double *vals, long k,
    long lo, long hi, int window, const double *x, double *out, int accumulate)
{
"""
        + values_dispatch
        + """}

/* out (+)= K X for C-contiguous (n, k) blocks: row i is k contiguous
   doubles, each column an independent ascending-offset chain kept in a
   register-resident accumulator.  A one-column block is a vector. */
void stencil_values_b(
    long n, long nd, const long *offs, const double *vals,
    long k, const double *x, double *out, int accumulate)
{
    long lo = offs[0] < 0 ? -offs[0] : 0;
    long hi = offs[nd - 1] > 0 ? n - offs[nd - 1] : n;
    if (k == 1) {
        stencil_values_v(n, nd, offs, vals, x, out, accumulate);
        return;
    }
    if (lo > n) lo = n;
    if (hi < lo) hi = lo;
    values_rows(n, nd, offs, vals, k, 0, lo, 1, x, out, accumulate);
    values_rows(n, nd, offs, vals, k, lo, hi, 0, x, out, accumulate);
    values_rows(n, nd, offs, vals, k, hi, n, 1, x, out, accumulate);
}

/* Exact sum of one special row onto acc: true per-diagonal values,
   window-checked.  Ascending k is ascending column order, and the terms
   land on the starting value one by one — the csr_matvec association. */
static double special_row(
    double acc, long i, long n, long nd, const long *offs,
    const double *svals, long nspecial, long t, const double *x)
{
    long k;
    for (k = 0; k < nd; ++k) {
        long j = i + offs[k];
        if (j >= 0 && j < n)
            acc += svals[(size_t)k * (size_t)nspecial + (size_t)t] * x[j];
    }
    return acc;
}

/* out (+)= K x for contiguous (n,) vectors off the dominant constants
   cs[k], with the special rows patched by their exact sums. */
void stencil_apply_v(
    long n, long nd, const long *offs, const double *cs,
    long nspecial, const long *srows, const double *svals, double *stash,
    const double *x, double *out, int accumulate)
{
    long lo = offs[0] < 0 ? -offs[0] : 0;
    long hi = offs[nd - 1] > 0 ? n - offs[nd - 1] : n;
    long i, k, t;
    if (hi < lo) hi = lo;
    /* Special rows first: they read out[] before the fused loop clobbers
       it, and land last so they overwrite the constant approximation. */
    for (t = 0; t < nspecial; ++t) {
        long r = srows[t];
        stash[t] = special_row(accumulate ? out[r] : 0.0,
                               r, n, nd, offs, svals, nspecial, t, x);
    }
    switch (nd) {
"""
        + vec_cases
        + """
        default:
            for (i = lo; i < hi; ++i) {
                double acc = accumulate ? out[i] : 0.0;
                for (k = 0; k < nd; ++k)
                    acc += cs[k] * x[i + offs[k]];
                out[i] = acc;
            }
    }
    for (t = 0; t < nspecial; ++t)
        out[srows[t]] = stash[t];
}

/* ---- fused multicolor m-step SSOR sweep --------------------------------

   One entry point, stencil_ssor, walks the whole color schedule
   in-kernel for every width: per-color gathers at the stencil's constant
   offsets, diagonal solve, Horner alpha*r accumulation, and the merged
   forward/backward Conrad-Wallach passes.  StencilSSOR._apply_numpy is
   its numpy twin over the same plan — entries accumulate in (target,
   offset) order, the solve subtracts in the same association
   ((a*r - y) - acc), and -ffp-contract=off keeps every mul -> add
   unfused — so the iterate is bitwise identical either way.

   Layout (built once by StencilOperator.sweep_plan):
     gp[nc+1]   row-range pointers into rows/diag, concatenated by color
     rows/diag  unknown index and diagonal value per scheduled row
     ep[nc+1]   entry-range pointers per color (lower or upper half)
     eoff       column offset per entry
     ecb[nc]    base of the color's (len, ne) row-major coefficient
                matrix inside ecoef
   Gather columns clip to [0, n-1]; the stored coefficient at a clipped
   row is exactly 0.0, so the clipped read contributes a signed zero at
   most — provided the value read is finite, which is why the caller
   zeroes rt before every call (a clipped or grid-row-wrap read may land
   on a row this call has not solved yet). */

/* Row epilogue of the vector sweep: Horner solve + lower/upper-sum stash.
   One association only — ((alpha*r - y) - acc) — matching the numpy
   twin exactly. */
#define SSOR_TAIL_V \
    if (do_solve) { \
        double ar = alpha * r[row]; \
        double z = use_y ? ((ar - y[q]) - acc) : (ar - acc); \
        rt[row] = z / diag[q]; \
    } \
    if (store_y) y[q] = acc;

static void ssor_rows_v(
    long n, long qa, long qb, long g0, long ne,
    const long *rows, const double *diag, const long *offs, const double *cm,
    double alpha, const double *r, double *rt, double *y,
    int use_y, int do_solve, int store_y, int clip)
{
    long q, e;
    if (clip) {
        for (q = qa; q < qb; ++q) {
            const long row = rows[q];
            const double *crow = cm + (size_t)(q - g0) * (size_t)ne;
            double acc = 0.0;
            for (e = 0; e < ne; ++e) {
                long col = row + offs[e];
                if (col < 0) col = 0; else if (col >= n) col = n - 1;
                acc += crow[e] * rt[col];
            }
            SSOR_TAIL_V
        }
        return;
    }
    switch (ne) {
"""
        + sweep_cases
        + """
        default:
            for (q = qa; q < qb; ++q) {
                const long row = rows[q];
                const double *crow = cm + (size_t)(q - g0) * (size_t)ne;
                double acc = 0.0;
                for (e = 0; e < ne; ++e)
                    acc += crow[e] * rt[row + offs[e]];
                SSOR_TAIL_V
            }
    }
}

/* Block form over C-contiguous (n, k): element (i, j) at i*k + j.  Each
   column runs the exact scalar chain of ssor_rows_v.  The generic width
   keeps its accumulators in a local variable-length array: k doubles of
   stack, against the n*k each of r, rt and y. */
static void ssor_rows_any(
    long n, long k, long qa, long qb, long g0, long ne,
    const long *rows, const double *diag, const long *offs, const double *cm,
    double alpha, const double *r, double *rt, double *y,
    int use_y, int do_solve, int store_y, int clip)
{
    double acc[k];
    long q, e, j;
    for (q = qa; q < qb; ++q) {
        const long row = rows[q];
        const double *crow = cm + (size_t)(q - g0) * (size_t)ne;
        double *yq = y + (size_t)q * k;
        for (j = 0; j < k; ++j)
            acc[j] = 0.0;
        for (e = 0; e < ne; ++e) {
            long col = row + offs[e];
            const double cf = crow[e];
            const double *rc;
            if (clip) {
                if (col < 0) col = 0; else if (col >= n) col = n - 1;
            }
            rc = rt + (size_t)col * k;
            for (j = 0; j < k; ++j)
                acc[j] += cf * rc[j];
        }
        if (do_solve) {
            const double *rr = r + (size_t)row * k;
            double *rtr = rt + (size_t)row * k;
            const double d = diag[q];
            for (j = 0; j < k; ++j) {
                double ar = alpha * rr[j];
                double z = use_y ? ((ar - yq[j]) - acc[j]) : (ar - acc[j]);
                rtr[j] = z / d;
            }
        }
        if (store_y)
            for (j = 0; j < k; ++j)
                yq[j] = acc[j];
    }
}
"""
        + block_rows
        + """
/* Column-loop trip counts are compile-time for the common widths: a
   vector takes the entry-count-specialized ssor_rows_v, and the generated
   ssor_rows_k<K> bodies unroll to straight-line SIMD over
   register-resident accumulators.  Same arithmetic per column either
   way — dispatch is bitwise-neutral. */
static void ssor_rows(
    long n, long k, long qa, long qb, long g0, long ne,
    const long *rows, const double *diag, const long *offs, const double *cm,
    double alpha, const double *r, double *rt, double *y,
    int use_y, int do_solve, int store_y, int clip)
{
    if (k == 1) {
        ssor_rows_v(n, """ + rows_args + """);
        return;
    }
"""
        + sweep_dispatch
        + """}

static void ssor_color(
    long n, long k, long c,
    const long *gp, const long *rows, const double *diag,
    const long *ep, const long *eoff, const long *ecb, const double *ecoef,
    double alpha, const double *r, double *rt, double *y,
    int use_y, int do_solve, int store_y)
{
    const long ne = ep[c + 1] - ep[c];
    const long *offs = eoff + ep[c];
    const double *cm = ecoef + ecb[c];
    const long qa = gp[c], qb = gp[c + 1];
    long minoff = 0, maxoff = 0, q_lo, q_hi, e;
    for (e = 0; e < ne; ++e) {
        if (offs[e] < minoff) minoff = offs[e];
        if (offs[e] > maxoff) maxoff = offs[e];
    }
    /* rows are sorted ascending, so clipping only bites on a prefix
       (col < 0) and a suffix (col >= n); the interior runs branch-free.
       Clipped entries carry coefficient exactly 0.0, so the split does
       not change any sum. */
    q_lo = qa;
    while (q_lo < qb && rows[q_lo] + minoff < 0) ++q_lo;
    q_hi = qb;
    while (q_hi > q_lo && rows[q_hi - 1] + maxoff >= n) --q_hi;
    ssor_rows(n, k, qa, q_lo, qa, ne, rows, diag, offs, cm,
              alpha, r, rt, y, use_y, do_solve, store_y, 1);
    ssor_rows(n, k, q_lo, q_hi, qa, ne, rows, diag, offs, cm,
              alpha, r, rt, y, use_y, do_solve, store_y, 0);
    ssor_rows(n, k, q_hi, qb, qa, ne, rows, diag, offs, cm,
              alpha, r, rt, y, use_y, do_solve, store_y, 1);
}

/* The whole m-step schedule over C-contiguous (n, k) blocks; a vector is
   the one-column block. */
void stencil_ssor(
    long n, long k, long m, long nc,
    const long *gp, const long *rows, const double *diag,
    const long *lp, const long *loff, const long *lcb, const double *lcoef,
    const long *up, const long *uoff, const long *ucb, const double *ucoef,
    const double *alphas, const double *r, double *rt, double *y)
{
    long s, c, q;
    if (k < 1)
        return;  /* nothing to sweep, and no zero-length accumulator */
    for (s = 1; s <= m; ++s) {
        const double alpha = alphas[m - s];
        const int first = (s == 1);
        for (c = 0; c < nc; ++c)       /* forward: lower-triangular sums */
            ssor_color(n, k, c, gp, rows, diag, lp, loff, lcb, lcoef,
                       alpha, r, rt, y, !first, 1, 1);
        for (c = nc - 2; c >= 1; --c)  /* backward: upper-triangular sums */
            ssor_color(n, k, c, gp, rows, diag, up, uoff, ucb, ucoef,
                       alpha, r, rt, y, 1, 1, 1);
        if (nc >= 2) {
            for (q = gp[nc - 1] * k; q < gp[nc] * k; ++q)
                y[q] = 0.0;            /* last color has no upper coupling */
            if (s == m)                /* closing color-0 solve */
                ssor_color(n, k, 0, gp, rows, diag, up, uoff, ucb, ucoef,
                           alpha, r, rt, y, 0, 1, 0);
            else                       /* stash color-0 upper sum only */
                ssor_color(n, k, 0, gp, rows, diag, up, uoff, ucb, ucoef,
                           alpha, r, rt, y, 0, 0, 1);
        }
    }
}
"""
        + _cg_source()
    )


_FLAG_SETS = (
    # -march=native buys SIMD width; -ffp-contract=off keeps the mul→add
    # chain un-fused in both, so the rounding matches numpy/scipy exactly.
    ("-O3", "-march=native", "-ffp-contract=off", "-fPIC", "-shared"),
    ("-O3", "-ffp-contract=off", "-fPIC", "-shared"),
    ("-O2", "-fPIC", "-shared"),
)

_I64 = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
_F64 = np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")


def pointer(a: np.ndarray):
    """``a``'s data pointer, for the reduction entry points.

    ``a`` must be C-contiguous float64.  A writable array goes through the
    buffer protocol (~0.7 µs), and the pointer holds its memory alive;
    ``ndarray.ctypes`` (~2 µs) serves read-only and empty ones, which the
    caller must keep alive while the pointer is in use.
    """
    try:
        return ctypes.byref(ctypes.c_double.from_buffer(a))
    except (TypeError, ValueError, BufferError):
        return ctypes.c_void_p(a.ctypes.data)


class NativeKernels:
    """ctypes facade over the compiled stencil kernels and reductions."""

    pointer = staticmethod(pointer)

    def __init__(self, lib: ctypes.CDLL):
        self._lib = lib
        # The reductions run several times per PCG iteration, where an
        # ndpointer argument check (~14 µs a call) would cost more than
        # the dot itself.  They take plain data pointers, bound once per
        # operand (:func:`pointer`); callers own the layout checks.
        _long, _ptr = ctypes.c_long, ctypes.c_void_p
        self.fixed_dots = lib.fixed_dots
        self.fixed_dots.restype = None
        self.fixed_dots.argtypes = [_long, _long, _ptr, _ptr, _ptr]
        self.cg_axpy = lib.cg_axpy
        self.cg_axpy.restype = _long
        self.cg_axpy.argtypes = [_long, _long] + [_ptr] * 7
        self.cg_xpay = lib.cg_xpay
        self.cg_xpay.restype = None
        self.cg_xpay.argtypes = [_long, _long] + [_ptr] * 4
        lib.stencil_values_b.restype = None
        lib.stencil_values_b.argtypes = [
            ctypes.c_long, ctypes.c_long, _I64, _F64,
            ctypes.c_long, _F64, _F64, ctypes.c_int,
        ]
        lib.stencil_apply_v.restype = None
        lib.stencil_apply_v.argtypes = [
            ctypes.c_long, ctypes.c_long, _I64, _F64,
            ctypes.c_long, _I64, _F64, _F64,
            _F64, _F64, ctypes.c_int,
        ]
        _plan = [_I64, _I64, _F64, _I64, _I64, _I64, _F64,
                 _I64, _I64, _I64, _F64]
        lib.stencil_ssor.restype = None
        lib.stencil_ssor.argtypes = [
            ctypes.c_long, ctypes.c_long, ctypes.c_long, ctypes.c_long,
            *_plan, _F64, _F64, _F64, _F64,
        ]

    def apply_values(self, offs, vals, x, out, accumulate):
        """``out (+)= K·x`` off the ``(nd, n)`` value rows; ``x`` is
        ``(n,)`` or a C-contiguous ``(n, k)`` block."""
        k = 1 if x.ndim == 1 else x.shape[1]
        self._lib.stencil_values_b(
            vals.shape[1], len(offs), offs, vals, k, x, out,
            1 if accumulate else 0,
        )

    def apply_constant(self, n, offs, cs, srows, svals, stash, x, out, accumulate):
        """``out (+)= K·x`` for an ``(n,)`` vector off the dominant
        constants ``cs``, the special rows ``srows`` patched exactly."""
        self._lib.stencil_apply_v(
            n, len(offs), offs, cs, len(srows), srows, svals, stash,
            x, out, 1 if accumulate else 0,
        )

    def ssor(self, n, k, m, plan, alphas, r, rt, y):
        """The m-step sweep ``rt ← M_m⁻¹ r`` off a
        :class:`~repro.kernels.stencil.SweepPlan`; ``r``, ``rt`` and the
        scratch ``y`` are ``(n,)`` or C-contiguous ``(n, k)``."""
        self._lib.stencil_ssor(
            n, k, m, len(plan.lower_counts), *plan.arrays, alphas, r, rt, y
        )


_CACHE: list = []  # [NativeKernels | None] once resolved


def _build_dir() -> Path:
    return Path(__file__).resolve().parent / "_build"


def _compile(src_text: str, out_path: Path) -> bool:
    build = out_path.parent
    build.mkdir(parents=True, exist_ok=True)
    with tempfile.NamedTemporaryFile(
        "w", suffix=".c", dir=build, delete=False
    ) as fh:
        fh.write(src_text)
        c_path = Path(fh.name)
    try:
        for flags in _FLAG_SETS:
            tmp_so = c_path.with_suffix(".so")
            cmd = ["cc", *flags, str(c_path), "-o", str(tmp_so)]
            try:
                proc = subprocess.run(
                    cmd, capture_output=True, text=True, timeout=120
                )
            except (OSError, subprocess.TimeoutExpired):
                return False
            if proc.returncode == 0:
                os.replace(tmp_so, out_path)  # atomic vs concurrent builders
                return True
        return False
    finally:
        c_path.unlink(missing_ok=True)
        c_path.with_suffix(".so").unlink(missing_ok=True)


def load_native() -> NativeKernels | None:
    """The compiled kernel pack, or ``None`` when it cannot be had.

    The first call per interpreter compiles (or finds the content-hashed
    cached ``.so``); every later call is a list lookup.  Set
    ``REPRO_NO_NATIVE`` to force the numpy fallback everywhere.
    """
    if _CACHE:
        return _CACHE[0]
    native = None
    if not os.environ.get("REPRO_NO_NATIVE"):
        try:
            text = _source()
            digest = hashlib.sha256(text.encode()).hexdigest()[:16]
            so_path = _build_dir() / f"stencil-{digest}.so"
            if so_path.exists() or _compile(text, so_path):
                native = NativeKernels(ctypes.CDLL(str(so_path)))
        except OSError:
            native = None
    _CACHE.append(native)
    return native
