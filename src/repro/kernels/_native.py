"""Optional compiled kernels: the stencil products, the m-step sweeps, the
CSR block product and the fixed-order reductions of the PCG loop.

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

The whole m-step multicolor SSOR sweep (Algorithm 2) is one call, for
vectors and blocks alike: one schedule over two row walkers, generated
from one row template per width.  ``stencil_ssor`` gathers at the
stencil's constant offsets off a :class:`~repro.kernels.stencil.SweepPlan`;
``csr_ssor`` walks the permuted CSR rows off a
:class:`~repro.multicolor.blocked.CSRSweepPlan`.  ``csr_product`` runs
the CSR row bodies with no solve over a matrix's own arrays: ``K·X`` with
scipy's ``csr_matvecs`` bits.  Every entry point but the value-row product
takes blocks of at most :data:`BLOCK_WIDTH` columns:
:func:`repro.core.pcg.block_pcg` runs a wider block as groups of that
many, and the Python fronts split a direct wider call the same way or
take their numpy twins, so no kernel keeps scratch sized by the block
width on the stack.

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
import functools
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

import numpy as np

__all__ = ["BLOCK_WIDTH", "load_native"]

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


#: Generated RHS widths of the block sweeps and block products.  A
#: compile-time k turns the per-row column loops into fully unrolled
#: straight-line SIMD over a register-resident accumulator (the runtime-k
#: loop pays ~2× at k ≤ 6, and an accumulator behind a pointer that may
#: alias the operands costs a load and store per term).
_BLOCK_K = tuple(range(2, 9))

#: The widest block the sweeps, the CSR product, the dots and the fused
#: CG passes take: their widest generated body.  Columns are independent
#: chains, so a wider block runs as consecutive groups of at most this
#: many columns with exactly the bits of the whole block.
#: :func:`repro.core.pcg.block_pcg` groups its lockstep so (at CSR plate
#: a = 41, m = 3, k = 16 that solved 1.5× faster than one 16-wide
#: lockstep, whose every kernel re-streamed the block once per 8
#: columns); narrower groups lose (plate a = 100, 3P: 0.77× at k = 8 run
#: as 4 + 4).
BLOCK_WIDTH = _BLOCK_K[-1]

#: Entry counts with a generated interior stencil-sweep body, per width.
#: A constant trip count unrolls each row's short gather chain.  A vector
#: takes every count the stencils have: 4 per half on the 5-point scalar
#: stencils, 1–11 on the 15-diagonal interleaved plate.  A block takes
#: the 5-point stencils' 4 only, which measured ~1.15× faster than the
#: runtime count at k = 4 on Poisson g = 256; the plate's counts gain
#: nothing measurable over the branch-free runtime-count body.
_SWEEP_NE = {1: tuple(range(1, 13)), **{kk: (4,) for kk in _BLOCK_K}}

#: Fewest natural rows per block of the stencil sweep's wavefront (see
#: ``stencil_ssor``); a block is at least the plan's reach.
_WAVE_ROWS = 64

#: One row body of the merged sweep, written once and generated per width
#: ``{kk}`` and operator representation: ``{head}`` names
#: the scheduled row, ``{entries}`` and ``{gather}`` walk its couplings
#: (coefficient ``cf``, gathered row ``rc`` of r̃).  Every column is its own
#: chain: the entries land on a zero accumulator in plan order and the
#: solve is ``((α·r − y) − acc) / d``.  ``al`` holds the step's α, one
#: (``ka`` = 1) or one per column.  The quotients go through the local
#: ``z`` so the divides vectorize — a store straight to ``rt`` could alias
#: ``r`` or ``y`` as far as the compiler knows — in the same association,
#: so with the same bits.
_ROWS_TEMPLATE = """
ROW_BODY static void {name}({params})
{{
    long q, e, j;
    double a[{kk}], acc[{kk}], z[{kk}];
    for (j = 0; j < {kk}; ++j)
        a[j] = al[ka == 1 ? 0 : j];
    for (q = qa; q < qb; ++q) {{
        double *yq = y + (size_t)q * {kk};
{head}        for (j = 0; j < {kk}; ++j)
            acc[j] = 0.0;
        for ({entries}) {{
{gather}            for (j = 0; j < {kk}; ++j)
                acc[j] += cf * rc[j];
        }}
        if (do_solve) {{
            const double *rr = r + (size_t)row * {kk};
            double *rtr = rt + (size_t)row * {kk};
            const double d = diag[q];
            if (use_y)
                for (j = 0; j < {kk}; ++j)
                    z[j] = ((a[j] * rr[j] - yq[j]) - acc[j]) / d;
            else
                for (j = 0; j < {kk}; ++j)
                    z[j] = (a[j] * rr[j] - acc[j]) / d;
            for (j = 0; j < {kk}; ++j)
                rtr[j] = z[j];
        }}
        if (store_y)
            for (j = 0; j < {kk}; ++j)
                yq[j] = acc[j];
    }}
}}
"""

_SWEEP_TAIL = (
    "const double *al, long ka, const double *r, double *rt, double *y, "
    "int use_y, int do_solve, int store_y"
)
_TAIL_ARGS = "al, ka, r, rt, y, use_y, do_solve, store_y"
_STENCIL_PARAMS = (
    "long n, long qa, long qb, long g0, long ne, const long *rows, "
    "const double *diag, const long *offs, const double *cm, " + _SWEEP_TAIL
)
_STENCIL_ARGS = "n, qa, qb, g0, ne, rows, diag, offs, cm, " + _TAIL_ARGS
_CSR_PARAMS = (
    "long qa, long qb, const int *ptr, const int *col, const double *val, "
    "const double *diag, " + _SWEEP_TAIL
)
_CSR_ARGS = "qa, qb, ptr, col, val, diag, " + _TAIL_ARGS


def _stencil_rows(kk: int, ne=None, clip=False) -> str:
    """The stencil's row body at width ``kk``.

    An interior body gathers inside ``[0, n)``, over the runtime entry
    count or a constant one ``ne``; a ``clip`` body serves the margins,
    whose gather columns clip into ``[0, n)``.  Kept apart, the interior
    gather is one branch-free SIMD load per entry.
    """
    count = "ne" if ne is None else str(ne)
    if clip:
        gather = (
            "            long col = row + offs[e];\n"
            "            const double cf = crow[e];\n"
            "            const double *rc;\n"
            "            if (col < 0) col = 0; else if (col >= n) col = n - 1;\n"
            f"            rc = rt + (size_t)col * {kk};\n"
        )
    else:
        gather = (
            "            const double cf = crow[e];\n"
            f"            const double *rc = rt + (size_t)(row + offs[e]) * {kk};\n"
        )
    return _ROWS_TEMPLATE.format(
        name=f"ssor_rows_k{kk}"
        + ("" if ne is None else f"_e{ne}")
        + ("_clip" if clip else ""),
        params=_STENCIL_PARAMS,
        head=(
            "        const long row = rows[q];\n"
            "        const double *crow = cm + (size_t)(q - g0) * (size_t)"
            f"{count};\n"
        ),
        entries=f"e = 0; e < {count}; ++e",
        gather=gather,
        kk=kk,
    )


def _csr_rows(kk: int) -> str:
    """The CSR row body at width ``kk``."""
    return _ROWS_TEMPLATE.format(
        name=f"csr_rows_k{kk}",
        params=_CSR_PARAMS,
        head="        const long row = q;\n",
        entries="e = ptr[q]; e < ptr[q + 1]; ++e",
        gather=(
            "            const double cf = val[e];\n"
            f"            const double *rc = rt + (size_t)col[e] * {kk};\n"
        ),
        kk=kk,
    )


def _width_switch(body: str, args: str, generic: str, widths) -> str:
    """``switch (k)`` onto the generated ``body.format(k)``, else the
    statement ``generic``."""
    cases = "".join(
        f"    case {kk}: {body.format(kk)}({args}); return;\n" for kk in widths
    )
    tail = f"    {generic}\n" if generic else ""
    return f"    switch (k) {{\n{cases}    }}\n{tail}"


#: Every generated width: the vector and the block widths.  A one-column
#: block is the vector form; a compile-time width keeps the dot's 8 lanes
#: × k partial sums, and every row body's accumulator, in registers.
_WIDTHS = (1,) + _BLOCK_K

#: Bodies of the dot and the two fused CG passes over a C-ordered (n, K)
#: block, per width.
_CG_TEMPLATE = """
static void dots_k{kk}(
    long n, const double *x, const double *y, double *out)
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

static void axpy_k{kk}(
    long n, const double *p, const double *kp, const double *rho,
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

static void xpay_k{kk}(
    long n, const double *rt, const double *rho_new, double *rho,
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
    bodies = "".join(_CG_TEMPLATE.format(kk=kk) for kk in _WIDTHS)

    def dispatch(name: str, params: str, args: str) -> str:
        """``name(n, k, …)`` onto the width-``k`` body."""
        return (
            f"static void {name}(long n, long k, {params})\n{{\n"
            + _width_switch(f"{name}_k{{}}", "n, " + args, "", _WIDTHS)
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
   lane order; a vector is the one-column block.  Every entry below takes
   k <= """ + str(BLOCK_WIDTH) + """. */
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
    double rho_new[""" + str(BLOCK_WIDTH) + """];
    if (k < 1 || k > """ + str(BLOCK_WIDTH) + """)
        return;
    dots(n, k, rt, r, rho_new);
    xpay(n, k, rt, rho_new, rho, p);
}
"""
    )


def _sweep_source() -> str:
    """The merged m-step sweeps: one schedule, two row walkers."""
    stencil_rows = "".join(
        _stencil_rows(kk, clip=clip) for kk in _SWEEP_NE for clip in (False, True)
    ) + "".join(
        _stencil_rows(kk, ne) for kk, counts in _SWEEP_NE.items() for ne in counts
    )
    csr_rows = "".join(_csr_rows(kk) for kk in _WIDTHS)
    return (
        """
/* ---- merged multicolor m-step SSOR sweeps -----------------------------

   Algorithm 2's Conrad-Wallach schedule is written once (mstep_pass) and
   walks one of two plans: the stencil's constant-offset gathers
   (stencil_ssor, off a StencilOperator.sweep_plan) or the permuted CSR
   rows (csr_ssor, off a BlockedMatrix.sweep_plan).  Both are bitwise
   the one numpy twin, repro.kernels.sweep.sweep_numpy, which walks the
   same passes (mstep_passes) off the same plans:
   the entries of a row land on a zero accumulator in plan order, the
   solve subtracts in the association ((alpha*r - y) - acc), and
   -ffp-contract=off keeps every mul -> add unfused.

   alphas is the (m, ka) schedule: ka = 1 for one schedule on every
   column, ka = k for one per column; step s reads row m - s.  r, rt and
   y are C-contiguous (n, k), element (i, j) at i*k + j, a vector being
   the one-column block; y holds each scheduled row's last lower or upper
   sum.

   stencil_plan (both halves (ep, eoff, ecb, ecoef)):
     gp[nc+1]   row-range pointers into rows/diag, concatenated by color
     rows/diag  unknown index and diagonal value per scheduled row
     ep[nc+1]   entry-range pointers per color
     eoff       column offset per entry
     ecb[nc]    base of the color's (len, ne) row-major coefficient
                matrix inside ecoef
   Gather columns clip to [0, n-1]; the stored coefficient at a clipped
   row is exactly 0.0, so the clipped read contributes a signed zero at
   most -- provided the value read is finite, which is why the walker
   zeroes rt as it goes (a clipped or grid-row-wrap read may land on a
   row this call has not solved yet).

   csr_plan (both halves (ptr, col, val)):
     gp[nc+1]   color row ranges; the permuted rows are color-major
     diag[n]    the D_c diagonals
     ptr[n+1]   per row, its entries left of its color's columns (lower)
                or right of them (upper), with columns col and values val
                in the permuted matrix's stored order -- the order scipy's
                csr_matvec(s) accumulates the merged block rows in; ptr
                and col are 32-bit, as scipy's own CSR indices are.
   Every column read is a row of another color solved earlier in the
   same call, so rt needs no zeroing. */

/* A fixed-width row body vectorizes across its unrolled columns.  Left
   to itself, GCC vectorizes a runtime-count entry loop across the entries
   instead (an in-order reduction, with a scalar path for short rows),
   which made the plate's blocks ~1.5x slower at k = 2 and 4. */
#if defined(__GNUC__) && !defined(__clang__)
#define ROW_BODY __attribute__((optimize("no-tree-loop-vectorize")))
#else
#define ROW_BODY
#endif

struct stencil_half { const long *ep, *eoff, *ecb; const double *ecoef; };
struct stencil_plan {
    long n, nc;
    const long *gp, *rows;
    const double *diag;
    struct stencil_half half[2];   /* lower, upper */
};
struct csr_half { const int *ptr, *col; const double *val; };
struct csr_plan {
    long n, nc;
    const long *gp;
    const double *diag;
    struct csr_half half[2];       /* lower, upper */
};

/* One color pass of the m-step schedule: step s, color c, its lower
   (upper = 0) or upper sums, and the row bodies' flags.  zero_y marks the
   last color's forward pass: that color has no upper coupling, so its y
   is zeroed for the next step's forward pass to subtract nothing. */
struct pass { long s, c; int upper, use_y, do_solve, store_y, zero_y; };

/* Pass i of the schedule.  Per step a forward pass over every color
   (lower sums), a backward pass over colors nc-2 .. 1 (upper sums), then
   color 0's upper sum -- its closing solve on the last step, else stashed
   for the next forward pass: 2 nc - 1 passes per step (one if nc = 1). */
static long passes_per_step(long nc) { return nc >= 2 ? 2 * nc - 1 : 1; }

static struct pass mstep_pass(long nc, long m, long i)
{
    const long per = passes_per_step(nc), s = i / per + 1, j = i % per;
    struct pass p = {s, j, 0, s > 1, 1, 1, nc >= 2 && j == nc - 1};
    if (j >= nc) {
        p.c = 2 * nc - 2 - j;
        p.upper = 1;
        p.use_y = p.c != 0;
        p.do_solve = p.c != 0 || s == m;
        p.store_y = p.c != 0 || s != m;
    }
    return p;
}

/* Step s's row of the (m, ka) alpha schedule. */
static const double *step_row(const double *alphas, long m, long ka, long s)
{
    return alphas + (size_t)(m - s) * (size_t)ka;
}

/* The first q in [qa, qb) with rows[q] >= end; rows ascend. */
static long rows_below(const long *rows, long qa, long qb, long end)
{
    while (qa < qb) {
        const long mid = qa + (qb - qa) / 2;
        if (rows[mid] < end)
            qa = mid + 1;
        else
            qb = mid;
    }
    return qa;
}

static void zero_rows(double *a, long qa, long qb, long k)
{
    long q;
    for (q = qa * k; q < qb * k; ++q)
        a[q] = 0.0;
}
"""
        + stencil_rows
        + """
/* Row dispatch: compile-time widths, the margins apart, and constant
   entry counts for the interior rows where _SWEEP_NE generated them.
   Same arithmetic per column either way -- dispatch is bitwise-neutral. */
static void ssor_rows(long k, """ + _STENCIL_PARAMS + """, int clip)
{
    if (clip) {
        switch (k) {
"""
        + "".join(
            f"        case {kk}: ssor_rows_k{kk}_clip({_STENCIL_ARGS}); return;\n"
            for kk in _SWEEP_NE
        )
        + """        }
    }
    switch (k) {
"""
        + "".join(
            f"    case {kk}:\n        switch (ne) {{\n"
            + "".join(
                f"        case {ne}: ssor_rows_k{kk}_e{ne}({_STENCIL_ARGS}); "
                "return;\n"
                for ne in counts
            )
            + f"        }}\n        ssor_rows_k{kk}({_STENCIL_ARGS});\n        return;\n"
            for kk, counts in _SWEEP_NE.items()
        )
        + """    }
}

/* Scheduled rows [lo, hi) of color c exclude the margins, whose gathers
   clip: rows are sorted ascending, so clipping only bites on a prefix
   (col < 0) and a suffix (col >= n). */
static void clip_bounds(const struct stencil_plan *p, int upper, long c,
                        long *lo, long *hi)
{
    const struct stencil_half *h = &p->half[upper];
    const long *offs = h->eoff + h->ep[c], ne = h->ep[c + 1] - h->ep[c];
    long minoff = 0, maxoff = 0, q_lo = p->gp[c], q_hi = p->gp[c + 1], e;
    for (e = 0; e < ne; ++e) {
        if (offs[e] < minoff) minoff = offs[e];
        if (offs[e] > maxoff) maxoff = offs[e];
    }
    while (q_lo < q_hi && p->rows[q_lo] + minoff < 0) ++q_lo;
    while (q_hi > q_lo && p->rows[q_hi - 1] + maxoff >= p->n) --q_hi;
    *lo = q_lo;
    *hi = q_hi;
}

/* Scheduled rows [qa, qb) of one pass: the margins through the clipping
   body, the interior branch-free.  Clipped entries carry coefficient
   exactly 0.0, so the split does not change any sum. */
static void stencil_span(
    const struct stencil_plan *p, const struct pass *ps, long qa, long qb,
    long lo, long hi, long k, const double *al, long ka, const double *r,
    double *rt, double *y)
{
    const struct stencil_half *h = &p->half[ps->upper];
    const long n = p->n, c = ps->c, ne = h->ep[c + 1] - h->ep[c];
    const long g0 = p->gp[c], *offs = h->eoff + h->ep[c], *rows = p->rows;
    const double *cm = h->ecoef + h->ecb[c], *diag = p->diag;
    const int use_y = ps->use_y, do_solve = ps->do_solve;
    const int store_y = ps->store_y;
    const long q0 = qa;
    long z = qb < lo ? qb : lo;
    if (qa < z) {
        ssor_rows(k, n, qa, z, g0, ne, rows, diag, offs, cm,
                  al, ka, r, rt, y, use_y, do_solve, store_y, 1);
        qa = z;
    }
    z = qb < hi ? qb : hi;
    if (qa < z) {
        ssor_rows(k, n, qa, z, g0, ne, rows, diag, offs, cm,
                  al, ka, r, rt, y, use_y, do_solve, store_y, 0);
        qa = z;
    }
    if (qa < qb)
        ssor_rows(k, n, qa, qb, g0, ne, rows, diag, offs, cm,
                  al, ka, r, rt, y, use_y, do_solve, store_y, 1);
    if (ps->zero_y)
        zero_rows(y, q0, qb, k);
}

/* The stencil sweep as a wavefront.  The natural rows are cut into
   blocks of at least the plan's reach (its largest |offset|), and the
   passes run as a pipeline behind a pass that zeroes rt: at tick t,
   block t of rt is zeroed, then pass i = 0, 1, ... sweeps its rows of
   block t - 1 - i.  A row of block b gathers only rows of blocks
   b-1 .. b+1: every earlier pass (the zeroing included) has swept them
   already, and every later pass none of them, so each gather reads
   exactly the value the pass-by-pass schedule over a zeroed rt reads --
   the same bits, NaN included -- while the arrays stream through the
   cache once per call instead of once per color pass. */
void stencil_ssor(const struct stencil_plan *p, long k, long m, long ka,
                  const double *alphas, const double *r, double *rt,
                  double *y)
{
    const long n = p->n, nc = p->nc, np = m * passes_per_step(nc);
    long span = """ + str(_WAVE_ROWS) + """, nb, i, t, e;
    if (k < 1 || n < 1 || nc < 1 || m < 1)
        return;  /* nothing to sweep, and no zero-length arrays */
    for (i = 0; i < 2; ++i)
        for (e = 0; e < p->half[i].ep[nc]; ++e) {
            const long o = p->half[i].eoff[e];
            if (o > span) span = o;
            if (-o > span) span = -o;
        }
    if (k == 1 || span > n)
        span = n;  /* a vector's passes are too cheap to pipeline */
    nb = (n + span - 1) / span;
    {
        long next[np], lo[2 * nc], hi[2 * nc];
        for (i = 0; i < 2 * nc; ++i)
            clip_bounds(p, i % 2, i / 2, &lo[i], &hi[i]);
        for (i = 0; i < np; ++i)
            next[i] = p->gp[mstep_pass(nc, m, i).c];
        for (t = 0; t < nb + np; ++t) {
            if (t < nb)
                zero_rows(rt, t * span, t + 1 < nb ? (t + 1) * span : n, k);
            for (i = 0; i < np && t - 1 - i >= 0; ++i) {
                const struct pass ps = mstep_pass(nc, m, i);
                const long b = t - 1 - i, end = (b + 1) * span;
                const long qa = next[i], last = p->gp[ps.c + 1];
                long qb;
                if (b >= nb)
                    continue;
                qb = b == nb - 1 ? last
                   : rows_below(p->rows, qa, last - qa > span ? qa + span : last,
                                end);
                next[i] = qb;
                if (qa == qb)
                    continue;
                stencil_span(p, &ps, qa, qb, lo[2 * ps.c + ps.upper],
                             hi[2 * ps.c + ps.upper], k,
                             step_row(alphas, m, ka, ps.s), ka, r, rt, y);
            }
        }
    }
}
"""
        + csr_rows
        + """
static void csr_rows(long k, """ + _CSR_PARAMS + """)
{
"""
        + _width_switch("csr_rows_k{}", _CSR_ARGS, "", _WIDTHS)
        + """}

/* The assembled sweep pass by pass: its permuted rows are color-major,
   so a pass already streams one contiguous range. */
void csr_ssor(const struct csr_plan *p, long k, long m, long ka,
              const double *alphas, const double *r, double *rt, double *y)
{
    const long nc = p->nc, np = m * passes_per_step(nc);
    long i;
    if (k < 1 || nc < 1)
        return;
    for (i = 0; i < np; ++i) {
        const struct pass ps = mstep_pass(nc, m, i);
        const struct csr_half *h = &p->half[ps.upper];
        const long qa = p->gp[ps.c], qb = p->gp[ps.c + 1];
        csr_rows(k, qa, qb, h->ptr, h->col, h->val, p->diag,
                 step_row(alphas, m, ka, ps.s), ka, r, rt, y,
                 ps.use_y, ps.do_solve, ps.store_y);
        if (ps.zero_y)
            zero_rows(y, qa, qb, k);
    }
}

/* out = K x for C-contiguous (n, k) blocks off a CSR matrix's own arrays
   (32-bit ptr and col, as scipy's): the sweep's row bodies with no solve,
   rt = x and y = out.  Each row's entries land on a zero accumulator in
   stored order, unfused -- exactly scipy's csr_matvecs into a zeroed out,
   so every column has its bits. */
void csr_product(long n, long k, const int *ptr, const int *col,
                 const double *val, const double *x, double *out)
{
    static const double unused_alpha = 0.0;
    if (k >= 1)
        csr_rows(k, 0, n, ptr, col, val, NULL, &unused_alpha, 1, x,
                 (double *)x, out, 0, 0, 1);
}
"""
    )


def _source() -> str:
    vec_cases = "".join(_CASE_TEMPLATE.format(nd=nd) for nd in _SPECIALIZED)
    values_rows = "".join(_VALUES_ROWS_TEMPLATE.format(kk=kk) for kk in _BLOCK_K)
    values_dispatch = _width_switch(
        "values_rows_k{}",
        "n, nd, offs, vals, lo, hi, window, x, out, accumulate",
        "values_rows_any(n, nd, offs, vals, k, lo, hi, window, x, out, accumulate);",
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

"""
        + _sweep_source()
        + _cg_source()
    )


#: Functions and loops start on a 64-byte line, so a body's speed does
#: not hang on the code generated before it (unaligned, removing unused
#: bodies left the vector CSR sweep's instructions unchanged but 17%
#: slower on an Intel Xeon; aligned, it ran as before).
_ALIGN = ("-falign-functions=64", "-falign-loops=64")

_FLAG_SETS = (
    # -march=native buys SIMD width; -ffp-contract=off keeps the mul→add
    # chain un-fused in every set, so the rounding matches numpy/scipy
    # exactly.  A compiler that takes neither set builds nothing, and the
    # bitwise numpy fallback runs instead.
    ("-O3", "-march=native", "-ffp-contract=off", *_ALIGN, "-fPIC", "-shared"),
    ("-O3", "-ffp-contract=off", *_ALIGN, "-fPIC", "-shared"),
)

#: The argument type of every ``double *`` parameter.
_DOUBLES = ctypes.POINTER(ctypes.c_double)


def pointer(a: np.ndarray):
    """``a``'s data, as the argument of a ``double *`` parameter.

    ``a`` must be C-contiguous float64.  The result is a ``c_double``
    aliasing ``a``'s first element, which ctypes passes by reference (the
    cheapest conversion it has).  A writable array goes through the buffer
    protocol (~0.6 µs), which holds its memory alive; read-only and empty
    ones take ``ndarray.ctypes`` (~2 µs), and the caller keeps them alive
    while the result is in use.
    """
    try:
        return ctypes.c_double.from_buffer(a)
    except (TypeError, ValueError, BufferError):
        return ctypes.c_double.from_address(a.ctypes.data)


def bind(fn, *fixed, keep=()):
    """``fn`` with its leading arguments converted once.

    Arrays among ``fixed`` pass as their data (:func:`pointer` for a
    ``double *`` parameter, an address otherwise); the caller has checked
    their layout, and the bound callable holds them (and ``keep``) alive.
    A call then converts only the trailing, per-call arguments: with
    plain ``c_long``/``double *`` argtypes that costs a few µs, where an
    ``ndpointer`` check costs ~5 µs per argument.
    """
    bound = functools.partial(fn, *(
        (pointer(a) if kind is _DOUBLES else ctypes.c_void_p(a.ctypes.data))
        if isinstance(a, np.ndarray) else a
        for kind, a in zip(fn.argtypes, fixed)
    ))
    bound.keep = (fixed, keep)
    return bound


@functools.lru_cache(maxsize=None)
def _plan_type(npointers: int):
    """The ctypes mirror of a C sweep plan: ``n``, ``nc``, then the plan's
    array pointers in declaration order."""
    return type(f"Plan{npointers}", (ctypes.Structure,), {"_fields_": [
        ("n", ctypes.c_long),
        ("nc", ctypes.c_long),
        ("arrays", ctypes.c_void_p * npointers),
    ]})


class NativeKernels:
    """ctypes facade over the compiled stencil kernels, sweeps, CSR block
    product and reductions.

    Every entry point takes plain ``c_long``, ``double *`` and address
    arguments: the callers own the layout checks, and bind an operator's
    or a plan's fixed arrays once (:func:`bind`), so a call converts only
    its per-call operands (:func:`pointer`).
    """

    pointer = staticmethod(pointer)

    def __init__(self, lib: ctypes.CDLL):
        self._lib = lib
        long_, int_, ptr, dbl = ctypes.c_long, ctypes.c_int, ctypes.c_void_p, _DOUBLES
        sweep = [ptr, long_, long_, long_, dbl, dbl, dbl, dbl]
        for name, restype, argtypes in (
            ("fixed_dots", None, [long_, long_, dbl, dbl, dbl]),
            ("cg_axpy", long_, [long_, long_] + [dbl] * 7),
            ("cg_xpay", None, [long_, long_] + [dbl] * 4),
            ("stencil_values_b", None,
             [long_, long_, ptr, dbl, long_, dbl, dbl, int_]),
            ("stencil_apply_v", None,
             [long_, long_, ptr, dbl, long_, ptr, dbl, dbl, dbl, dbl, int_]),
            ("stencil_ssor", None, sweep),
            ("csr_ssor", None, sweep),
            ("csr_product", None, [long_, long_, ptr, ptr, dbl, dbl, dbl]),
        ):
            fn = getattr(lib, name)
            fn.restype, fn.argtypes = restype, argtypes
            setattr(self, name, fn)

    def bind_values(self, offs, vals):
        """The value-row product ``out (+)= K·x`` off one operator's
        ``(nd, n)`` value rows: ``call(k, x, out, accumulate)``, ``x`` and
        ``out`` pointers to ``(n,)`` or C-contiguous ``(n, k)``."""
        return bind(self.stencil_values_b, vals.shape[1], len(offs), offs, vals)

    def bind_constant(self, n, offs, cs, srows, svals, stash):
        """The constant-diagonal vector product off one operator's
        recipe: ``call(x, out, accumulate)`` with ``(n,)`` pointers."""
        return bind(
            self.stencil_apply_v, n, len(offs), offs, cs, len(srows), srows,
            svals, stash,
        )

    def bind_product(self, indptr, indices, data):
        """The compiled block product ``out ← K·x`` off one CSR matrix's
        arrays (32-bit ``indptr``/``indices``, float64 ``data``, all
        contiguous): ``call(k, x, out)``, ``x`` and ``out`` pointers to
        C-contiguous ``(n, k)`` blocks.  The arrays are converted once;
        the callable holds them alive."""
        fn = self.csr_product
        n = ctypes.c_long(indptr.size - 1)
        ptr_, col_ = (ctypes.c_void_p(a.ctypes.data) for a in (indptr, indices))
        val_ = pointer(data)

        def call(k, x, out):
            fn(n, k, ptr_, col_, val_, x, out)

        call.keep = (indptr, indices, data)
        return call

    def bind_sweep(self, plan):
        """The compiled m-step sweep bound to ``plan``, once per plan.

        ``plan.entry`` names the walker (``"stencil_ssor"`` or
        ``"csr_ssor"``); ``plan.gp`` holds its color row pointers and
        ``plan.arrays`` its arrays in the C plan's field order.  Returns
        ``call(k, m, ka, alphas, r, rt, y)``, the last four pointers to the
        ``(m, ka)`` schedule and the ``(n,)``/``(n, k)`` operands.  The
        binding is cached on the plan, so every sweep on one plan shares it.
        """
        call = plan.__dict__.get("_call")
        if call is None:
            arrays = plan.arrays
            struct = _plan_type(len(arrays))(
                int(plan.gp[-1]), plan.gp.size - 1,
                (ctypes.c_void_p * len(arrays))(*(a.ctypes.data for a in arrays)),
            )
            call = bind(getattr(self, plan.entry), ctypes.byref(struct), keep=arrays)
            plan.__dict__["_call"] = call
        return call


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


def source_hash() -> str:
    """The content hash that names the compiled pack (16 hex digits): of
    its source and the flag sets that build it."""
    return hashlib.sha256((_source() + repr(_FLAG_SETS)).encode()).hexdigest()[:16]


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
            so_path = _build_dir() / f"stencil-{source_hash()}.so"
            if so_path.exists() or _compile(_source(), so_path):
                native = NativeKernels(ctypes.CDLL(str(so_path)))
        except OSError:
            native = None
    _CACHE.append(native)
    return native
