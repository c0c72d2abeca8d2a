"""Stencil builders: the regular-mesh operators without assembly.

Each regular-mesh scenario's stiffness matrix is, in the natural ordering,
a small set of constant-offset diagonals — the grid stencil of the
paper's Figure 2.  These builders produce the
:class:`~repro.kernels.stencil.StencilOperator` for a problem directly
from the discretization, never touching ``scipy.sparse``:

* :func:`poisson_stencil` / :func:`anisotropic_stencil` replicate the
  kron-assembly arithmetic term by term (``(2+2)/h²`` diagonals,
  ``−1/h²`` couplings), so the stencil coefficients are **bitwise equal**
  to the assembled matrix entries;
* :func:`plate_stencil` accumulates the batched CST element stiffnesses
  (the exact per-element arithmetic of assembly, on the actual
  ``linspace`` mesh coordinates) over the cell grid by window adds, in
  the same per-entry contribution order as the deterministic assembly
  summation — so plate coefficients are **bitwise equal** to the
  assembled matrix entries too;
* :func:`stencil_operator` dispatches on the problem type.

The spectral interval needs no stencil-specific code: the one routine,
:func:`repro.core.spectral.spectrum_interval`, runs on the operator and
its m = 1 sweep directly.
"""

from __future__ import annotations

import numpy as np

from repro.fem.mesh import PlateMesh
from repro.fem.model_problems import (
    AnisotropicProblem,
    PlateProblem,
    PoissonProblem,
)
from repro.fem.plane_stress import ElasticMaterial, element_stiffness_batch
from repro.kernels.stencil import StencilOperator
from repro.util import require

__all__ = [
    "poisson_stencil",
    "anisotropic_stencil",
    "plate_stencil",
    "stencil_operator",
    "STENCIL_SCENARIOS",
]

#: Registered scenario names the stencil backend can serve.
STENCIL_SCENARIOS = ("plate", "stretched-plate", "poisson", "anisotropic")


def _grid_groups(n_grid: int) -> np.ndarray:
    idx = np.arange(n_grid * n_grid)
    return ((idx % n_grid + idx // n_grid) % 2).astype(np.int64)


def anisotropic_stencil(n_grid: int, epsilon: float = 1.0) -> StencilOperator:
    """5-point stencil of ``−ε·u_xx − u_yy`` with red/black coloring.

    The coefficient arithmetic mirrors the kron assembly of
    :func:`repro.fem.model_problems.anisotropic_problem` exactly —
    ``(ε·2 + 2)/h²`` on the diagonal, ``ε·(−1)/h²`` along x, ``(−1)/h²``
    along y — so every stored value is bitwise equal to the assembled
    CSR entry.  ``ε = 1`` is the isotropic Laplacian.
    """
    require(n_grid >= 2, "need at least a 2×2 interior grid")
    require(epsilon > 0, "anisotropy ratio must be positive")
    g = n_grid
    n = g * g
    h = 1.0 / (g + 1)
    # scipy spells `csr / (h*h)` as multiplication by the reciprocal;
    # mirror it so the coefficients stay bitwise equal to assembly.
    inv_hh = 1.0 / (h * h)
    diag = np.full(n, (epsilon * 2.0 + 2.0) * inv_hh)
    off_x = np.full(n, (epsilon * (-1.0)) * inv_hh)
    off_y = np.full(n, (-1.0) * inv_hh)
    # The ±1 offsets wrap across grid rows; mask the wrap positions (the
    # ±g offsets only run out of range, which the operator trims itself).
    i = np.arange(n) % g
    xm = off_x.copy()
    xm[i == 0] = 0.0
    xp = off_x.copy()
    xp[i == g - 1] = 0.0
    return StencilOperator(
        offsets=(-g, -1, 0, 1, g),
        values=np.stack([off_y, xm, diag, xp, off_y]),
        groups=_grid_groups(g),
        group_labels=PoissonProblem.GROUP_LABELS,
        copy=False,  # the stack above is ours to hand over
    )


def poisson_stencil(n_grid: int) -> StencilOperator:
    """5-point Laplacian stencil (``ε = 1``), bitwise-equal to assembly."""
    return anisotropic_stencil(n_grid, epsilon=1.0)


# Local vertex grid offsets of the two triangle orientations per cell —
# must match PlateMesh.triangles: lower (SW, SE, NW), upper (SE, NE, NW).
_LOWER_VERTS = ((0, 0), (1, 0), (0, 1))
_UPPER_VERTS = ((1, 0), (1, 1), (0, 1))

#: ``(orientation, local_vertex)`` pairs sorted by ``(−pa[1], −pa[0],
#: orientation)``, ``pa`` the vertex's cell-local grid offset.  A node
#: pair's contributing elements sit at cells ``node − pa``, and assembly
#: sums contributions in element order — cells row-major, lower triangle
#: before upper — which is exactly ascending this key.  Accumulating the
#: windows in this order (within each ascending cell-row chunk) makes
#: every ≥3-term coefficient sum associate identically to the
#: deterministic assembly summation; 2-term sums commute bitwise anyway.
_ACC_ORDER = ((1, 1), (0, 2), (1, 2), (0, 1), (1, 0), (0, 0))


def plate_stencil(
    mesh: PlateMesh,
    material: ElasticMaterial | None = None,
    chunk_rows: int = 64,
) -> StencilOperator:
    """The plane-stress plate stiffness as ≤21 dof-level diagonals.

    Element stiffnesses come from the same batched einsum assembly uses
    (:func:`~repro.fem.plane_stress.element_stiffness_batch`, on the
    actual mesh coordinates), and the window accumulation follows
    ``_ACC_ORDER`` so every coefficient sums its element contributions in
    assembly's deterministic triangle order — the stored diagonals are
    **bitwise equal** to the assembled CSR entries.  Constrained-column
    couplings are zeroed exactly as elimination drops them.  Within each
    color group a dof-level offset addresses one node offset, so the
    multicolor sweep structure carries over unchanged.  ``chunk_rows``
    bounds the per-chunk element batch (cell rows per pass); any chunking
    yields the same bits.
    """
    material = material or ElasticMaterial()
    nrows, ncols = mesh.nrows, mesh.ncols
    require(ncols >= 3, "stencil plate needs at least 3 node columns")
    coords = mesh.coordinates
    cells_x, cells_y = ncols - 1, nrows - 1
    verts_by_orient = (_LOWER_VERTS, _UPPER_VERTS)

    # Node-level accumulation: coef[(di, dj)][j, i, α, β] is the stiffness
    # coupling of node (i, j)'s dof α to node (i+di, j+dj)'s dof β summed
    # over every element containing both — zero wherever no cell covers
    # the pair, which is exactly the boundary tapering assembly produces.
    coef: dict[tuple[int, int], np.ndarray] = {}
    cell_i = np.arange(cells_x)
    for r0 in range(0, cells_y, max(chunk_rows, 1)):
        r1 = min(r0 + max(chunk_rows, 1), cells_y)
        sw = (np.arange(r0, r1)[:, None] * ncols + cell_i[None, :]).ravel()
        kes = []
        for verts in verts_by_orient:
            tri = np.stack([sw + dj * ncols + di for di, dj in verts], axis=1)
            kes.append(element_stiffness_batch(coords, tri, material))
        for orient, a in _ACC_ORDER:
            verts = verts_by_orient[orient]
            ke = kes[orient]
            pa = verts[a]
            for b in range(3):
                pb = verts[b]
                delta = (pb[0] - pa[0], pb[1] - pa[1])
                arr = coef.setdefault(
                    delta, np.zeros((nrows, ncols, 2, 2))
                )
                block = ke[:, 2 * a : 2 * a + 2, 2 * b : 2 * b + 2]
                arr[
                    pa[1] + r0 : pa[1] + r1, pa[0] : pa[0] + cells_x
                ] += block.reshape(r1 - r0, cells_x, 2, 2)

    # Map node offsets to dof-level flat diagonals over the eliminated
    # system: unconstrained nodes form an (nrows × b) grid, b = ncols−1,
    # natural dof = 2·(j·b + (i−1)) + α, so node offset (di, dj) with dof
    # pair (α, β) lands on flat offset 2·(dj·b + di) + (β − α).  Flat
    # wrap-arounds only occur where the 2-D target leaves the grid — and
    # there the accumulated coefficient is already zero.
    b = ncols - 1
    n = 2 * nrows * b
    vals_by_offset: dict[int, np.ndarray] = {}
    for (di, dj), arr in coef.items():
        node_vals = arr[:, 1:, :, :]
        if di < 0:
            node_vals = node_vals.copy()
            node_vals[:, :(-di), :, :] = 0.0  # target column is constrained
        for alpha in (0, 1):
            for beta in (0, 1):
                offset = 2 * (dj * b + di) + (beta - alpha)
                v = vals_by_offset.setdefault(offset, np.zeros(n))
                v[alpha::2] += node_vals[:, :, alpha, beta].ravel()

    offsets = sorted(o for o, v in vals_by_offset.items() if np.any(v) or o == 0)
    values = np.stack([vals_by_offset[o] for o in offsets])
    groups = 2 * mesh.node_colors[mesh.dof_node] + mesh.dof_component
    return StencilOperator(
        offsets=offsets,
        values=values,
        groups=groups,
        group_labels=PlateProblem.GROUP_LABELS,
        copy=False,  # the stack above is ours to hand over
    )


def stencil_operator(problem) -> StencilOperator:
    """The matrix-free operator for a regular-mesh problem.

    Supports the plate (homogeneous material), poisson and anisotropic
    problems; raises for anything else (irregular regions have no
    constant-offset structure, variable-coefficient plates no constant
    element stiffness).
    """
    if isinstance(problem, AnisotropicProblem):
        return anisotropic_stencil(problem.n_grid, problem.epsilon)
    if isinstance(problem, PoissonProblem):
        return poisson_stencil(problem.n_grid)
    if isinstance(problem, PlateProblem):
        require(
            problem.element_scale is None,
            "the stencil backend needs a constant element stiffness; "
            "variable-coefficient plates must use the assembled (CSR) path",
        )
        return plate_stencil(problem.mesh, problem.material)
    raise ValueError(
        f"no stencil operator for {type(problem).__name__}; the stencil "
        f"backend serves the regular-mesh scenarios {STENCIL_SCENARIOS}"
    )
