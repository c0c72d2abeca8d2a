"""Finite-element substrate: the paper's structural test problem.

The evaluation problem in Adams (1983) is plane-stress displacement of a
rectangular plate discretized with linear (CST) triangular elements on a
regular grid, '/'-diagonal triangulation, nodes colored Red/Black/Green
(Figure 1), left edge constrained, right edge loaded.  This package builds
that problem from scratch:

* :mod:`repro.fem.mesh` — the plate grid, triangulation, node coloring, and
  constrained/loaded edge bookkeeping;
* :mod:`repro.fem.plane_stress` — element stiffness and global assembly;
* :mod:`repro.fem.stencil` — the ≤14-nonzero grid-point stencil of Figure 2;
* :mod:`repro.fem.model_problems` — ready-to-solve ``K u = f`` factories
  (the paper's plate plus a 5-point Poisson secondary problem);
* :mod:`repro.fem.matrixfree` — matrix-free stencil operators for the
  regular-mesh problems (the ``"stencil"`` solver backend's substrate).
"""

from repro.fem.irregular import (
    IrregularProblem,
    l_shaped_problem,
    perforated_problem,
)
from repro.fem.matrixfree import (
    STENCIL_SCENARIOS,
    anisotropic_stencil,
    plate_stencil,
    poisson_stencil,
    stencil_operator,
)
from repro.fem.mesh import COLOR_NAMES, PlateMesh
from repro.fem.model_problems import (
    AnisotropicProblem,
    PlateProblem,
    PoissonProblem,
    anisotropic_problem,
    plate_problem,
    poisson_problem,
    variable_plate_problem,
)
from repro.fem.plane_stress import (
    ElasticMaterial,
    assemble_from_triangles,
    assemble_plate,
    assemble_plate_full,
    cst_stiffness,
)
from repro.fem.stencil import node_stencil, stencil_summary
from repro.fem.stress import element_stresses, nodal_stresses, von_mises

__all__ = [
    "COLOR_NAMES",
    "PlateMesh",
    "ElasticMaterial",
    "assemble_from_triangles",
    "assemble_plate",
    "assemble_plate_full",
    "cst_stiffness",
    "PlateProblem",
    "PoissonProblem",
    "AnisotropicProblem",
    "plate_problem",
    "variable_plate_problem",
    "poisson_problem",
    "anisotropic_problem",
    "IrregularProblem",
    "l_shaped_problem",
    "perforated_problem",
    "node_stencil",
    "stencil_summary",
    "STENCIL_SCENARIOS",
    "anisotropic_stencil",
    "plate_stencil",
    "poisson_stencil",
    "stencil_operator",
    "element_stresses",
    "nodal_stresses",
    "von_mises",
]
