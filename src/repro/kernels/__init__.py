"""The kernel backend layer — every solver's hot primitives live here.

The paper's vectorization argument, realized in numpy: under a multicolor
ordering the SSOR triangular solves decompose into a handful of dense
color-block operations (:mod:`repro.kernels.triangular`), the m-step
sweep walks one pass schedule through one apply front
(:mod:`repro.kernels.sweep`), the PCG loop is two fused passes over
resident blocks (:mod:`repro.kernels.ops`), and the steady state runs
out of preallocated workspaces (:mod:`repro.kernels.workspace`).

Every consumer dispatches on a backend name
(:mod:`repro.kernels.backend`): ``"vectorized"`` is the default fast
path, ``"reference"`` the paper-faithful row-sequential formulation that
the equivalence test-suite pins the fast path against.
"""

from repro.kernels._native import BLOCK_WIDTH
from repro.kernels.backend import (
    BACKENDS,
    REFERENCE,
    SESSION_BACKENDS,
    SOLVER_BACKENDS,
    STENCIL,
    VECTORIZED,
    resolve_backend,
    resolve_solver_backend,
)
from repro.kernels.ops import (
    axpy,
    matvec_accumulate,
    matvec_into,
    row_scale,
    supports_matvec_block,
    supports_matvec_into,
)
from repro.kernels.triangular import (
    ColorBlockTriangularSolver,
    FactorizedTriangularSolver,
    ReferenceTriangularSolver,
    detect_color_slices,
    make_triangular_solver,
)
from repro.kernels.stencil import StencilOperator, StencilSSOR
from repro.kernels.workspace import WorkspacePool

__all__ = [
    "BLOCK_WIDTH",
    "BACKENDS",
    "REFERENCE",
    "SOLVER_BACKENDS",
    "SESSION_BACKENDS",
    "STENCIL",
    "VECTORIZED",
    "resolve_backend",
    "resolve_solver_backend",
    "StencilOperator",
    "StencilSSOR",
    "axpy",
    "matvec_accumulate",
    "matvec_into",
    "row_scale",
    "supports_matvec_block",
    "supports_matvec_into",
    "ColorBlockTriangularSolver",
    "FactorizedTriangularSolver",
    "ReferenceTriangularSolver",
    "detect_color_slices",
    "make_triangular_solver",
    "WorkspacePool",
]
