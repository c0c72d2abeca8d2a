"""Kernel-backend selection.

Every hot primitive in the solver stack dispatches through a *backend*:

* ``"vectorized"`` (default) — the cached color-block sweeps, factorized
  triangular solves and fused in-place updates of :mod:`repro.kernels`;
  this is the numpy realization of the paper's claim that under a
  multicolor ordering the SSOR solves are a handful of dense vector
  operations.
* ``"reference"`` — the paper-faithful formulation (row-sequential
  ``spsolve_triangular``, out-of-place updates).  Slow, transparent, and
  the pin for the equivalence test-suite: every fast path must agree with
  it to roundoff.

Every consumer takes a ``backend=`` argument; ``None`` means
``"vectorized"``.

Solver plans additionally accept ``"stencil"`` — the matrix-free
:class:`~repro.kernels.stencil.StencilOperator` path for the regular-mesh
scenarios, which never assembles CSR at all.  It is a *solver* backend,
not a kernel backend: the CSR kernel primitives have no stencil variant,
so :data:`BACKENDS`/:func:`resolve_backend` (used by the triangular-solve
and machine layers) exclude it while :data:`SOLVER_BACKENDS`/
:func:`resolve_solver_backend` (used by plans) include it.

A session solve runs the merged sweep on the assembled or the matrix-free
operator, so only :data:`SESSION_BACKENDS` tell its solves apart; the CLI's
``solve``/``request`` and the serving protocol offer those.
"""

from __future__ import annotations

__all__ = [
    "VECTORIZED",
    "REFERENCE",
    "STENCIL",
    "BACKENDS",
    "SOLVER_BACKENDS",
    "SESSION_BACKENDS",
    "resolve_backend",
    "resolve_solver_backend",
]

VECTORIZED = "vectorized"
REFERENCE = "reference"
STENCIL = "stencil"
BACKENDS = (VECTORIZED, REFERENCE)
SOLVER_BACKENDS = (VECTORIZED, REFERENCE, STENCIL)
SESSION_BACKENDS = (VECTORIZED, STENCIL)


def resolve_backend(name: str | None) -> str:
    """Validate ``name``; ``None`` means ``"vectorized"``."""
    if name is None:
        return VECTORIZED
    if name not in BACKENDS:
        raise ValueError(
            f"unknown kernel backend {name!r}; valid choices: "
            + ", ".join(repr(b) for b in BACKENDS)
        )
    return name


def resolve_solver_backend(name: str | None) -> str:
    """Validate a *solver* backend name (kernel backends + ``"stencil"``).

    ``None`` means ``"vectorized"``.  The error message lists the valid
    choices — plans, the CLI and the serving protocol all route their
    validation through here.
    """
    if name is None:
        return VECTORIZED
    if name not in SOLVER_BACKENDS:
        raise ValueError(
            f"unknown solver backend {name!r}; valid choices: "
            + ", ".join(repr(b) for b in SOLVER_BACKENDS)
        )
    return name
