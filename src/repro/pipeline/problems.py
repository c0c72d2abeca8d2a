"""The scenario registry: named, parameterized problem builders.

Every entry point used to rebuild its model problem by hand — the CLI had
``_build_plate``, the benchmarks their ``cached_plate``, each example its
own few lines — which meant a new scenario had to be wired into every
caller separately.  :class:`ProblemSpec` centralizes that: a named builder
with documented defaults, so drivers ask for ``build_scenario("plate",
nrows=20)`` and new workloads become one ``register_scenario`` call.

The stock registry spans the paper's workloads and beyond:

========================  ==================================================
``plate``                 the paper's plane-stress plate (Tables 2–3)
``stretched-plate``       the plate on a 4:1 stretched domain (skewed
                          elements, harder spectrum)
``variable-plate``        spatially varying Young's modulus (graded or a
                          stiff inclusion) — values change, coloring doesn't
``lshape``                L-shaped domain, greedy multicoloring (the
                          paper's concluding open problem)
``perforated``            plate with a circular hole, greedy multicoloring
``poisson``               5-point Laplacian, classical red/black
``anisotropic``           ``−ε·u_xx − u_yy``: red/black structure, stiff
                          anisotropic spectrum
========================  ==================================================

All builders return objects satisfying the problem protocol
(``k``, ``f``, ``group_of_unknown``, ``group_labels``) that the multicolor
machinery and :class:`~repro.pipeline.SolverSession` consume.

**Workloads.**  A scenario names a *structure*; a :class:`WorkloadSpec`
names the *loads* applied to it — a first-class registry of multi-load
cases (pressure sweeps, shear, thermal gradients, point-load families)
whose columns compile straight to an ``(n, k)`` right-hand-side block and
whose width becomes :attr:`~repro.pipeline.SolverPlan.block_rhs` via
:meth:`WorkloadSpec.solver_plan`.  The block-PCG and sharded-execution
paths (``repro solve --workload NAME --workers W``) consume these.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.fem import (
    anisotropic_problem,
    l_shaped_problem,
    perforated_problem,
    plate_problem,
    poisson_problem,
    variable_plate_problem,
)
from repro.util import require

__all__ = [
    "ProblemSpec",
    "register_scenario",
    "scenario",
    "build_scenario",
    "available_scenarios",
    "synthetic_load_block",
    "WorkloadSpec",
    "register_workload",
    "workload",
    "build_workload",
    "available_workloads",
]


def synthetic_load_block(problem, width: int, seed: int = 1983):
    """An ``(n, width)`` right-hand-side block of load cases for ``problem``.

    Column 0 is the problem's own assembled load; the remaining columns
    are deterministic synthetic cases (seeded normal vectors scaled to
    the load's magnitude).  The one construction shared by the CLI's
    ``--rhs K`` path and the block-PCG benchmarks, so all multi-RHS
    drivers exercise identical blocks.
    """
    require(width >= 1, "width must be at least 1")
    f = np.asarray(problem.f, dtype=float)
    rng = np.random.default_rng(seed)
    scale = float(np.max(np.abs(f))) or 1.0
    cols = [f] + [
        rng.normal(size=f.shape[0]) * scale for _ in range(width - 1)
    ]
    return np.stack(cols, axis=1)


@dataclass(frozen=True)
class ProblemSpec:
    """A named scenario: builder + documented defaults.

    ``build(**overrides)`` merges the overrides into the defaults and
    calls the builder; unknown keyword names surface as the builder's own
    ``TypeError`` so specs stay thin.
    """

    name: str
    builder: Callable
    description: str
    defaults: dict = field(default_factory=dict)
    #: Name of the builder's mesh-size parameter (``nrows``, ``a``,
    #: ``n_grid``) so generic drivers — the CLI's ``--rows`` — can scale
    #: any scenario without knowing its signature.
    size_param: str | None = None
    #: Solver backends this scenario can serve.  Every scenario runs the
    #: assembled kernel backends; the regular-mesh scenarios additionally
    #: support the matrix-free ``"stencil"`` operator.
    backends: tuple[str, ...] = ("vectorized", "reference")

    def build(self, **overrides):
        params = {**self.defaults, **overrides}
        return self.builder(**params)

    def supports_backend(self, backend: str | None) -> bool:
        """Whether a plan backend can serve this scenario (``None`` = default)."""
        return backend is None or backend in self.backends

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProblemSpec({self.name!r}: {self.description})"


_REGISTRY: dict[str, ProblemSpec] = {}


def register_scenario(
    name: str,
    builder: Callable,
    description: str,
    size_param: str | None = None,
    backends: tuple[str, ...] = ("vectorized", "reference"),
    **defaults,
) -> ProblemSpec:
    """Register (or replace) a named scenario and return its spec."""
    require(bool(name), "scenario name must be non-empty")
    spec = ProblemSpec(
        name=name,
        builder=builder,
        description=description,
        defaults=defaults,
        size_param=size_param,
        backends=tuple(backends),
    )
    _REGISTRY[name] = spec
    return spec


def scenario(name: str) -> ProblemSpec:
    """Look up a registered scenario by name."""
    if name not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown scenario {name!r}; registered: {known}")
    return _REGISTRY[name]


def build_scenario(name: str, **overrides):
    """Build a registered scenario's problem with parameter overrides."""
    return scenario(name).build(**overrides)


def available_scenarios() -> tuple[ProblemSpec, ...]:
    """All registered specs, sorted by name."""
    return tuple(_REGISTRY[name] for name in sorted(_REGISTRY))


# --------------------------------------------------------------- stock entries
register_scenario(
    "plate",
    plate_problem,
    "the paper's plane-stress plate (unit square, left edge fixed, "
    "right edge loaded)",
    size_param="nrows",
    backends=("vectorized", "reference", "stencil"),
    nrows=20,
)

def _stretched_plate_problem(nrows=20, ncols=None, aspect=4.0, **kw):
    """The plate on an ``aspect:1`` stretched domain."""
    return plate_problem(nrows, ncols=ncols, width=aspect, **kw)


register_scenario(
    "stretched-plate",
    _stretched_plate_problem,
    "the plate on a stretched (4:1 by default) domain — skewed elements, "
    "a harder spectrum, identical R/B/G coloring",
    size_param="nrows",
    backends=("vectorized", "reference", "stencil"),
    nrows=20,
)

register_scenario(
    "variable-plate",
    variable_plate_problem,
    "the plate with spatially varying Young's modulus (graded stiffness "
    "or a stiff inclusion)",
    size_param="nrows",
    nrows=20,
)

register_scenario(
    "lshape",
    l_shaped_problem,
    "L-shaped plate, greedy multicoloring (the paper's concluding "
    "open problem)",
    size_param="a",
    a=13,
)

register_scenario(
    "perforated",
    perforated_problem,
    "plate with a circular hole, greedy multicoloring",
    size_param="a",
    a=13,
)

register_scenario(
    "poisson",
    poisson_problem,
    "5-point Laplacian on the unit square, classical red/black coloring",
    size_param="n_grid",
    backends=("vectorized", "reference", "stencil"),
    n_grid=16,
)

register_scenario(
    "anisotropic",
    anisotropic_problem,
    "anisotropic stencil −ε·u_xx − u_yy: red/black structure with a "
    "stiff spectrum as ε → 0",
    size_param="n_grid",
    backends=("vectorized", "reference", "stencil"),
    n_grid=16,
)


# ============================================================= workloads
@dataclass(frozen=True)
class WorkloadSpec:
    """A named multi-load case family for one scenario.

    ``builder(problem)`` returns the ``(n, width)`` right-hand-side block,
    one column per case in :attr:`case_labels`.  Workloads are the
    scenario registry's answer for *loads* what :class:`ProblemSpec` is
    for *structures*: entry points ask for ``build_workload("plate-service",
    problem)`` and a new load family becomes one :func:`register_workload`
    call.  The width compiles straight into a plan via
    :meth:`solver_plan` (``block_rhs = width``), so the multi-RHS and
    sharded execution paths are sized from the workload, not by hand.
    """

    name: str
    scenario: str
    description: str
    case_labels: tuple[str, ...]
    builder: Callable  # (problem) -> (n, width) ndarray

    def __post_init__(self) -> None:
        require(bool(self.name), "workload name must be non-empty")
        require(len(self.case_labels) >= 1, "a workload needs at least one case")

    @property
    def width(self) -> int:
        """Number of load cases — the block width this workload compiles to."""
        return len(self.case_labels)

    def build_block(self, problem) -> np.ndarray:
        """The ``(n, width)`` load block for a built scenario problem."""
        F = np.asarray(self.builder(problem), dtype=float)
        require(
            F.ndim == 2 and F.shape == (problem.f.shape[0], self.width),
            f"workload {self.name!r} must build an (n, {self.width}) block",
        )
        return F

    def solver_plan(self, base=None, **overrides):
        """A :class:`~repro.pipeline.SolverPlan` sized for this workload.

        ``base`` (default a one-cell ``m = 3`` parametrized plan) is
        copied with ``block_rhs`` set to the workload width plus any
        ``overrides`` — the "compile straight to ``SolverPlan.block_rhs``"
        hook the CLI's ``--workload`` path uses.
        """
        from repro.pipeline.plan import SolverPlan

        plan = base if base is not None else SolverPlan.single(3, True)
        return plan.with_(block_rhs=self.width, **overrides)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WorkloadSpec({self.name!r} on {self.scenario!r}: "
            f"{self.width} cases)"
        )


_WORKLOADS: dict[str, WorkloadSpec] = {}


def register_workload(
    name: str,
    scenario: str,
    builder: Callable,
    description: str,
    case_labels,
) -> WorkloadSpec:
    """Register (or replace) a named workload and return its spec."""
    spec = WorkloadSpec(
        name=name,
        scenario=scenario,
        description=description,
        case_labels=tuple(case_labels),
        builder=builder,
    )
    _WORKLOADS[name] = spec
    return spec


def workload(name: str) -> WorkloadSpec:
    """Look up a registered workload by name."""
    if name not in _WORKLOADS:
        known = ", ".join(sorted(_WORKLOADS))
        raise KeyError(f"unknown workload {name!r}; registered: {known}")
    return _WORKLOADS[name]


def build_workload(name: str, problem) -> np.ndarray:
    """Build a registered workload's ``(n, width)`` load block."""
    return workload(name).build_block(problem)


def available_workloads() -> tuple[WorkloadSpec, ...]:
    """All registered workload specs, sorted by name."""
    return tuple(_WORKLOADS[name] for name in sorted(_WORKLOADS))


# ------------------------------------------------------- stock load families
PRESSURE_FACTORS = (0.25, 0.5, 1.0, 2.0)
THERMAL_MODES = (1, 2, 3)
POINT_FRACTIONS = (0.2, 0.4, 0.6, 0.8)


def _pressure_family_block(problem) -> np.ndarray:
    """The scenario's own assembled load at several service magnitudes."""
    f = np.asarray(problem.f, dtype=float)
    return np.stack([factor * f for factor in PRESSURE_FACTORS], axis=1)


def _point_family_block(problem) -> np.ndarray:
    """Concentrated unit loads at spread free positions (any scenario)."""
    f = np.asarray(problem.f, dtype=float)
    n = f.shape[0]
    magnitude = float(np.max(np.abs(f))) or 1.0
    cols = []
    for fraction in POINT_FRACTIONS:
        case = np.zeros(n)
        case[int(fraction * (n - 1))] = magnitude
        cols.append(case)
    return np.stack(cols, axis=1)


def _thermal_family_block(problem) -> np.ndarray:
    """Smooth thermal-gradient proxy loads: low sinusoidal dof modes.

    A uniform temperature change loads a constrained structure through a
    smooth, domain-filling force field; mode ``j`` here is
    ``sin(j·π·x)`` over the dof index — deterministic, scenario-agnostic,
    and spectrally at the opposite end from the point-load family.
    """
    f = np.asarray(problem.f, dtype=float)
    n = f.shape[0]
    magnitude = float(np.max(np.abs(f))) or 1.0
    x = np.linspace(0.0, 1.0, n)
    return np.stack(
        [magnitude * np.sin(j * np.pi * x) for j in THERMAL_MODES], axis=1
    )


def _plate_service_block(problem) -> np.ndarray:
    """The plate's service envelope: pressure, shear, and two point loads.

    The shear column is properly *assembled* — the same edge traction
    machinery as the scenario's own load, turned 90° — so this family
    exercises genuinely distinct physics, not rescalings.
    """
    from repro.fem.plane_stress import assemble_plate

    require(
        getattr(problem, "mesh", None) is not None
        and getattr(problem, "material", None) is not None,
        "the plate-service workload needs a plate scenario (mesh + material)",
    )
    f_pressure = np.asarray(problem.f, dtype=float)
    _, f_shear = assemble_plate(
        problem.mesh, problem.material, traction_x=0.0, traction_y=1.0,
        element_scale=problem.element_scale,
    )
    n = f_pressure.shape[0]
    magnitude = float(np.max(np.abs(f_pressure))) or 1.0
    points = []
    for fraction in (0.35, 0.7):
        case = np.zeros(n)
        case[int(fraction * (n - 1))] = magnitude
        points.append(case)
    return np.stack([f_pressure, f_shear, *points], axis=1)


register_workload(
    "plate-service",
    "plate",
    _plate_service_block,
    "the plate's service envelope: edge pressure, assembled edge shear, "
    "and two concentrated point loads",
    ("edge pressure", "edge shear", "point @ 0.35n", "point @ 0.7n"),
)

register_workload(
    "pressure-family",
    "plate",
    _pressure_family_block,
    "the scenario's own load at service magnitudes "
    f"{PRESSURE_FACTORS} (linear sweep of one pressure case)",
    tuple(f"pressure ×{factor:g}" for factor in PRESSURE_FACTORS),
)

register_workload(
    "thermal-family",
    "plate",
    _thermal_family_block,
    "smooth thermal-gradient proxy loads (low sinusoidal modes over the "
    "dof field)",
    tuple(f"thermal mode {j}" for j in THERMAL_MODES),
)

register_workload(
    "point-family",
    "plate",
    _point_family_block,
    "concentrated unit loads swept across the structure "
    f"(fractions {POINT_FRACTIONS})",
    tuple(f"point @ {fraction:g}n" for fraction in POINT_FRACTIONS),
)
