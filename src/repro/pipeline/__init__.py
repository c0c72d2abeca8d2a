"""The plan → compile → execute pipeline.

* :mod:`repro.pipeline.problems` — :class:`ProblemSpec`, a registry of
  named scenarios (the paper's plate, stretched/irregular domains,
  anisotropic stencils, variable-coefficient plates, …);
* :mod:`repro.pipeline.plan` — :class:`SolverPlan`, the declarative
  schedule (m-cells, parametrization, backend);
* :mod:`repro.pipeline.session` — :class:`SolverSession`, which compiles
  one plan against one problem (coloring, blocked system, spectrum,
  merged-sweep kernels, machine layouts) and then executes many schedule
  cells and right-hand sides — including the batched lockstep CYBER pass
  that runs a whole Table-2 schedule through one simulator sweep.
"""

from repro.pipeline.plan import SolverPlan, cell_label
from repro.pipeline.problems import (
    ProblemSpec,
    WorkloadSpec,
    available_scenarios,
    available_workloads,
    build_scenario,
    build_workload,
    register_scenario,
    register_workload,
    scenario,
    synthetic_load_block,
    workload,
)
from repro.pipeline.session import BlockMStepSolve, SessionStats, SolverSession

__all__ = [
    "SolverPlan",
    "cell_label",
    "ProblemSpec",
    "WorkloadSpec",
    "available_scenarios",
    "available_workloads",
    "build_scenario",
    "build_workload",
    "register_scenario",
    "register_workload",
    "scenario",
    "synthetic_load_block",
    "workload",
    "BlockMStepSolve",
    "SessionStats",
    "SolverSession",
]
