"""Kernel-backend perf suite (pytest-benchmark flavor of perf_report.py).

Every test carries the ``perf`` marker, which tier-1 excludes by default
(see pytest.ini); run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_perf_suite.py -m perf

The machine-readable trajectory artifact is produced by
``python benchmarks/perf_report.py`` instead — this suite is for
interactive comparison runs (``--benchmark-compare`` etc.).
"""

import numpy as np
import pytest

from repro.core import neumann_coefficients
from repro.core.mstep import MStepPreconditioner
from repro.core.splittings import SSORSplitting
from repro.driver import TABLE2_SCHEDULE, mstep_coefficients
from repro.multicolor import MStepSSOR

from _common import cached_blocked, cached_interval, cached_plate
from perf_report import splitting_solve

pytestmark = pytest.mark.perf

APPLY_MESH = 41
SWEEP_MESH = 20


@pytest.fixture(params=["vectorized", "reference"])
def backend(request):
    return request.param


def test_ssor_apply_p_inv(benchmark, backend):
    blocked = cached_blocked(APPLY_MESH)
    splitting = SSORSplitting(blocked.permuted, backend=backend)
    r = np.random.default_rng(0).normal(size=blocked.n)
    splitting.apply_p_inv(r)  # build the cached solvers outside the timing
    out = benchmark(splitting.apply_p_inv, r)
    assert out.shape == r.shape


def test_mstep_apply(benchmark, backend):
    blocked = cached_blocked(APPLY_MESH)
    precond = MStepPreconditioner(
        SSORSplitting(blocked.permuted, backend=backend), neumann_coefficients(4)
    )
    r = np.random.default_rng(1).normal(size=blocked.n)
    precond.apply(r)
    out = benchmark(precond.apply, r)
    assert out.shape == r.shape


def test_mstep_ssor_sweep(benchmark):
    blocked = cached_blocked(APPLY_MESH)
    applicator = MStepSSOR(blocked, neumann_coefficients(4))
    r = np.random.default_rng(1).normal(size=blocked.n)
    out = benchmark(applicator.apply, r)
    assert out.shape == r.shape


def test_full_pcg(benchmark, backend):
    problem = cached_plate(SWEEP_MESH)
    blocked = cached_blocked(SWEEP_MESH)

    def run():
        return splitting_solve(
            problem, blocked, neumann_coefficients(3), backend, eps=1e-6
        )

    result, _ = benchmark(run)
    assert result.converged


def test_block_pcg_lockstep(benchmark):
    """BLOCK-width multi-RHS solve through one block_pcg lockstep."""
    from repro.pipeline import SolverPlan, SolverSession, synthetic_load_block

    problem = cached_plate(SWEEP_MESH)
    blocked = cached_blocked(SWEEP_MESH)
    width = 6
    session = SolverSession(
        problem, plan=SolverPlan.single(3, block_rhs=width), blocked=blocked
    ).compile()
    F = synthetic_load_block(problem, width)

    block = benchmark(session.solve_cell_block, 3, F=F)
    assert block.result.all_converged


def test_fem_schedule_lockstep(benchmark):
    """The full Table-3 schedule through one batched FEM simulator pass."""
    from repro.driver import TABLE3_SCHEDULE
    from repro.machines import FiniteElementMachine

    problem = cached_plate(SWEEP_MESH)
    blocked = cached_blocked(SWEEP_MESH)
    interval = cached_interval(SWEEP_MESH)
    machine = FiniteElementMachine(problem, 4, blocked=blocked)
    cells = [
        (m, mstep_coefficients(m, par, interval) if m >= 1 else None)
        for m, par in TABLE3_SCHEDULE
    ]

    results = benchmark.pedantic(
        machine.solve_schedule, args=(cells,), kwargs={"eps": 1e-6},
        rounds=1, iterations=1, warmup_rounds=1,
    )
    assert all(r.converged for r in results)


def test_table2_schedule(benchmark, backend):
    problem = cached_plate(SWEEP_MESH)
    blocked = cached_blocked(SWEEP_MESH)
    interval = cached_interval(SWEEP_MESH)

    def run():
        total = 0
        for m, parametrized in TABLE2_SCHEDULE:
            coefficients = (
                mstep_coefficients(m, parametrized, interval) if m else None
            )
            result, _ = splitting_solve(
                problem, blocked, coefficients, backend, eps=1e-6
            )
            assert result.converged
            total += result.iterations
        return total

    total = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=1)
    assert total > 0
