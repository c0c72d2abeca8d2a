"""Machine schedule passes against their per-cell solves.

``FiniteElementMachine.solve_schedule`` runs the whole Table-3 schedule
through one batched pass with per-cell clocks, communication ledgers and
iterates **bitwise identical** to the per-cell ``solve`` (a one-cell
pass), across every cell.  The CYBER and FEM passes are each one
``block_pcg`` call plus a structural charge, and a cell's record does not
depend on which cells share its pass, also through the ends of a solve
that a converging schedule never reaches: a breakdown and the ``maxiter``
cap.  (The clocks themselves are pinned as literals in
``tests/test_machines_clocks.py``.  The SPMD engine solves one cell at a
time through the same Algorithm 1, bitwise the serial solve on every
processor grid; its solves are pinned in ``tests/test_machines_spmd.py``.)
"""

import dataclasses

import numpy as np
import pytest

import repro.machines.charges as charges_module
from repro.driver import (
    TABLE2_EPS,
    TABLE3_SCHEDULE,
    build_blocked_system,
    mstep_coefficients,
    ssor_interval,
)
from repro.machines import CyberMachine, FiniteElementMachine
from repro.machines.cells import SchedulePreconditioner
from repro.pipeline import SolverPlan, SolverSession, build_scenario

EPS = 1e-6


@pytest.fixture(scope="module")
def plate():
    problem = build_scenario("plate", nrows=8)
    blocked = build_blocked_system(problem)
    interval = ssor_interval(blocked)
    cells = [
        (m, mstep_coefficients(m, par, interval) if m >= 1 else None)
        for m, par in TABLE3_SCHEDULE
    ]
    return problem, blocked, cells


class TestFEMSolveSchedule:
    @pytest.fixture(scope="class", params=[1, 5])
    def results(self, request, plate):
        problem, blocked, cells = plate
        machine = FiniteElementMachine(problem, request.param, blocked=blocked)
        per_cell = [machine.solve(m, c, eps=EPS) for m, c in cells]
        batched = machine.solve_schedule(cells, eps=EPS)
        return per_cell, batched

    def test_iterations_and_labels_bitwise(self, results):
        per_cell, batched = results
        assert [r.iterations for r in batched] == [r.iterations for r in per_cell]
        assert [r.label for r in batched] == [r.label for r in per_cell]
        assert all(r.converged for r in batched)

    def test_clocks_bitwise(self, results):
        per_cell, batched = results
        for pc, b in zip(per_cell, batched):
            assert b.seconds == pc.seconds
            assert b.compute_seconds == pc.compute_seconds
            assert b.comm_seconds == pc.comm_seconds
            assert b.reduction_seconds == pc.reduction_seconds
            assert b.flag_seconds == pc.flag_seconds

    def test_comm_ledgers_bitwise(self, results):
        per_cell, batched = results
        for pc, b in zip(per_cell, batched):
            assert b.total_records == pc.total_records
            assert b.total_words == pc.total_words

    def test_iterates_bitwise(self, results):
        per_cell, batched = results
        for pc, b in zip(per_cell, batched):
            assert np.array_equal(b.u_natural, pc.u_natural)

    def test_covers_every_table3_cell(self, results):
        _, batched = results
        assert len(batched) == len(TABLE3_SCHEDULE)


class TestFEMScheduleEdgeCases:
    @pytest.fixture(scope="class")
    def machine(self, plate):
        problem, blocked, _ = plate
        return FiniteElementMachine(problem, 2, blocked=blocked)

    def test_empty_schedule(self, machine):
        assert machine.solve_schedule([]) == []

    def test_single_cell_matches_solve(self, machine):
        single = machine.solve(3, np.ones(3), eps=EPS)
        [batched] = machine.solve_schedule([(3, np.ones(3))], eps=EPS)
        assert batched.iterations == single.iterations
        assert batched.seconds == single.seconds
        assert np.array_equal(batched.u_natural, single.u_natural)

    def test_duplicate_m_different_coefficients(self, machine):
        coeffs_a = np.ones(2)
        coeffs_b = np.array([1.7, 0.4])
        pair = machine.solve_schedule([(2, coeffs_a), (2, coeffs_b)], eps=EPS)
        singles = [machine.solve(2, coeffs_a, eps=EPS),
                   machine.solve(2, coeffs_b, eps=EPS)]
        for b, s in zip(pair, singles):
            assert b.iterations == s.iterations
            assert b.seconds == s.seconds
            assert np.array_equal(b.u_natural, s.u_natural)

    def test_maxiter_cap(self, machine):
        [res] = machine.solve_schedule([(0, None)], eps=1e-14, maxiter=3)
        capped = machine.solve(0, None, eps=1e-14, maxiter=3)
        assert res.iterations == 3 and not res.converged
        assert res.seconds == capped.seconds

    def test_rejects_negative_m(self, machine):
        with pytest.raises(ValueError):
            machine.solve_schedule([(-1, None)])


def _mixed_cells(interval):
    """Plain CG, unparametrized and parametrized cells over two values of m."""
    return [
        (0, None),
        (2, None),
        (2, mstep_coefficients(2, True, interval)),
        (3, None),
        (3, mstep_coefficients(3, True, interval)),
    ]


def _assert_records_equal(schedule, per_cell):
    """Every field of each record — iterations, flags, clocks, ledgers —
    equal, and the iterates bitwise."""
    assert len(schedule) == len(per_cell)
    for b, s in zip(schedule, per_cell):
        fields_b, fields_s = dict(vars(b)), dict(vars(s))
        assert np.array_equal(fields_b.pop("u_natural"), fields_s.pop("u_natural"))
        assert fields_b == fields_s


class TestScheduleIsOneBlockPCG:
    """CYBER and FEM schedules: one ``block_pcg`` plus a structural charge."""

    @pytest.fixture(scope="class")
    def machines(self, plate):
        problem, blocked, _ = plate
        interval = ssor_interval(blocked)
        return {
            "cyber": CyberMachine(problem),
            "fem": FiniteElementMachine(problem, 2, blocked=blocked),
        }, _mixed_cells(interval)

    @pytest.mark.parametrize("kind", ["cyber", "fem"])
    def test_one_block_pcg_call(self, machines, kind, monkeypatch):
        by_kind, cells = machines
        machine = by_kind[kind]
        widths = []
        real = charges_module.block_pcg

        def spy(k, F, *args, **kwargs):
            widths.append(F.shape[1])
            return real(k, F, *args, **kwargs)

        monkeypatch.setattr(charges_module, "block_pcg", spy)
        results = machine.solve_schedule(cells, eps=EPS)
        assert widths == [len(cells)]  # one call, every cell a column
        _assert_records_equal(
            results, [machine.solve(m, c, eps=EPS) for m, c in cells]
        )

    @pytest.mark.parametrize("kind", ["cyber", "fem"])
    def test_one_sweep_per_batched_application(self, machines, kind, monkeypatch):
        # Every application of the schedule's preconditioner makes exactly
        # one apply_schedule call, whatever the active cells' m: the
        # padded α block serves the group (plain-CG cells need none).
        by_kind, cells = machines
        machine = by_kind[kind]
        sweep = machine._sweep_kernel()
        real_apply = SchedulePreconditioner.apply
        real_sweep = sweep.apply_schedule
        calls = []

        def spy_apply(self, r, columns):
            calls.append((list(columns), []))
            return real_apply(self, r, columns)

        def spy_sweep(coefficients, r):
            calls[-1][1].append(np.shape(coefficients))
            return real_sweep(coefficients, r)

        monkeypatch.setattr(SchedulePreconditioner, "apply", spy_apply)
        monkeypatch.setattr(sweep, "apply_schedule", spy_sweep)
        machine.solve_schedule(cells, eps=EPS)
        steps = [m for m, _ in cells]
        for columns, sweeps in calls:
            assert len(sweeps) == any(steps[j] for j in columns)
        # The startup sweeps all four preconditioned cells, m = 2 and 3,
        # with one (3, 4) α block, the m = 2 schedules zero-padded.
        assert calls[0] == ([0, 1, 2, 3, 4], [(3, 4)])

    @pytest.mark.parametrize("kind", ["cyber", "fem"])
    def test_maxiter_cap_on_preconditioned_cells(self, machines, kind):
        by_kind, cells = machines
        machine = by_kind[kind]
        capped = machine.solve_schedule(cells, eps=1e-14, maxiter=3)
        assert all(r.iterations == 3 and not r.converged for r in capped)
        _assert_records_equal(
            capped,
            [machine.solve(m, c, eps=1e-14, maxiter=3) for m, c in cells],
        )

    def test_breakdown_cyber(self, plate):
        # Zero load: r⁰ = p⁰ = 0, so (p, Kp) = 0 on iteration 1 — the
        # breakdown exit of Algorithm 1, charged as solve() charges it.
        problem, blocked, _ = plate
        machine = CyberMachine(problem)
        machine.f = np.zeros(machine.n_padded)
        cells = _mixed_cells(ssor_interval(blocked))
        broken = machine.solve_schedule(cells, eps=EPS)
        assert all(r.iterations == 1 for r in broken)
        _assert_records_equal(
            broken, [machine.solve(m, c, eps=EPS) for m, c in cells]
        )

    def test_breakdown_fem(self, plate):
        problem, blocked, _ = plate
        unloaded = dataclasses.replace(problem, f=np.zeros(problem.n))
        machine = FiniteElementMachine(unloaded, 2, blocked=blocked)
        cells = _mixed_cells(ssor_interval(blocked))
        broken = machine.solve_schedule(cells, eps=EPS)
        assert all(r.iterations == 1 for r in broken)
        _assert_records_equal(
            broken, [machine.solve(m, c, eps=EPS) for m, c in cells]
        )


class TestSchedulePreconditioner:
    """Plain-CG and mixed-m columns: each column of an application is its
    solo sweep, or the copy of ``r`` for a plain-CG cell."""

    SCHEDULES = [None, [1.0, 1.0], None, [0.7, 1.2, 0.4], [1.3], [0.9, 1.1]]

    @pytest.fixture(scope="class")
    def fem(self, plate):
        problem, blocked, _ = plate
        return FiniteElementMachine(problem, 1, blocked=blocked)

    @pytest.mark.parametrize("columns", [
        [0, 1, 2, 3, 4, 5],  # every kind of column
        [1, 3, 4, 5],  # preconditioned only, m = 1 … 3
        [1, 5],  # one m: no padding
        [0, 3, 2],  # a lone sweep among plain-CG columns
        [0, 2],  # no sweep at all
        [3],
        [0],
    ])
    @pytest.mark.parametrize("backend", ["vectorized", "reference"])
    def test_columns_are_solo_sweeps_or_copies(self, fem, backend, columns):
        schedules = [None if s is None else np.array(s) for s in self.SCHEDULES]
        sweep = (
            fem._precondition_reference if backend == "reference" else fem._sweep_kernel()
        )
        solo = getattr(sweep, "apply_schedule", sweep)
        precond = SchedulePreconditioner(schedules, sweep)
        # The reference sweeps take one vector: block_pcg hands them each
        # column alone.
        assert precond.block_capable == (backend == "vectorized")
        r = np.random.default_rng(len(columns)).normal(size=(fem.blocked.n, len(columns)))
        per_column = [
            np.array(precond.apply(np.ascontiguousarray(r[:, i]), [j]))
            for i, j in enumerate(columns)
        ]
        batched = (
            np.array(precond.apply(r, columns))
            if precond.block_capable and len(columns) > 1
            else np.column_stack(per_column)
        )
        for i, j in enumerate(columns):
            column = np.ascontiguousarray(r[:, i])
            expected = column if schedules[j] is None else np.array(solo(schedules[j], column))
            for got in (batched[:, i], per_column[i]):
                assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


class TestCyberTable2Iterations:
    """The regenerated Table-2 iteration counts, pinned as literals.

    Any change to the CYBER's numerics (operator, sweep, stopping test)
    that moves a count fails here, not only in the perf gate's drift
    check.
    """

    @pytest.mark.parametrize("a, iterations", [
        (20, [183, 76, 54, 44, 45, 32, 25, 21, 18, 16, 15, 13, 13]),
        (41, [349, 158, 112, 88, 92, 66, 51, 43, 36, 32, 28, 26, 23]),
    ])
    def test_run_cyber_schedule_counts(self, a, iterations):
        session = SolverSession(
            build_scenario("plate", nrows=a),
            plan=SolverPlan.table2(eps=TABLE2_EPS),
        )
        results = session.run_cyber_schedule()
        assert [r.iterations for r in results] == iterations
        assert all(r.converged for r in results)


class TestSessionFEMSchedule:
    def test_run_fem_schedule_matches_per_cell(self):
        session = SolverSession.from_scenario(
            "plate", plan=SolverPlan.table3(eps=EPS), nrows=8
        )
        machine = session.fem(5)
        per_cell = [
            machine.solve(m, c, eps=EPS) for m, c in session.schedule_cells()
        ]
        batched = session.run_fem_schedule(n_procs=5)
        assert session.stats.machine_builds == 1  # one layout serves both
        for pc, b in zip(per_cell, batched):
            assert b.iterations == pc.iterations
            assert b.seconds == pc.seconds
            assert np.array_equal(b.u_natural, pc.u_natural)

    def test_reference_backend_plan_falls_back_to_per_cell(self):
        plan = SolverPlan(
            schedule=((0, False), (2, True)), eps=1e-4, backend="reference"
        )
        session = SolverSession.from_scenario("plate", plan=plan, nrows=6)
        results = session.run_fem_schedule(n_procs=2)
        vec = SolverSession.from_scenario(
            "plate", plan=plan.with_(backend="vectorized"), nrows=6
        ).run_fem_schedule(n_procs=2)
        assert [r.iterations for r in results] == [r.iterations for r in vec]
        for a, b in zip(results, vec):
            assert a.seconds == b.seconds  # charged clock is structural
