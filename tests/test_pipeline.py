"""The plan → compile → execute pipeline (ISSUE 3).

Covers the PR's acceptance contracts:

* **Compile-once** — one :class:`SolverSession` compile serves many
  schedule cells and many right-hand sides with exactly one coloring, one
  interval measurement and one factorization per cell (counter-asserted).
* **Batched simulator pass** — the full Table-2 schedule through
  :meth:`CyberMachine.solve_schedule` is *bitwise* identical to the
  cell-at-a-time path: iteration counts, modeled clocks, preconditioner
  seconds, operation ledgers and iterates.
* **Registry** — every stock scenario builds, validates as a proper
  coloring, and solves; the new anisotropic/variable-coefficient
  scenarios behave as advertised.
"""

import numpy as np
import pytest

from repro.core.convergence import RelativeResidual
from repro.core.pcg import pcg
from repro.driver import TABLE2_SCHEDULE, solve_mstep_ssor
from repro.kernels import REFERENCE, VECTORIZED, ops
from repro.machines.cells import SchedulePreconditioner
from repro.multicolor.coloring import validate_groups
from repro.pipeline import (
    SolverPlan,
    SolverSession,
    available_scenarios,
    build_scenario,
    cell_label,
    register_scenario,
    scenario,
)

EPS = 1e-6


# ---------------------------------------------------------------- registry
class TestProblemSpecRegistry:
    def test_stock_scenarios_present(self):
        names = {spec.name for spec in available_scenarios()}
        assert {
            "plate", "stretched-plate", "variable-plate", "lshape",
            "perforated", "poisson", "anisotropic",
        } <= names

    @pytest.mark.parametrize(
        "name,params",
        [
            ("plate", {"nrows": 8}),
            ("stretched-plate", {"nrows": 8}),
            ("variable-plate", {"nrows": 8}),
            ("lshape", {"a": 9}),
            ("perforated", {"a": 9}),
            ("poisson", {"n_grid": 8}),
            ("anisotropic", {"n_grid": 8}),
        ],
    )
    def test_every_scenario_builds_colors_and_solves(self, name, params):
        problem = build_scenario(name, **params)
        validate_groups(problem.k, problem.group_of_unknown)
        solve = solve_mstep_ssor(problem, 2, eps=1e-7)
        assert solve.result.converged
        resid = np.max(np.abs(problem.f - problem.k @ solve.u))
        assert resid < 1e-4

    def test_unknown_scenario_raises_with_listing(self):
        with pytest.raises(KeyError, match="plate"):
            scenario("no-such-scenario")

    def test_defaults_and_overrides(self):
        spec = scenario("poisson")
        assert spec.defaults["n_grid"] == 16
        assert spec.size_param == "n_grid"
        assert build_scenario("poisson", n_grid=4).n == 16

    def test_registration_roundtrip(self):
        register_scenario(
            "tiny-poisson",
            lambda n_grid=4: build_scenario("poisson", n_grid=n_grid),
            "test-only entry",
            size_param="n_grid",
        )
        try:
            assert build_scenario("tiny-poisson").n == 16
        finally:
            from repro.pipeline import problems

            del problems._REGISTRY["tiny-poisson"]


class TestNewScenarios:
    def test_anisotropic_spectrum_is_harder(self):
        iso = build_scenario("poisson", n_grid=12)
        aniso = build_scenario("anisotropic", n_grid=12, epsilon=0.02)
        iso_cg = solve_mstep_ssor(iso, 0, eps=1e-7).iterations
        aniso_cg = solve_mstep_ssor(aniso, 0, eps=1e-7).iterations
        # Anisotropy stretches the condition number: plain CG suffers…
        assert aniso_cg > iso_cg
        # …and the parametrized m-step schedule pulls it back hard.
        aniso_4p = solve_mstep_ssor(aniso, 4, parametrized=True, eps=1e-7)
        assert aniso_4p.iterations < aniso_cg / 2

    def test_anisotropic_matches_direct(self):
        problem = build_scenario("anisotropic", n_grid=10, epsilon=0.05)
        solve = solve_mstep_ssor(problem, 3, parametrized=True, eps=1e-9)
        direct = problem.direct_solution()
        assert np.max(np.abs(solve.u - direct)) < 1e-6 * np.max(np.abs(direct))

    @pytest.mark.parametrize("pattern", ["graded", "inclusion"])
    def test_variable_plate_matches_direct(self, pattern):
        problem = build_scenario("variable-plate", nrows=8, pattern=pattern)
        assert problem.element_scale is not None
        assert problem.element_scale.min() >= 1.0
        solve = solve_mstep_ssor(problem, 3, parametrized=True, eps=1e-9)
        direct = problem.direct_solution()
        assert np.max(np.abs(solve.u - direct)) < 1e-6 * np.max(np.abs(direct))

    def test_variable_plate_differs_from_homogeneous(self):
        uniform = build_scenario("plate", nrows=8)
        graded = build_scenario("variable-plate", nrows=8, contrast=16.0)
        assert not np.allclose(
            uniform.direct_solution(), graded.direct_solution()
        )

    def test_cyber_machine_sees_the_variable_coefficients(self):
        problem = build_scenario("variable-plate", nrows=8)
        session = SolverSession(problem, plan=SolverPlan.single(3))
        res = session.cyber().solve(3, np.ones(3), eps=1e-9)
        direct = problem.direct_solution()
        assert np.max(np.abs(res.u_natural - direct)) < 1e-6


# ------------------------------------------------------------------- plans
class TestSolverPlan:
    def test_factories(self):
        assert len(SolverPlan.table2().schedule) == 13
        assert len(SolverPlan.table3().schedule) == 10
        assert SolverPlan.single(4, True).schedule == ((4, True),)

    def test_labels_and_interval_need(self):
        plan = SolverPlan(schedule=[(0, False), (2, True)])
        assert plan.labels == ("0", "2P")
        assert plan.needs_interval
        assert not SolverPlan(schedule=[(0, False), (3, False)]).needs_interval
        assert cell_label(3, True) == "3P"

    def test_validation(self):
        with pytest.raises(ValueError):
            SolverPlan(schedule=[])
        with pytest.raises(ValueError):
            SolverPlan(schedule=[(-1, False)])
        with pytest.raises(ValueError):
            SolverPlan(schedule=[(1, False)], eps=0.0)

    def test_with_overrides(self):
        plan = SolverPlan.table2().with_(eps=1e-9, backend=REFERENCE)
        assert plan.eps == 1e-9 and plan.backend == REFERENCE
        assert len(plan.schedule) == 13


# ----------------------------------------------------------------- session
class TestSessionCompileOnce:
    """The ISSUE acceptance criterion: one compile, ≥2 cells, ≥2 RHS,
    no re-coloring and no re-factorizing."""

    @pytest.fixture(scope="class")
    def session(self):
        plan = SolverPlan(
            schedule=[(2, True), (4, True), (0, False)], eps=1e-7
        )
        return SolverSession.from_scenario("plate", plan=plan, nrows=8).compile()

    def test_compile_counts_are_minimal(self, session):
        counts = session.stats.compile_counts()
        assert counts["colorings"] == 1
        assert counts["intervals"] == 1
        assert counts["applicator_builds"] == 2  # one per m ≥ 1 cell
        assert counts["coefficient_builds"] == 2

    def test_many_cells_many_rhs_no_recompile(self, session):
        before = session.stats.compile_counts()
        rng = np.random.default_rng(3)
        rhs = [session.problem.f, rng.normal(size=session.problem.n)]
        runs = session.execute_many(rhs)
        assert session.stats.compile_counts() == before  # nothing rebuilt
        assert len(runs) == 2 and all(len(r) == 3 for r in runs)
        for f, solves in zip(rhs, runs):
            for solve in solves:
                assert solve.result.converged
                assert np.max(np.abs(f - session.problem.k @ solve.u)) < 1e-4

    def test_compile_is_idempotent(self, session):
        before = session.stats.compile_counts()
        session.compile()
        assert session.stats.compile_counts() == before

    def test_matches_direct_driver_path(self, session):
        direct = solve_mstep_ssor(
            build_scenario("plate", nrows=8), 4, parametrized=True, eps=1e-7
        )
        via = session.solve_cell(4, True)
        assert via.iterations == direct.iterations
        assert np.array_equal(via.u, direct.u)

    def test_driver_function_is_a_one_cell_session(self):
        # The rewired driver must keep its exact observable behavior.
        problem = build_scenario("plate", nrows=6)
        solve = solve_mstep_ssor(problem, 3, parametrized=True, eps=1e-6)
        assert solve.label == "3P"
        assert solve.interval is not None
        assert solve.coefficients.shape == (3,)
        assert solve.blocked is not None


class TestSolveCellIsAlgorithm1:
    """``solve_cell`` — column 0 of the block path — is bitwise ``pcg``
    on the plan's operator with the session's cached applicator."""

    @pytest.fixture(scope="class", params=[None, "stencil"])
    def session(self, request):
        plan = SolverPlan.single(3, True, eps=1e-7, backend=request.param)
        return SolverSession.from_scenario("plate", plan=plan, nrows=8)

    @pytest.fixture(scope="class")
    def f(self, session):
        return np.random.default_rng(29).normal(size=session.problem.n)

    @staticmethod
    def assert_matches_pcg(session, m, parametrized, f, stopping=None):
        solve = session.solve_cell(
            m, parametrized, f=f, stopping=stopping, track_residual=True
        )
        if session.plan.backend == "stencil":
            operator = session.stencil()
            preconditioner = session.stencil_applicator(m, parametrized)
            permute = unpermute = np.asarray
        else:
            operator = session.blocked.permuted
            preconditioner = session.applicator(m, parametrized)
            permute = session.blocked.ordering.permute_vector
            unpermute = session.blocked.ordering.unpermute_vector
        ref = pcg(
            operator, permute(f), preconditioner=preconditioner,
            eps=session.plan.eps, stopping=stopping, track_residual=True,
        )
        assert np.array_equal(solve.u, unpermute(ref.u))
        assert solve.iterations == ref.iterations
        assert solve.result.converged == ref.converged
        assert solve.result.delta_history == ref.delta_history
        assert solve.result.residual_history == ref.residual_history
        assert solve.result.counter.as_dict() == ref.counter.as_dict()
        assert solve.result.stop_rule == ref.stop_rule

    @pytest.mark.parametrize("m", [0, 1, 3])
    @pytest.mark.parametrize("parametrized", [False, True])
    def test_matches_pcg_bitwise(self, session, f, m, parametrized):
        self.assert_matches_pcg(session, m, parametrized, f)

    def test_relative_residual_rule_matches_pcg(self, session, f):
        self.assert_matches_pcg(session, 3, True, f, RelativeResidual(tol=1e-8))


class TestSessionMachines:
    def test_machines_are_cached(self):
        session = SolverSession.from_scenario(
            "plate", plan=SolverPlan.table3(), nrows=6
        )
        assert session.cyber() is session.cyber()
        assert session.fem(5) is session.fem(5)
        assert session.fem(1) is not session.fem(5)
        assert session.stats.machine_builds == 3

    def test_fem_solve_uses_cached_applicator(self):
        session = SolverSession.from_scenario(
            "plate", plan=SolverPlan.table3(), nrows=6
        )
        first = session.fem_solve(3, True, n_procs=5)
        machine = session.fem(5)
        sweep = machine._sweep_kernel()
        session.fem_solve(2, True, n_procs=5)
        second = session.fem_solve(3, True, n_procs=5)
        assert session.stats.machine_builds == 1  # one layout serves all
        # One merged sweep serves every cell and every m.
        assert machine._sweep_kernel() is sweep
        assert first.iterations == second.iterations
        assert first.seconds == second.seconds
        assert np.array_equal(first.u_natural, second.u_natural)

    def test_fem_solve_matches_standalone_machine(self):
        from repro.driver import (
            build_blocked_system,
            mstep_coefficients,
            ssor_interval,
        )
        from repro.machines import FiniteElementMachine

        problem = build_scenario("plate", nrows=6)
        session = SolverSession(problem, plan=SolverPlan.table3())
        machine = FiniteElementMachine(problem, 5)
        interval = ssor_interval(build_blocked_system(problem))
        for m, par in [(0, False), (3, True), (4, False)]:
            coeffs = mstep_coefficients(m, par, interval) if m else None
            standalone = machine.solve(m, coeffs, eps=1e-6)
            via = session.fem_solve(m, par, n_procs=5)
            assert via.iterations == standalone.iterations
            assert via.seconds == standalone.seconds

    def test_reference_plan_runs_the_machines_but_no_session_solve(self):
        # "reference" selects the machine passes' hand-rolled kernels; a
        # session solve has none, so it refuses instead of silently
        # running the vectorized sweep.
        plan = SolverPlan.single(3, True, backend="reference")
        session = SolverSession.from_scenario("plate", plan=plan, nrows=6)
        with pytest.raises(ValueError, match="reference"):
            session.solve_cell(3, True)
        with pytest.raises(ValueError, match="reference"):
            session.solve_cell_block(3, True, F=np.ones((session.problem.n, 2)))
        assert all(r.converged for r in session.run_cyber_schedule())
        assert all(r.converged for r in session.run_fem_schedule(n_procs=2))
        assert session.fem_solve(3, True, n_procs=2).converged


# ------------------------------------------------- batched simulator sweeps
class TestBatchedCyberSchedule:
    """The full Table-2 schedule through ONE lockstep simulator pass,
    bitwise identical to per-cell ``CyberMachine.solve`` calls."""

    @pytest.fixture(scope="class")
    def session(self):
        return SolverSession.from_scenario(
            "plate", plan=SolverPlan.table2(eps=EPS), nrows=8
        )

    @pytest.fixture(scope="class")
    def results(self, session):
        machine = session.cyber()
        per_column = [
            machine.solve(m, c, eps=EPS) for m, c in session.schedule_cells()
        ]
        batched = session.run_cyber_schedule()
        return per_column, batched

    def test_one_simulator_layout_serves_both(self, session, results):
        assert session.stats.machine_builds == 1

    def test_iteration_counts_bitwise(self, results):
        per_column, batched = results
        assert [r.iterations for r in batched] == [
            r.iterations for r in per_column
        ]
        assert [r.label for r in batched] == [r.label for r in per_column]
        assert all(r.converged for r in batched)

    def test_modeled_clocks_bitwise(self, results):
        per_column, batched = results
        for pc, b in zip(per_column, batched):
            assert b.seconds == pc.seconds
            assert b.preconditioner_seconds == pc.preconditioner_seconds
            assert b.outer_seconds == pc.outer_seconds

    def test_operation_ledgers_bitwise(self, results):
        per_column, batched = results
        for pc, b in zip(per_column, batched):
            assert b.op_breakdown == pc.op_breakdown

    def test_iterates_bitwise(self, results):
        per_column, batched = results
        for pc, b in zip(per_column, batched):
            assert np.array_equal(b.u_natural, pc.u_natural)

    def test_schedule_covers_every_table2_cell(self, results):
        _, batched = results
        assert len(batched) == len(TABLE2_SCHEDULE)

    def test_reference_backend_plan_falls_back_to_per_column(self):
        plan = SolverPlan.table2(eps=1e-4, backend=REFERENCE).with_(
            schedule=((0, False), (2, True))
        )
        session = SolverSession.from_scenario("plate", plan=plan, nrows=6)
        results = session.run_cyber_schedule()
        vec = SolverSession.from_scenario(
            "plate",
            plan=plan.with_(backend=VECTORIZED),
            nrows=6,
        ).run_cyber_schedule()
        assert [r.iterations for r in results] == [r.iterations for r in vec]
        for a, b in zip(results, vec):
            assert a.seconds == b.seconds  # charge stream is structural

    def test_reference_plan_shards_bitwise(self, monkeypatch):
        import repro.parallel.schedule as schedule_mod

        dispatched = []
        run_tasks = schedule_mod.run_tasks

        def counting_run_tasks(fn, shards, workers):
            dispatched.append(len(shards))
            return run_tasks(fn, shards, workers)

        monkeypatch.setattr(schedule_mod, "run_tasks", counting_run_tasks)
        plan = SolverPlan.table2(eps=1e-4, backend=REFERENCE).with_(
            schedule=((0, False), (2, True), (3, True))
        )
        session = SolverSession.from_scenario("plate", plan=plan, nrows=6)
        serial = session.run_cyber_schedule()
        sharded = session.run_cyber_schedule(workers=2)
        assert dispatched == [2]  # the cells really fanned out
        for s, p in zip(serial, sharded):
            assert p.iterations == s.iterations
            assert p.seconds == s.seconds
            assert p.op_breakdown == s.op_breakdown
            assert np.array_equal(p.u_natural, s.u_natural)


class TestSolveScheduleDirect:
    """solve_schedule edge cases at the machine level."""

    @pytest.fixture(scope="class")
    def machine(self):
        return SolverSession.from_scenario(
            "plate", plan=SolverPlan.single(0), nrows=6
        ).cyber()

    def test_empty_schedule(self, machine):
        assert machine.solve_schedule([]) == []

    def test_single_cell_matches_solve(self, machine):
        single = machine.solve(3, np.ones(3), eps=EPS)
        [batched] = machine.solve_schedule([(3, np.ones(3))], eps=EPS)
        assert batched.iterations == single.iterations
        assert batched.seconds == single.seconds
        assert batched.op_breakdown == single.op_breakdown
        assert np.array_equal(batched.u_natural, single.u_natural)

    def test_duplicate_m_different_coefficients(self, machine):
        # Cells sharing m but not α's batch through the per-column-α sweep.
        coeffs_a = np.ones(2)
        coeffs_b = np.array([1.7, 0.4])
        pair = machine.solve_schedule([(2, coeffs_a), (2, coeffs_b)], eps=EPS)
        singles = [
            machine.solve(2, coeffs_a, eps=EPS),
            machine.solve(2, coeffs_b, eps=EPS),
        ]
        for b, s in zip(pair, singles):
            assert b.iterations == s.iterations
            assert b.seconds == s.seconds
            assert np.array_equal(b.u_natural, s.u_natural)

    def test_maxiter_cap_respected(self, machine):
        [res] = machine.solve_schedule([(0, None)], eps=1e-14, maxiter=3)
        assert res.iterations == 3
        assert not res.converged
        capped = machine.solve(0, None, eps=1e-14, maxiter=3)
        assert res.seconds == capped.seconds

    def test_rejects_negative_m(self, machine):
        with pytest.raises(ValueError):
            machine.solve_schedule([(-1, None)])


# ------------------------------------------------------- multi-RHS numerics
class TestSessionBlockExecution:
    """ISSUE 4: block-PCG as a first-class numeric path in the session."""

    @pytest.fixture(scope="class")
    def session(self):
        plan = SolverPlan(
            schedule=[(0, False), (3, True)], eps=1e-7, block_rhs=3
        )
        return SolverSession.from_scenario("plate", plan=plan, nrows=8).compile()

    @pytest.fixture(scope="class")
    def F(self, session):
        rng = np.random.default_rng(17)
        return np.stack(
            [np.asarray(session.problem.f, float),
             rng.normal(size=session.problem.n),
             rng.normal(size=session.problem.n)],
            axis=1,
        )

    def test_block_rhs_plan_field(self):
        assert SolverPlan.single(2, block_rhs=4).block_rhs == 4
        with pytest.raises(ValueError):
            SolverPlan.single(2, block_rhs=0)

    def test_solve_cell_block_columns_bitwise(self, session, F):
        block = session.solve_cell_block(3, True, F=F)
        assert block.k == 3 and block.label == "3P"
        assert block.result.all_converged
        for j in range(3):
            solo = session.solve_cell(3, True, f=F[:, j])
            col = block.column(j)
            assert col.iterations == solo.iterations
            assert np.array_equal(col.u, solo.u)
            assert (
                col.result.counter.as_dict() == solo.result.counter.as_dict()
            )

    def test_one_compile_for_any_k(self, session, F):
        before = session.stats.compile_counts()
        solves_before = session.stats.solves
        blocks_before = session.stats.block_solves
        runs = session.execute_block(F)
        assert session.stats.compile_counts() == before  # nothing rebuilt
        assert session.stats.solves == solves_before + 2 * 3  # 2 cells × k
        assert session.stats.block_solves == blocks_before + 2
        assert len(runs) == 2
        for cell in runs:
            assert cell.result.all_converged

    def test_execute_many_routes_through_block_pcg(self, session, F):
        rhs = [F[:, j] for j in range(3)]
        blocks_before = session.stats.block_solves
        per_rhs = session.execute_many(rhs)
        # One block_pcg pass per cell, not one solve per cell × RHS.
        assert session.stats.block_solves == blocks_before + 2
        assert len(per_rhs) == 3 and all(len(r) == 2 for r in per_rhs)
        for f, solves in zip(rhs, per_rhs):
            for solve in solves:
                assert solve.result.converged
                resid = np.max(np.abs(f - session.problem.k @ solve.u))
                assert resid < 1e-4

    def test_execute_many_matches_per_rhs_execution(self):
        # The rewired path must reproduce the old solve-at-a-time records.
        plan = SolverPlan(schedule=[(2, True)], eps=1e-7)
        rng = np.random.default_rng(23)
        a = SolverSession.from_scenario("plate", plan=plan, nrows=6)
        b = SolverSession.from_scenario("plate", plan=plan, nrows=6)
        rhs = [a.problem.f, rng.normal(size=a.problem.n)]
        via_block = a.execute_many(rhs)
        via_cells = [b.execute(f=f) for f in rhs]
        for row_a, row_b in zip(via_block, via_cells):
            for sa, sb in zip(row_a, row_b):
                assert sa.iterations == sb.iterations
                assert np.array_equal(sa.u, sb.u)

    def test_fortran_ordered_block_accepted(self, session, F):
        c_order = session.solve_cell_block(3, True, F=F)
        f_order = session.solve_cell_block(3, True, F=np.asfortranarray(F))
        assert np.array_equal(c_order.u, f_order.u)
        assert np.array_equal(c_order.iterations, f_order.iterations)

    def test_default_block_is_the_problem_load(self, session):
        block = session.solve_cell_block(3, True)
        assert block.k == 1
        solo = session.solve_cell(3, True)
        assert int(block.iterations[0]) == solo.iterations
        assert np.array_equal(block.column(0).u, solo.u)


class TestPerColumnCoefficientKernels:
    """The (m, k) coefficient extension of the batched sweep kernels."""

    @pytest.fixture(scope="class")
    def machine(self):
        return SolverSession.from_scenario(
            "plate", plan=SolverPlan.single(0), nrows=6
        ).cyber()

    def test_precondition_block_per_column_coefficients(self, machine):
        # The schedule preconditioner gives each column its own α schedule
        # through one per-column-α sweep, bitwise the single sweeps.
        rng = np.random.default_rng(11)
        r = rng.normal(size=(machine.n_padded, 3))
        r[~machine.free_mask] = 0.0
        coeffs = np.column_stack([np.ones(2), [0.5, 2.0], [1.3, 0.1]])
        sweep = machine._sweep_kernel()
        # A copy: the sweep's result is pooled, valid until its next apply.
        block = SchedulePreconditioner(coeffs.T, sweep).apply(
            r, columns=[0, 1, 2]
        ).copy()
        for col in range(3):
            single = sweep.apply_schedule(coeffs[:, col], r[:, col].copy())
            assert np.max(np.abs(block[:, col] - single)) == 0.0

    def test_precondition_block_reference_per_column(self, machine):
        rng = np.random.default_rng(12)
        r = rng.normal(size=(machine.n_padded, 2))
        r[~machine.free_mask] = 0.0
        coeffs = np.column_stack([np.ones(2), [0.5, 2.0]])
        fast = machine._sweep_kernel().apply_schedule(coeffs, r)
        for col in range(2):
            pin = machine._precondition_reference(coeffs[:, col], r[:, col].copy())
            assert np.max(np.abs(fast[:, col] - pin)) <= 1e-12 * max(
                np.max(np.abs(pin)), 1
            )

    def test_mismatched_column_counts_rejected(self, machine):
        with pytest.raises(ValueError):
            machine._sweep_kernel().apply_schedule(
                np.ones((2, 3)), np.zeros((machine.n_padded, 2))
            )

    def test_matvec_block_matches_columns(self, machine):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(machine.n_padded, 4))
        block = ops.matvec_into(machine.k, x, np.empty_like(x))
        for col in range(4):
            single = ops.matvec_into(
                machine.k, np.ascontiguousarray(x[:, col]),
                np.empty(machine.n_padded),
            )
            assert np.array_equal(block[:, col], single)
