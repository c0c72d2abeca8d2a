"""The repro.parallel executor layer (ISSUE 5).

Covers the PR's acceptance contracts:

* **Bitwise sharding** — :func:`repro.parallel.sharded_block_pcg` over
  every tested worker/group partition (W ∈ {1, 2, 4}, g ∈ {1, 2, even
  split}) reproduces the single-process :func:`repro.core.pcg.block_pcg`
  *bitwise*: iterates, iteration counts, convergence flags, histories and
  per-column operation counters.
* **Block edge cases** — k = 0 empty blocks, single-column shard groups
  (g = 1 ≡ per-column ``pcg``), Fortran-ordered right-hand-side blocks,
  and more workers than columns.
* **Sharded machine schedules** — :func:`repro.parallel.sharded_schedule`
  reproduces the CYBER/FEM ``solve_schedule`` records (clocks, op
  breakdowns, communication ledgers, iterates) for any cell partition.
* **Worker-dispatch picklability** — :class:`SolverPlan`,
  :class:`ProblemSpec`, :class:`WorkloadSpec` and the scenario problems
  round-trip through pickle (the regression the sharded paths depend on).
"""

import pickle

import numpy as np
import pytest

from repro.core.pcg import block_pcg, pcg
from repro.driver import build_blocked_system
from repro.multicolor.sor import MStepSSOR
from repro.parallel import (
    ApplicatorRecipe,
    column_groups,
    effective_workers,
    sharded_block_pcg,
    sharded_schedule,
)
from repro.pipeline import (
    SolverPlan,
    SolverSession,
    available_scenarios,
    available_workloads,
    build_scenario,
    build_workload,
    scenario,
    synthetic_load_block,
    workload,
)

EPS = 1e-7
M = 3
WORKER_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module")
def plate():
    return build_scenario("plate", nrows=8)


@pytest.fixture(scope="module")
def plate_state(plate):
    blocked = build_blocked_system(plate)
    coeffs = np.ones(M)
    applicator = MStepSSOR(blocked, coeffs)
    recipe = ApplicatorRecipe(
        coeffs,
        group_sizes=tuple(blocked.ordering.counts.tolist()),
        labels=tuple(blocked.ordering.labels),
    )
    F = np.ascontiguousarray(
        blocked.ordering.permute_vector(synthetic_load_block(plate, 6))
    )
    return blocked, applicator, recipe, F


def assert_block_results_bitwise(a, b):
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.iterations, b.iterations)
    assert np.array_equal(a.converged, b.converged)
    assert a.delta_histories == b.delta_histories
    assert a.residual_histories == b.residual_histories
    assert [c.as_dict() for c in a.counters] == [c.as_dict() for c in b.counters]
    assert a.stop_rule == b.stop_rule


# ------------------------------------------------------------ column groups
class TestColumnGroups:
    def test_even_split(self):
        groups = column_groups(8, 4)
        assert [g.tolist() for g in groups] == [[0, 1], [2, 3], [4, 5], [6, 7]]

    def test_uneven_split_covers_every_column(self):
        groups = column_groups(7, 3)
        flat = np.concatenate(groups)
        assert flat.tolist() == list(range(7))

    def test_group_override(self):
        groups = column_groups(6, 2, group=1)
        assert len(groups) == 6
        assert all(g.size == 1 for g in groups)

    def test_more_workers_than_columns(self):
        groups = column_groups(3, 8)
        assert len(groups) == 3
        assert effective_workers(8, len(groups)) == 3

    def test_empty_block(self):
        assert column_groups(0, 4) == []


# ------------------------------------------------------- sharded block PCG
class TestShardedBlockPCG:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_bitwise_identical_for_every_worker_count(self, plate_state, workers):
        blocked, applicator, recipe, F = plate_state
        serial = block_pcg(blocked.permuted, F, preconditioner=applicator, eps=EPS)
        sharded = sharded_block_pcg(
            blocked.permuted, F, recipe=recipe, workers=workers, eps=EPS
        )
        assert_block_results_bitwise(sharded, serial)

    def test_single_column_groups_equal_per_column_pcg(self, plate_state):
        # g = 1: every shard is one column — must match solo pcg bitwise.
        blocked, applicator, recipe, F = plate_state
        sharded = sharded_block_pcg(
            blocked.permuted, F, recipe=recipe, workers=2, group=1, eps=EPS
        )
        for j in range(F.shape[1]):
            solo = pcg(
                blocked.permuted, F[:, j], preconditioner=applicator, eps=EPS
            )
            col = sharded.column(j)
            assert np.array_equal(col.u, solo.u)
            assert col.iterations == solo.iterations
            assert col.delta_history == solo.delta_history
            assert col.counter.as_dict() == solo.counter.as_dict()

    def test_fortran_ordered_block(self, plate_state):
        blocked, applicator, recipe, F = plate_state
        serial = block_pcg(blocked.permuted, F, preconditioner=applicator, eps=EPS)
        fortran = np.asfortranarray(F)
        sharded = sharded_block_pcg(
            blocked.permuted, fortran, recipe=recipe, workers=2, eps=EPS
        )
        assert_block_results_bitwise(sharded, serial)

    def test_more_workers_than_columns(self, plate_state):
        blocked, applicator, recipe, F = plate_state
        narrow = F[:, :3]
        serial = block_pcg(
            blocked.permuted, narrow, preconditioner=applicator, eps=EPS
        )
        sharded = sharded_block_pcg(
            blocked.permuted, narrow, recipe=recipe, workers=8, eps=EPS
        )
        assert_block_results_bitwise(sharded, serial)

    def test_empty_block_is_a_no_op(self, plate_state):
        blocked, _, recipe, _ = plate_state
        n = blocked.n
        result = sharded_block_pcg(
            blocked.permuted, np.zeros((n, 0)), recipe=recipe, workers=4, eps=EPS
        )
        assert result.u.shape == (n, 0)
        assert result.k == 0
        assert result.all_converged  # vacuously
        assert result.counters == []

    def test_plain_cg_and_track_residual(self, plate_state):
        blocked, _, _, F = plate_state
        serial = block_pcg(blocked.permuted, F, eps=EPS, track_residual=True)
        sharded = sharded_block_pcg(
            blocked.permuted, F, workers=2, eps=EPS, track_residual=True
        )
        assert_block_results_bitwise(sharded, serial)
        assert all(len(h) > 0 for h in sharded.residual_histories)

    def test_nonzero_start_block(self, plate_state):
        blocked, applicator, recipe, F = plate_state
        rng = np.random.default_rng(7)
        u0 = rng.normal(size=F.shape)
        serial = block_pcg(
            blocked.permuted, F, preconditioner=applicator, u0=u0, eps=EPS
        )
        sharded = sharded_block_pcg(
            blocked.permuted, F, recipe=recipe, workers=2, u0=u0, eps=EPS
        )
        assert_block_results_bitwise(sharded, serial)

    def test_shared_start_vector(self, plate_state):
        # One (n,) guess for every column rides the shared u0 block.
        blocked, applicator, recipe, F = plate_state
        u0 = np.random.default_rng(11).normal(size=F.shape[0])
        serial = block_pcg(
            blocked.permuted, F, preconditioner=applicator, u0=u0, eps=EPS
        )
        sharded = sharded_block_pcg(
            blocked.permuted, F, recipe=recipe, workers=2, u0=u0, eps=EPS
        )
        assert_block_results_bitwise(sharded, serial)

    def test_live_preconditioner_rejected_across_processes(self, plate_state):
        blocked, applicator, _, F = plate_state
        with pytest.raises(ValueError, match="recipe"):
            sharded_block_pcg(
                blocked.permuted, F, preconditioner=applicator, workers=2,
                eps=EPS,
            )

    def test_preconditioner_and_recipe_together_rejected(self, plate_state):
        blocked, applicator, recipe, F = plate_state
        with pytest.raises(ValueError, match="not both"):
            sharded_block_pcg(
                blocked.permuted, F, preconditioner=applicator, recipe=recipe,
                workers=1, eps=EPS,
            )

    def test_inline_recipe_build(self, plate_state):
        # workers=1 with a recipe compiles the applicator locally.
        blocked, applicator, recipe, F = plate_state
        serial = block_pcg(blocked.permuted, F, preconditioner=applicator, eps=EPS)
        inline = sharded_block_pcg(
            blocked.permuted, F, recipe=recipe, workers=1, eps=EPS
        )
        assert_block_results_bitwise(inline, serial)


# ------------------------------------------------------- session threading
class TestSessionSharding:
    def test_solve_cell_block_sharded_bitwise(self, plate):
        session = SolverSession(
            plate, plan=SolverPlan.single(M, True, eps=EPS, block_rhs=6)
        )
        F = synthetic_load_block(plate, 6)
        serial = session.solve_cell_block(M, True, F=F)
        assert session.stats.shard_dispatches == 0
        sharded = session.solve_cell_block(M, True, F=F, sharding=(2, 2))
        assert_block_results_bitwise(sharded.result, serial.result)
        assert np.array_equal(sharded.u, serial.u)
        assert session.stats.shard_dispatches == 3  # 6 columns / group of 2
        # One compile served both paths.
        assert session.stats.compile_counts()["colorings"] == 1
        assert session.stats.compile_counts()["applicator_builds"] == 1

    def test_wide_shards_run_lockstep_groups_bitwise(self, plate):
        # Each worker's 16 columns run as two lockstep groups of 8, as
        # the serial solve's 32 run as four.
        session = SolverSession(plate, plan=SolverPlan.single(M, True, eps=EPS))
        F = synthetic_load_block(plate, 32)
        serial = session.solve_cell_block(M, True, F=F)
        sharded = session.solve_cell_block(M, True, F=F, sharding=(2, 16))
        assert_block_results_bitwise(sharded.result, serial.result)
        assert np.array_equal(sharded.u, serial.u)
        assert session.stats.shard_dispatches == 2

    def test_execute_block_sharded_over_plan(self, plate):
        plan = SolverPlan(schedule=((0, False), (2, True)), eps=EPS, block_rhs=4)
        session = SolverSession(plate, plan=plan)
        F = synthetic_load_block(plate, 4)
        serial = session.execute_block(F=F)
        sharded = session.execute_block(F=F, sharding=2)
        for a, b in zip(sharded, serial):
            assert_block_results_bitwise(a.result, b.result)

    def test_degenerate_sharding_takes_the_serial_path(self, plate):
        # workers > 1 but one group (group ≥ k): no dispatch, no recipe.
        session = SolverSession(
            plate, plan=SolverPlan.single(M, eps=EPS, block_rhs=4)
        )
        F = synthetic_load_block(plate, 4)
        block = session.solve_cell_block(M, F=F, sharding=(4, 4))
        assert session.stats.shard_dispatches == 0
        assert block.result.all_converged

    def test_two_color_scenario_sharded(self):
        problem = build_scenario("poisson", n_grid=8)
        session = SolverSession(
            problem, plan=SolverPlan.single(2, eps=EPS, block_rhs=4)
        )
        F = synthetic_load_block(problem, 4)
        serial = session.solve_cell_block(2, F=F)
        sharded = session.solve_cell_block(2, F=F, sharding=4)
        assert_block_results_bitwise(sharded.result, serial.result)

    def test_workload_block_through_sharded_session(self, plate):
        spec = workload("plate-service")
        plan = spec.solver_plan(SolverPlan.single(M, True, eps=EPS))
        assert plan.block_rhs == spec.width
        session = SolverSession(plate, plan=plan)
        F = build_workload("plate-service", plate)
        serial = session.solve_cell_block(M, True, F=F)
        sharded = session.solve_cell_block(M, True, F=F, sharding=2)
        assert_block_results_bitwise(sharded.result, serial.result)


# ------------------------------------------------------- sharded schedules
class TestShardedSchedule:
    @pytest.fixture(scope="class")
    def schedule_session(self):
        problem = build_scenario("plate", nrows=8)
        session = SolverSession(problem, plan=SolverPlan.table3(eps=1e-6))
        return session, session.schedule_cells()

    @pytest.mark.parametrize("workers", (2, 4))
    def test_cyber_cells_bitwise(self, schedule_session, workers):
        session, cells = schedule_session
        direct = session.cyber().solve_schedule(cells, eps=1e-6)
        sharded = sharded_schedule(
            session.problem, cells, machine="cyber", workers=workers, eps=1e-6
        )
        for a, b in zip(sharded, direct):
            assert a.label == b.label
            assert a.iterations == b.iterations
            assert a.seconds == b.seconds
            assert a.preconditioner_seconds == b.preconditioner_seconds
            assert a.op_breakdown == b.op_breakdown
            assert np.array_equal(a.u_natural, b.u_natural)

    def test_fem_cells_bitwise_with_comm_ledger(self, schedule_session):
        session, cells = schedule_session
        direct = session.fem(2).solve_schedule(cells, eps=1e-6)
        sharded = sharded_schedule(
            session.problem, cells, machine="fem", workers=3, eps=1e-6,
            n_procs=2,
        )
        for a, b in zip(sharded, direct):
            assert a.iterations == b.iterations
            assert a.seconds == b.seconds
            assert a.comm_seconds == b.comm_seconds
            assert a.total_records == b.total_records
            assert a.total_words == b.total_words
            assert np.array_equal(a.u_natural, b.u_natural)

    def test_session_run_cyber_schedule_workers(self, schedule_session):
        session, _ = schedule_session
        direct = session.run_cyber_schedule()
        sharded = session.run_cyber_schedule(workers=2)
        assert [r.seconds for r in sharded] == [r.seconds for r in direct]
        assert [r.iterations for r in sharded] == [r.iterations for r in direct]

    def test_session_run_fem_schedule_workers(self, schedule_session):
        session, _ = schedule_session
        direct = session.run_fem_schedule(n_procs=2)
        sharded = session.run_fem_schedule(n_procs=2, workers=2)
        assert [r.seconds for r in sharded] == [r.seconds for r in direct]
        assert [r.iterations for r in sharded] == [r.iterations for r in direct]

    def test_session_fem_schedule_keywords_reach_the_shards(self, schedule_session):
        # Both paths take the same machine keywords: a misspelled one
        # raises rather than running the default software reduction, and
        # a spelled-out reduction reaches the worker machines.
        session, _ = schedule_session
        for workers in (1, 2):
            with pytest.raises(TypeError):
                session.run_fem_schedule(
                    n_procs=4, workers=workers, reductoin="circuit"
                )
        serial = session.run_fem_schedule(n_procs=4, reduction="circuit")
        sharded = session.run_fem_schedule(
            n_procs=4, workers=2, reduction="circuit"
        )
        software = session.run_fem_schedule(n_procs=4)
        assert [r.seconds for r in sharded] == [r.seconds for r in serial]
        assert [r.seconds for r in sharded] != [r.seconds for r in software]

    def test_unknown_machine_kind_rejected(self, schedule_session):
        session, cells = schedule_session
        with pytest.raises(ValueError, match="machine"):
            sharded_schedule(session.problem, cells, machine="abacus")

    def test_empty_schedule(self, plate):
        assert sharded_schedule(plate, [], machine="cyber", workers=2) == []


# ------------------------------------------------ worker-dispatch pickling
class TestPicklability:
    def test_solver_plan_round_trips(self):
        plan = SolverPlan.table2(eps=1e-7, backend="vectorized", block_rhs=8)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        assert clone.schedule == plan.schedule
        assert clone.labels == plan.labels

    def test_every_registered_scenario_spec_round_trips(self):
        # Includes specs whose builders are lambdas/closures: the recipe
        # rebuild (__getstate__/__setstate__) must cover them all.
        for spec in available_scenarios():
            clone = pickle.loads(pickle.dumps(spec))
            assert clone.name == spec.name
            assert clone.builder is scenario(spec.name).builder
            assert clone.defaults == spec.defaults

    def test_every_registered_workload_spec_round_trips(self):
        for spec in available_workloads():
            clone = pickle.loads(pickle.dumps(spec))
            assert clone.name == spec.name
            assert clone.case_labels == spec.case_labels
            assert clone.builder is workload(spec.name).builder

    @pytest.mark.parametrize(
        "name,params",
        [
            ("plate", {"nrows": 6}),
            ("stretched-plate", {"nrows": 6}),
            ("poisson", {"n_grid": 6}),
        ],
    )
    def test_scenario_problems_round_trip(self, name, params):
        problem = build_scenario(name, **params)
        clone = pickle.loads(pickle.dumps(problem))
        assert np.array_equal(clone.f, problem.f)
        assert (clone.k != problem.k).nnz == 0
        assert np.array_equal(clone.group_of_unknown, problem.group_of_unknown)

    def test_recipe_round_trips_and_rebuilds(self, plate_state):
        blocked, applicator, recipe, F = plate_state
        clone = pickle.loads(pickle.dumps(recipe))
        rebuilt = clone.build(blocked.permuted)
        r = F[:, 0]
        assert np.array_equal(
            np.asarray(rebuilt.apply(r)), np.asarray(applicator.apply(r))
        )
