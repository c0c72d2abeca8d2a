"""The zero-copy shared-memory transport (ISSUE 6).

Covers the PR's acceptance contracts:

* **Segment lifecycle** — publications are unlinked by
  :func:`repro.parallel.shutdown_pools`, by session close/garbage
  collection, and reused (not recreated) across steady-state dispatches;
  nothing leaks under ``python -W error`` including the stdlib resource
  tracker's shutdown report.
* **Zero-copy views** — worker-side attachments alias the published
  bytes (read-only), so the serial/sharded bitwise contract holds by
  construction; the per-dispatch pickled spec is orders of magnitude
  smaller than the old flat-CSR payload.
* **Compile-cache LRU** — a hot worker token survives a burst of 100
  one-off tokens (the regression of the old clear-everything-at-65
  behavior).
* **Start methods** — the transport attaches by name, so ``spawn``
  reproduces the ``fork`` results bitwise (``REPRO_START_METHOD``).
* **2-D shard grid** — ``(workers, group)`` partitions of the CYBER,
  FEM and SPMD schedule cells reproduce the single-pass records bitwise.
* **Failure surfacing** — a crashed shard re-raises with the failing
  spec's token and columns, not an anonymous pool traceback.
"""

import gc
import pickle
import subprocess
import sys

import numpy as np
import pytest

from repro.core.pcg import block_pcg
from repro.driver import build_blocked_system
from repro.multicolor.sor import MStepSSOR
from repro.parallel import (
    ApplicatorRecipe,
    CSRHandle,
    SegmentRegistry,
    ShardSpec,
    registry,
    run_shard,
    run_tasks,
    sharded_block_pcg,
    sharded_schedule,
    shutdown_pools,
)
from repro.parallel import shards, shm
from repro.parallel.schedule import _chunk
from repro.parallel.shards import matrix_token
from repro.pipeline import (
    SolverPlan,
    SolverSession,
    build_scenario,
    synthetic_load_block,
)

EPS = 1e-7
M = 3


@pytest.fixture(scope="module")
def plate():
    return build_scenario("plate", nrows=8)


@pytest.fixture(scope="module")
def plate_state(plate):
    blocked = build_blocked_system(plate)
    coeffs = np.ones(M)
    applicator = MStepSSOR(blocked, coeffs)
    recipe = ApplicatorRecipe(
        kind="sweep",
        coefficients=coeffs,
        groups=np.sort(blocked.ordering.groups),
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


# --------------------------------------------------------- segment registry
class TestSegmentRegistry:
    def test_operator_publication_round_trips(self, plate_state):
        blocked, _, _, _ = plate_state
        reg = SegmentRegistry()
        try:
            k = blocked.permuted.tocsr()
            handle = reg.publish_operator("op", k)
            assert isinstance(handle, CSRHandle)
            mat = shm.attach_csr(handle)
            assert (mat != k).nnz == 0
            assert mat.data.dtype == k.data.dtype
            assert not mat.data.flags.writeable
        finally:
            reg.release_all()
            shm.detach_all()

    def test_operator_publication_is_cached(self, plate_state):
        blocked, _, _, _ = plate_state
        reg = SegmentRegistry()
        try:
            a = reg.publish_operator("op", blocked.permuted)
            b = reg.publish_operator("op", blocked.permuted)
            assert a is b
            assert len(reg.live_segments()) == 1
        finally:
            reg.release_all()

    def test_operator_lru_eviction_releases_segments(self, plate_state):
        blocked, _, _, _ = plate_state
        reg = SegmentRegistry(max_operators=2)
        try:
            reg.publish_operator("a", blocked.permuted)
            reg.publish_operator("b", blocked.permuted)
            reg.publish_operator("a", blocked.permuted)  # refresh: a is hot
            reg.publish_operator("c", blocked.permuted)  # evicts b, not a
            assert "a" in reg._operators and "c" in reg._operators
            assert "b" not in reg._operators
            assert len(reg.live_segments()) == 2
        finally:
            reg.release_all()

    def test_block_slot_segment_is_reused(self):
        reg = SegmentRegistry()
        try:
            one = reg.publish_block("tok", "rhs", np.ones((16, 4)))
            two = reg.publish_block("tok", "rhs", 2 * np.ones((16, 4)))
            assert one.segment == two.segment  # one memcpy, no new segment
            assert np.array_equal(reg.resolve(two), 2 * np.ones((16, 4)))
            bigger = reg.publish_block("tok", "rhs", np.ones((64, 8)))
            assert bigger.segment != one.segment  # outgrown: slot retired
            assert len(reg.live_segments()) == 1
        finally:
            reg.release_all()

    def test_published_blocks_are_fortran_ordered(self):
        reg = SegmentRegistry()
        try:
            view = reg.publish_block("tok", "rhs", np.arange(12.0).reshape(3, 4))
            assert view.order == "F"
            arr = shm.attach_view(view)
            assert arr.flags.f_contiguous
            assert arr[:, 1:3].base is not None  # column range: a view, no copy
        finally:
            reg.release_all()
            shm.detach_all()

    def test_release_by_token_unlinks_only_that_token(self, plate_state):
        blocked, _, _, _ = plate_state
        reg = SegmentRegistry()
        try:
            reg.publish_operator("a", blocked.permuted)
            reg.publish_block("b", "rhs", np.ones((8, 2)))
            reg.release("a")
            assert len(reg.live_segments()) == 1
            reg.release("b")
            assert reg.live_segments() == []
        finally:
            reg.release_all()

    def test_forked_child_registry_never_unlinks(self, plate_state):
        # A forked worker inherits the registry's bookkeeping but owns
        # nothing: destructive operations must no-op off-owner-pid.
        blocked, _, _, _ = plate_state
        reg = SegmentRegistry()
        try:
            reg.publish_operator("op", blocked.permuted)
            (name,) = reg.live_segments()
            reg._pid = reg._pid + 1  # simulate the fork child's view
            reg.release("op")
            reg.release_all()
            from multiprocessing import shared_memory

            seg = shared_memory.SharedMemory(name=name, create=False)
            seg.close()  # still attachable: nothing was unlinked
        finally:
            reg._pid = __import__("os").getpid()
            reg.release_all()

    def test_shutdown_pools_unlinks_everything(self, plate_state):
        blocked, applicator, recipe, F = plate_state
        sharded_block_pcg(blocked.permuted, F, recipe=recipe, workers=2, eps=EPS)
        assert registry().live_segments() != []
        shutdown_pools()
        assert registry().live_segments() == []


# ----------------------------------------------------------- session lifecycle
class TestSessionLifecycle:
    def _session(self, plate):
        return SolverSession(
            plate, plan=SolverPlan.single(M, True, eps=EPS, block_rhs=6)
        )

    def test_prewarm_publishes_and_dispatches(self, plate):
        session = self._session(plate)
        try:
            n_warm = session.prewarm_sharding(2)
            assert n_warm == 2  # one cell's recipe × two pool slots
            assert session._shm_tokens
            assert registry().live_segments() != []
            # Steady state: the prewarmed solve is still bitwise serial.
            F = synthetic_load_block(plate, 6)
            serial = session.solve_cell_block(M, True, F=F)
            sharded = session.solve_cell_block(M, True, F=F, sharding=2)
            assert_block_results_bitwise(sharded.result, serial.result)
        finally:
            session.close()

    def test_prewarm_serial_is_a_no_op(self, plate):
        session = self._session(plate)
        assert session.prewarm_sharding(None) == 0
        assert session.prewarm_sharding(1) == 0
        assert session._shm_tokens == set()

    def test_close_releases_tokens_and_is_idempotent(self, plate):
        session = self._session(plate)
        session.prewarm_sharding(2)
        token = matrix_token(session.blocked.permuted)
        assert any(
            name in registry()._token_segments.get(token, [])
            for name in registry().live_segments()
        )
        session.close()
        assert registry()._token_segments.get(token) is None
        assert session._shm_tokens == set()
        session.close()  # idempotent

    def test_garbage_collected_session_releases_segments(self, plate):
        session = self._session(plate)
        session.prewarm_sharding(2)
        token = matrix_token(session.blocked.permuted)
        assert registry()._token_segments.get(token)
        del session
        gc.collect()
        assert registry()._token_segments.get(token) is None

    def test_sharded_solve_ties_segments_to_session(self, plate):
        session = self._session(plate)
        F = synthetic_load_block(plate, 6)
        session.solve_cell_block(M, True, F=F, sharding=2)
        assert len(session._shm_tokens) == 1
        session.close()


# ------------------------------------------------------------ transports
class TestTransports:
    def test_pickled_fallback_bitwise_identical(self, plate_state):
        blocked, applicator, recipe, F = plate_state
        serial = block_pcg(blocked.permuted, F, preconditioner=applicator, eps=EPS)
        via_shm = sharded_block_pcg(
            blocked.permuted, F, recipe=recipe, workers=2, eps=EPS, use_shm=True
        )
        pickled = sharded_block_pcg(
            blocked.permuted, F, recipe=recipe, workers=2, eps=EPS, use_shm=False
        )
        assert_block_results_bitwise(via_shm, serial)
        assert_block_results_bitwise(pickled, serial)

    def test_repro_no_shm_disables_transport(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_SHM", "1")
        assert not shm.shm_enabled()
        monkeypatch.delenv("REPRO_NO_SHM")
        assert shm.shm_enabled()

    def test_dispatch_spec_is_lightweight(self, plate_state):
        # The tentpole's point: steady-state dispatch ships handles and
        # column indices, not the operator or the block values.
        from repro.parallel import build_shard_specs, column_groups

        blocked, _, recipe, F = plate_state
        groups = column_groups(F.shape[1], 2)
        light, out = build_shard_specs(
            blocked.permuted, F, recipe, groups, eps=EPS, use_shm=True
        )
        heavy, _ = build_shard_specs(
            blocked.permuted, F, recipe, groups, eps=EPS, use_shm=False
        )
        try:
            assert out is not None
            light_bytes = len(pickle.dumps(light[0]))
            heavy_bytes = len(pickle.dumps(heavy[0]))
            assert light_bytes * 4 < heavy_bytes
        finally:
            registry().release(matrix_token(blocked.permuted))

    def test_inline_run_shard_through_shared_memory(self, plate_state):
        # run_shard in the parent process itself: attach own segments.
        from repro.parallel import build_shard_specs, column_groups

        blocked, applicator, _, F = plate_state
        recipe = ApplicatorRecipe(
            kind="sweep",
            coefficients=np.ones(M),
            groups=np.sort(blocked.ordering.groups),
            labels=tuple(blocked.ordering.labels),
        )
        serial = block_pcg(blocked.permuted, F, preconditioner=applicator, eps=EPS)
        groups = column_groups(F.shape[1], 2)
        specs, out = build_shard_specs(
            blocked.permuted, F, recipe, groups, eps=EPS, use_shm=True
        )
        try:
            for spec in specs:
                result = run_shard(spec)
                assert result.u is None  # iterates went via the out block
            u = registry().resolve(out)
            assert np.array_equal(u, serial.u)
        finally:
            registry().release(matrix_token(blocked.permuted))
            shm.detach_all()


# ------------------------------------------------------- compile-cache LRU
class TestWorkerCompileCache:
    def test_hot_token_survives_a_burst_of_one_off_tokens(self, plate_state):
        # Regression: the old cache did clear() at 65 entries, evicting the
        # steady-state session's compiled operator along with the junk.
        blocked, _, recipe, F = plate_state
        payload = shards.CSRPayload.from_matrix(blocked.permuted)
        hot = ShardSpec(
            token="hot", matrix=payload, recipe=recipe,
            columns=np.arange(1), F=np.ascontiguousarray(F[:, :1]), eps=EPS,
        )
        saved = dict(shards._COMPILED)
        shards._COMPILED.clear()
        try:
            hot_state = shards.compiled_shard_state(hot)
            for i in range(100):
                one_off = ShardSpec(
                    token=f"burst-{i}", matrix=payload, recipe=recipe,
                    columns=np.arange(1), F=np.ascontiguousarray(F[:, :1]),
                    eps=EPS,
                )
                shards.compiled_shard_state(one_off)
                # The hot entry is touched between bursts, as a live
                # session's dispatches would touch it.
                assert shards.compiled_shard_state(hot) is hot_state
            assert "hot" in shards._COMPILED
            assert len(shards._COMPILED) <= shards._COMPILED_CAP
        finally:
            shards._COMPILED.clear()
            shards._COMPILED.update(saved)

    def test_cache_is_bounded(self, plate_state):
        blocked, _, recipe, F = plate_state
        payload = shards.CSRPayload.from_matrix(blocked.permuted)
        saved = dict(shards._COMPILED)
        shards._COMPILED.clear()
        try:
            for i in range(2 * shards._COMPILED_CAP):
                spec = ShardSpec(
                    token=f"t{i}", matrix=payload, recipe=recipe,
                    columns=np.arange(1), F=np.ascontiguousarray(F[:, :1]),
                    eps=EPS,
                )
                shards.compiled_shard_state(spec)
            assert len(shards._COMPILED) <= shards._COMPILED_CAP
            assert f"t{2 * shards._COMPILED_CAP - 1}" in shards._COMPILED
        finally:
            shards._COMPILED.clear()
            shards._COMPILED.update(saved)


# ----------------------------------------------------------- start methods
class TestStartMethods:
    def test_spawn_start_method_bitwise(self, plate_state, monkeypatch):
        blocked, applicator, recipe, F = plate_state
        serial = block_pcg(blocked.permuted, F, preconditioner=applicator, eps=EPS)
        monkeypatch.setenv("REPRO_START_METHOD", "spawn")
        try:
            sharded = sharded_block_pcg(
                blocked.permuted, F, recipe=recipe, workers=2, eps=EPS
            )
        finally:
            monkeypatch.delenv("REPRO_START_METHOD")
            shutdown_pools()
        assert_block_results_bitwise(sharded, serial)


# ----------------------------------------------------------- leak freedom
_LEAK_SCRIPT = """
import numpy as np

def main():
    from repro.core.pcg import block_pcg
    from repro.driver import build_blocked_system
    from repro.multicolor.sor import MStepSSOR
    from repro.parallel import ApplicatorRecipe, sharded_block_pcg, shutdown_pools, registry
    from repro.pipeline import build_scenario, synthetic_load_block

    plate = build_scenario("plate", nrows=8)
    blocked = build_blocked_system(plate)
    coeffs = np.ones(3)
    recipe = ApplicatorRecipe(
        kind="sweep", coefficients=coeffs,
        groups=np.sort(blocked.ordering.groups),
        labels=tuple(blocked.ordering.labels),
    )
    F = np.ascontiguousarray(
        blocked.ordering.permute_vector(synthetic_load_block(plate, 4))
    )
    applicator = MStepSSOR(blocked, coeffs)
    serial = block_pcg(blocked.permuted, F, preconditioner=applicator, eps=1e-7)
    sharded = sharded_block_pcg(blocked.permuted, F, recipe=recipe, workers=2, eps=1e-7)
    assert np.array_equal(serial.u, sharded.u)
    shutdown_pools()
    assert registry().live_segments() == []
    print("OK")

if __name__ == "__main__":
    main()
"""


class TestNoLeaks:
    @pytest.mark.parametrize("method", ("fork", "spawn"))
    def test_sharded_run_is_warning_clean(self, method, tmp_path):
        # -W error turns the resource tracker's "leaked shared_memory
        # objects" shutdown report (and any other warning) into a failure;
        # tracker KeyError tracebacks land in stderr either way.
        script = tmp_path / "leak_probe.py"
        script.write_text(_LEAK_SCRIPT)
        import os
        import pathlib

        import repro

        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["REPRO_START_METHOD"] = method
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-W", "error", str(script)],
            capture_output=True, text=True, env=env, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        assert "OK" in proc.stdout
        assert "resource_tracker" not in proc.stderr
        assert "KeyError" not in proc.stderr
        assert "leaked" not in proc.stderr


# ------------------------------------------------------- failure surfacing
class TestFailureSurfacing:
    def test_failed_shard_names_token_and_columns(self, plate_state):
        blocked, _, recipe, F = plate_state
        bogus = shm.ArrayView("repro_does_not_exist", "float64", (4,))
        spec = ShardSpec(
            token="doomed-token",
            matrix=CSRHandle(shape=(4, 4), data=bogus, indices=bogus, indptr=bogus),
            recipe=recipe,
            columns=np.arange(2),
            F=bogus,
            eps=EPS,
        )
        with pytest.raises(RuntimeError) as err:
            run_tasks(run_shard, [spec, spec], workers=2)
        message = str(err.value)
        assert "doomed-token" in message
        assert "columns=[0, 1]" in message
        assert "ShardSpec" in message


# ------------------------------------------------------------- 2-D grid
class Test2DShardGrid:
    @pytest.fixture(scope="class")
    def schedule_session(self):
        problem = build_scenario("plate", nrows=8)
        session = SolverSession(problem, plan=SolverPlan.table3(eps=1e-6))
        return session, session.schedule_cells()

    def test_chunk_group_bounds_cells_per_pass(self):
        cells = list(range(7))
        chunks = _chunk(cells, workers=2, group=3)
        assert chunks == [(0, 1, 2), (3, 4, 5), (6,)]
        # Without group: one balanced chunk per worker.
        assert _chunk(cells, workers=2) == [(0, 1, 2), (3, 4, 5, 6)]

    @pytest.mark.parametrize("grid", ((2, 1), (2, 2), (4, 3)))
    def test_cyber_grid_bitwise(self, schedule_session, grid):
        session, cells = schedule_session
        workers, group = grid
        direct = session.cyber().solve_schedule(cells, eps=1e-6)
        sharded = sharded_schedule(
            session.problem, cells, machine="cyber",
            workers=workers, group=group, eps=1e-6,
        )
        for a, b in zip(sharded, direct):
            assert a.iterations == b.iterations
            assert a.seconds == b.seconds
            assert a.op_breakdown == b.op_breakdown
            assert np.array_equal(a.u_natural, b.u_natural)

    def test_fem_grid_bitwise(self, schedule_session):
        session, cells = schedule_session
        direct = session.fem(2).solve_schedule(cells, eps=1e-6)
        sharded = sharded_schedule(
            session.problem, cells, machine="fem",
            workers=2, group=2, eps=1e-6, n_procs=2,
        )
        for a, b in zip(sharded, direct):
            assert a.iterations == b.iterations
            assert a.seconds == b.seconds
            assert a.comm_seconds == b.comm_seconds
            assert np.array_equal(a.u_natural, b.u_natural)

    def test_spmd_grid_bitwise(self, schedule_session):
        from repro.machines import Assignment, ProcessorGrid, SPMDSolver

        session, cells = schedule_session
        problem = session.problem
        grid = ProcessorGrid.for_count(2, problem.mesh)
        solver = SPMDSolver(problem, Assignment.rectangles(problem.mesh, grid))
        direct = solver.solve_schedule(cells, eps=1e-6)
        sharded = sharded_schedule(
            problem, cells, machine="spmd",
            workers=2, group=1, eps=1e-6, n_procs=2,
        )
        for a, b in zip(sharded, direct):
            assert a.iterations == b.iterations
            assert a.ledger.messages == b.ledger.messages
            assert np.array_equal(a.u_natural, b.u_natural)

    def test_session_schedule_group_passthrough(self, schedule_session):
        session, _ = schedule_session
        direct = session.run_cyber_schedule()
        gridded = session.run_cyber_schedule(workers=2, group=2)
        assert [r.seconds for r in gridded] == [r.seconds for r in direct]
        fem_direct = session.run_fem_schedule(n_procs=2)
        fem_grid = session.run_fem_schedule(n_procs=2, workers=2, group=2)
        assert [r.seconds for r in fem_grid] == [r.seconds for r in fem_direct]
