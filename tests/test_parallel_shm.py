"""The shared-memory transport of the sharded block-PCG path.

Covers its contracts, for the permuted CSR and the matrix-free stencil
operator alike:

* **Segment lifecycle** — publications are unlinked by
  :func:`repro.parallel.shutdown_pools`, by session close/garbage
  collection, and reused (not recreated) across steady-state dispatches;
  nothing leaks under ``python -W error`` including the stdlib resource
  tracker's shutdown report.
* **Read-only views** — worker-side attachments map the published bytes
  read-only, so the serial/sharded bitwise contract holds by
  construction; every steady-state dispatch spec pickles under 4 KB,
  whatever the operator's size.
* **Compile-cache LRU** — a hot worker token survives a burst of 100
  one-off tokens (the regression of the old clear-everything-at-65
  behavior).
* **Start methods** — the transport attaches by name, so ``spawn``
  reproduces the ``fork`` results bitwise (``REPRO_START_METHOD``).
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
from repro.fem.matrixfree import stencil_operator
from repro.kernels.stencil import StencilSSOR
from repro.multicolor.sor import MStepSSOR
from repro.parallel import (
    ApplicatorRecipe,
    CSRHandle,
    SegmentRegistry,
    ShardSpec,
    StencilHandle,
    build_shard_specs,
    column_groups,
    registry,
    run_shard,
    run_tasks,
    sharded_block_pcg,
    shutdown_pools,
)
from repro.parallel import shards, shm
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
        coeffs,
        group_sizes=tuple(blocked.ordering.counts.tolist()),
        labels=tuple(blocked.ordering.labels),
    )
    F = np.ascontiguousarray(
        blocked.ordering.permute_vector(synthetic_load_block(plate, 6))
    )
    return blocked, applicator, recipe, F


@pytest.fixture(scope="module")
def stencil_state():
    """``(operator, serial applicator, recipe, F)`` on the matrix-free plate."""
    problem = build_scenario("plate", nrows=8, assemble=False)
    op = stencil_operator(problem)
    coeffs = np.ones(M)
    F = np.ascontiguousarray(synthetic_load_block(problem, 6))
    return op, StencilSSOR(op, coeffs), ApplicatorRecipe(coeffs), F


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
            mat = shm.attach_operator(handle)
            assert (mat != k).nnz == 0
            assert mat.data.dtype == k.data.dtype
            assert not mat.data.flags.writeable
        finally:
            reg.release_all()
            shm.detach_all()

    def test_stencil_publication_round_trips(self):
        op = stencil_operator(build_scenario("plate", nrows=8, assemble=False))
        reg = SegmentRegistry()
        try:
            handle = reg.publish_operator("op", op)
            assert isinstance(handle, StencilHandle)
            assert len(reg.live_segments()) == 1  # one segment, three arrays
            rebuilt = shm.attach_operator(handle)
            assert rebuilt.offsets == op.offsets
            assert np.array_equal(rebuilt.values, op.values)
            assert np.array_equal(rebuilt.groups, op.groups)
            assert rebuilt.group_labels == op.group_labels
            # The constructor zeroes out-of-range rows in place: it must
            # work on a private copy, never on the shared segment.
            published = shm.attach_view(handle.values)
            assert not published.flags.writeable
            assert not np.shares_memory(rebuilt.values, published)
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
    def _session(self, plate, backend="vectorized"):
        if backend == "stencil":
            plate = build_scenario("plate", nrows=8, assemble=False)
        return SolverSession(
            plate,
            plan=SolverPlan.single(M, True, eps=EPS, block_rhs=6, backend=backend),
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

    def test_prewarmed_pool_serves_a_narrower_solve(self, plate):
        # Warmed for more workers than the solve has columns: the solve's
        # two shards run on the warm pool, and no second, cold pool starts.
        from repro.parallel import executor

        shutdown_pools()
        session = self._session(plate)
        try:
            session.prewarm_sharding(3)
            F = synthetic_load_block(plate, 2)
            serial = session.solve_cell_block(M, True, F=F)
            sharded = session.solve_cell_block(M, True, F=F, sharding=3)
            assert_block_results_bitwise(sharded.result, serial.result)
            assert session.stats.shard_dispatches == 2
            assert [size for size, _ in executor._POOLS] == [3]
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

    def test_stencil_session_releases_segments(self, plate):
        # The matrix-free operator is published like the CSR one, and its
        # segments live exactly as long as the session: close, then GC.
        session = self._session(plate, "stencil")
        F = synthetic_load_block(session.problem, 6)
        session.solve_cell_block(M, True, F=F, sharding=2)
        token = matrix_token(session.stencil())
        assert session._shm_tokens == {token}
        assert registry()._token_segments.get(token)
        session.close()
        assert registry()._token_segments.get(token) is None
        session = self._session(plate, "stencil")
        session.prewarm_sharding(2)
        token = matrix_token(session.stencil())
        assert registry()._token_segments.get(token)
        del session
        gc.collect()
        assert registry()._token_segments.get(token) is None


# ------------------------------------------------------------ transport
def _steady_spec_bytes(backend: str, rows: int) -> list[int]:
    """Pickled bytes of each spec of a k = 16, two-group plate dispatch."""
    session = SolverSession(
        build_scenario("plate", nrows=rows, assemble=backend != "stencil"),
        plan=SolverPlan.single(M, eps=EPS, backend=backend),
    )
    operator, blocked = session._operator()
    F = synthetic_load_block(session.problem, 16)
    if blocked is not None:
        F = blocked.ordering.permute_vector(F)
    specs, _ = build_shard_specs(
        operator, np.ascontiguousarray(F), session._shard_recipe(M, False),
        column_groups(16, 2), eps=EPS,
    )
    registry().release(matrix_token(operator))
    return [len(pickle.dumps(spec)) for spec in specs]


def _run_shards_inline(operator, applicator, recipe, F) -> None:
    """``run_shard`` in the parent process itself, attaching its own
    segments; the iterates come back through the shared output block."""
    serial = block_pcg(operator, F, preconditioner=applicator, eps=EPS)
    specs, out = build_shard_specs(
        operator, F, recipe, column_groups(F.shape[1], 2), eps=EPS
    )
    try:
        results = [run_shard(spec) for spec in specs]
        assert np.array_equal(registry().resolve(out), serial.u)
        for result in results:
            assert np.array_equal(
                result.iterations, serial.iterations[result.columns]
            )
    finally:
        registry().release(matrix_token(operator))
        shm.detach_all()


class TestTransports:
    # Steady-state dispatch ships handles, column indices and the recipe
    # — never the operator, the color map or the block values — so every
    # spec stays under one absolute budget whatever the operator's size.
    def test_dispatch_spec_is_lightweight(self):
        sizes = _steady_spec_bytes("vectorized", 41)
        assert len(sizes) == 2 and max(sizes) < 4096

    @pytest.mark.parametrize("rows", (41, 100))
    def test_stencil_dispatch_spec_is_lightweight(self, rows):
        sizes = _steady_spec_bytes("stencil", rows)
        assert len(sizes) == 2 and max(sizes) < 4096

    def test_inline_run_shard_through_shared_memory(self, plate_state):
        blocked, applicator, recipe, F = plate_state
        _run_shards_inline(blocked.permuted, applicator, recipe, F)

    def test_inline_stencil_run_shard_through_shared_memory(self, stencil_state):
        _run_shards_inline(*stencil_state)


# ------------------------------------------------------- compile-cache LRU
class TestWorkerCompileCache:
    @pytest.fixture
    def published(self, plate_state):
        """A published operator handle, with the worker cache saved."""
        blocked, _, recipe, _ = plate_state
        reg = SegmentRegistry()
        saved = dict(shards._COMPILED)
        shards._COMPILED.clear()
        try:
            yield reg.publish_operator("op", blocked.permuted), recipe
        finally:
            shards._COMPILED.clear()
            shards._COMPILED.update(saved)
            shm.detach_all()
            reg.release_all()

    def test_hot_token_survives_a_burst_of_one_off_tokens(self, published):
        # Regression: the old cache did clear() at 65 entries, evicting the
        # steady-state session's compiled operator along with the junk.
        handle, recipe = published
        hot = ShardSpec(
            token="hot", matrix=handle, recipe=recipe, columns=np.arange(0)
        )
        hot_state = shards.compiled_shard_state(hot)
        for i in range(100):
            one_off = ShardSpec(
                token=f"burst-{i}", matrix=handle, recipe=recipe,
                columns=np.arange(0),
            )
            shards.compiled_shard_state(one_off)
            # The hot entry is touched between bursts, as a live
            # session's dispatches would touch it.
            assert shards.compiled_shard_state(hot) is hot_state
        assert "hot" in shards._COMPILED
        assert len(shards._COMPILED) <= shards._COMPILED_CAP

    def test_cache_is_bounded(self, published):
        handle, recipe = published
        for i in range(2 * shards._COMPILED_CAP):
            spec = ShardSpec(
                token=f"t{i}", matrix=handle, recipe=recipe,
                columns=np.arange(0),
            )
            shards.compiled_shard_state(spec)
        assert len(shards._COMPILED) <= shards._COMPILED_CAP
        assert f"t{2 * shards._COMPILED_CAP - 1}" in shards._COMPILED


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
import sys

import numpy as np

def main(backend):
    from repro.parallel import shutdown_pools, registry
    from repro.pipeline import (
        SolverPlan, SolverSession, build_scenario, synthetic_load_block,
    )

    plate = build_scenario("plate", nrows=8, assemble=backend != "stencil")
    plan = SolverPlan.single(3, eps=1e-7, backend=backend)
    F = synthetic_load_block(plate, 4)
    serial = SolverSession(plate, plan=plan).solve_cell_block(3, F=F)
    session = SolverSession(plate, plan=plan)
    session.prewarm_sharding(2)
    sharded = session.solve_cell_block(3, F=F, sharding=2)
    assert np.array_equal(serial.u, sharded.u)
    assert registry().live_segments() != []
    shutdown_pools()
    assert registry().live_segments() == []
    print("OK")

if __name__ == "__main__":
    main(sys.argv[1])
"""


def _assert_warning_clean(method: str, backend: str, tmp_path) -> None:
    # -W error turns the resource tracker's "leaked shared_memory
    # objects" shutdown report (and any other warning) into a failure;
    # tracker KeyError tracebacks land in stderr either way.
    import os
    import pathlib

    import repro

    script = tmp_path / "leak_probe.py"
    script.write_text(_LEAK_SCRIPT)
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["REPRO_START_METHOD"] = method
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(script), backend],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert "OK" in proc.stdout
    assert "resource_tracker" not in proc.stderr
    assert "KeyError" not in proc.stderr
    assert "leaked" not in proc.stderr


class TestNoLeaks:
    @pytest.mark.parametrize("method", ("fork", "spawn"))
    def test_sharded_run_is_warning_clean(self, method, tmp_path):
        _assert_warning_clean(method, "vectorized", tmp_path)

    @pytest.mark.parametrize("method", ("fork", "spawn"))
    def test_stencil_sharded_run_is_warning_clean(self, method, tmp_path):
        _assert_warning_clean(method, "stencil", tmp_path)


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
