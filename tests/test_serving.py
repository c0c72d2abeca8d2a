"""The serving layer (ISSUE 7): daemon, session LRU, micro-batcher, client.

Covers the PR's acceptance contracts:

* **Batch split/merge** — columns coalesced into one
  :func:`~repro.core.pcg.block_pcg` lockstep come back **bitwise**
  identical to unbatched :meth:`SolverSession.solve_cell` runs, per
  column, whatever the batch width.
* **LRU eviction** — under capacity pressure the least-recently-used
  compiled session is evicted *and closed* (its shared-memory finalizer
  runs); hits/misses/evictions count correctly and a re-request
  recompiles.
* **Malformed-request rejection** — bad frames, bad fields, bad values
  and unknown scenarios produce ``ok: false`` error responses without
  killing the connection, the batch, or the daemon; a wrong-length
  ``rhs`` rejects only its own column.
* **Cancellation mid-batch** — a waiter that disappears before its batch
  flushes forfeits its column; the remaining columns solve bitwise
  unharmed.
* **Leak-free shutdown** — a full serve/solve/shutdown cycle under
  ``python -W error`` leaves zero live shared-memory segments (the
  ``tests/test_parallel_shm.py`` pattern).
"""

import asyncio
import socket
import subprocess
import sys

import numpy as np
import pytest

from repro.pipeline import (
    SolverPlan,
    SolverSession,
    build_scenario,
    synthetic_load_block,
)
from repro.serving import (
    MicroBatcher,
    ProtocolError,
    ServeClient,
    ServerStats,
    SessionCache,
    parse_solve_request,
    start_server_thread,
)
from repro.serving.protocol import decode_line, encode_line

EPS = 1e-6
M = 3
ROWS = 8


def solve_payload(**overrides) -> dict:
    payload = {"op": "solve", "scenario": "plate", "rows": ROWS, "m": M,
               "eps": EPS}
    payload.update(overrides)
    return payload


@pytest.fixture(scope="module")
def plate():
    return build_scenario("plate", nrows=ROWS)


@pytest.fixture(scope="module")
def reference(plate):
    """Serial unbatched solves of load cases 0..4 — the bitwise oracle."""
    session = SolverSession(plate, plan=SolverPlan.single(M, eps=EPS))
    out = {}
    for j in range(5):
        f = np.ascontiguousarray(synthetic_load_block(plate, j + 1)[:, j])
        out[j] = session.solve_cell(M, f=f).u
    return out


@pytest.fixture()
def server():
    handle = start_server_thread(batch_window=0.05, max_batch=8, capacity=4)
    yield handle
    handle.stop()


# ------------------------------------------------------------------ protocol
class TestProtocol:
    def test_round_trip(self):
        payload = solve_payload(load_case=2)
        assert decode_line(encode_line(payload)) == payload

    def test_request_defaults(self):
        req = parse_solve_request({"op": "solve"})
        assert req.scenario == "plate"
        assert req.m == 3
        assert req.load_case == 0
        assert req.system_key == ("plate", None, 3, False, 1e-6, "vectorized")

    @pytest.mark.parametrize("payload, needle", [
        ({"scenario": 7}, "scenario"),
        ({"scenario": ""}, "scenario"),
        ({"rows": "twenty"}, "rows"),
        ({"rows": 1}, "rows"),
        ({"m": -1}, "m"),
        ({"m": "many"}, "m"),
        ({"m": True}, "m"),
        ({"parametrized": "yes"}, "parametrized"),
        ({"omega": 0.0}, "omega"),
        ({"omega": float("nan")}, "omega"),
        ({"eps": -1e-6}, "eps"),
        ({"backend": 3}, "backend"),
        ({"rhs": []}, "rhs"),
        ({"rhs": [1.0, "x"]}, "rhs"),
        ({"rhs": [1.0, float("inf")]}, "rhs"),
        ({"load_case": -1}, "load_case"),
        ({"load_case": 1.5}, "load_case"),
        ({"typo_field": 1}, "typo_field"),
    ])
    def test_rejections(self, payload, needle):
        with pytest.raises(ProtocolError, match=needle):
            parse_solve_request(solve_payload(**payload))

    def test_reference_backend_rejected_before_compile(self):
        # No session solve runs the reference kernels: refuse it rather
        # than compile a second copy of the vectorized system.
        with pytest.raises(ProtocolError, match="reference"):
            parse_solve_request(solve_payload(backend="reference"))

    def test_default_backend_shares_the_vectorized_key(self):
        omitted = parse_solve_request(solve_payload())
        explicit = parse_solve_request(solve_payload(backend="vectorized"))
        null = parse_solve_request(solve_payload(backend=None))
        assert omitted.backend == "vectorized"
        assert omitted.system_key == explicit.system_key == null.system_key

    def test_bad_frames(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decode_line(b"{nope\n")
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_line(b"[1, 2]\n")

    def test_system_key_separates_numerics(self):
        base = parse_solve_request(solve_payload())
        for change in ({"m": 4}, {"eps": 1e-8},
                       {"parametrized": True}, {"rows": ROWS + 2},
                       {"backend": "stencil"}, {"m": "auto"}):
            assert parse_solve_request(
                solve_payload(**change)
            ).system_key != base.system_key
        # The RHS is value data, never compiled state: same key.
        assert parse_solve_request(
            solve_payload(load_case=3)
        ).system_key == base.system_key


# --------------------------------------------------------------- session LRU
class TestSessionCache:
    def test_hit_and_miss_counting(self):
        cache = SessionCache(capacity=2)
        req = parse_solve_request(solve_payload())
        entry, hit = cache.get(req)
        assert not hit and cache.stats.misses == 1
        again, hit = cache.get(req)
        assert hit and again is entry and cache.stats.hits == 1
        assert entry.session.stats.colorings == 1  # compiled exactly once

    def test_eviction_under_capacity_pressure_closes_sessions(self):
        cache = SessionCache(capacity=2)
        requests = [
            parse_solve_request(solve_payload(rows=rows))
            for rows in (6, 7, 8)
        ]
        entries = [cache.get(req)[0] for req in requests]
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # Oldest key evicted, and its session's shm finalizer has run.
        assert requests[0].system_key not in cache.keys()
        assert not entries[0].session._shm_finalizer.alive
        assert entries[1].session._shm_finalizer.alive
        # Re-requesting the evicted system recompiles (a miss, not a hit).
        _, hit = cache.get(requests[0])
        assert not hit
        assert cache.stats.misses == 4
        assert cache.stats.evictions == 2

    def test_lru_order_is_refresh_on_hit(self):
        cache = SessionCache(capacity=2)
        a = parse_solve_request(solve_payload(rows=6))
        b = parse_solve_request(solve_payload(rows=7))
        c = parse_solve_request(solve_payload(rows=8))
        cache.get(a), cache.get(b)
        cache.get(a)  # refresh a: b is now the LRU entry
        cache.get(c)
        assert a.system_key in cache.keys()
        assert b.system_key not in cache.keys()

    def test_close_all(self):
        cache = SessionCache(capacity=2)
        entry, _ = cache.get(parse_solve_request(solve_payload()))
        cache.close_all()
        assert len(cache) == 0
        assert not entry.session._shm_finalizer.alive

    def test_auto_m_resolves_to_concrete_parametrized_cell(self):
        cache = SessionCache(capacity=2, auto_width=8)
        entry, _ = cache.get(parse_solve_request(solve_payload(m="auto")))
        assert isinstance(entry.m, int) and entry.m >= 1
        assert entry.parametrized
        assert entry.label.endswith("P")

    def test_auto_miss_measures_interval_once_and_colors_once(self, monkeypatch):
        """The served session reuses the auto-m probe's compile work."""
        import repro.pipeline.session as session_mod

        calls = {"build_blocked_system": 0, "ssor_interval": 0}
        for name in calls:
            original = getattr(session_mod, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(session_mod, name, counted)
        cache = SessionCache(capacity=2, auto_width=8)
        entry, hit = cache.get(
            parse_solve_request(solve_payload(m="auto", rows=12))
        )
        assert not hit and entry.parametrized
        assert calls == {"build_blocked_system": 1, "ssor_interval": 1}


# ------------------------------------------------------------- micro-batcher
def run_batcher(coro):
    return asyncio.run(coro)


def make_batcher(window=0.05, max_batch=8, capacity=4):
    stats = ServerStats()
    cache = SessionCache(capacity=capacity, stats=stats, auto_width=max_batch)
    return MicroBatcher(cache, stats, window=window, max_batch=max_batch)


class TestMicroBatcher:
    def test_batch_split_merge_bitwise(self, reference):
        """k coalesced columns ≡ k unbatched solves, bitwise, one batch."""
        batcher = make_batcher()

        async def scenario_run():
            futures = [
                batcher.submit(parse_solve_request(solve_payload(load_case=j)))
                for j in range(4)
            ]
            return await asyncio.gather(*futures)

        try:
            responses = run_batcher(scenario_run())
        finally:
            batcher.shutdown_executor()
        assert [r["batch_width"] for r in responses] == [4, 4, 4, 4]
        assert batcher.stats.batches == 1
        assert batcher.stats.batch_widths == {4: 1}
        for j, response in enumerate(responses):
            assert response["ok"] and response["converged"]
            assert np.array_equal(np.asarray(response["u"]), reference[j])

    def test_full_batch_flushes_before_window(self, reference):
        batcher = make_batcher(window=30.0, max_batch=2)

        async def scenario_run():
            futures = [
                batcher.submit(parse_solve_request(solve_payload(load_case=j)))
                for j in range(2)
            ]
            # A 30 s window would time the test out; only the size
            # trigger can flush this batch.
            return await asyncio.wait_for(asyncio.gather(*futures), timeout=20)

        try:
            responses = run_batcher(scenario_run())
        finally:
            batcher.shutdown_executor()
        assert [r["batch_width"] for r in responses] == [2, 2]

    def test_cancellation_mid_batch_leaves_other_columns_unharmed(
        self, reference
    ):
        batcher = make_batcher()

        async def scenario_run():
            futures = [
                batcher.submit(parse_solve_request(solve_payload(load_case=j)))
                for j in range(3)
            ]
            futures[1].cancel()
            done = await asyncio.gather(*futures, return_exceptions=True)
            return done

        try:
            results = run_batcher(scenario_run())
        finally:
            batcher.shutdown_executor()
        assert isinstance(results[1], asyncio.CancelledError)
        for j in (0, 2):
            assert results[j]["ok"]
            assert np.array_equal(np.asarray(results[j]["u"]), reference[j])

    def test_wrong_length_rhs_rejects_only_its_own_column(self, reference):
        batcher = make_batcher()

        async def scenario_run():
            good = batcher.submit(parse_solve_request(solve_payload(load_case=0)))
            bad = batcher.submit(
                parse_solve_request(solve_payload(rhs=[1.0, 2.0, 3.0]))
            )
            return await asyncio.gather(good, bad)

        try:
            good, bad = run_batcher(scenario_run())
        finally:
            batcher.shutdown_executor()
        assert good["ok"]
        assert np.array_equal(np.asarray(good["u"]), reference[0])
        assert good["batch_width"] == 1  # the bad column never solved
        assert not bad["ok"] and "length" in bad["error"]

    def test_unknown_scenario_fails_whole_batch_gracefully(self):
        batcher = make_batcher()

        async def scenario_run():
            future = batcher.submit(
                parse_solve_request(solve_payload(scenario="not-a-scenario"))
            )
            return await future

        try:
            response = run_batcher(scenario_run())
        finally:
            batcher.shutdown_executor()
        assert not response["ok"]
        assert "unknown scenario" in response["error"]
        assert batcher.stats.errors == 1


# ------------------------------------------------------------- TCP end to end
class TestDaemonOverTCP:
    def test_concurrent_requests_bitwise_and_batched(self, server, reference):
        import threading
        from concurrent.futures import ThreadPoolExecutor

        barrier = threading.Barrier(6)

        def fire(case):
            with ServeClient(port=server.port) as client:
                barrier.wait(timeout=30)
                return client.solve(rows=ROWS, m=M, eps=EPS, load_case=case)

        with ThreadPoolExecutor(max_workers=6) as pool:
            replies = list(pool.map(fire, [0, 1, 2, 3, 4, 0]))
        for case, reply in zip([0, 1, 2, 3, 4, 0], replies):
            assert reply.converged
            assert np.array_equal(reply.u, reference[case])
        with ServeClient(port=server.port) as client:
            counters = client.stats()["stats"]
        assert counters["solves"] == 6
        assert max(
            int(w) for w in counters["batch_width_hist"]
        ) > 1, counters

    def test_connection_survives_malformed_requests(self, server, reference):
        with ServeClient(port=server.port) as client:
            for payload, needle in [
                ({"op": "no-such-op"}, "unknown op"),
                (solve_payload(m=-2), "'m'"),
                (solve_payload(scenario="nope"), "unknown scenario"),
                (solve_payload(rhs=[0.0, 1.0]), "length"),
                # The daemon serves only the omega = 1 merged sweep.
                (solve_payload(omega=1.5), "omega"),
            ]:
                response = client.request(payload)
                assert response["ok"] is False
                assert needle in response["error"]
            # Raw garbage frames (not even JSON) answer with an error too.
            raw = socket.create_connection(("127.0.0.1", server.port))
            try:
                raw.sendall(b"this is not json\n")
                line = raw.makefile("rb").readline()
                assert decode_line(line)["ok"] is False
            finally:
                raw.close()
            # ... and the daemon still serves correct solves afterwards.
            reply = client.solve(rows=ROWS, m=M, eps=EPS, load_case=1)
            assert np.array_equal(reply.u, reference[1])

    def test_auto_m_over_the_wire(self, server):
        with ServeClient(port=server.port) as client:
            reply = client.solve(rows=ROWS, m="auto", eps=EPS)
            assert reply.converged
            assert reply.m_label.endswith("P")

    def test_stats_shape(self, server):
        with ServeClient(port=server.port) as client:
            client.solve(rows=ROWS, m=M, eps=EPS)
            stats = client.stats()
        assert stats["cache"]["capacity"] == 4
        assert stats["batcher"]["max_batch"] == 8
        assert stats["live_shm_segments"] == 0
        assert stats["stats"]["requests"]["solve"] >= 1

    def test_shutdown_stops_thread_and_closes_sessions(self):
        handle = start_server_thread(batch_window=0.0, max_batch=1, capacity=2)
        with ServeClient(port=handle.port) as client:
            reply = client.solve(rows=ROWS, m=M, eps=EPS)
            assert reply.batch_width == 1  # batching disabled end to end
        handle.stop()
        assert not handle.thread.is_alive()
        assert len(handle.server.cache) == 0


# ----------------------------------------------------------- leak freedom
_LEAK_SCRIPT = """
import numpy as np

def main():
    from repro.parallel import registry
    from repro.serving import ServeClient, start_server_thread

    handle = start_server_thread(batch_window=0.01, max_batch=4, capacity=2)
    with ServeClient(port=handle.port) as client:
        for case in range(3):
            reply = client.solve(rows=8, m=3, load_case=case)
            assert reply.converged
    handle.stop()
    assert not handle.thread.is_alive()
    assert registry().live_segments() == []
    print("OK")

if __name__ == "__main__":
    main()
"""


class TestNoLeaks:
    def test_serve_cycle_is_warning_clean(self, tmp_path):
        # -W error promotes the resource tracker's "leaked shared_memory
        # objects" shutdown report (and any other warning) to a failure —
        # the same leak-check pattern as tests/test_parallel_shm.py.
        script = tmp_path / "serve_leak_probe.py"
        script.write_text(_LEAK_SCRIPT)
        import os
        import pathlib

        import repro

        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
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
        assert "leaked" not in proc.stderr
