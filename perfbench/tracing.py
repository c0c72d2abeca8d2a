"""Spans and counts recorded around the public entry points of each layer.

Nothing inside ``src/`` records anything: :func:`install` swaps the entry
points of ``serving``, ``pipeline``, ``core``, ``multicolor``, ``kernels``
and ``parallel`` for thin wrappers that open a span (name, start, end,
parent, batch tag) and note per-call counts.  Spans stay in memory and are
written once, when the traced process exits.

A span's *self time* is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans (the layer is the
span name up to the first dot).  Summed over all layers, self times add
back up to the root spans' durations, which the smoke test checks against
the program's own end-to-end clock.
"""

from __future__ import annotations

import collections
import importlib
import itertools
import json
import pickle
import threading
from time import perf_counter

LAYERS = ("serving", "pipeline", "core", "multicolor", "kernels", "parallel")


class Tracer:
    """In-memory span and value recorder (one per traced process)."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent span, tag]
        self.values: dict[str, list] = collections.defaultdict(list)
        self.tag = None
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        stack = self._stack()
        span = [name, 0.0, 0.0, stack[-1] if stack else None, self.tag]
        self.spans.append(span)  # list.append is atomic across threads
        stack.append(span)
        span[1] = perf_counter()
        return span

    def end(self, span: list, keep: bool = True) -> None:
        span[2] = perf_counter()
        self._stack().pop()
        if not keep:
            span[0] = None  # a cache hit: no work, no span

    def add(self, name: str, value) -> None:
        self.values[name].append(value)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)

        return traced

    def dump(self, path) -> None:
        index = {id(span): i for i, span in enumerate(self.spans)}
        rows = [
            [name, start, end, -1 if parent is None else index[id(parent)], tag]
            for name, start, end, parent, tag in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"spans": rows, "values": self.values}, fh)


def load(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def self_times(spans: list, roots: tuple[str, ...], since: float = 0.0):
    """Per-layer self seconds under root spans that start at or after ``since``.

    Returns ``(per_layer, per_name)``: self seconds keyed by layer and by
    span name.
    """
    n = len(spans)
    child_total = [0.0] * n
    for name, start, end, parent, _ in spans:
        if name is not None and parent >= 0:
            child_total[parent] += end - start
    included = [False] * n
    for i, (name, start, _, parent, _) in enumerate(spans):
        # Parents precede their children in the list, so one forward pass
        # marks every span below an included root.
        if parent < 0:
            included[i] = name in roots and start >= since
        else:
            included[i] = included[parent]
    per_layer = collections.defaultdict(float)
    per_name = collections.defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        if name is None or not included[i]:
            continue
        own = end - start - child_total[i]
        per_layer[name.split(".", 1)[0]] += own
        per_name[name] += own
    return dict(per_layer), dict(per_name)


def durations(spans: list, name: str, since: float = 0.0) -> list[float]:
    return [e - s for nm, s, e, _, _ in spans if nm == name and s >= since]


def _matrix_bytes(a) -> int:
    """Bytes of the operator's stored coefficients and index arrays."""
    values = getattr(a, "values", None)
    if values is not None:  # StencilOperator: the constant-offset diagonals
        return int(values.nbytes)
    return int(a.data.nbytes + a.indices.nbytes + a.indptr.nbytes)


def _width(x) -> int:
    return 1 if x.ndim == 1 else int(x.shape[1])


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer on the user's wait path."""
    # Package namespaces re-export functions under their modules' names
    # (``repro.core.pcg`` is also a function), so fetch the modules.
    pcg_mod = importlib.import_module("repro.core.pcg")
    block_mod = importlib.import_module("repro.parallel.block")
    pipeline_pkg = importlib.import_module("repro.pipeline")
    session_mod = importlib.import_module("repro.pipeline.session")
    daemon_mod = importlib.import_module("repro.serving.daemon")
    from repro.kernels.stencil import StencilOperator, StencilSSOR
    from repro.multicolor.sor import MStepSSOR

    from common import proc_cpu_s, worker_pids

    tr = tracer

    # -- kernels: K·p, the one product per PCG iteration --------------------
    def traced_matvec(fn, out_rw: int):
        def matvec(a, x, out):
            name = (
                "kernels.stencil_matvec"
                if isinstance(a, StencilOperator)
                else "kernels.csr_matvec"
            )
            span = tr.begin(name)
            try:
                return fn(a, x, out)
            finally:
                tr.end(span)
                k = _width(x)
                # Computed, not measured: coefficients once, x read once,
                # out written (and read too when accumulating).
                tr.add(name + "_bytes",
                       _matrix_bytes(a) + (8 + 8 * out_rw) * a.shape[0] * k)
        return matvec

    pcg_mod.matvec_accumulate = traced_matvec(pcg_mod.matvec_accumulate, 2)
    pcg_mod.matvec_into = traced_matvec(pcg_mod.matvec_into, 1)

    # -- multicolor / kernels: the m-step sweeps ----------------------------
    mstep_apply = MStepSSOR.apply

    def sweep(self, r):
        span = tr.begin("multicolor.sweep")
        try:
            return mstep_apply(self, r)
        finally:
            tr.end(span)
            tr.add("multicolor.sweep_cols", _width(r))

    MStepSSOR.apply = sweep

    stencil_apply = StencilSSOR.apply

    def stencil_sweep(self, r):
        span = tr.begin("kernels.stencil_sweep")
        try:
            return stencil_apply(self, r)
        finally:
            tr.end(span)
            # Computed: each of the m steps reads every off-diagonal
            # coefficient once over its two half-sweeps, reads r and
            # reads + writes the iterate.
            op = self.operator
            tr.add("kernels.stencil_sweep_bytes",
                   self.m * (_matrix_bytes(op) + 24 * op.n * _width(r)))

    StencilSSOR.apply = stencil_sweep

    # -- core: the lockstep Algorithm-1 loop --------------------------------
    block_pcg = session_mod.block_pcg

    def traced_block_pcg(k, F, *args, **kwargs):
        span = tr.begin("core.block_pcg")
        try:
            result = block_pcg(k, F, *args, **kwargs)
        finally:
            tr.end(span)
        its = [int(i) for i in result.iterations]
        tr.add("core.block", [len(its), sum(its), max(its, default=0)])
        return result

    session_mod.block_pcg = traced_block_pcg

    # -- pipeline: scenario build and the compile phases --------------------
    build = pipeline_pkg.build_scenario
    traced_build = tr.wrap("pipeline.build", build)
    pipeline_pkg.build_scenario = traced_build
    daemon_mod.build_scenario = traced_build

    Session = session_mod.SolverSession

    def first_call(attr: str, span_name: str, record=None):
        """Span ``attr`` only on the call that fills its ``_attr`` slot."""
        original = Session.__dict__[attr]
        is_property = isinstance(original, property)
        fn = original.fget if is_property else original
        slot = "_" + attr

        def call(self):
            if getattr(self, slot) is not None:
                return fn(self)
            span = tr.begin(span_name)
            try:
                value = fn(self)
            finally:
                tr.end(span)
            if record is not None:
                record(value)
            return value

        setattr(Session, attr, property(call) if is_property else call)

    first_call("blocked", "pipeline.color")
    first_call("stencil", "pipeline.color")
    first_call(
        "interval", "pipeline.interval",
        record=lambda iv: tr.add("pipeline.intervals",
                                 [float(v).hex() for v in iv]),
    )

    def cached_method(attr: str, span_name: str, cache: str):
        """Span ``attr`` only on calls that add an entry to its dict cache."""
        method = getattr(Session, attr)

        def call(self, *args, **kwargs):
            before = len(getattr(self, cache))
            span = tr.begin(span_name)
            try:
                return method(self, *args, **kwargs)
            finally:
                tr.end(span, keep=len(getattr(self, cache)) > before)

        setattr(Session, attr, call)

    cached_method("applicator", "pipeline.factor", "_applicators")
    cached_method("stencil_applicator", "pipeline.factor", "_stencil_applicators")
    Session.solve_cell_block = tr.wrap("pipeline.solve", Session.solve_cell_block)

    # -- parallel: pool warm-up, dispatch, worker CPU -----------------------
    Session.prewarm_sharding = tr.wrap(
        "parallel.prewarm", Session.prewarm_sharding
    )

    run_tasks = block_mod.run_tasks

    def traced_run_tasks(fn, specs, workers):
        specs = list(specs)
        tr.add("parallel.dispatch_bytes",
               sum(len(pickle.dumps(spec)) for spec in specs))
        return run_tasks(fn, specs, workers)

    block_mod.run_tasks = traced_run_tasks

    sharded = session_mod.sharded_block_pcg

    def traced_sharded(*args, **kwargs):
        pids = worker_pids()
        cpu0 = [proc_cpu_s(pid) for pid in pids]
        span = tr.begin("parallel.sharded_block_pcg")
        try:
            return sharded(*args, **kwargs)
        finally:
            tr.end(span)
            cpu = [proc_cpu_s(pid) - c for pid, c in zip(pids, cpu0)]
            tr.add("parallel.solve", [span[2] - span[1], cpu])

    session_mod.sharded_block_pcg = traced_sharded

    # -- serving: the daemon's solve thread ---------------------------------
    batches = itertools.count()
    solve_batch = daemon_mod.MicroBatcher._solve_batch

    def traced_solve_batch(self, requests, enqueued):
        tr.tag = next(batches)
        span = tr.begin("serving.batch")
        try:
            return solve_batch(self, requests, enqueued)
        finally:
            tr.end(span)

    daemon_mod.MicroBatcher._solve_batch = traced_solve_batch
    daemon_mod.SessionCache._build = tr.wrap(
        "serving.compile", daemon_mod.SessionCache._build
    )
