"""Wire protocol of the serving layer: newline-delimited JSON over TCP.

One request is one JSON object on one line; one response is one JSON
object on one line.  The framing is deliberately primitive — no HTTP, no
third-party dependency, nothing the stdlib cannot parse — because the
interesting machinery lives behind it (the session cache and the
micro-batcher of :mod:`repro.serving.daemon`).

Operations
----------
``{"op": "solve", ...}``
    One right-hand side against one compiled system.  The system is named
    by ``(scenario, rows, m, parametrized, eps, backend)`` — the
    :meth:`SolveRequest.system_key` the daemon caches compiled
    :class:`~repro.pipeline.session.SolverSession` objects under.  The
    right-hand side is either an explicit ``"rhs": [floats]`` vector or a
    deterministic named ``"load_case"`` index (``0`` is the scenario's own
    assembled load; case ``j > 0`` is column ``j`` of
    :func:`repro.pipeline.synthetic_load_block`, identical on client and
    server by construction).  ``"m"`` may be ``"auto"``: the daemon
    resolves it once per cached system from the width-aware
    inequality-(4.2) cost model, priced at the batcher's width.
``{"op": "ping"}`` / ``{"op": "stats"}`` / ``{"op": "shutdown"}``
    Health probe, counter snapshot, graceful shutdown.

Responses carry ``"ok": true`` plus op-specific fields, or ``"ok": false``
with an ``"error"`` message; a malformed request never kills the
connection, let alone the daemon.  Floats survive the JSON round trip
bitwise (``repr``-exact serialization on both sides), which is what lets
the serving smoke test assert *bitwise* equality against a local
:class:`~repro.pipeline.session.SolverSession` solve.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from repro.kernels.backend import SESSION_BACKENDS, VECTORIZED

__all__ = [
    "MAX_LINE_BYTES",
    "ProtocolError",
    "SolveRequest",
    "decode_line",
    "encode_line",
    "error_response",
    "parse_solve_request",
]

#: Upper bound on one framed line (a solve response carries an n-vector of
#: floats; the largest registered scenarios stay far below this).
MAX_LINE_BYTES = 16 * 1024 * 1024

#: Operations a daemon accepts.
OPS = ("solve", "ping", "stats", "shutdown")


class ProtocolError(ValueError):
    """A request that cannot be honored (bad frame, bad field, bad value)."""


def encode_line(obj: dict) -> bytes:
    """One JSON object → one newline-terminated wire frame."""
    return json.dumps(obj, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_line(line: bytes) -> dict:
    """One wire frame → the request/response dict (strictly one object)."""
    try:
        obj = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError(
            f"request must be a JSON object, got {type(obj).__name__}"
        )
    return obj


def error_response(message: str) -> dict:
    return {"ok": False, "error": str(message)}


@dataclass(frozen=True)
class SolveRequest:
    """A validated solve request, ready for the daemon's batcher.

    ``rhs`` is a plain list of floats (or ``None`` when ``load_case``
    names the column) so requests stay picklable and hashable-free; the
    daemon materializes the numpy column against the cached problem.
    """

    scenario: str
    rows: int | None
    m: int | str  # an int, or "auto" (resolved per cached system)
    parametrized: bool
    eps: float
    backend: str  # "vectorized" (also when omitted) or "stencil"
    rhs: tuple | None
    load_case: int

    @property
    def system_key(self) -> tuple:
        """The compiled-state identity: everything value-independent.

        Two requests with equal keys can share one compiled
        :class:`~repro.pipeline.session.SolverSession` *and* ride the same
        :func:`~repro.core.pcg.block_pcg` lockstep — the key is exactly
        the daemon's LRU-cache and batching granularity.
        """
        return (
            self.scenario,
            self.rows,
            self.m,
            self.parametrized,
            self.eps,
            self.backend,
        )


def parse_solve_request(payload: dict) -> SolveRequest:
    """Validate a ``solve`` payload field by field (:class:`ProtocolError`
    on the first offense — the daemon turns it into an error response)."""
    known = {
        "op", "scenario", "rows", "m", "parametrized", "eps", "backend",
        "rhs", "load_case",
    }
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ProtocolError(f"unknown request fields: {', '.join(unknown)}")

    scenario = payload.get("scenario", "plate")
    if not isinstance(scenario, str) or not scenario:
        raise ProtocolError(f"'scenario' must be a non-empty string, got {scenario!r}")

    rows = payload.get("rows")
    if rows is not None and (isinstance(rows, bool) or not isinstance(rows, int)):
        raise ProtocolError(f"'rows' must be an integer, got {rows!r}")
    if rows is not None and rows < 2:
        raise ProtocolError(f"'rows' must be at least 2, got {rows}")

    m = payload.get("m", 3)
    if m != "auto" and (isinstance(m, bool) or not isinstance(m, int)):
        raise ProtocolError(f"'m' must be a non-negative integer or 'auto', got {m!r}")
    if isinstance(m, int) and m < 0:
        raise ProtocolError(f"'m' must be non-negative, got {m}")

    parametrized = payload.get("parametrized", False)
    if not isinstance(parametrized, bool):
        raise ProtocolError(f"'parametrized' must be a boolean, got {parametrized!r}")

    eps = payload.get("eps", 1e-6)
    if isinstance(eps, bool) or not isinstance(eps, (int, float)):
        raise ProtocolError(f"'eps' must be a number, got {eps!r}")
    if not (eps > 0) or not math.isfinite(eps):
        raise ProtocolError(f"'eps' must be positive and finite, got {eps!r}")

    backend = payload.get("backend")
    if backend is not None and not isinstance(backend, str):
        raise ProtocolError(f"'backend' must be a string or null, got {backend!r}")
    # Omitted and "vectorized" are one set of numerics, so one system key.
    backend = VECTORIZED if backend is None else backend
    if backend not in SESSION_BACKENDS:
        raise ProtocolError(
            f"solver backend {backend!r} has no session solve; valid "
            "choices: " + ", ".join(repr(b) for b in SESSION_BACKENDS)
        )

    rhs = payload.get("rhs")
    if rhs is not None:
        if not isinstance(rhs, (list, tuple)) or not rhs:
            raise ProtocolError("'rhs' must be a non-empty array of numbers")
        for v in rhs:
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ProtocolError(f"'rhs' entries must be numbers, got {v!r}")
            if not math.isfinite(v):
                raise ProtocolError(f"'rhs' entries must be finite, got {v!r}")
        rhs = tuple(float(v) for v in rhs)

    load_case = payload.get("load_case", 0)
    if isinstance(load_case, bool) or not isinstance(load_case, int):
        raise ProtocolError(f"'load_case' must be an integer, got {load_case!r}")
    if load_case < 0:
        raise ProtocolError(f"'load_case' must be non-negative, got {load_case}")

    return SolveRequest(
        scenario=scenario,
        rows=rows,
        m=m,
        parametrized=parametrized,
        eps=float(eps),
        backend=backend,
        rhs=rhs,
        load_case=load_case,
    )
