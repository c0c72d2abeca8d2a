"""Client side of the serving layer: a small Python API + ``repro request``.

:class:`ServeClient` speaks the newline-delimited JSON protocol of
:mod:`repro.serving.protocol` over a blocking socket — one connection, any
number of sequential requests.  Concurrency is per-connection: a load
generator opens one client per worker thread, and the daemon's
micro-batcher coalesces whatever lands inside its window.

``repro request`` (see :mod:`repro.cli`) wraps this class for one-off
command-line calls against a running daemon.
"""

from __future__ import annotations

import socket
from dataclasses import dataclass

import numpy as np

from repro.serving.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    decode_line,
    encode_line,
)

__all__ = ["ServeClient", "SolveReply"]


@dataclass(frozen=True)
class SolveReply:
    """One solve response, with the solution as a numpy vector.

    ``u`` round-trips the daemon's floats bitwise (JSON serializes floats
    ``repr``-exactly), so comparing against a local
    :meth:`~repro.pipeline.session.SolverSession.solve_cell` is a strict
    ``np.array_equal`` — the serving smoke test's contract.
    """

    u: np.ndarray
    iterations: int
    converged: bool
    m_label: str
    batch_width: int
    cache_hit: bool
    queue_s: float
    solve_s: float
    raw: dict

    @classmethod
    def from_response(cls, response: dict) -> "SolveReply":
        return cls(
            u=np.asarray(response["u"], dtype=float),
            iterations=int(response["iterations"]),
            converged=bool(response["converged"]),
            m_label=str(response["m"]),
            batch_width=int(response["batch_width"]),
            cache_hit=bool(response["cache_hit"]),
            queue_s=float(response["queue_s"]),
            solve_s=float(response["solve_s"]),
            raw=response,
        )


class ServeClient:
    """One TCP connection to a ``repro serve`` daemon."""

    def __init__(self, host: str = "127.0.0.1", port: int = 7083,
                 timeout: float = 120.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rb")
        self.host = host
        self.port = port

    # ------------------------------------------------------------- transport
    def request(self, payload: dict) -> dict:
        """Send one request object, return the daemon's response object."""
        self._sock.sendall(encode_line(payload))
        line = self._file.readline(MAX_LINE_BYTES + 1)
        if not line:
            raise ConnectionError("daemon closed the connection")
        return decode_line(line)

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------- ops
    def ping(self) -> dict:
        return self._checked(self.request({"op": "ping"}))

    def stats(self) -> dict:
        return self._checked(self.request({"op": "stats"}))

    def shutdown(self) -> dict:
        return self._checked(self.request({"op": "shutdown"}))

    def solve(
        self,
        scenario: str = "plate",
        rows: int | None = None,
        m: int | str = 3,
        parametrized: bool = False,
        eps: float = 1e-6,
        backend: str | None = None,
        rhs=None,
        load_case: int = 0,
    ) -> SolveReply:
        """One right-hand side against the daemon's cached compiled state.

        Raises :class:`~repro.serving.protocol.ProtocolError` when the
        daemon rejects the request; returns a :class:`SolveReply`
        otherwise.  ``rhs`` (an explicit length-n vector) takes precedence
        over ``load_case`` (a deterministic named case; ``0`` is the
        scenario's own load).
        """
        payload = {
            "op": "solve",
            "scenario": scenario,
            "m": m,
            "parametrized": parametrized,
            "eps": eps,
            "load_case": load_case,
        }
        if rows is not None:
            payload["rows"] = rows
        if backend is not None:
            payload["backend"] = backend
        if rhs is not None:
            payload["rhs"] = [float(v) for v in np.asarray(rhs, dtype=float)]
        return SolveReply.from_response(self._checked(self.request(payload)))

    @staticmethod
    def _checked(response: dict) -> dict:
        if not response.get("ok"):
            raise ProtocolError(response.get("error", "daemon error"))
        return response
