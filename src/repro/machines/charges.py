"""Recorded charge streams and the one solve pass of the machine simulators.

A machine's charges depend on its layout, m, the block width and how a
solve's last iteration ends, never on the values it computes.  So each
machine records its charge program once per segment of Algorithm 1
(:class:`Recording`) and charges a solve by replaying the segments in
stream order (:meth:`ChargeStream.replay`): each kind's charges are added
in the order Algorithm 1 issues them, whichever cells share the solve.
The model's A and B (:class:`ChargedMachine`) are read off the same
recordings, and :meth:`ChargedMachine.solve_schedule` is both machines'
only solve: one :func:`~repro.core.pcg.block_pcg` over the machine's
merged sweep, then one replay per cell (:meth:`ChargedMachine.solve` is
the one-cell pass).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.pcg import block_pcg
from repro.kernels.backend import REFERENCE, resolve_backend
from repro.machines.cells import SchedulePreconditioner, normalize_cell
from repro.util import require

__all__ = ["ChargeLog", "Recording", "ChargeStream", "ChargedMachine"]


class ChargeLog:
    """Counts and charged seconds per kind: a simulated machine's ledger.

    ``seconds`` holds the ``kinds`` given, then the others in first-charge
    order; the clock (:meth:`total_seconds`) adds them in that order one at
    a time, so it does not depend on how the interpreter sums a sequence.
    """

    def __init__(self, kinds=()):
        self.counts: dict[str, int] = {}
        self.seconds: dict[str, float] = dict.fromkeys(kinds, 0.0)

    def replay(self, recording: Recording) -> None:
        """Charge a recorded segment, each kind's charges in recorded order."""
        seconds, counts = self.seconds, self.counts
        for kind, times in recording.charges.items():
            total = seconds.get(kind, 0.0)
            for t in times:
                total += t
            seconds[kind] = total
            counts[kind] = counts.get(kind, 0) + len(times)
        for kind, n in recording.tallies.items():
            counts[kind] = counts.get(kind, 0) + n

    def total_seconds(self) -> float:
        total = 0.0
        for seconds in self.seconds.values():
            total += seconds
        return total

    def breakdown(self) -> dict[str, tuple[int, float]]:
        return {
            kind: (self.counts[kind], self.seconds[kind])
            for kind in sorted(self.counts)
        }


class Recording:
    """One segment of a charge stream: per kind, in first-charge order, the
    seconds of its charges in stream order (``charges``), and counts that
    take no time, such as records and words sent (``tallies``)."""

    def __init__(self):
        self.charges: dict[str, list[float]] = {}
        self.tallies: dict[str, int] = {}

    def charge(self, kind: str, seconds: float) -> None:
        self.charges.setdefault(kind, []).append(seconds)

    def tally(self, kind: str, n: int) -> None:
        self.tallies[kind] = self.tallies.get(kind, 0) + n


@dataclass
class ChargeStream:
    """Algorithm 1's charge stream on one machine, as recorded segments.

    ``startup`` and ``iteration`` each pair the charges before and after
    the preconditioner application (recorded per m and width through
    :meth:`recorded`).  A solve's last iteration is ``converged`` when the
    ‖Δu‖∞ test stops it, ``breakdown`` when ``(p, Kp) ≤ 0`` does, else a
    full one.  ``kinds`` leads every ledger, fixing its clock's order.
    """

    startup: tuple[Recording, Recording]
    iteration: tuple[Recording, Recording]
    converged: Recording
    breakdown: Recording
    kinds: tuple[str, ...] = ()
    _recorded: dict = field(default_factory=dict, repr=False)

    def recorded(self, key, build) -> Recording:
        """The recording ``build()`` returns, made on the first call with ``key``."""
        recording = self._recorded.get(key)
        if recording is None:
            recording = self._recorded[key] = build()
        return recording

    def seconds(self, *segments: Recording) -> float:
        """The clock of ``segments`` replayed in order onto a fresh ledger."""
        log = ChargeLog(self.kinds)
        for segment in segments:
            log.replay(segment)
        return log.total_seconds()

    def replay(
        self, application: Recording, solve, timed: bool = False
    ) -> tuple[ChargeLog, float]:
        """Charge one solve (a :class:`~repro.core.pcg.PCGResult`) onto a
        fresh ledger.  Returns the ledger and, when ``timed``, the seconds
        of the applications, each the clock's difference around it.

        A breakdown shows as a ``delta_history`` one short of the
        iteration count; the ``maxiter`` cap ends the solve on a full
        iteration.
        """
        iterations = solve.iterations
        if len(solve.delta_history) < iterations:
            last = self.breakdown
        else:
            last = self.converged if solve.converged else None
        log = ChargeLog(self.kinds)
        applied = 0.0
        full = iterations if last is None else max(iterations - 1, 0)
        for before, after in [self.startup] + [self.iteration] * full:
            log.replay(before)
            if timed:
                clock = log.total_seconds()
                log.replay(application)
                applied += log.total_seconds() - clock
            else:
                log.replay(application)
            log.replay(after)
        if iterations and last is not None:
            log.replay(last)
        return log, applied


class ChargedMachine:
    """A simulator whose solves replay recorded charge segments.

    A subclass provides ``_stream`` (its :class:`ChargeStream`),
    ``_application(m, width)`` (one recorded m-step application on an
    ``(n, width)`` block) and ``_step()`` (one non-final step of it); the
    model is read off them, so it prices exactly the clock a solve charges.
    For :meth:`solve_schedule` it also provides ``_system()`` (its
    operator and load), ``_sweep_kernel()`` (its cached
    :class:`~repro.multicolor.sor.MStepSSOR`),
    ``_precondition_reference(coefficients, r)`` (Algorithm 2 written out
    by hand, on one vector) and ``_charged_result(m, parametrized,
    preconditioned, solve)`` (one cell's replayed record).
    """

    def solve(
        self,
        m: int,
        coefficients: np.ndarray | None = None,
        eps: float = 1e-6,
        maxiter: int | None = None,
        backend: str | None = None,
    ):
        """One cell: Algorithm 1 + Algorithm 2 with the machine's clock, as a
        one-cell :meth:`solve_schedule`.

        ``m = 0`` runs plain CG.  For m ≥ 1 supply the αᵢ —
        :func:`repro.driver.mstep_coefficients` builds them — or all-ones
        is assumed.  ``backend``: the default ``"vectorized"`` runs the
        merged sweep of ``_sweep_kernel()``, ``"reference"`` the machine's
        hand-written Algorithm 2.  The charged clock and ledger depend only
        on the iteration count and how the last iteration ended, so they
        are backend-invariant whenever the iterations agree.
        """
        return self.solve_schedule(
            [(m, coefficients)], eps=eps, maxiter=maxiter, backend=backend
        )[0]

    def solve_schedule(
        self,
        cells,
        eps: float = 1e-6,
        maxiter: int | None = None,
        backend: str | None = None,
    ) -> list:
        """All schedule cells through **one** :func:`~repro.core.pcg.block_pcg`.

        ``cells`` is a sequence of ``(m, coefficients)`` pairs, one per
        table column (``coefficients`` may be ``None`` for all-ones or
        plain CG).  Column ``j`` of the block solve is cell ``j`` on the
        machine's operator and load: each iteration runs one batched
        product over the active block, and a
        :class:`~repro.machines.cells.SchedulePreconditioner` sends each
        lockstep group's active preconditioned cells, whatever their m,
        through one zero-padded merged sweep of :meth:`_sweep_kernel` —
        or, on the ``"reference"`` backend, through the hand-written
        sweep one cell at a time.

        Every batched kernel is per-column bitwise its single-vector form,
        and each cell's clock is the replay of its charge stream, which
        depends only on m, the iteration count and how the last iteration
        ended.  So a cell's record does not depend on which cells share
        its pass: it is the cell's :meth:`solve`.
        """
        cells = [(m, *normalize_cell(m, coefficients)) for m, coefficients in cells]
        sweep = (
            self._precondition_reference
            if resolve_backend(backend) == REFERENCE
            else self._sweep_kernel()
        )
        operator, load = self._system()
        result = block_pcg(
            operator,
            np.broadcast_to(load[:, None], (load.size, len(cells))),
            SchedulePreconditioner([c for _, c, _ in cells], sweep),
            eps=eps,
            maxiter=maxiter,
        )
        return [
            self._charged_result(
                m, parametrized, coefficients is not None, result.column(j)
            )
            for j, (m, coefficients, parametrized) in enumerate(cells)
        ]

    def iteration_costs(self) -> tuple[float, float]:
        """(A, B) of the performance model (4.1), ``T_m = (A + m·B)·N_m``:
        one recorded outer iteration without its preconditioner application,
        and one recorded non-final preconditioner step."""
        stream = self._stream
        return stream.seconds(*stream.iteration), stream.seconds(self._step())

    def preconditioner_block_seconds(self, m: int, width: int = 1) -> float:
        """Charged seconds of one m-step application on an ``(n, width)`` block.

        Each color-block operation pays its fixed cost (a CYBER pipeline
        startup; the FEM's per-phase setup and per-record latency) once per
        block, so the per-right-hand-side cost falls as the block widens.
        """
        require(m >= 1, "m must be at least 1")
        require(width >= 1, "width must be at least 1")
        return self._stream.seconds(self._application(m, width))
