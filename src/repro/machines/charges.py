"""Recorded charge streams: one source for the simulators' clocks and the model.

A machine's charges depend on its layout, m, the block width and how a
solve's last iteration ends, never on the values it computes.  So each
machine records its charge program once per segment of Algorithm 1
(:class:`Recording`) and charges a solve by replaying the segments in
stream order (:meth:`ChargeStream.replay`): each kind's charges are added
in their recorded order, so the ledger is bitwise a live run's.  The
model's A and B (:class:`ChargedMachine`) are read off the same recordings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

    def charge(self, kind: str, seconds: float) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + 1
        self.seconds[kind] = self.seconds.get(kind, 0.0) + seconds

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
    breakdown: Recording | None = None
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
        iteration count; without a ``breakdown`` segment it ends the solve
        as a full iteration, as the ``maxiter`` cap does.
        """
        iterations = solve.iterations
        if self.breakdown is not None and len(solve.delta_history) < iterations:
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
    """

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
