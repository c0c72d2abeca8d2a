"""Calibrated cost models for the two 1983 machines.

Neither the CYBER 203/205 nor the Finite Element Machine exists anymore, so
the simulators run the numerics for real and charge time through these
models.  The constants are calibrated to the *published characteristics*,
not to match absolute 1983 seconds:

**CYBER 203/205 (vector pipeline).**  A vector operation on ``n`` elements
costs ``(s + r·n)·τ`` — a startup of ``s`` element-times plus a per-element
stream rate.  The paper quotes efficiencies of ≈90 % at n = 1000, ≈50 % at
n = 100 and ≈10 % at n = 10; the single choice ``s = 100`` reproduces all
three exactly, since efficiency is ``n/(n + s)``.  Inner products add a
partial-sum phase — modeled as the machine's log₂-halving vector sums, each
with its own startup — which is why the paper calls them "considerably
slower than the other vector operations".

**Finite Element Machine (processor array).**  TI-9900-class processors
with software floating point (the paper's one-processor solve of 60
equations takes over a minute), nearest-neighbor links with a per-record
setup cost and per-word transfer cost, a signal-flag network for the
convergence test, and (designed but not yet installed in 1983) a sum/max
circuit performing global reductions in O(log₂ P).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.util import require

__all__ = ["VectorTimingModel", "ArrayTimingModel", "CYBER_203", "CYBER_205", "FEM_1983"]


@dataclass(frozen=True)
class VectorTimingModel:
    """Cost model for a pipelined vector machine.

    Parameters
    ----------
    startup_elements:
        Pipeline startup expressed in element-times (``s``); 100 fits the
        paper's efficiency quotes exactly.
    element_time:
        Seconds per streamed element (``τ``) for add/multiply-class ops.
    scalar_time:
        Seconds for one scalar operation (used for α, β and bookkeeping);
        scalar units on these machines were an order of magnitude slower
        per result than the pipes.
    dot_rate:
        Stream-rate multiplier for the multiply phase of an inner product.
    sum_startup_elements:
        Startup charged to *each* halving stage of the partial-sum phase.
    """

    startup_elements: float = 100.0
    element_time: float = 20e-9
    scalar_time: float = 1000e-9
    dot_rate: float = 1.0
    sum_startup_elements: float = 100.0

    def __post_init__(self) -> None:
        require(self.startup_elements >= 0, "startup must be non-negative")
        require(self.element_time > 0, "element time must be positive")

    def vector_op_time(self, n: int) -> float:
        """Time for one elementwise vector operation of length n."""
        if n <= 0:
            return 0.0
        return (self.startup_elements + n) * self.element_time

    def block_op_time(self, n: int, width: int) -> float:
        """One elementwise op on an ``(n, width)`` block streamed as a unit.

        The dense color-block sweeps of the kernel layer apply a whole
        block of right-hand sides per instruction, so the pipeline pays
        *one* startup for the ``n·width``-element stream — versus ``width``
        separate startups when the same work is issued vector at a time.
        ``width = 1`` is exactly :meth:`vector_op_time`.
        """
        if n <= 0 or width <= 0:
            return 0.0
        return (self.startup_elements + n * width) * self.element_time

    def efficiency(self, n: int) -> float:
        """Fraction of peak stream rate achieved at vector length n."""
        if n <= 0:
            return 0.0
        return n / (n + self.startup_elements)

    def dot_time(self, n: int) -> float:
        """Inner product: multiply stream + log₂-halving partial sums.

        The sum phase performs vector adds of lengths n/2, n/4, …, 1; each
        stage pays its own startup, so short stages are dominated by
        startup — the effect that makes the inner product the slow
        operation of Algorithm 1 on this machine.
        """
        if n <= 0:
            return 0.0
        multiply = (self.startup_elements + self.dot_rate * n) * self.element_time
        stages = max(1, math.ceil(math.log2(n))) if n > 1 else 1
        sum_elements = n  # total elements streamed across all halvings ≈ n
        sum_time = (
            stages * self.sum_startup_elements + sum_elements
        ) * self.element_time
        return multiply + sum_time

    def scalar_op_time(self, n_ops: int = 1) -> float:
        return n_ops * self.scalar_time


#: CYBER 203 at NASA Langley (the machine of Table 2): 64-bit stream rate
#: of one result per 20 ns per pipe is the right order of magnitude.
CYBER_203 = VectorTimingModel(
    startup_elements=100.0,
    element_time=20e-9,
    scalar_time=1500e-9,
    dot_rate=1.0,
    sum_startup_elements=100.0,
)

#: CYBER 205 successor: faster stream and shorter startup.
CYBER_205 = VectorTimingModel(
    startup_elements=50.0,
    element_time=10e-9,
    scalar_time=800e-9,
    dot_rate=1.0,
    sum_startup_elements=50.0,
)


@dataclass(frozen=True)
class ArrayTimingModel:
    """Cost model for the Finite Element Machine processor array.

    Parameters
    ----------
    flop_time:
        Seconds per floating-point operation (software floating point on a
        TI-9900-class CPU: ~0.5 ms/flop reproduces the minute-scale
        one-processor times of Table 3).
    record_latency:
        Per-record setup cost of a nearest-neighbor transfer (the paper
        packages all values of one color per neighbor into one record
        precisely to amortize this).
    word_time:
        Seconds per 32-bit word on a local link.
    flag_sync_time:
        One signal-flag-network convergence check (raise flags, synchronize,
        test all-raised).
    circuit_stage_time:
        One stage of the sum/max circuit; a global sum costs
        ``ceil(log₂ P)`` stages.
    ring_hop_time:
        One hop of the software reduction used before the circuit existed
        (P − 1 hops for a full ring reduction).
    color_phase_overhead:
        Fixed per-color-phase setup cost inside a preconditioner step (loop
        and data-structure overhead of the 14-coefficient stencil storage);
        one merged SSOR step runs ``2·n_colors − 1`` phases.  Calibrated so
        the one-processor step-to-iteration cost ratio ``B/A`` matches the
        ≈1 implied by Table 3's single-processor column.
    """

    flop_time: float = 700e-6
    record_latency: float = 3.5e-3
    word_time: float = 300e-6
    flag_sync_time: float = 2e-3
    circuit_stage_time: float = 50e-6
    ring_hop_time: float = 7e-3
    color_phase_overhead: float = 8e-3

    def __post_init__(self) -> None:
        require(self.flop_time > 0, "flop time must be positive")

    def compute_time(self, flops: int | float) -> float:
        return float(flops) * self.flop_time

    def record_time(self, n_words: int) -> float:
        """One packaged record of ``n_words`` values over a local link."""
        if n_words <= 0:
            return 0.0
        return self.record_latency + n_words * self.word_time

    def reduction_time(self, p: int, mode: str = "software") -> float:
        """Global sum across ``p`` processors.

        ``"software"`` — store-and-forward ring (what the 1983 machine had);
        ``"circuit"`` — the sum/max hardware circuit, O(log₂ P) (Jordan 1979).
        """
        if p <= 1:
            return 0.0
        if mode == "software":
            return (p - 1) * self.ring_hop_time
        if mode == "circuit":
            return math.ceil(math.log2(p)) * self.circuit_stage_time
        raise ValueError(f"unknown reduction mode {mode!r}")


#: The 1983 Finite Element Machine (Table 3 calibration).
FEM_1983 = ArrayTimingModel()
