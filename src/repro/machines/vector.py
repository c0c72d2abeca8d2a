"""The vector-machine execution layer.

:class:`VectorMachine` executes real NumPy arithmetic while charging every
primitive to a :class:`~repro.machines.timing.VectorTimingModel` and
tallying operation counts.  The CYBER solver
(:mod:`repro.machines.cyber`) is written *only* in terms of these
primitives, so its simulated seconds follow mechanically from the published
machine characteristics — and its numerics can be pinned to the reference
solver in tests.

The control-vector feature costs nothing here: the CYBER bakes the mask
into its operator (constrained slots' couplings are zeroed, so their
entries stay zero), while every operation is still charged at full padded
vector length — exactly the trade the paper makes to maximize vector
length ("the actual updating … is prohibited by the control vector feature
… for large a and b little inefficiency is incurred").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.kernels import ops as kernel_ops
from repro.machines.timing import VectorTimingModel
from repro.util import inner

__all__ = ["VectorMachine", "VectorOpLog"]


@dataclass
class VectorOpLog:
    """Counts and charged seconds per primitive kind."""

    counts: dict[str, int] = field(default_factory=dict)
    seconds: dict[str, float] = field(default_factory=dict)

    def charge(self, kind: str, seconds: float) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + 1
        self.seconds[kind] = self.seconds.get(kind, 0.0) + seconds

    def total_seconds(self) -> float:
        return float(sum(self.seconds.values()))

    def breakdown(self) -> dict[str, tuple[int, float]]:
        return {
            kind: (self.counts[kind], self.seconds[kind])
            for kind in sorted(self.counts)
        }


class VectorMachine:
    """Executes vector primitives and accounts their cost."""

    def __init__(self, timing: VectorTimingModel):
        self.timing = timing
        self.log = VectorOpLog()

    # ------------------------------------------------------------- elementwise
    def _charge_vec(self, kind: str, n: int, n_ops: int = 1) -> None:
        self.log.charge(kind, self.timing.vector_op_time(n, n_ops))

    def charge(self, kind: str, n: int, width: int = 1) -> None:
        """Charge one vector (or ``(n, width)``-block) op without executing it.

        The structural charge-replay entry point: backend-dispatched
        numerics (the kernel-routed preconditioner of the CYBER simulator)
        compute outside the machine's primitives, while the charge stream
        stays exactly that of the paper's algorithm.  Block ops pay a
        single pipeline startup for the whole ``n·width``-element stream —
        see :meth:`VectorTimingModel.block_op_time`.
        """
        if width == 1:
            self.log.charge(kind, self.timing.vector_op_time(n))
        else:
            self.log.charge(kind, self.timing.block_op_time(n, width))

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self._charge_vec("add", a.shape[0])
        return a + b

    def scale(self, alpha: float, a: np.ndarray) -> np.ndarray:
        self._charge_vec("scale", a.shape[0])
        return alpha * a

    def axpy(self, alpha: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """``y + α·x`` — the linked-triad the CYBER pipes in one pass.

        Executed through the fused kernel (one temporary instead of two),
        mirroring in numpy what the linked triad is in hardware.
        """
        self._charge_vec("axpy", x.shape[0])
        return kernel_ops.axpy(alpha, x, y)

    def copy(self, a: np.ndarray) -> np.ndarray:
        self._charge_vec("copy", a.shape[0])
        return a.copy()

    def fill(self, n: int, value: float = 0.0) -> np.ndarray:
        self._charge_vec("fill", n)
        return np.full(n, value)

    # ------------------------------------------------------------- reductions
    def dot(self, a: np.ndarray, b: np.ndarray) -> float:
        """Inner product — charged with the partial-sum penalty.

        The package's fixed-order dot (:func:`repro.util.inner`), so the
        machine's iterates match :func:`repro.core.pcg.block_pcg`'s.
        """
        self.log.charge("dot", self.timing.dot_time(a.shape[0]))
        return inner(a, b)

    def abs_max(self, a: np.ndarray) -> float:
        """``‖a‖_∞`` via the vector absolute-value + max hardware."""
        self.log.charge("abs_max", self.timing.dot_time(a.shape[0]))
        return float(np.max(np.abs(a))) if a.size else 0.0

    def scalar(self, n_ops: int = 1) -> None:
        """Charge scalar-unit work (α, β, convergence bookkeeping)."""
        self.log.charge("scalar", self.timing.scalar_op_time(n_ops))

    # ------------------------------------------------------------- accounting
    @property
    def elapsed_seconds(self) -> float:
        return self.log.total_seconds()
