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

import numpy as np

from repro.kernels import ops as kernel_ops
from repro.machines.charges import ChargeLog
from repro.machines.timing import VectorTimingModel
from repro.util import inner

__all__ = ["VectorMachine"]


class VectorMachine:
    """Executes vector primitives and accounts their cost on :attr:`log`."""

    def __init__(self, timing: VectorTimingModel):
        self.timing = timing
        self.log = ChargeLog()

    # ------------------------------------------------------------- elementwise
    def _charge_vec(self, kind: str, n: int, n_ops: int = 1) -> None:
        self.log.charge(kind, self.timing.vector_op_time(n, n_ops))

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
