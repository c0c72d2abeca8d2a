"""Stopping rules for the PCG iteration.

Algorithm 1 stops when ``‖u^{k+1} − u^k‖_∞ < ε`` — a test chosen because on
the Finite Element Machine it is implemented by the signal-flag network
(each processor raises a flag when *its* components have settled) rather
than by a global reduction.  :class:`DeltaInfNorm` is therefore the default
everywhere in this package; residual-based rules are provided for users who
prefer the textbook criterion.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np

from repro.util import inner, require

__all__ = ["StoppingRule", "DeltaInfNorm", "RelativeResidual", "AbsoluteResidual"]


class StoppingRule(abc.ABC):
    """Decides convergence once per iteration.

    ``needs_residual`` tells the driver whether the rule must see the
    *updated* residual (residual rules) or can act right after the solution
    update, before ``r`` is touched (the paper's rule — allowing steps 4–7
    of Algorithm 1 to be skipped on the final iteration).
    """

    needs_residual: bool = False

    @abc.abstractmethod
    def converged(self, delta_norm: float, r: np.ndarray, f_norm: float) -> bool:
        """True when the iteration may stop.

        Parameters
        ----------
        delta_norm:
            ``‖u^{k+1} − u^k‖_∞`` of the update just applied.
        r:
            Current residual: updated when ``needs_residual``; otherwise
            the driver may have updated it already, so such a rule must
            not read it.
        f_norm:
            ``‖f‖₂`` cached by the driver for relative residual tests.

        Every ``‖·‖₂`` here is ``√(r, r)`` over the package's fixed-order
        dot (:func:`repro.util.inner`).
        """

    def describe(self) -> str:
        return type(self).__name__


@dataclass
class DeltaInfNorm(StoppingRule):
    """The paper's test: ``‖u^{k+1} − u^k‖_∞ < ε`` (Algorithm 1, step 3)."""

    eps: float = 1e-6
    needs_residual = False

    def __post_init__(self) -> None:
        require(self.eps > 0, "ε must be positive")

    def converged(self, delta_norm: float, r: np.ndarray, f_norm: float) -> bool:
        return delta_norm < self.eps

    def describe(self) -> str:
        return f"‖Δu‖_∞ < {self.eps:g}"


@dataclass
class RelativeResidual(StoppingRule):
    """``‖r‖₂ ≤ tol · ‖f‖₂`` on the updated residual."""

    tol: float = 1e-8
    needs_residual = True

    def __post_init__(self) -> None:
        require(self.tol > 0, "tol must be positive")

    def converged(self, delta_norm: float, r: np.ndarray, f_norm: float) -> bool:
        return math.sqrt(inner(r, r)) <= self.tol * max(f_norm, 1e-300)

    def describe(self) -> str:
        return f"‖r‖₂ ≤ {self.tol:g}·‖f‖₂"


@dataclass
class AbsoluteResidual(StoppingRule):
    """``‖r‖₂ ≤ tol`` on the updated residual."""

    tol: float = 1e-8
    needs_residual = True

    def __post_init__(self) -> None:
        require(self.tol > 0, "tol must be positive")

    def converged(self, delta_norm: float, r: np.ndarray, f_norm: float) -> bool:
        return math.sqrt(inner(r, r)) <= self.tol

    def describe(self) -> str:
        return f"‖r‖₂ ≤ {self.tol:g}"
