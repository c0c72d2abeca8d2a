"""The execution-time model of Section 4.

The paper models the m-step method's time as

```
T_m = (A + m·B) · N_m                                    (4.1)
```

with ``A`` the cost of one outer conjugate-gradient iteration, ``B`` the
cost of one preconditioner step, and ``N_m`` the iteration count.  Assuming
``N_{m+1} < N_m``, taking m+1 steps beats m steps whenever either

```
(1)  (m+1)·N_{m+1} − m·N_m < 0          (fewer total inner loops), or
(2)  B/A < (N_m − N_{m+1}) / ((m+1)·N_{m+1} − m·N_m)      (4.2)
```

— inequality (2) applying when its denominator is positive.  The paper
evaluates (2) at m = 9 for the a = 41, 62, 80 meshes to explain why ten
steps pay off only on the largest problem.

:class:`PerformanceModel` packages measured (A, B); :func:`inequality_42`
evaluates the decision at one m; :func:`optimal_m` scans a measured
``N_m`` profile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util import require

__all__ = [
    "PerformanceModel",
    "Inequality42",
    "inequality_42",
    "optimal_m",
    "effective_optimal_m",
    "fit_iteration_model",
]


@dataclass(frozen=True)
class PerformanceModel:
    """Measured per-iteration costs: ``T_m = (A + m·B)·N_m``.

    The block-width extension (PR 3): on the simulated machines one
    preconditioner step over an ``(n, width)`` block of right-hand sides
    costs less than ``width`` separate steps — the fixed per-step work
    (pipeline startups on the CYBER, per-color-phase setup and per-record
    link latency on the Finite Element Machine) is paid once per
    color-block operation.  ``b_marginal`` is the cost of each
    *additional* right-hand side inside a step, so

        ``step_cost(width) = b + (width − 1)·b_marginal``

    with ``b_marginal = b`` (no amortization) when not given.  All
    width-1 behavior — ``predicted_time(m, n_m)``, ``b_over_a`` — is
    unchanged.
    """

    a: float  # one outer CG iteration
    b: float  # one preconditioner step (width 1)
    b_marginal: float | None = None  # per-extra-RHS step cost inside a block

    def __post_init__(self) -> None:
        require(self.a > 0, "A must be positive")
        require(self.b >= 0, "B must be non-negative")
        require(
            self.b_marginal is None or 0 <= self.b_marginal <= self.b,
            "the marginal step cost must lie in [0, B]",
        )

    @classmethod
    def from_machine(cls, machine) -> "PerformanceModel":
        """Calibrate (A, B, B_marginal) on a simulated machine.

        ``machine`` is a :class:`~repro.machines.FiniteElementMachine` or
        a :class:`~repro.machines.CyberMachine`, whose ``iteration_costs()``
        reads A and B off the charges its solves replay.  The marginal cost
        is the width-derivative of the batched application (one extra
        right-hand side with the fixed per-operation costs already paid),
        clipped into the model's ``[0, B]`` domain.
        """
        a, b = machine.iteration_costs()
        marginal = machine.preconditioner_block_seconds(
            1, 2
        ) - machine.preconditioner_block_seconds(1, 1)
        return cls(a=a, b=b, b_marginal=min(max(marginal, 0.0), b))

    @property
    def b_over_a(self) -> float:
        return self.b / self.a

    @property
    def amortizes(self) -> bool:
        """Whether the model carries block-width (batched-RHS) information."""
        return self.b_marginal is not None and self.b_marginal < self.b

    @staticmethod
    def shard_width(width: int, shards: int = 1) -> int:
        """Columns carried by the widest shard when a ``width``-wide block
        is split over ``shards`` parallel workers (contiguous groups)."""
        require(width >= 1, "width must be at least 1")
        require(shards >= 1, "shards must be at least 1")
        return -(-width // min(shards, width))  # ceil

    def step_cost(self, width: int = 1, shards: int = 1) -> float:
        """One preconditioner step on an ``(n, width)`` block.

        ``shards > 1`` prices the step when the block's column groups run
        on that many parallel workers (:mod:`repro.parallel`): wall-clock
        is the *widest shard's* step — ``b + (⌈width/shards⌉ − 1)·
        b_marginal`` — since the groups advance concurrently.
        """
        require(width >= 1, "width must be at least 1")
        width = self.shard_width(width, shards)
        if width == 1:
            return self.b
        marginal = self.b_marginal if self.b_marginal is not None else self.b
        return self.b + (width - 1) * marginal

    def b_over_a_at(self, width: int = 1, shards: int = 1) -> float:
        """Effective per-right-hand-side ``B/A`` for a width-wide block.

        The outer iteration's A is charged per right-hand side while the
        preconditioner step amortizes, so batching moves the (4.2)
        decision toward more steps.  ``shards > 1`` prices the sharded
        execution: each worker's block is narrower, so the per-RHS
        amortization (and the pull toward larger m) weakens while the
        wall-clock drops.
        """
        width_per_shard = self.shard_width(width, shards)
        return (self.step_cost(width, shards) / width_per_shard) / self.a

    def predicted_time(
        self, m: int, n_m: float, width: int = 1, shards: int = 1
    ) -> float:
        """(4.1) for a given iteration count.

        ``width > 1`` prices a batch of ``width`` right-hand sides
        advancing in lockstep: ``(A·width + m·step_cost(width))·N_m``.
        ``width = 1`` is exactly the paper's model.  ``shards > 1``
        prices the block sharded over that many parallel workers — the
        wall-clock of the widest shard,
        ``(A·⌈width/shards⌉ + m·step_cost(width, shards))·N_m``.
        """
        require(m >= 0, "m must be non-negative")
        if width == 1:
            return (self.a + m * self.b) * n_m
        width_per_shard = self.shard_width(width, shards)
        return (
            self.a * width_per_shard + m * self.step_cost(width, shards)
        ) * n_m

    def preconditioner_block_time(self, m: int, width: int = 1) -> float:
        """Modeled seconds of one batched m-step application.

        Mirrors :meth:`repro.machines.FiniteElementMachine
        .preconditioner_block_seconds` — the test-suite pins the two to
        each other across widths when the model is machine-calibrated.
        """
        require(m >= 1, "m must be at least 1")
        return m * self.step_cost(width)


@dataclass(frozen=True)
class Inequality42:
    """The (4.2) decision at one m: should we take m+1 steps instead?"""

    m: int
    n_m: int
    n_m_plus_1: int
    b_over_a: float
    condition_1: bool
    threshold: float  # right side of inequality (2); inf when (1) already holds
    beneficial: bool
    width: int = 1  # right-hand-side block width the decision was priced at

    def sides(self) -> tuple[float, float]:
        """(left, right) of inequality (2) — the pairs the paper prints."""
        return self.b_over_a, self.threshold


def inequality_42(
    m: int, n_m: int, n_m_plus_1: int, model: PerformanceModel, width: int = 1
) -> Inequality42:
    """Evaluate (4.2): is m+1 steps better than m steps?

    ``width > 1`` evaluates the decision for a batch of ``width``
    right-hand sides advancing together: the effective per-RHS step cost
    is ``step_cost(width)/width`` (the fixed per-step setup amortizes
    across the block — :meth:`PerformanceModel.b_over_a_at`), so batching
    lowers ``B/A`` and pushes the break-even toward larger m.
    """
    require(m >= 0, "m must be non-negative")
    require(n_m > 0 and n_m_plus_1 > 0, "iteration counts must be positive")
    b_over_a = model.b_over_a_at(width)
    inner_loops_delta = (m + 1) * n_m_plus_1 - m * n_m
    condition_1 = inner_loops_delta < 0
    if condition_1:
        threshold = float("inf")
        beneficial = True
    elif inner_loops_delta == 0:
        # Equal inner loops: m+1 trades one outer iteration structure for
        # another; beneficial iff it saves outer iterations at all.
        threshold = float("inf") if n_m_plus_1 < n_m else 0.0
        beneficial = n_m_plus_1 < n_m
    else:
        threshold = (n_m - n_m_plus_1) / inner_loops_delta
        beneficial = b_over_a < threshold
    return Inequality42(
        m=m,
        n_m=n_m,
        n_m_plus_1=n_m_plus_1,
        b_over_a=b_over_a,
        condition_1=condition_1,
        threshold=threshold,
        beneficial=beneficial,
        width=width,
    )


def optimal_m(iteration_counts: dict[int, int], model: PerformanceModel) -> int:
    """The m minimizing (4.1) over a measured ``m → N_m`` profile."""
    require(len(iteration_counts) > 0, "need at least one measurement")
    times = {
        m: model.predicted_time(m, n_m) for m, n_m in iteration_counts.items()
    }
    return min(times, key=times.__getitem__)


def effective_optimal_m(times: dict[int, float], rel_tol: float = 0.02) -> int:
    """Smallest m whose time is within ``rel_tol`` of the minimum.

    The T_m curves of Table 2 are nearly flat around their minimum (the
    paper's own a = 20 column has 0.347/0.348/0.350 s at 5P/6P/4P), so the
    argmin is noise-sensitive; this plateau-tolerant version is the robust
    statistic for "how many steps are worth taking".
    """
    require(len(times) > 0, "need at least one measurement")
    require(rel_tol >= 0, "tolerance must be non-negative")
    t_min = min(times.values())
    return min(m for m, t in times.items() if t <= (1.0 + rel_tol) * t_min)


def fit_iteration_model(
    iteration_counts: dict[int, int]
) -> tuple[float, float]:
    """Fit ``N_m ≈ c / sqrt(1 − (1−μ̄)^m)``-style decay as ``N_m ≈ c·m^(−p)``.

    The paper wishes ``N_m`` "could be expressed as a function of m"; a
    power law is the pragmatic stand-in that lets :func:`optimal_m` be
    extrapolated beyond measured m.  Returns ``(c, p)`` for
    ``N_m ≈ c·m^{−p}`` fitted on m ≥ 1 by log-log least squares.
    """
    ms = np.array([m for m in sorted(iteration_counts) if m >= 1], dtype=float)
    require(ms.size >= 2, "need at least two m ≥ 1 measurements")
    ns = np.array([iteration_counts[int(m)] for m in ms], dtype=float)
    coeffs = np.polyfit(np.log(ms), np.log(ns), 1)
    p = -float(coeffs[0])
    c = float(np.exp(coeffs[1]))
    return c, p
