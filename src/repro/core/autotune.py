"""Choosing m without running the sweep — the paper's model, operationalized.

Section 4 closes with: "The behavior of the m-step PCG Algorithm can be
modelled as a function of the number of processors, the problem size, and
the relative speed of arithmetic to communication times for the machine."
This module does exactly that: given the machine's per-iteration costs
``(A, B)`` of (4.1) and the measured spectrum interval of ``P⁻¹K``, it
predicts

```
T̂(m) ∝ (A + m·B) · √κ(M_m⁻¹K)
```

using the CG iteration bound ``N ∝ √κ`` with κ computed *exactly* from the
fitted polynomial on the interval, and recommends the minimizing m — no
trial solves needed.  The Table-2/Table-3 sweeps validate the prediction
against measured optima.

The block-RHS extension (PR 4): with ``width > 1`` the decision is priced
for a batch of ``width`` right-hand sides advancing in lockstep
(:func:`repro.core.pcg.block_pcg`).  The outer iteration's A is charged
per right-hand side while the preconditioner step amortizes
(:meth:`~repro.analysis.models.PerformanceModel.step_cost`), so wider
blocks move the inequality-(4.2) break-even toward *more* steps — the
machine-calibrated path
(:meth:`~repro.analysis.models.PerformanceModel.from_machine`) feeds
``repro solve/table2 --m auto --rhs K``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.models import PerformanceModel, effective_optimal_m
from repro.core.polynomial import (
    fit_report,
    least_squares_coefficients,
    minmax_coefficients,
    neumann_coefficients,
)
from repro.util import require

__all__ = ["MRecommendation", "recommend_m", "predicted_cost_curve"]


@dataclass(frozen=True)
class MRecommendation:
    """Outcome of the model-based m selection."""

    m: int
    parametrized: bool
    criterion: str
    scores: dict[int, float]  # m → (A + mB)·√κ̂_m, m = 0 uses κ(interval-free) proxy
    kappas: dict[int, float]
    width: int = 1  # right-hand-side block width the decision was priced at

    @property
    def score(self) -> float:
        return self.scores[self.m]


def _coefficients(m: int, parametrized: bool, criterion: str, interval):
    if not parametrized:
        return neumann_coefficients(m)
    if criterion == "least_squares":
        return least_squares_coefficients(m, interval)
    if criterion == "minmax":
        return minmax_coefficients(m, interval)
    raise ValueError(f"unknown criterion {criterion!r}")


def predicted_cost_curve(
    interval: tuple[float, float],
    model: PerformanceModel,
    m_max: int = 10,
    parametrized: bool = True,
    criterion: str = "least_squares",
    width: int = 1,
    shards: int = 1,
) -> tuple[dict[int, float], dict[int, float]]:
    """``m → (A·w + m·step_cost(w))·√κ̂_m`` and ``m → κ̂_m`` for m = 1…m_max.

    κ̂_m is the interval bound of the fitted polynomial — exact when the
    spectrum fills the interval, conservative otherwise.  ``width`` prices
    the curve for a block of that many simultaneous right-hand sides
    (``width = 1`` is exactly the paper's (4.1)); on an amortizing model
    the preconditioner's share of each iteration shrinks as the block
    widens, flattening the curve's left edge and pushing the minimizer up.
    ``shards`` prices the block sharded over that many parallel workers
    (:func:`repro.parallel.sharded_block_pcg`): wall-clock follows the
    widest shard, so heavy sharding walks the curve back toward the
    paper's width-1 shape.
    """
    require(m_max >= 1, "m_max must be at least 1")
    require(width >= 1, "width must be at least 1")
    require(shards >= 1, "shards must be at least 1")
    scores: dict[int, float] = {}
    kappas: dict[int, float] = {}
    for m in range(1, m_max + 1):
        coeffs = _coefficients(m, parametrized, criterion, interval)
        report = fit_report(coeffs, interval)
        kappa = report.condition_bound
        kappas[m] = kappa
        scores[m] = model.predicted_time(
            m, float(np.sqrt(kappa)), width=width, shards=shards
        )
    return scores, kappas


def recommend_m(
    interval: tuple[float, float],
    model: PerformanceModel,
    m_max: int = 10,
    parametrized: bool = True,
    criterion: str = "least_squares",
    kappa_k: float | None = None,
    width: int = 1,
    shards: int = 1,
    rel_tol: float = 0.0,
) -> MRecommendation:
    """The m minimizing the predicted cost curve.

    ``rel_tol > 0`` picks the *smallest* m whose predicted cost lies
    within that relative tolerance of the minimum
    (:func:`~repro.analysis.models.effective_optimal_m`) instead of the
    raw argmin — the robust statistic for these curves, whose right edge
    is nearly flat exactly as the paper's measured Table-2 plateaus are
    (the CLI's ``--m auto`` uses 5%).

    Pass ``kappa_k = κ(K)`` (the *raw* operator's condition number — what
    plain CG sees) to include the m = 0 baseline in the comparison; without
    it only m ≥ 1 values compete.  Note κ(P⁻¹K)'s interval ratio is *not*
    a valid CG baseline: even one SSOR application already shrinks the
    condition number far below κ(K).

    ``width`` tunes m for a ``width``-wide right-hand-side block solved by
    :func:`repro.core.pcg.block_pcg`: pair a machine-calibrated model
    (:meth:`~repro.analysis.models.PerformanceModel.from_machine`)
    with the block width actually planned
    (:attr:`~repro.pipeline.SolverPlan.block_rhs`) and the recommendation
    accounts for the amortized per-step cost — the ``--m auto --rhs K``
    path of the CLI.  ``shards`` additionally prices the block's sharded
    execution across that many worker processes (``--workers W``).
    """
    scores, kappas = predicted_cost_curve(
        interval, model, m_max, parametrized, criterion, width=width,
        shards=shards,
    )
    if kappa_k is not None:
        require(kappa_k >= 1.0, "κ(K) must be at least 1")
        kappas[0] = float(kappa_k)
        scores[0] = model.predicted_time(
            0, float(np.sqrt(kappa_k)), width=width, shards=shards
        )
    if rel_tol > 0:
        best = effective_optimal_m(scores, rel_tol=rel_tol)
    else:
        best = min(scores, key=scores.__getitem__)
    return MRecommendation(
        m=best,
        parametrized=parametrized,
        criterion=criterion,
        scores=scores,
        kappas=kappas,
        width=width,
    )
