"""Schedule cells shared by the machine simulators.

A machine schedule runs as one :func:`repro.core.pcg.block_pcg` whose
column ``j`` is cell ``j``
(:meth:`repro.machines.charges.ChargedMachine.solve_schedule`):
:func:`normalize_cell` reads each cell, and :class:`SchedulePreconditioner`
gives every column its own α schedule.
"""

from __future__ import annotations

import numpy as np

from repro.util import require

__all__ = ["normalize_cell", "SchedulePreconditioner"]


def normalize_cell(m: int, coefficients) -> tuple[np.ndarray | None, bool]:
    """One ``(m, coefficients)`` schedule cell as ``(coefficients, parametrized)``.

    ``m = 0`` is plain CG: no coefficients, not parametrized.  For
    ``m ≥ 1``, ``None`` stands for the all-ones (unparametrized) αᵢ;
    otherwise exactly one coefficient per step is required, and the cell
    counts as parametrized unless every αᵢ is 1.
    """
    require(m >= 0, "m must be non-negative")
    if m == 0:
        return None, False
    coefficients = (
        np.ones(m) if coefficients is None else np.asarray(coefficients, float)
    )
    require(coefficients.size == m, "need one coefficient per step")
    return coefficients, not np.allclose(coefficients, 1.0)


class SchedulePreconditioner:
    """``M⁻¹`` of a schedule's :func:`~repro.core.pcg.block_pcg`, column by cell.

    ``schedules[j]`` is cell ``j``'s α schedule, ``None`` for plain CG
    (``r̃ = r``).  ``sweep`` is the machine's
    :class:`~repro.multicolor.sor.MStepSSOR`: a lockstep group's active
    preconditioned columns go through **one**
    :meth:`~repro.multicolor.sor.MStepSSOR.apply_schedule` call, with the
    ``(max m, k)`` α block cut to their longest schedule; a lone column
    passes its own schedule.  Each shorter schedule is zero-padded at the
    top, so its column solves only zeros until its own first step, and
    the sums it stashes for that step are +0: the column is bitwise its
    solo sweep.  On the ``"reference"`` backend ``sweep`` is the machine's
    hand-written ``sweep(coefficients, r)`` of one vector, so the
    preconditioner is not block-capable and ``block_pcg`` hands it each
    column alone.

    There is no ``counter``: ``block_pcg`` would split it evenly over
    columns of unequal step counts, and the machines charge their own
    clocks.
    """

    takes_columns = True

    def __init__(self, schedules, sweep):
        self.schedules = list(schedules)
        self.steps = [0 if s is None else s.size for s in self.schedules]
        self.alphas = np.zeros((max(self.steps, default=0), len(self.steps)))
        for j, s in enumerate(self.schedules):
            if s is not None:
                self.alphas[: s.size, j] = s
        self.block_capable = hasattr(sweep, "apply_schedule")
        self.sweep = sweep.apply_schedule if self.block_capable else sweep

    def apply(self, r: np.ndarray, columns) -> np.ndarray:
        if r.ndim == 1:
            [j] = columns
            return r.copy() if self.steps[j] == 0 else self.sweep(self.schedules[j], r)
        swept = [i for i, j in enumerate(columns) if self.steps[j]]
        if len(swept) == len(columns):
            return self._padded(columns, r)  # one call serves the block
        out = r.copy()  # plain-CG columns keep r̃ = r
        if len(swept) == 1:
            [i] = swept
            out[:, i] = self.sweep(
                self.schedules[columns[i]], np.ascontiguousarray(r[:, i])
            )
        elif swept:
            out[:, swept] = self._padded(
                [columns[i] for i in swept], np.take(r, swept, axis=1)
            )
        return out

    def _padded(self, columns, r: np.ndarray) -> np.ndarray:
        """One sweep of ``columns`` with the α block cut to their longest
        schedule, so no step that none of them reaches is run."""
        steps = max(self.steps[j] for j in columns)
        return self.sweep(self.alphas[:steps, columns], r)
