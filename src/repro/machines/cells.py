"""Schedule cells shared by the machine simulators.

A machine schedule runs as one :func:`repro.core.pcg.block_pcg` whose
column ``j`` is cell ``j``: :func:`normalize_cell` reads each cell, and
:class:`SchedulePreconditioner` gives every column its own α schedule.
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

    ``keys[j]`` is ``None`` for a plain-CG column (``r̃ = r``).  The active
    columns that share a key go through one ``sweep(columns, r)`` call,
    ``r`` being the lone column's ``(n,)`` residual or the group's
    ``(n, len(columns))`` block; the machine's ``sweep`` looks up each
    column's α schedule from its index.  There is no ``counter``:
    ``block_pcg`` would split it evenly over columns of unequal step
    counts, and the machines charge their own clocks.
    """

    block_capable = True
    takes_columns = True

    def __init__(self, keys, sweep):
        self.keys = list(keys)
        self.sweep = sweep

    def apply(self, r: np.ndarray, columns) -> np.ndarray:
        if r.ndim == 1:
            [j] = columns
            return r.copy() if self.keys[j] is None else self.sweep(columns, r)
        groups: dict = {}
        for i, j in enumerate(columns):
            groups.setdefault(self.keys[j], []).append(i)
        if len(groups) == 1 and None not in groups:
            return self.sweep(columns, r)  # one call serves the block
        out = r.copy()  # plain-CG columns keep r̃ = r
        for key, idx in groups.items():
            if key is None:
                continue
            cols = [columns[i] for i in idx]
            if len(idx) == 1:
                out[:, idx[0]] = self.sweep(cols, np.ascontiguousarray(r[:, idx[0]]))
            else:
                out[:, idx] = self.sweep(cols, np.take(r, idx, axis=1))
        return out
