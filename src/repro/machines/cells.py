"""Schedule-cell normalization shared by the machine simulators."""

from __future__ import annotations

import numpy as np

from repro.util import require

__all__ = ["normalize_cell"]


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
