"""Self-interference and static-clutter suppression by zero-Doppler removal."""
from __future__ import annotations

from typing import Optional

import numpy as np


def remove_dc(grid: np.ndarray,
              out: Optional[np.ndarray] = None) -> np.ndarray:
    """Subtract each column's mean over frames.

    Tx/Rx coupling and static clutter are constant across frames, so they
    live entirely in the zero-Doppler component; subtracting the per-column
    complex mean nulls that component while leaving movers on nonzero
    Doppler bins intact. The columns may be subcarriers or range bins:
    subtracting before the range transform equals subtracting per range bin
    after it, by linearity of the DFT. The mean is taken over the current
    window only. Movers slower than one Doppler bin lose part of their
    energy too; that loss is the cost of the cancellation at very low
    velocities. Residue within 32 eps (of the output's own precision) of
    the largest removed mean is flushed to zero; that scale is the same in
    either domain. A cell's magnitude is at least each of its parts, so
    the magnitudes are taken only when some real or imaginary part lies
    within that tolerance.

    The result goes to ``out`` when given, as in numpy's ufuncs: an array
    of the grid's shape and of the dtype a new result would have
    (complex128 for a complex128 grid), possibly the grid itself.
    """
    grid = np.asarray(grid)
    if grid.ndim != 2 or grid.shape[0] < 2:
        raise ValueError("need a 2-D grid with at least 2 frames")
    mean = np.mean(grid, axis=0, keepdims=True)
    out = np.subtract(grid, mean, out=out)
    # Cancelling a frame-invariant column leaves summation-order rounding
    # residue (no mean can be exact for every frame count); flush anything
    # that far below the largest removed mean to true zero so an all-static
    # window comes out silent instead of as numerical dust.
    tolerance = 32.0 * np.finfo(out.dtype).eps * np.max(np.abs(mean))
    # |z| >= max(|re|, |im|): with no part within the tolerance no cell
    # is, and the costlier whole-grid magnitude is skipped. A part is
    # within it exactly when it lies in [-tolerance, tolerance], NaN in
    # neither, so no magnitude array of the parts is made either.
    parts = out.ravel(order="K").view(out.real.dtype)
    if ((parts >= -tolerance) & (parts <= tolerance)).any():
        out[np.abs(out) <= tolerance] = 0.0
    return out
