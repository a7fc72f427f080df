"""Spatial-frequency statistics and the banding visibility weights.

Per patch: column frequency = RMS of horizontal first differences,
row frequency likewise vertically, both normalized by the full patch area
N^2 (the difference count is (N-1)*N, but the area normalizer is used
deliberately).  ``grid_stats`` and ``mask_weights`` return one read-only
float64 per tile.  The threshold epsilon is the plain mean of the tiles'
spatial frequencies; patches more active than epsilon get a weight above 1.
"""

from __future__ import annotations

import numpy as np

from .imgcore import BLOCK_PIXELS, PatchGrid


def spatial_frequency(patch) -> tuple:
    """(cf, rf, sf) of a square patch given as a 2-D array.

    A stack of square patches, over the last two axes, gives three arrays of
    the stack's leading shape instead of three floats.
    """
    arr = np.asarray(patch, dtype=np.float64)
    if arr.ndim < 2 or arr.shape[-2] != arr.shape[-1]:
        raise ValueError(f"patch must be square, got shape {arr.shape}")
    n = arr.shape[-1]
    if n < 2:
        raise ValueError("patch must be at least 2x2")
    col_diff = arr[..., 1:] - arr[..., :-1]
    row_diff = arr[..., 1:, :] - arr[..., :-1, :]
    col_diff *= col_diff
    row_diff *= row_diff
    cs = col_diff.sum(axis=(-2, -1)) / (n * n)
    rs = row_diff.sum(axis=(-2, -1)) / (n * n)
    # sf is taken from the unsquared sums so that cf^2 + rf^2 never rounds.
    out = np.sqrt(cs), np.sqrt(rs), np.sqrt(cs + rs)
    return tuple(float(v) for v in out) if arr.ndim == 2 else out


def mask_weight(sf: float, epsilon: float, n: int, gamma: float = 1.5) -> float:
    """Visibility weight: 1 below the threshold, supra-linear growth above."""
    if n < 1:
        raise ValueError("patch size must be at least 1")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    mag = abs(sf)
    if mag <= epsilon:
        return 1.0
    return 1.0 + (mag - epsilon) ** gamma / n


def grid_stats(luma: np.ndarray, grid: PatchGrid) -> np.ndarray:
    """The read-only float64 spatial frequency of every tile of a luma plane."""
    size = max(1, BLOCK_PIXELS // grid.patch_size**2)
    sf = np.concatenate([spatial_frequency(block)[2] for _, block in grid.blocks(luma, size)])
    sf.flags.writeable = False
    return sf


def mask_weights(sf: np.ndarray, n: int, gamma: float = 1.5) -> np.ndarray:
    """The read-only float64 weight of every tile; epsilon is the mean sf.

    One scalar ``mask_weight`` per tile: np.power rounds differently from
    ** on some inputs, and would move the weights and the score.
    """
    sf = np.asarray(sf, dtype=np.float64)
    if sf.size == 0:
        raise ValueError("cannot weight an empty grid")
    epsilon = float(sf.mean())
    w = np.array([mask_weight(v, epsilon, n, gamma) for v in sf])
    w.flags.writeable = False
    return w
