"""Spatial-frequency statistics and the banding visibility weights.

Per patch: column frequency = RMS of horizontal first differences,
row frequency likewise vertically, both normalized by the full patch area
N^2 (the difference count is (N-1)*N, but the area normalizer is used
deliberately).  The grid threshold epsilon is the plain mean of the patch
spatial frequencies; patches more active than epsilon get a weight above 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .imgcore import BLOCK_PIXELS, PatchGrid


@dataclass(frozen=True)
class SpatialFreqStats:
    """Per-patch spatial frequencies plus the grid-level threshold."""

    sf: np.ndarray
    epsilon: float

    def __len__(self) -> int:
        return len(self.sf)


@dataclass(frozen=True)
class MaskWeights:
    """Per-patch visibility weights, all >= 1."""

    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.float64)
        if w.size and float(w.min()) < 1.0:
            raise ValueError("mask weights must be at least 1")
        w = np.ascontiguousarray(w)
        w.flags.writeable = False
        object.__setattr__(self, "w", w)


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


def sf_threshold(sf_values) -> float:
    """Grid threshold: arithmetic mean of the patch spatial frequencies."""
    sf_values = np.asarray(sf_values, dtype=np.float64)
    if sf_values.size == 0:
        raise ValueError("cannot take the threshold of an empty grid")
    return float(sf_values.mean())


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


def grid_stats(luma: np.ndarray, grid: PatchGrid) -> SpatialFreqStats:
    """Spatial-frequency statistics for every patch of a tiled luma plane."""
    size = max(1, BLOCK_PIXELS // grid.patch_size**2)
    sfs = np.concatenate([spatial_frequency(block)[2] for _, block in grid.blocks(luma, size)])
    return SpatialFreqStats(sfs, sf_threshold(sfs))


def mask_weights(stats: SpatialFreqStats, n: int, gamma: float = 1.5) -> MaskWeights:
    """Weights for every patch of a grid."""
    w = np.array([mask_weight(sf, stats.epsilon, n, gamma) for sf in stats.sf])
    return MaskWeights(w)
