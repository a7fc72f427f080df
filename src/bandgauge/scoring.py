"""Banding map assembly and image-level score pooling.

The banding map multiplies, per patch, the predicted label (0/1), the
spatial-frequency mask weight, and the gradient magnitude of the
high-frequency map; pixels of non-banded patches and grid remainders stay
zero.  The image score averages, over all patches, the mean of each patch's
top-p% non-zero map values; perceived quality is dominated by the worst
regions, so "top" means largest.

A tile's record is one entry in each of three per-tile sequences: its
probability (banded when above 0.5; the baseline rule's is 0.0 or 1.0), its
mask weight, and, for a banded tile only, its gradient map.  Scoring needs
the map only tile by tile, so ``pool_score`` weights each banded tile's map
as it pools it.  The full-frame map is built on the first read of
``BandingMap.values`` (``detect`` reads it) and cached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .imgcore import PatchGrid, PlanarImage
from .sfmask import MaskWeights


class BandingMap:
    """Per-pixel banding visibility, held per tile of a grid.

    prob[k] is tile k's banding probability and weight[k] its mask weight;
    hvs[k] is a banded tile's (N, N) gradient map and None for any other.
    Tile k's map values are weight[k] * |hvs[k]| if it is banded, zeros
    otherwise.  ``values`` assembles the full frame on its first read.
    """

    def __init__(self, grid: PatchGrid, prob: np.ndarray, weight: np.ndarray, hvs: tuple):
        self.grid, self.prob, self.weight, self.hvs = grid, prob, weight, hvs
        self._values = None

    @property
    def banded(self) -> np.ndarray:
        return self.prob > 0.5

    @property
    def values(self) -> np.ndarray:
        """The full-frame map, read-only, built once."""
        if self._values is None:
            values = np.zeros((self.height, self.width))
            n = self.grid.patch_size
            for k in np.flatnonzero(self.banded):
                x, y = self.grid.patches[k]
                values[y : y + n, x : x + n] = self._patch(k)
            values.flags.writeable = False
            self._values = values
        return self._values

    def _patch(self, k) -> np.ndarray:
        """Banded tile k's N x N map values."""
        return self.weight[k] * np.abs(self.hvs[k])

    @property
    def total_patches(self) -> int:
        return len(self.grid)

    @property
    def width(self) -> int:
        return self.grid.image_width

    @property
    def height(self) -> int:
        return self.grid.image_height


@dataclass(frozen=True)
class QualityScore:
    """Pooled severity: 0 means no patch was predicted banded."""

    q: float
    p_percent: float
    per_patch_scores: tuple

    def __post_init__(self):
        if self.q < 0.0:
            raise ValueError("score must be non-negative")


def banding_map(grid: PatchGrid, prob, weights: MaskWeights, hvs) -> BandingMap:
    """The per-pixel visibility field from per-tile arrays.

    prob[k] must lie in [0, 1].  hvs[k] is read only for a banded tile k
    (prob[k] > 0.5), and must then be an (N, N) array; the entry of any other
    tile may be None.
    """
    k = len(grid)
    prob = np.array(prob, dtype=np.float64)
    if len(prob) != k or len(weights.w) != k or len(hvs) != k:
        raise ValueError("per-patch collections must align with the grid")
    if not np.all((prob >= 0.0) & (prob <= 1.0)):
        raise ValueError("probabilities must be finite and within [0, 1]")
    prob.flags.writeable = False
    kept = [None] * k
    n = grid.patch_size
    for i in np.flatnonzero(prob > 0.5):
        kept[i] = hvs[i]
        if kept[i].shape != (n, n):
            raise ValueError(f"hfm {i} shape {kept[i].shape} != patch size {n}")
    return BandingMap(grid, prob, weights.w, tuple(kept))


def _top_fraction_mean(nonzero: np.ndarray, p_percent: float) -> float:
    """Mean of the largest p% values; boundary ties are all included."""
    if nonzero.size == 0:
        return 0.0
    desc = np.sort(nonzero)[::-1]
    m = math.ceil(p_percent / 100.0 * desc.size)
    cutoff = desc[m - 1]
    selected = desc[desc >= cutoff]
    return float(np.mean(selected))


def pool_score(bm: BandingMap, p_percent: float = 80.0) -> QualityScore:
    """Worst-p% pooled severity.

    Each patch contributes the mean of its own top-p% non-zero values (0 for
    a patch with none); the score averages those over all patches.
    """
    if not 0.0 < p_percent <= 100.0:
        raise ValueError("p_percent must lie in (0, 100]")
    scores = [0.0] * bm.total_patches
    for k in np.flatnonzero(bm.banded):
        block = bm._patch(k)
        scores[k] = _top_fraction_mean(block[block > 0.0], p_percent)
    q = float(sum(scores) / len(scores)) if scores else 0.0
    return QualityScore(q, p_percent, tuple(scores))


def map_to_image(bm: BandingMap) -> PlanarImage:
    """Min-max normalized 8-bit rendering for visual inspection; a constant
    map renders as zeros."""
    values = bm.values
    vmin, vmax = float(values.min()), float(values.max())
    if vmax > vmin:
        out = np.rint((values - vmin) / (vmax - vmin) * 255.0).astype(np.uint8)
    else:
        out = np.zeros(values.shape, dtype=np.uint8)
    return PlanarImage.from_array(out)
