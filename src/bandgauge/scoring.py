"""Banding map assembly and image-level score pooling.

The banding map multiplies, per patch, the predicted label (0/1), the
spatial-frequency mask weight, and the gradient magnitude of the
high-frequency map; pixels of non-banded patches and grid remainders stay
zero.  The image score averages, over all patches, the mean of each patch's
top-p% non-zero map values; perceived quality is dominated by the worst
regions, so "top" means largest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .imgcore import PatchGrid, PatchLabel, PlanarImage
from .sfmask import MaskWeights


@dataclass(frozen=True)
class PatchMeta:
    index: int
    origin: tuple
    label: PatchLabel
    weight: float


@dataclass(frozen=True)
class BandingMap:
    """Per-pixel banding visibility plus per-patch bookkeeping."""

    values: np.ndarray
    patch_meta: tuple
    patch_size: int

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if v.size and float(v.min()) < 0.0:
            raise ValueError("banding map values must be non-negative")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def total_patches(self) -> int:
        return len(self.patch_meta)

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def height(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class QualityScore:
    """Pooled severity: 0 means no patch was predicted banded."""

    q: float
    p_percent: float
    per_patch_scores: tuple

    def __post_init__(self):
        if self.q < 0.0:
            raise ValueError("score must be non-negative")


def banding_map(
    grid: PatchGrid, labels, weights: MaskWeights, hfms
) -> BandingMap:
    """Assemble the per-pixel visibility field from per-patch pieces.

    hfms[i] is read only for a banded patch i; the entry of a non-banded
    patch may be None.
    """
    k = len(grid)
    if len(labels) != k or len(weights.w) != k or len(hfms) != k:
        raise ValueError("per-patch collections must align with the grid")
    values = np.zeros((grid.image_height, grid.image_width))
    meta = []
    n = grid.patch_size
    for i, (x, y) in enumerate(grid.patches):
        w_i = float(weights.w[i])
        if labels[i].is_banded:
            hv = hfms[i].values
            if hv.shape != (n, n):
                raise ValueError(f"hfm {i} shape {hv.shape} != patch size {n}")
            values[y : y + n, x : x + n] = w_i * np.abs(hv)
        meta.append(PatchMeta(i, (x, y), labels[i], w_i))
    return BandingMap(values, tuple(meta), n)


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
    n = bm.patch_size
    scores = []
    for meta in bm.patch_meta:
        x, y = meta.origin
        block = bm.values[y : y + n, x : x + n]
        nz = block[block > 0.0]
        scores.append(_top_fraction_mean(nz, p_percent))
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
