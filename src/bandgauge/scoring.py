"""Banding map assembly and image-level score pooling.

The banding map multiplies, per patch, the predicted label (0/1), the
spatial-frequency mask weight, and the gradient magnitude of the
high-frequency map; pixels of non-banded patches and grid remainders stay
zero.  The image score averages, over all patches, the mean of each patch's
top-p% non-zero map values; perceived quality is dominated by the worst
regions, so "top" means largest.

Scoring needs the map only patch by patch, so ``banding_map`` keeps the
banded patches' gradient maps and ``pool_score`` weights each one as it
pools it.  The full-frame map is built on the first read of
``BandingMap.values`` (``detect`` reads it) and cached.
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


class BandingMap:
    """Per-pixel banding visibility plus per-patch bookkeeping.

    hvs[i] is patch i's gradient map, or None if the patch is not banded;
    patch i's map values are patch_meta[i].weight * |hvs[i]|.  ``values``
    assembles the full frame of the given (height, width) shape on its
    first read.
    """

    def __init__(self, hvs: tuple, patch_meta: tuple, patch_size: int, shape: tuple):
        self.patch_meta, self.patch_size = patch_meta, patch_size
        self._shape, self._hvs, self._values = shape, hvs, None

    @property
    def values(self) -> np.ndarray:
        """The full-frame map, read-only, built once."""
        if self._values is None:
            values = np.zeros(self._shape)
            n = self.patch_size
            for meta in self.patch_meta:
                block = self._patch(meta)
                if block is not None:
                    x, y = meta.origin
                    values[y : y + n, x : x + n] = block
            values.flags.writeable = False
            self._values = values
        return self._values

    def _patch(self, meta: PatchMeta) -> np.ndarray | None:
        """One patch's N x N map values; None for a non-banded patch (its
        values are all zero)."""
        hv = self._hvs[meta.index]
        return None if hv is None else meta.weight * np.abs(hv)

    @property
    def total_patches(self) -> int:
        return len(self.patch_meta)

    @property
    def width(self) -> int:
        return self._shape[1]

    @property
    def height(self) -> int:
        return self._shape[0]


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
    """The per-pixel visibility field from per-patch pieces.

    hfms[i] is read only for a banded patch i; the entry of a non-banded
    patch may be None.  Patch i's values are weights.w[i] * |hfms[i]|.
    """
    k = len(grid)
    if len(labels) != k or len(weights.w) != k or len(hfms) != k:
        raise ValueError("per-patch collections must align with the grid")
    meta, hvs = [], []
    n = grid.patch_size
    for i, origin in enumerate(grid.patches):
        hv = None
        if labels[i].is_banded:
            hv = hfms[i].values
            if hv.shape != (n, n):
                raise ValueError(f"hfm {i} shape {hv.shape} != patch size {n}")
        hvs.append(hv)
        meta.append(PatchMeta(i, origin, labels[i], float(weights.w[i])))
    return BandingMap(
        tuple(hvs), tuple(meta), n, (grid.image_height, grid.image_width)
    )


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
    scores = []
    for meta in bm.patch_meta:
        block = bm._patch(meta)
        if block is None:
            scores.append(0.0)
        else:
            scores.append(_top_fraction_mean(block[block > 0.0], p_percent))
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
