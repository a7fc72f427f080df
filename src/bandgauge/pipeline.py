"""End-to-end scoring: tile, frequency maps, classify, mask, pool.

The classifier backend is either a trained dual-branch model or the
handcrafted baseline rule; in both cases the per-pixel banding map and the
pooled severity score come out of the same masking and pooling path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .checks import check
from .classifier import BaselineConfig, DualNetParams, forward_batch
from .freq import HighFreqMap, PwsConfig, pws_lfm, sobel_hfm
from .imgcore import Label, PatchLabel, PlanarImage, tile, to_luma
from .scoring import BandingMap, QualityScore, banding_map, pool_score
from .sfmask import grid_stats, mask_weights
from .sfmask import spatial_frequency  # noqa: F401 - wrapped by name in perfbench/tracer.py


@dataclass(frozen=True)
class RunConfig:
    """Pipeline knobs; defaults follow the reference settings.

    hfm_scope "patch" computes gradient maps per tile (each tile sees
    replicated borders); "image" filters the whole frame once and slices,
    so contours on tile boundaries stay visible.
    """

    patch_size: int = 235
    p_percent: float = 80.0
    gamma: float = 1.5
    hfm_scope: str = "patch"
    pws: PwsConfig = field(default_factory=PwsConfig)
    baseline: BaselineConfig = field(default_factory=BaselineConfig)
    threads: int = 1

    def __post_init__(self):
        check("patch_size", self.patch_size, int, ge=8)
        check("p_percent", self.p_percent, gt=0, le=100)
        check("gamma", self.gamma, gt=0)
        check("threads", self.threads, int, ge=1)
        if self.hfm_scope not in ("patch", "image"):
            raise ValueError(f"hfm_scope must be patch or image, got {self.hfm_scope!r}")


@dataclass(frozen=True)
class ImageResult:
    score: QualityScore
    bmap: BandingMap

    @property
    def banded_patch_count(self) -> int:
        return sum(1 for m in self.bmap.patch_meta if m.label.is_banded)


def score_image(
    img: PlanarImage, config: RunConfig, model: DualNetParams | None = None
) -> ImageResult:
    """Score one image; model None selects the baseline classifier."""
    n = config.patch_size
    if model is not None and model.patch_size != n:
        raise ValueError(
            f"model was trained at {model.patch_size}, config asks for {n}"
        )
    luma = to_luma(img).planes[0].astype(np.float64)
    if img.is_float and not np.isfinite(luma).all():
        raise ValueError("image has non-finite pixels")
    grid = tile(img, n)
    if config.hfm_scope == "image":
        whole = sobel_hfm(luma).values
        hfms = [HighFreqMap(grid.extract(whole, k).copy()) for k in range(len(grid))]
    else:
        hfms = [sobel_hfm(grid.extract(luma, k)) for k in range(len(grid))]

    stats = grid_stats(luma, grid)
    if model is not None:
        lfms = [pws_lfm(grid.extract(luma, k), config.pws) for k in range(len(grid))]
        probs = forward_batch(model, hfms, lfms)
        banded, confidence = probs > 0.5, np.maximum(probs, 1.0 - probs)
    else:
        mean_grad = np.array([h.values.mean() for h in hfms])
        banded, confidence = config.baseline.banded(mean_grad, stats.sf), np.ones(len(grid))
    labels = [
        PatchLabel(Label.BANDED if b else Label.NON_BANDED, float(c))
        for b, c in zip(banded, confidence)
    ]

    weights = mask_weights(stats, n, config.gamma)
    bm = banding_map(grid, labels, weights, hfms)
    qs = pool_score(bm, config.p_percent)
    return ImageResult(qs, bm)
