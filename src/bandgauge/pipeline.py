"""End-to-end scoring: tile, frequency maps, classify, mask, pool.

The classifier backend is either a trained dual-branch model or the
handcrafted baseline rule; in both cases the per-pixel banding map and the
pooled severity score come out of the same masking and pooling path.
The per-tile stages run over blocks of tiles cut from the float32 luma
plane, so no whole-frame float64 copy of it is made.  The baseline rule runs
serially over ``PatchGrid.blocks``.  The model path cuts the grid into
forward blocks: runs of ``classifier._BLOCK_PIXELS // N^2`` consecutive
tiles in raster order (a run may span grid rows), which is the grouping that
``forward_batch`` gives the whole grid.  Each forward block is one task on a
pool of ``RunConfig.threads`` workers (by default, the usable CPUs): its
Sobel map, ``pws_lfm`` per tile, then ``forward_batch``.  At most
2 x threads blocks are in flight.  Their results are consumed in order, and
only the probabilities and the banded tiles' maps are kept, so neither the
output nor the memory held grows with the thread count beyond about 9 MB of
scratch (mostly the solver's) per extra worker at N = 235.
"""

from __future__ import annotations

import collections
import os
from dataclasses import dataclass, field

import numpy as np

from .checks import check
from .classifier import _BLOCK_PIXELS, BaselineConfig, DualNetParams, forward_batch
from .freq import HighFreqMap, PwsConfig, pws_lfm, sobel_hfm
from .imgcore import Label, PatchLabel, PlanarImage, tile, to_luma
from .scoring import BandingMap, QualityScore, banding_map, pool_score
from .sfmask import grid_stats, mask_weights
from .sfmask import spatial_frequency  # noqa: F401 - wrapped by name in perfbench/tracer.py


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


@dataclass(frozen=True)
class RunConfig:
    """Pipeline knobs; defaults follow the reference settings.

    hfm_scope "patch" computes gradient maps per tile (each tile sees
    replicated borders); "image" filters the whole frame once and slices,
    so contours on tile boundaries stay visible.

    threads is the number of workers that score a model's forward blocks
    (Sobel, solver and CNN); it defaults to the usable CPUs.  Each extra
    worker holds about 9 MB of solver scratch at N = 235.  The baseline rule
    always runs on the calling thread.
    """

    patch_size: int = 235
    p_percent: float = 80.0
    gamma: float = 1.5
    hfm_scope: str = "patch"
    pws: PwsConfig = field(default_factory=PwsConfig)
    baseline: BaselineConfig = field(default_factory=BaselineConfig)
    threads: int = field(default_factory=_usable_cpus)

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
    luma = to_luma(img).planes[0]
    grid = tile(img, n)
    stats = grid_stats(luma, grid)
    banded, confidence, hfms = _classify(luma, grid, stats, config, model)
    del luma  # not read again; freed before the full-frame map is built
    labels = [
        PatchLabel(Label.BANDED if b else Label.NON_BANDED, float(c))
        for b, c in zip(banded, confidence)
    ]

    weights = mask_weights(stats, n, config.gamma)
    bm = banding_map(grid, labels, weights, hfms)
    qs = pool_score(bm, config.p_percent)
    return ImageResult(qs, bm)


def _classify(luma, grid, stats, config: RunConfig, model):
    """(banded, confidence, hfms) per tile, streamed over blocks of tiles.

    Only the maps of banded tiles are kept, since banding_map reads no other.
    """
    whole = sobel_hfm(luma).values if config.hfm_scope == "image" else None
    hfms = [None] * len(grid)
    if model is None:
        banded = np.zeros(len(grid), dtype=bool)
        whole_blocks = None if whole is None else grid.blocks(whole)
        for start, block in grid.blocks(luma):
            hv = sobel_hfm(block).values if whole is None else next(whole_blocks)[1]
            span = slice(start, start + len(block))
            banded[span] = config.baseline.banded(hv.mean(axis=(-2, -1)), stats.sf[span])
            for j in np.flatnonzero(banded[span]):
                hfms[start + j] = HighFreqMap(hv[j])
        return banded, np.ones(len(grid)), hfms

    from concurrent.futures import ThreadPoolExecutor  # loaded only when a model scores

    step = max(1, _BLOCK_PIXELS // grid.patch_size**2)

    def forward_block(start):
        block = _tiles(luma, grid, start, start + step)
        hv = sobel_hfm(block).values if whole is None else _tiles(whole, grid, start, start + step)
        return hv, forward_batch(model, hv, [pws_lfm(t, config.pws) for t in block])

    probs = np.empty(len(grid))
    starts = range(0, len(grid), step)
    pool = ThreadPoolExecutor(config.threads)
    try:
        for start, fut in zip(starts, _in_order(pool, forward_block, starts, 2 * config.threads)):
            hv, p = fut.result()
            probs[start : start + len(p)] = p
            for j in np.flatnonzero(p > 0.5):
                hfms[start + j] = HighFreqMap(hv[j])
    finally:
        pool.shutdown(cancel_futures=True)
    return probs > 0.5, np.maximum(probs, 1.0 - probs), hfms


def _tiles(plane, grid, start, stop) -> np.ndarray:
    """float64 (B, n, n) copy of tiles start..stop-1 (clipped to the grid)."""
    ks = range(start, min(stop, len(grid)))
    out = np.empty((len(ks), grid.patch_size, grid.patch_size))
    for i, k in enumerate(ks):
        out[i] = grid.extract(plane, k)
    return out


def _in_order(pool, fn, items, window: int):
    """pool.submit(fn, item) per item, the futures yielded in item order.

    At most ``window`` futures are submitted and not yet taken: the next
    item is submitted only when the caller asks for another future.
    """
    pending = collections.deque()
    for item in items:
        pending.append(pool.submit(fn, item))
        if len(pending) == window:
            yield pending.popleft()
    while pending:
        yield pending.popleft()
