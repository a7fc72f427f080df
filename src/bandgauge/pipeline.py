"""End-to-end scoring: tile, frequency maps, classify, mask, pool.

The classifier backend is either a trained dual-branch model or the
handcrafted baseline rule; in both cases the banding map and the pooled
severity score come out of the same masking and pooling path.  A tile's
verdict is one number, its probability (the baseline rule's is 0.0 or 1.0);
``banding_map`` and ``pool_score`` take the per-tile record as three
sequences: the probabilities, the mask weights and the banded tiles' Sobel
maps.  Stages pass plain read-only arrays (the luma plane, the per-tile sf
and weights).  The score is pooled from those maps; no full-frame map is
built unless ``result.bmap.values`` is read.
Every tile gets its own maps.  One per-block function takes a run of
consecutive tiles in raster order to its Sobel map and one probability per
tile.  The model's maps come from ``tile_maps``, which also makes datagen's
training maps.  ``PatchGrid.blocks`` copies each run out of the float32 luma
plane (a run may cross grid rows), so no whole-frame float64 copy of it is
made.  The baseline rule runs on the calling thread over runs of
``imgcore.BLOCK_PIXELS // N^2`` tiles.  A model
runs over forward blocks of ``classifier._BLOCK_PIXELS // N^2`` tiles, the
grouping that ``forward_batch`` gives the whole grid; each block, with its
``pws_lfm`` per tile and its ``forward_batch``, is one task on a pool of
``RunConfig.threads`` workers (by default, the usable CPUs).  At most
2 x threads blocks are in flight and their results are consumed in order,
keeping only the probabilities and the banded tiles' maps (copied out of a
run that is not wholly banded, so that a kept tile does not hold its run),
so the memory held grows by about 9 MB of scratch (mostly the solver's) per
extra worker at N = 235.
"""

from __future__ import annotations

import collections
import os
from dataclasses import dataclass, field

import numpy as np

from .checks import check
from .classifier import _BLOCK_PIXELS, BaselineConfig, DualNetParams, forward_batch
from .freq import PwsConfig, pws_lfm, sobel_hfm
from .imgcore import BLOCK_PIXELS, PlanarImage, tile, to_luma
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

    Gradient and low-frequency maps are always computed per tile, each tile
    seeing replicated borders; ``tile_maps`` makes them for scoring and for
    datagen's training samples alike.

    threads is the number of workers that score a model's forward blocks
    (Sobel, solver and CNN); it defaults to the usable CPUs.  Each extra
    worker holds about 9 MB of solver scratch at N = 235.  The baseline rule
    always runs on the calling thread.
    """

    patch_size: int = 235
    p_percent: float = 80.0
    gamma: float = 1.5
    pws: PwsConfig = field(default_factory=PwsConfig)
    baseline: BaselineConfig = field(default_factory=BaselineConfig)
    threads: int = field(default_factory=_usable_cpus)

    def __post_init__(self):
        check("patch_size", self.patch_size, int, ge=8)
        check("p_percent", self.p_percent, gt=0, le=100)
        check("gamma", self.gamma, gt=0)
        check("threads", self.threads, int, ge=1)


@dataclass(frozen=True)
class ImageResult:
    score: QualityScore
    bmap: BandingMap

    @property
    def banded_patch_count(self) -> int:
        return np.count_nonzero(self.bmap.banded)


def score_image(
    img: PlanarImage, config: RunConfig, model: DualNetParams | None = None
) -> ImageResult:
    """Score one image; model None selects the baseline classifier."""
    n = config.patch_size
    if model is not None and model.patch_size != n:
        raise ValueError(
            f"model was trained at {model.patch_size}, config asks for {n}"
        )
    luma = to_luma(img)
    grid = tile(img, n)
    sf = grid_stats(luma, grid)
    prob, hvs = _classify(luma, grid, sf, config, model)
    del luma  # not read again; freed before the map is pooled
    weights = mask_weights(sf, n, config.gamma)
    bm = banding_map(grid, prob, weights, hvs)
    qs = pool_score(bm, config.p_percent)
    return ImageResult(qs, bm)


def tile_maps(block, pws: PwsConfig) -> tuple[np.ndarray, list[np.ndarray]]:
    """The model's inputs for a (B, n, n) run of tiles, in training and in
    scoring: their (B, n, n) Sobel array and each tile's low-frequency map,
    the solver's read-only float64 (n, n) array."""
    return sobel_hfm(block), [pws_lfm(t, pws).values for t in block]


def _classify(luma, grid, sf, config: RunConfig, model):
    """(prob, hvs) per tile, streamed over runs of tiles: the probabilities,
    and each banded tile's (N, N) Sobel map (None for any other tile, since
    banding_map reads no other)."""

    def score_block(item):
        """(start, Sobel maps, probabilities) of one run of tiles."""
        start, block = item
        if model is None:
            hv = sobel_hfm(block)
            tile_sf = sf[start : start + len(block)]
            return start, hv, config.baseline.banded(hv.mean(axis=(-2, -1)), tile_sf).astype(float)
        hv, lvs = tile_maps(block, config.pws)
        return start, hv, forward_batch(model, hv, lvs)

    pixels = BLOCK_PIXELS if model is None else _BLOCK_PIXELS
    blocks = grid.blocks(luma, max(1, pixels // grid.patch_size**2))
    pool = None
    if model is None:
        # On the calling thread: on a pool, the baseline's peak RSS on 1080p
        # frames rose from 73 to 84-88 MB.
        results = map(score_block, blocks)
    else:
        from concurrent.futures import ThreadPoolExecutor  # loaded only when a model scores

        pool = ThreadPoolExecutor(config.threads)
        results = (f.result() for f in _in_order(pool, score_block, blocks, 2 * config.threads))
    prob = np.empty(len(grid))
    hvs = [None] * len(grid)
    try:
        for start, hv, p in results:
            prob[start : start + len(p)] = p
            banded = np.flatnonzero(p > 0.5)
            # A view of hv holds the whole run; copy the banded tiles out
            # unless the run is all kept anyway.
            kept = hv if len(banded) == len(hv) else hv[banded]
            kept.flags.writeable = False
            for j, t in zip(banded, kept):
                hvs[start + j] = t
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return prob, hvs


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
