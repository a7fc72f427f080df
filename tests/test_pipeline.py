"""The block-streamed score_image against a per-tile oracle, and its memory."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandgauge.classifier import forward_batch, init_params
from bandgauge.freq import HighFreqMap, pws_lfm
from bandgauge.imgcore import BLOCK_PIXELS, Label, PatchLabel, PlanarImage, tile
from bandgauge.pipeline import RunConfig, score_image
from bandgauge.scoring import banding_map, pool_score
from bandgauge.sfmask import SpatialFreqStats, mask_weights, sf_threshold
from conftest import luma_reference, sf_reference, sobel_reference


def score_image_per_tile(img, config, model=None):
    """score_image as one pass per tile over a whole-frame float64 luma."""
    n = config.patch_size
    luma = luma_reference(img).astype(np.float64)
    grid = tile(img, n)
    tiles = [grid.extract(luma, k) for k in range(len(grid))]
    if config.hfm_scope == "image":
        whole = sobel_reference(luma)
        hfms = [HighFreqMap(grid.extract(whole, k).copy()) for k in range(len(grid))]
    else:
        hfms = [HighFreqMap(sobel_reference(t)) for t in tiles]
    cf, rf, sf = (np.array(v) for v in zip(*map(sf_reference, tiles)))
    stats = SpatialFreqStats(cf, rf, sf, sf_threshold(sf))
    if model is not None:
        probs = forward_batch(model, hfms, [pws_lfm(t, config.pws) for t in tiles])
        banded, confidence = probs > 0.5, np.maximum(probs, 1.0 - probs)
    else:
        mean_grad = np.array([h.values.mean() for h in hfms])
        banded, confidence = config.baseline.banded(mean_grad, sf), np.ones(len(grid))
    labels = [
        PatchLabel(Label.BANDED if b else Label.NON_BANDED, float(c))
        for b, c in zip(banded, confidence)
    ]
    bm = banding_map(grid, labels, mask_weights(stats, n, config.gamma), hfms)
    return pool_score(bm, config.p_percent), bm


def mixed_frame(seed, w, h, n, nch=1):
    """A quantized ramp with noise on about half of the N x N cells, so that
    both verdicts occur; remainder pixels get noise of their own."""
    rng = np.random.default_rng(seed)
    ramp = np.add.outer(np.arange(h) * rng.random(), np.arange(w) * rng.random())
    levels = int(rng.integers(4, 40))
    arr = np.floor(ramp / max(ramp.max(), 1e-9) * (levels - 1) + 0.5) * (255 // (levels - 1))
    cells = np.kron(rng.random((h // n + 1, w // n + 1)) < 0.5, np.ones((n, n)))[:h, :w]
    arr = arr + cells * rng.integers(-40, 41, (h, w))
    arr[(h // n) * n :] = rng.integers(0, 256, arr[(h // n) * n :].shape)
    if nch == 3:
        arr = np.stack([arr, np.roll(arr, 5, axis=1), arr[::-1]], axis=-1)
    return PlanarImage.from_array(np.clip(arr, 0, 255).astype(np.uint8))


def assert_same_as_per_tile(img, config, model=None):
    res = score_image(img, config, model)
    score, bm = score_image_per_tile(img, config, model)
    assert res.score.q.hex() == score.q.hex()
    assert res.score.per_patch_scores == score.per_patch_scores
    assert [(m.label, m.weight) for m in res.bmap.patch_meta] == [
        (m.label, m.weight) for m in bm.patch_meta
    ]
    assert res.bmap.values.tobytes() == bm.values.tobytes()
    return res


# (width, height, N): a block of BLOCK_PIXELS // N^2 tiles is 6 of the 7
# tiles of a row at N = 100 and 16 of 17 at N = 64 (partial grid rows); at
# N = 16 one block takes the whole row.  Every size leaves remainders.
GRIDS = [(730, 210, 100), (1100, 70, 64), (203, 131, 16)]


@pytest.mark.parametrize("w, h, n", GRIDS)
@pytest.mark.parametrize("scope", ["patch", "image"])
@pytest.mark.parametrize("with_model", [False, True], ids=["baseline", "model"])
def test_streamed_score_is_the_per_tile_score(w, h, n, scope, with_model):
    assert BLOCK_PIXELS // (n * n) < w // n or n == 16
    model = init_params(n, (2, 3, 4), 8, seed=7) if with_model else None
    img = mixed_frame(w * h, w, h, n, nch=3 if w > 1000 else 1)
    res = assert_same_as_per_tile(img, RunConfig(patch_size=n, hfm_scope=scope), model)
    if not with_model:
        assert 0 < res.banded_patch_count < res.bmap.total_patches


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([8, 13, 16, 40, 100]),
    st.integers(1, 9),
    st.integers(1, 3),
    st.integers(0, 99),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["patch", "image"]),
    st.sampled_from([1, 3]),
)
def test_streamed_baseline_score_is_the_per_tile_score(n, cols, rows, extra, seed, scope, nch):
    w, h = cols * n + extra % n, rows * n + (extra // 7) % n
    img = mixed_frame(seed, w, h, n, nch)
    assert_same_as_per_tile(img, RunConfig(patch_size=n, hfm_scope=scope))


@pytest.mark.parametrize("content", ["noise", "banded"])
def test_score_image_memory_on_a_1080p_rgb_frame(content):
    # The full-frame float64 banding map is 15.8 MiB.  A frame whose every
    # tile is banded also keeps those tiles' gradient maps (13.5 MiB at
    # N = 235) until the map is built; luma and blocks must not add more.
    rng = np.random.default_rng(3)
    if content == "noise":
        arr = rng.integers(0, 256, (1080, 1920, 3), dtype=np.uint8)
    else:
        ramp = np.add.outer(np.arange(1080) * 0.3, np.arange(1920) * 0.7)
        ramp = np.floor(ramp / ramp.max() * 15 + 0.5) * 17 + rng.integers(-1, 2, ramp.shape)
        arr = np.clip(np.stack([ramp] * 3, axis=-1), 0, 255).astype(np.uint8)
    img = PlanarImage.from_array(arr)
    tracemalloc.start()
    try:
        res = score_image(img, RunConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.banded_patch_count == (0 if content == "noise" else res.bmap.total_patches)
    assert peak < 32 << 20
