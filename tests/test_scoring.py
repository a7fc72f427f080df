"""Banding map assembly and worst-percent pooling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandgauge.imgcore import PlanarImage, tile
from bandgauge.scoring import _top_fraction_mean, banding_map, map_to_image, pool_score
from bandgauge.sfmask import MaskWeights

BANDED, CLEAN = 1.0, 0.0  # a tile's probability


def build_map(rng, w=96, h=64, n=32, banded_frac=0.6, weight_hi=3.0):
    img = PlanarImage.from_array(np.zeros((h, w), dtype=np.uint8))
    grid = tile(img, n)
    labels = [BANDED if rng.random() < banded_frac else CLEAN for _ in grid.patches]
    weights = MaskWeights(rng.uniform(1.0, weight_hi, size=len(grid)))
    hfms = []
    for _ in grid.patches:
        vals = rng.random((n, n)) * 4.0
        vals[rng.random((n, n)) < 0.4] = 0.0  # plenty of zeros
        hfms.append(vals)
    return grid, labels, weights, hfms


def brute_force_pool(bm, p_percent):
    """Full-sort oracle with explicit tie handling, per patch."""
    n = bm.grid.patch_size
    patch_scores = []
    for x, y in bm.grid.patches:
        vals = [
            float(v)
            for row in bm.values[y : y + n, x : x + n]
            for v in row
            if v > 0.0
        ]
        if not vals:
            patch_scores.append(0.0)
            continue
        vals.sort(reverse=True)
        m = math.ceil(p_percent / 100.0 * len(vals))
        cutoff = vals[m - 1]
        selected = [v for v in vals if v >= cutoff]
        patch_scores.append(float(np.mean(np.array(selected))))
    return sum(patch_scores) / len(patch_scores), patch_scores


def banding_map_reference(grid, labels, weights, hfms):
    """The map as one eager full frame: zeros, then w_i * |hfm| per banded
    patch."""
    values = np.zeros((grid.image_height, grid.image_width))
    n = grid.patch_size
    for i, (x, y) in enumerate(grid.patches):
        w_i = float(weights.w[i])
        if labels[i] > 0.5:
            values[y : y + n, x : x + n] = w_i * np.abs(hfms[i])
    return values


def pool_score_reference(values, grid, p_percent):
    """(q, per-patch scores) pooled from slices of the full frame."""
    scores = []
    n = grid.patch_size
    for x, y in grid.patches:
        block = values[y : y + n, x : x + n]
        scores.append(_top_fraction_mean(block[block > 0.0], p_percent))
    return float(sum(scores) / len(scores)), scores


@settings(max_examples=80, deadline=None)
@given(
    st.integers(8, 40),
    st.integers(1, 5),
    st.integers(1, 4),
    st.integers(0, 39),
    st.integers(0, 39),
    st.floats(0.0, 100.0, exclude_min=True),
    st.integers(0, 2**32 - 1),
)
def test_tile_form_is_the_full_frame_bitwise(n, cols, rows, extra_w, extra_h, p, seed):
    rng = np.random.default_rng(seed)
    img = PlanarImage.from_array(
        np.zeros((rows * n + extra_h % n, cols * n + extra_w % n), dtype=np.uint8)
    )
    grid = tile(img, n)
    labels = [BANDED if b else CLEAN for b in rng.random(len(grid)) < rng.random()]
    weights = MaskWeights(1.0 + rng.exponential(size=len(grid)))
    hfms = []
    for label in labels:
        vals = np.floor(rng.random((n, n)) * 6.0) / 2.0  # zeros and ties
        hfms.append(vals if label > 0.5 else None)
    bm = banding_map(grid, labels, weights, hfms)
    values = banding_map_reference(grid, labels, weights, hfms)
    got = pool_score(bm, p)
    want_q, want_scores = pool_score_reference(values, grid, p)
    assert list(got.per_patch_scores) == want_scores
    assert got.q.hex() == want_q.hex()
    assert bm.prob.tobytes() == np.array(labels).tobytes()
    assert bm.weight.tobytes() == weights.w.tobytes()
    assert (bm.height, bm.width) == values.shape
    assert bm.values.tobytes() == values.tobytes()


def test_values_are_built_once_and_read_only(rng):
    grid, labels, weights, hfms = build_map(rng)
    bm = banding_map(grid, labels, weights, hfms)
    values = bm.values
    assert bm.values is values
    assert not values.flags.writeable
    with pytest.raises(ValueError):
        values[0, 0] = 1.0


def test_all_clean_gives_zero_map(rng):
    grid, _, weights, hfms = build_map(rng)
    labels = [CLEAN] * len(grid)
    bm = banding_map(grid, labels, weights, hfms)
    assert bm.values.max() == 0.0
    assert pool_score(bm).q == 0.0


def test_single_banded_patch_copies_hfm(rng):
    grid, _, _, hfms = build_map(rng, w=64, h=64, n=32)
    labels = [CLEAN] * len(grid)
    labels[2] = BANDED
    weights = MaskWeights(np.ones(len(grid)))
    bm = banding_map(grid, labels, weights, hfms)
    x, y = grid.patches[2]
    block = bm.values[y : y + 32, x : x + 32]
    assert (block == hfms[2]).all()
    outside = bm.values.copy()
    outside[y : y + 32, x : x + 32] = 0.0
    assert outside.max() == 0.0
    # Only a banded patch's map is read.
    only_banded = [h if label > 0.5 else None for h, label in zip(hfms, labels)]
    assert banding_map(grid, labels, weights, only_banded).values.tobytes() == bm.values.tobytes()


def test_weight_scales_linearly(rng):
    grid, labels, weights, hfms = build_map(rng)
    bm1 = banding_map(grid, labels, weights, hfms)
    bm2 = banding_map(grid, labels, MaskWeights(2.0 * weights.w), hfms)
    assert np.allclose(bm2.values, 2.0 * bm1.values, rtol=0, atol=0)


def test_misaligned_collections_rejected(rng):
    grid, labels, weights, hfms = build_map(rng)
    with pytest.raises(ValueError):
        banding_map(grid, labels[:-1], weights, hfms)


@pytest.mark.parametrize("bad", [-0.1, 1.5, float("nan"), float("inf")])
def test_probability_outside_the_unit_interval_rejected(rng, bad):
    grid, labels, weights, hfms = build_map(rng)
    labels[0] = bad
    with pytest.raises(ValueError, match=r"within \[0, 1\]"):
        banding_map(grid, labels, weights, hfms)


def test_banded_tile_map_must_be_patch_sized(rng):
    grid, labels, weights, hfms = build_map(rng)
    hfms[0] = hfms[0][:-1]
    labels[0] = BANDED
    with pytest.raises(ValueError, match="patch size"):
        banding_map(grid, labels, weights, hfms)
    labels[0] = CLEAN  # a non-banded tile's map is not read
    assert banding_map(grid, labels, weights, hfms).hvs[0] is None


def test_constant_patch_pools_to_its_value():
    img = PlanarImage.from_array(np.zeros((32, 32), dtype=np.uint8))
    grid = tile(img, 32)
    c = 0.7351
    bm = banding_map(grid, [BANDED], MaskWeights(np.ones(1)), [np.full((32, 32), c)])
    for p in (10.0, 50.0, 80.0, 100.0):
        assert pool_score(bm, p).q == pytest.approx(c, rel=1e-12)


def test_pool_matches_brute_force_bitwise(rng):
    for _ in range(40):
        grid, labels, weights, hfms = build_map(rng)
        bm = banding_map(grid, labels, weights, hfms)
        p = float(rng.choice([25.0, 50.0, 80.0, 100.0]))
        got = pool_score(bm, p)
        want_q, want_scores = brute_force_pool(bm, p)
        assert got.q == want_q
        assert list(got.per_patch_scores) == want_scores


def test_pool_monotone_in_p(rng):
    grid, labels, weights, hfms = build_map(rng)
    bm = banding_map(grid, labels, weights, hfms)
    qs = [pool_score(bm, p).q for p in (10.0, 30.0, 50.0, 80.0, 100.0)]
    assert all(a >= b for a, b in zip(qs, qs[1:]))


def test_pool_scales_with_weights(rng):
    grid, labels, weights, hfms = build_map(rng)
    q1 = pool_score(banding_map(grid, labels, weights, hfms)).q
    q3 = pool_score(banding_map(grid, labels, MaskWeights(3.0 * weights.w), hfms)).q
    assert q3 == pytest.approx(3.0 * q1, rel=1e-12)


def test_flipping_to_banded_never_decreases(rng):
    grid, labels, weights, hfms = build_map(rng, banded_frac=0.3)
    base = pool_score(banding_map(grid, labels, weights, hfms)).q
    for k in range(len(labels)):
        if labels[k] > 0.5:
            continue
        flipped = list(labels)
        flipped[k] = BANDED
        q = pool_score(banding_map(grid, flipped, weights, hfms)).q
        assert q >= base


def test_pool_score_rejects_p_percent_out_of_range(rng):
    grid, labels, weights, hfms = build_map(rng)
    bm = banding_map(grid, labels, weights, hfms)
    with pytest.raises(ValueError):
        pool_score(bm, 0.0)


def test_map_to_image(rng):
    grid, labels, weights, hfms = build_map(rng)
    bm = banding_map(grid, labels, weights, hfms)
    img = map_to_image(bm)
    assert img.width == bm.width and img.height == bm.height
    if bm.values.max() > 0:
        assert int(img.planes[0].max()) == 255
    zero = banding_map(grid, [CLEAN] * len(grid), weights, hfms)
    assert (map_to_image(zero).planes[0] == 0).all()


@pytest.mark.filterwarnings("error")
def test_map_to_image_constant_map_renders_zeros():
    # One tile, banded, with a constant gradient map: the whole map is 2.0.
    grid = tile(PlanarImage.from_array(np.zeros((8, 8), dtype=np.uint8)), 8)
    bm = banding_map(grid, [BANDED], MaskWeights(np.ones(1)), [np.full((8, 8), 2.0)])
    assert bm.values.min() == bm.values.max() == 2.0
    img = map_to_image(bm)
    assert (img.planes[0] == 0).all()
