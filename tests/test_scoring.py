"""Banding map assembly and worst-percent pooling."""

import math

import numpy as np
import pytest

from bandgauge.freq import HighFreqMap
from bandgauge.imgcore import Label, PatchLabel, PlanarImage, tile
from bandgauge.scoring import BandingMap, banding_map, map_to_image, pool_score
from bandgauge.sfmask import MaskWeights


BANDED = PatchLabel(Label.BANDED, 1.0)
CLEAN = PatchLabel(Label.NON_BANDED, 1.0)


def build_map(rng, w=96, h=64, n=32, banded_frac=0.6, weight_hi=3.0):
    img = PlanarImage.from_array(np.zeros((h, w), dtype=np.uint8))
    grid = tile(img, n)
    labels = [BANDED if rng.random() < banded_frac else CLEAN for _ in grid.patches]
    weights = MaskWeights(rng.uniform(1.0, weight_hi, size=len(grid)), 1.5)
    hfms = []
    for _ in grid.patches:
        vals = rng.random((n, n)) * 4.0
        vals[rng.random((n, n)) < 0.4] = 0.0  # plenty of zeros
        hfms.append(HighFreqMap(vals))
    return grid, labels, weights, hfms


def brute_force_pool(bm, p_percent):
    """Full-sort oracle with explicit tie handling, per patch."""
    n = bm.patch_size
    patch_scores = []
    for meta in bm.patch_meta:
        x, y = meta.origin
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
    weights = MaskWeights(np.ones(len(grid)), 1.5)
    bm = banding_map(grid, labels, weights, hfms)
    x, y = grid.patches[2]
    block = bm.values[y : y + 32, x : x + 32]
    assert (block == hfms[2].values).all()
    outside = bm.values.copy()
    outside[y : y + 32, x : x + 32] = 0.0
    assert outside.max() == 0.0


def test_weight_scales_linearly(rng):
    grid, labels, weights, hfms = build_map(rng)
    bm1 = banding_map(grid, labels, weights, hfms)
    bm2 = banding_map(grid, labels, MaskWeights(2.0 * weights.w, 1.5), hfms)
    assert np.allclose(bm2.values, 2.0 * bm1.values, rtol=0, atol=0)


def test_misaligned_collections_rejected(rng):
    grid, labels, weights, hfms = build_map(rng)
    with pytest.raises(ValueError):
        banding_map(grid, labels[:-1], weights, hfms)


def test_constant_patch_pools_to_its_value():
    img = PlanarImage.from_array(np.zeros((32, 32), dtype=np.uint8))
    grid = tile(img, 32)
    c = 0.7351
    bm = banding_map(
        grid, [BANDED], MaskWeights(np.ones(1), 1.5), [HighFreqMap(np.full((32, 32), c))]
    )
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
    q3 = pool_score(banding_map(grid, labels, MaskWeights(3.0 * weights.w, 1.5), hfms)).q
    assert q3 == pytest.approx(3.0 * q1, rel=1e-12)


def test_flipping_to_banded_never_decreases(rng):
    grid, labels, weights, hfms = build_map(rng, banded_frac=0.3)
    base = pool_score(banding_map(grid, labels, weights, hfms)).q
    for k in range(len(labels)):
        if labels[k].is_banded:
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
    img = map_to_image(BandingMap(np.full((4, 4), 2.0), (), 4))
    assert (img.planes[0] == 0).all()
