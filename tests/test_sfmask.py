"""Spatial frequency statistics and the visibility transfer function."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bandgauge.imgcore import PlanarImage, tile
from bandgauge.sfmask import grid_stats, mask_weight, mask_weights, spatial_frequency
from conftest import extract, sf_reference


def test_constant_patch_zero():
    assert spatial_frequency(np.full((8, 8), 0.7)) == (0.0, 0.0, 0.0)


def test_checkerboard_exact():
    cf, rf, sf = spatial_frequency(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert cf == math.sqrt(0.5)
    assert rf == math.sqrt(0.5)
    assert sf == 1.0


def test_homogeneity(rng):
    patch = rng.random((9, 9))
    base = spatial_frequency(patch)
    for c in (-2.0, 0.5, 3.0):
        scaled = spatial_frequency(c * patch)
        for got, want in zip(scaled, base):
            assert got == pytest.approx(abs(c) * want, rel=1e-12)


def test_non_square_rejected():
    with pytest.raises(ValueError):
        spatial_frequency(np.zeros((4, 5)))
    with pytest.raises(ValueError):
        spatial_frequency(np.zeros((2, 4, 5)))
    with pytest.raises(ValueError):
        spatial_frequency(np.zeros(4))


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 5), st.integers(3, 40), st.integers(0, 2**32 - 1), st.booleans())
@example(1, 3, 0, False)
@example(5, 40, 1, True)
def test_spatial_frequency_on_a_stack_is_per_tile_bitwise(b, n, seed, quantized):
    stack = np.random.default_rng(seed).random((b, n, n))
    if quantized:
        stack = np.floor(stack * 5) / 5
    cf, rf, sf = spatial_frequency(stack)
    assert cf.shape == rf.shape == sf.shape == (b,)
    for k, patch in enumerate(stack):
        want = spatial_frequency(patch)
        assert all(type(v) is float for v in want)
        assert want == sf_reference(patch)
        assert (cf[k], rf[k], sf[k]) == want


def test_grid_stats_is_per_tile_over_blocks(rng):
    # A run of BLOCK_PIXELS // N^2 tiles holds 455 tiles at N = 12, about 8
    # grid rows of 58, and 6, 4 and 3 tiles at N = 100, 128 and 140, whose
    # grid rows hold 7, 5 and 5, so runs cross grid rows.  The right and
    # bottom remainders are left out.
    luma = rng.random((300, 700)).astype(np.float32)
    img = PlanarImage.from_array(luma)
    for n in (12, 100, 128, 140):
        grid = tile(img, n)
        sf = grid_stats(luma, grid)
        want = [
            sf_reference(extract(grid, luma, k).astype(np.float64))
            for k in range(len(grid))
        ]
        assert sf.dtype == np.float64 and not sf.flags.writeable
        assert sf.tolist() == [v for _, _, v in want]


def test_mask_weight_cases():
    assert mask_weight(2.0, 2.0, 235, 1.5) == 1.0  # boundary belongs below
    assert mask_weight(3.0, 2.0, 235, 1.5) == 1.0 + 1.0 / 235
    for n in (16, 64, 235):
        got = mask_weight(2.0 + n, 2.0, n, 1.5)
        assert got == pytest.approx(1.0 + math.sqrt(n), rel=1e-12)


def test_mask_weight_monotone_and_continuous():
    eps = 1.3
    prev = 0.0
    for sf in np.linspace(0.0, 6.0, 400):
        w = mask_weight(sf, eps, 64, 1.5)
        assert w >= prev
        prev = w
    below = mask_weight(eps - 1e-12, eps, 64, 1.5)
    above = mask_weight(eps + 1e-12, eps, 64, 1.5)
    assert below == 1.0
    assert above == pytest.approx(1.0, abs=1e-9)


def test_mask_weight_validation():
    with pytest.raises(ValueError):
        mask_weight(1.0, 0.5, 0, 1.5)
    with pytest.raises(ValueError):
        mask_weight(1.0, 0.5, 8, 0.0)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(0.0, 4.0), min_size=1, max_size=300),
    st.integers(1, 300),
    st.floats(0.05, 4.0),
)
@example([3.25] * 7, 64, 1.5)
@example([0.0, 2.0], 64, 1.5)
@example([0.25 + k / 997 for k in range(300)], 235, 1.5)
def test_mask_weights_is_mask_weight_per_patch_bitwise(sfs, n, gamma):
    # numpy's float64 power rounds differently from Python's ** on some
    # inputs (about 5% of uniform samples at gamma = 1.5), so a vectorised
    # np.power would move the weights and the score.  The threshold epsilon
    # is the plain mean of the spatial frequencies.
    sf = np.array(sfs)
    epsilon = float(sf.mean())
    assert abs(epsilon - math.fsum(sfs) / len(sfs)) <= 1e-12 * max(1.0, epsilon)
    want = [mask_weight(v, epsilon, n, gamma) for v in sf]
    got = mask_weights(sf, n, gamma)
    assert got.dtype == np.float64 and not got.flags.writeable
    assert got.tobytes() == np.array(want).tobytes()


def test_mask_weights_of_an_empty_grid_rejected():
    with pytest.raises(ValueError, match="empty"):
        mask_weights(np.array([]), 16)


def test_weights_floor_at_one(rng):
    luma = rng.random((64, 64))
    img = PlanarImage.from_array(luma.astype(np.float32))
    grid = tile(img, 16)
    grid_sf = grid_stats(luma, grid)
    assert (mask_weights(grid_sf, 16) >= 1.0).all()
    # sf >= max(cf, rf) >= 0 for every patch
    cf, rf, sf = spatial_frequency(np.stack([extract(grid, luma, k) for k in range(len(grid))]))
    assert sf.tobytes() == grid_sf.tobytes()
    assert (sf >= np.maximum(cf, rf) - 1e-15).all()


def test_noise_beats_blur_in_mean_sf():
    for seed in range(5):
        r = np.random.default_rng(seed)
        noise = r.random((64, 64))
        blurred = np.zeros_like(noise)
        acc = np.zeros_like(noise)
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                acc += np.roll(np.roll(noise, dy, axis=0), dx, axis=1)
        blurred = acc / 9.0
        img = PlanarImage.from_array(noise.astype(np.float32))
        grid = tile(img, 16)
        mean_noise = grid_stats(noise, grid).mean()
        mean_blur = grid_stats(blurred, grid).mean()
        assert mean_noise > mean_blur
