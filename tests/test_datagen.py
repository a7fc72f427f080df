"""Synthetic data: bases, quantization, masks, labels, dataset assembly."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bandgauge.datagen import (
    KINDS,
    GeneratedSample,
    ManifestError,
    ManifestRow,
    SynthSpec,
    gen_base,
    label_patches,
    load_dataset,
    make_dataset,
    make_sample,
    quantize_bitdepth,
    read_manifest,
    write_manifest,
)
from bandgauge.freq import pws_lfm, sobel_hfm
from bandgauge.imgcore import Label, PlanarImage, load_image, tile, to_luma
from conftest import extract


def test_linear_ramp_row_constant():
    img = gen_base(SynthSpec("linear_ramp", size=256, bit_depth=8, seed=0))
    arr = img.planes[0]
    assert (arr == arr[:, :1]).all()  # rows constant
    assert int(arr.min()) == 0 and int(arr.max()) == 255


def test_generation_deterministic():
    a = gen_base(SynthSpec("sky_gradient", size=64, bit_depth=8, seed=5))
    b = gen_base(SynthSpec("sky_gradient", size=64, bit_depth=8, seed=5))
    c = gen_base(SynthSpec("sky_gradient", size=64, bit_depth=8, seed=6))
    assert (a.planes[0] == b.planes[0]).all()
    assert (a.planes[0] != c.planes[0]).any()


def test_radial_ramp_extremes():
    img = gen_base(SynthSpec("radial_ramp", size=65, bit_depth=8, seed=0))
    arr = img.planes[0]
    assert arr[32, 32] == 255  # center pixel carries the max
    assert arr[0, 0] == 0 and arr[-1, -1] == 0 and arr[0, -1] == 0


def test_quantize_identity_at_8():
    img = gen_base(SynthSpec("noise_texture", size=32, bit_depth=8, seed=1))
    assert quantize_bitdepth(img, 8) is img


def test_quantize_spot_value():
    img = PlanarImage.from_array(np.full((8, 8), 200, dtype=np.uint8))
    q = quantize_bitdepth(img, 4)
    assert (q.planes[0] == 200).all()


def test_quantize_level_count():
    ramp = PlanarImage.from_array(
        np.tile(np.arange(256, dtype=np.uint8), (8, 1))
    )
    q = quantize_bitdepth(ramp, 3)
    assert len(np.unique(q.planes[0])) == 8


def test_quantize_idempotent(rng):
    arr = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
    img = PlanarImage.from_array(arr)
    for d in range(1, 9):
        once = quantize_bitdepth(img, d)
        twice = quantize_bitdepth(once, d)
        assert (once.planes[0] == twice.planes[0]).all()


def test_quantize_ycbcr_collapses_luma():
    from bandgauge.datagen import quantize_ycbcr
    from bandgauge.imgcore import rgb_to_ycbcr420

    arr = np.zeros((16, 16, 3), dtype=np.uint8)
    arr[:, :, 0] = np.linspace(10, 240, 16).astype(np.uint8)[None, :]
    arr[:, :, 1] = 128
    arr[:, :, 2] = np.linspace(240, 10, 16).astype(np.uint8)[:, None]
    img = PlanarImage.from_array(arr)

    y, _, _ = rgb_to_ycbcr420(quantize_ycbcr(img, 3))
    assert len(np.unique(y.planes[0])) <= 8  # luma collapsed to 2^3 levels


def test_quantize_error_bound(rng):
    arr = rng.integers(0, 256, size=(32, 32), dtype=np.uint8)
    img = PlanarImage.from_array(arr)
    for d in range(1, 8):
        q = quantize_bitdepth(img, d)
        err = np.abs(q.planes[0].astype(int) - arr.astype(int))
        assert err.mean() <= 2 ** (7 - d)


def test_noise_sample_mask_all_false():
    sample = make_sample(SynthSpec("noise_texture", size=64, bit_depth=4, seed=2))
    assert not sample.banded_mask.any()


def test_ramp_sample_mask_fraction():
    sample = make_sample(SynthSpec("linear_ramp", size=64, bit_depth=4, seed=0))
    assert sample.banded_mask.mean() > 0.9


def test_deep_quantization_not_banded():
    sample = make_sample(SynthSpec("linear_ramp", size=64, bit_depth=7, seed=0))
    assert not sample.banded_mask.any()


def test_mixed_scene_mask_top_half_only():
    sample = make_sample(SynthSpec("mixed_scene", size=64, bit_depth=4, seed=3))
    assert sample.banded_mask[:32].any()
    assert not sample.banded_mask[32:].any()


@settings(max_examples=60, deadline=None)
@given(st.integers(8, 300), st.integers(0, 2**32 - 1))
@example(235, 7)  # mixed_scene was 234 rows high at odd sizes
@example(65, 0)
def test_every_kind_is_square_at_every_size(size, seed):
    if size < 16:
        with pytest.raises(ValueError, match="too small"):
            SynthSpec(KINDS[0], size=size)
        return
    for kind in KINDS:
        img = gen_base(SynthSpec(kind, size=size, bit_depth=8, seed=seed))
        assert (img.height, img.width) == (size, size), kind
        sample = make_sample(SynthSpec(kind, size=size, bit_depth=4, seed=seed))
        assert sample.banded_mask.shape == (size, size), kind


def test_plateau_interiors_not_banded():
    # Depth 2 leaves plateaus wider than a patch; far-from-contour pixels
    # carry no visible banding and must stay unmasked.
    sample = make_sample(SynthSpec("linear_ramp", size=256, bit_depth=2, seed=0))
    frac = sample.banded_mask.mean()
    assert 0.1 < frac < 0.9
    contour_rows = np.where(sample.banded_mask[:, 0])[0]
    q = sample.image.planes[0][:, 0].astype(int)
    jumps = np.where(np.diff(q) != 0)[0]
    for j in jumps:  # every contour is masked with its neighbourhood
        assert sample.banded_mask[j, 0] and sample.banded_mask[j + 1, 0]
    assert len(contour_rows) >= len(jumps)


def test_mask_dimension_validated():
    img = gen_base(SynthSpec("linear_ramp", size=32, bit_depth=8, seed=0))
    with pytest.raises(ValueError):
        GeneratedSample(img, np.zeros((4, 4), bool), SynthSpec("linear_ramp", size=32))


def test_label_patch_boundary():
    img = gen_base(SynthSpec("linear_ramp", size=40, bit_depth=8, seed=0))
    grid = tile(img, 10)  # patches of area 100

    mask = np.zeros((40, 40), dtype=bool)
    sample_none = GeneratedSample(img, mask, SynthSpec("linear_ramp", size=40))
    assert all(l is Label.NON_BANDED for l in label_patches(sample_none, grid))

    mask30 = np.zeros((40, 40), dtype=bool)
    mask30[0:3, 0:10] = True  # exactly 30 of 100 pixels in patch (0, 0)
    s30 = GeneratedSample(img, mask30, SynthSpec("linear_ramp", size=40))
    assert label_patches(s30, grid)[0] is Label.NON_BANDED

    mask31 = mask30.copy()
    mask31[3, 0] = True  # 31%
    s31 = GeneratedSample(img, mask31, SynthSpec("linear_ramp", size=40))
    assert label_patches(s31, grid)[0] is Label.BANDED


def label_patches_per_tile(sample, grid):
    """label_patches as it ran before, one patch at a time."""
    area = float(grid.patch_size**2)
    labels = []
    for k in range(len(grid)):
        frac = float(extract(grid, sample.banded_mask, k).sum()) / area
        labels.append(Label.BANDED if frac > 0.30 else Label.NON_BANDED)
    return tuple(labels)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(8, 20),
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(0, 7),
    st.integers(0, 7),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32 - 1),
)
def test_label_patches_is_the_per_tile_rule(n, cols, rows, extra_w, extra_h, density, seed):
    w, h = cols * n + extra_w, rows * n + extra_h
    img = PlanarImage.from_array(np.zeros((h, w), dtype=np.uint8))
    mask = np.random.default_rng(seed).random((h, w)) < density
    sample = GeneratedSample(img, mask, SynthSpec("linear_ramp", size=16))
    grid = tile(img, n)
    assert label_patches(sample, grid) == label_patches_per_tile(sample, grid)


def test_make_dataset_split_and_determinism(tmp_path):
    out1 = tmp_path / "d1"
    out2 = tmp_path / "d2"
    b1 = make_dataset(10, seed=7, patch_size=64, image_size=128, out_dir=out1)
    b2 = make_dataset(10, seed=7, patch_size=64, image_size=128, out_dir=out2)
    assert (out1 / "manifest.csv").read_bytes() == (out2 / "manifest.csv").read_bytes()

    images = {r.image_path for r in b1.manifest}
    assert len(images) == 10
    by_split = {}
    for r in b1.manifest:
        by_split.setdefault(r.split, set()).add(r.image_path)
    assert len(by_split["train"]) == 8
    assert len(by_split["val"]) == 1
    assert len(by_split["test"]) == 1
    # image-level split: no image contributes to two splits
    assert not (by_split["train"] & by_split["val"])
    assert not (by_split["train"] & by_split["test"])
    assert not (by_split["val"] & by_split["test"])
    # and no (image, x, y) key repeats at all
    keys = [(r.image_path, r.patch_x, r.patch_y) for r in b1.manifest]
    assert len(keys) == len(set(keys))


def test_dataset_class_balance():
    bundle = make_dataset(20, seed=3, patch_size=64, image_size=128)
    everything = bundle.train + bundle.val + bundle.test
    banded = np.mean([s.label.is_banded for s in everything])
    assert 0.35 <= banded <= 0.65


def test_dataset_requires_enough_images():
    with pytest.raises(ValueError):
        make_dataset(5, seed=0)


def test_manifest_roundtrip_and_errors(tmp_path):
    out = tmp_path / "ds"
    bundle = make_dataset(10, seed=1, patch_size=64, image_size=128, out_dir=out)
    rows = read_manifest(out / "manifest.csv")
    assert len(rows) == len(bundle.manifest)

    loaded = load_dataset(out / "manifest.csv")
    assert loaded.manifest == bundle.manifest
    for name in ("train", "val", "test"):
        assert [_sample_key(s) for s in getattr(loaded, name)] == [
            _sample_key(s) for s in getattr(bundle, name)
        ]

    bad = tmp_path / "bad.csv"
    bad.write_text("image_path,patch_x,patch_y,N,label,split\nfoo.png,a,0,64,banded,train\n")
    with pytest.raises(ManifestError) as err:
        read_manifest(bad)
    assert ":2:" in str(err.value)

    bad2 = tmp_path / "bad2.csv"
    bad2.write_text("who,knows\n")
    with pytest.raises(ManifestError):
        read_manifest(bad2)


def _sample_key(s):
    return (s.hfm.tobytes(), s.lfm.tobytes(), s.label)


def _bad_manifest(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text("image_path,patch_x,patch_y,N,label,split\n" + row + "\n")
    return path


@pytest.mark.parametrize(
    "row, message",
    [
        ("foo.png,-100,0,64,banded,train", "negative patch coordinate (-100, 0)"),
        ("foo.png,0,-1,64,banded,train", "negative patch coordinate (0, -1)"),
        ("foo.png,0,0,0,banded,train", "patch size 0 is below 8"),
        ("foo.png,0,0,7,banded,train", "patch size 7 is below 8"),
    ],
)
def test_manifest_rejects_bad_coordinates_and_sizes(tmp_path, row, message):
    path = _bad_manifest(tmp_path, row)
    with pytest.raises(ManifestError) as err:
        read_manifest(path)
    assert str(err.value) == f"{path}:2: {message}"


def test_manifest_patch_leaving_its_image(tmp_path):
    make_dataset(10, seed=1, patch_size=64, image_size=128, out_dir=tmp_path)
    name = read_manifest(tmp_path / "manifest.csv")[0].image_path
    path = _bad_manifest(tmp_path, f"{name},65,0,64,banded,train")
    with pytest.raises(ManifestError, match=rf":2: patch at \(65, 0\) leaves {name}$"):
        load_dataset(path)


def test_load_dataset_follows_manifest_order(tmp_path):
    # Interleaved images, off-grid positions and two patch sizes.
    bundle = make_dataset(10, seed=2, patch_size=64, image_size=128, out_dir=tmp_path)
    a, b = sorted({r.image_path for r in bundle.manifest})[:2]
    spots = [(a, 3, 17, 64), (b, 50, 0, 37), (a, 91, 91, 37), (b, 0, 64, 64), (a, 5, 60, 8)]
    labels = [Label.BANDED, Label.NON_BANDED]
    rows = [
        ManifestRow(p, x, y, n, labels[i % 2], "train" if i < 4 else "test")
        for i, (p, x, y, n) in enumerate(spots)
    ]
    write_manifest(rows, tmp_path / "hand.csv")
    loaded = load_dataset(tmp_path / "hand.csv")
    assert loaded.manifest == tuple(rows) and not loaded.val
    for i, (s, (p, x, y, n)) in enumerate(zip(loaded.train + loaded.test, spots)):
        luma = to_luma(load_image(tmp_path / p)).astype(np.float64)
        patch = luma[y : y + n, x : x + n]
        assert s.hfm.tobytes() == sobel_hfm(patch).tobytes()
        assert s.lfm.tobytes() == pws_lfm(patch).values.tobytes()
        assert s.label is labels[i % 2]


def _load_overhead(manifest) -> int:
    """Traced peak of load_dataset minus what its returned bundle holds."""
    tracemalloc.start()
    try:
        bundle = load_dataset(manifest)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert bundle.train
    return peak - held


def test_load_dataset_holds_one_image_at_a_time(tmp_path):
    overheads = []
    for n_images in (10, 30):
        out = tmp_path / f"ds{n_images}"
        make_dataset(n_images, seed=3, patch_size=64, image_size=128, out_dir=out)
        overheads.append(_load_overhead(out / "manifest.csv"))
    # Holding every luma to the end grew this by 20 images' lumas (2.6 MB);
    # the allowance is a quarter of one 128 x 128 float64 luma.
    assert overheads[1] <= overheads[0] + 128 * 128 * 8 // 4, overheads
