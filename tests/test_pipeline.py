"""The block-streamed score_image against a per-tile oracle, and its memory."""

import itertools
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandgauge.classifier import _BLOCK_PIXELS, forward_batch, init_params, save_params
from bandgauge.cli import main
from bandgauge.datagen import SynthSpec, gen_base, make_dataset, quantize_bitdepth
from bandgauge.freq import pws_lfm
from bandgauge.imgcore import BLOCK_PIXELS, PlanarImage, load_image, save_image, tile
from bandgauge.pipeline import RunConfig, score_image
from bandgauge.scoring import banding_map, pool_score
from bandgauge.sfmask import SpatialFreqStats, mask_weights, sf_threshold
from conftest import extract, luma_reference, sf_reference, sobel_reference


def score_image_per_tile(img, config, model=None):
    """score_image as one pass per tile over a whole-frame float64 luma;
    (score, banding map, tile maps, the model's probabilities or None)."""
    n = config.patch_size
    luma = luma_reference(img).astype(np.float64)
    grid = tile(img, n)
    tiles = [extract(grid, luma, k) for k in range(len(grid))]
    hfms = [sobel_reference(t) for t in tiles]
    sf = np.array([sf_reference(t)[2] for t in tiles])
    stats = SpatialFreqStats(sf, sf_threshold(sf))
    probs = None
    if model is not None:
        probs = forward_batch(model, hfms, [pws_lfm(t, config.pws) for t in tiles])
        prob = probs
    else:
        mean_grad = np.array([h.mean() for h in hfms])
        prob = config.baseline.banded(mean_grad, sf).astype(float)
    bm = banding_map(grid, prob, mask_weights(stats, n, config.gamma), hfms)
    return pool_score(bm, config.p_percent), bm, hfms, probs


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
    score, bm, hfms, probs = score_image_per_tile(img, config, model)
    assert res.score.q.hex() == score.q.hex()
    assert res.score.per_patch_scores == score.per_patch_scores
    assert res.bmap.prob.tobytes() == bm.prob.tobytes()
    assert res.bmap.weight.tobytes() == bm.weight.tobytes()
    assert res.bmap.values.tobytes() == bm.values.tobytes()
    return res, hfms, probs


# (width, height, N): a baseline run of BLOCK_PIXELS // N^2 tiles holds 6
# tiles at N = 100, where a grid row holds 7, so runs cross grid rows; at
# N = 64 it holds 16 of the one row's 17, and at N = 16 one run takes the
# whole 12 x 8 grid.  A forward block of the model path (_BLOCK_PIXELS // N^2
# tiles) spans grid rows at N = 100 and N = 16.  Every size leaves remainders.
# Each tile gets its own (per-patch) maps.
GRIDS = [(730, 210, 100), (1100, 70, 64), (203, 131, 16)]


@pytest.mark.parametrize("w, h, n", GRIDS, ids=[f"patch-{w}-{h}-{n}" for w, h, n in GRIDS])
@pytest.mark.parametrize(
    "with_model, threads", [(False, 1), (True, 1), (True, 3)], ids=["baseline", "model", "model3"]
)
def test_streamed_score_is_the_per_tile_score(w, h, n, with_model, threads, monkeypatch):
    assert BLOCK_PIXELS // (n * n) < w // n or n == 16
    model = init_params(n, (2, 3, 4), 8, seed=7) if with_model else None
    img = mixed_frame(w * h, w, h, n, nch=3 if w > 1000 else 1)
    config = RunConfig(patch_size=n, threads=threads)
    calls = {}  # the probabilities of each forward_batch call, by its input maps

    def recording(params, h_batch, l_batch):
        calls[np.asarray(h_batch).tobytes()] = probs = forward_batch(params, h_batch, l_batch)
        return probs

    monkeypatch.setattr("bandgauge.pipeline.forward_batch", recording)
    res, hfms, probs = assert_same_as_per_tile(img, config, model)
    if not with_model:
        assert 0 < res.banded_patch_count < res.bmap.total_patches
        return
    # The streamed calls hold the probabilities of one call over all tiles.
    step = _BLOCK_PIXELS // (n * n)
    starts = range(0, len(hfms), step)
    assert len(calls) == len(starts)
    streamed = [calls[np.stack(hfms[s : s + step]).tobytes()] for s in starts]
    assert np.concatenate(streamed).tobytes() == probs.tobytes()


def test_network_scores_what_it_was_trained_on(tmp_path, monkeypatch):
    # A mixed scene (ramp over noise), where the solver does work, cut into
    # 36 tiles at N = 64: two forward blocks, the second short.
    n = 64
    bundle = make_dataset(10, seed=5, patch_size=n, image_size=384, out_dir=tmp_path)
    train_rows = [r for r in bundle.manifest if r.split == "train"]
    name = next(r.image_path for r in train_rows if "mixed_scene" in r.image_path)
    samples = [s for s, r in zip(bundle.train, train_rows) if r.image_path == name]
    calls = {}  # the low-frequency maps of each forward_batch call, by its Sobel maps

    def recording(params, h_batch, l_batch):
        calls[np.asarray(h_batch).tobytes()] = [m.values.tobytes() for m in l_batch]
        return forward_batch(params, h_batch, l_batch)

    monkeypatch.setattr("bandgauge.pipeline.forward_batch", recording)
    img = load_image(tmp_path / name)
    score_image(img, RunConfig(patch_size=n, threads=2), init_params(n, (2, 3, 4), 8, seed=1))
    step = _BLOCK_PIXELS // (n * n)
    starts = range(0, len(samples), step)
    assert len(samples) == len(tile(img, n)) == 36 and len(calls) == len(starts) == 2
    for s in starts:
        run = samples[s : s + step]
        lfms = calls[np.stack([t.hfm for t in run]).tobytes()]
        assert lfms == [t.lfm.values.tobytes() for t in run]


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([8, 13, 16, 40, 100]),
    st.integers(1, 9),
    st.integers(1, 3),
    st.integers(0, 99),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, 3]),
)
def test_streamed_baseline_score_is_the_per_tile_score(n, cols, rows, extra, seed, nch):
    w, h = cols * n + extra % n, rows * n + (extra // 7) % n
    img = mixed_frame(seed, w, h, n, nch)
    assert_same_as_per_tile(img, RunConfig(patch_size=n))


def square_symmetry(arr, quarter_turns, transpose):
    """One of the 8 symmetries of the square, on the first two axes."""
    return np.rot90(np.swapaxes(arr, 0, 1) if transpose else arr, quarter_turns, axes=(0, 1))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(8, 39),
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, 3]),
)
def test_baseline_verdicts_follow_the_symmetries_of_the_square(n, cols, rows, seed, nch):
    # The grid tiles the frame exactly, so each symmetry maps tiles onto
    # tiles, and the rule's verdict on a tile must move with it.  Only the
    # verdicts are compared bit for bit: epsilon and q are sums whose order
    # the symmetry changes.
    img = mixed_frame(seed, cols * n, rows * n, n, nch)
    config = RunConfig(patch_size=n)
    res = score_image(img, config)
    prob = res.bmap.prob.reshape(rows, cols)
    arr = img.to_array()
    for turns, transpose in itertools.product(range(4), (False, True)):
        if (turns, transpose) == (0, False):
            continue
        moved = square_symmetry(arr, turns, transpose)
        out = score_image(PlanarImage.from_array(moved), config)
        got = out.bmap.prob.reshape(moved.shape[0] // n, moved.shape[1] // n)
        want = np.ascontiguousarray(square_symmetry(prob, turns, transpose))
        assert got.tobytes() == want.tobytes(), (turns, transpose)
        assert out.banded_patch_count == res.banded_patch_count


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["linear_ramp", "radial_ramp", "sky_gradient", "mixed_scene"]),
    st.sampled_from([32, 64, 128]),
    st.integers(0, 2**32 - 1),
)
def test_baseline_q_does_not_fall_as_the_depth_falls(kind, n, seed):
    # From 6 bits, where datagen's ground truth starts to call tiles banded,
    # down to 3.  From 8 to 7 bits q does fall on some ramps and mixed
    # scenes; that step is an observation, not part of the property.
    base = gen_base(SynthSpec(kind, size=256, bit_depth=8, seed=seed))
    config = RunConfig(patch_size=n)
    q = [score_image(quantize_bitdepth(base, d), config).score.q for d in (6, 5, 4, 3)]
    assert q == sorted(q), (kind, n, seed, q)


def rgb_1080p(content):
    rng = np.random.default_rng(3)
    if content == "noise":
        arr = rng.integers(0, 256, (1080, 1920, 3), dtype=np.uint8)
    else:
        ramp = np.add.outer(np.arange(1080) * 0.3, np.arange(1920) * 0.7)
        ramp = np.floor(ramp / ramp.max() * 15 + 0.5) * 17 + rng.integers(-1, 2, ramp.shape)
        arr = np.clip(np.stack([ramp] * 3, axis=-1), 0, 255).astype(np.uint8)
    return PlanarImage.from_array(arr)


def traced_peak(fn):
    """(fn(), the tracemalloc peak in bytes while it ran)."""
    tracemalloc.start()
    try:
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


@pytest.mark.parametrize("content", ["noise", "banded"])
def test_score_image_memory_on_a_1080p_rgb_frame(content):
    # The float32 luma is 7.9 MiB.  A frame whose every tile is banded also
    # keeps those tiles' gradient maps (13.5 MiB at N = 235) to pool from;
    # the 15.8 MiB full-frame map is not built, and blocks must not add more.
    img = rgb_1080p(content)
    res, peak = traced_peak(lambda: score_image(img, RunConfig()))
    assert res.banded_patch_count == (0 if content == "noise" else res.bmap.total_patches)
    assert peak < {"noise": 12 << 20, "banded": 25 << 20}[content]


def test_kept_tiles_do_not_hold_their_runs():
    # At N = 64 a baseline run holds 16 tiles of 32 KiB each.  With one
    # banded tile per run, the result must hold 30 tiles of 32 KiB plus the
    # per-patch bookkeeping, not 30 whole runs (15 MiB) nor a full frame.
    n = 64
    arr = np.random.default_rng(0).integers(0, 256, (1080, 1920)).astype(np.uint8)
    steps = (np.arange(n) // 16 * 8 + 100).astype(np.uint8)  # four 8-level steps
    cols = 1920 // n
    for k in range(0, 480, BLOCK_PIXELS // n**2):
        r, c = divmod(k, cols)
        arr[r * n : (r + 1) * n, c * n : (c + 1) * n] = steps
    img = PlanarImage.from_array(arr)
    tracemalloc.start()
    try:
        res = score_image(img, RunConfig(patch_size=n))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.flatnonzero(res.bmap.banded).tolist() == list(range(0, 480, 16))
    assert held < 30 * (32 << 10) + (512 << 10)


def test_model_score_memory_on_a_1080p_rgb_frame():
    # Every tile is banded, so 13.5 MiB of gradient maps are kept as on the
    # baseline path.  On top, two workers each run one forward block of two
    # tiles (Sobel, about 6.6 MiB of solver scratch per tile, the CNN) and at
    # most four blocks are in flight.  Scoring every tile before classifying
    # any, as one forward_batch call over the grid needs, peaked at 62.5 MiB.
    img = rgb_1080p("banded")
    model = init_params(235, seed=1)
    res, peak = traced_peak(lambda: score_image(img, RunConfig(threads=2), model))
    assert res.banded_patch_count == res.bmap.total_patches
    assert peak < 40 << 20


def test_more_workers_than_cores_with_fast_switching():
    # Workers share only read-only inputs; the results must come back in
    # order whatever the interleaving.
    n = 128  # 4 forward blocks of 8 tiles
    img = mixed_frame(5, 8 * n, 4 * n, n)
    model = init_params(n, (2, 3, 4), 8, seed=3)
    serial = score_image(img, RunConfig(patch_size=n, threads=1), model)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = score_image(img, RunConfig(patch_size=n, threads=8), model)
    finally:
        sys.setswitchinterval(interval)
    assert pooled.bmap.prob.tobytes() == serial.bmap.prob.tobytes()
    assert pooled.bmap.weight.tobytes() == serial.bmap.weight.tobytes()
    assert pooled.bmap.values.tobytes() == serial.bmap.values.tobytes()


def test_a_failing_tile_stops_the_pool(tmp_path, monkeypatch, capsys):
    n = 128  # forward blocks of 8 tiles; 32 tiles in 4 blocks
    img = mixed_frame(11, 8 * n, 4 * n, n)
    tiles_seen = itertools.count(1)

    def failing(t, cfg):
        if next(tiles_seen) == 5:
            raise FloatingPointError("overflow in tile 5")
        return pws_lfm(t, cfg)

    monkeypatch.setattr("bandgauge.pipeline.pws_lfm", failing)
    model = init_params(n, (2, 3, 4), 8, seed=7)
    before = threading.active_count()
    with pytest.raises(FloatingPointError):
        score_image(img, RunConfig(patch_size=n, threads=2), model)
    assert threading.active_count() == before

    save_params(model, tmp_path / "m.bgw")
    save_image(img, tmp_path / "f.png")
    tiles_seen = itertools.count(1)
    argv = ["score", str(tmp_path / "f.png"), "--model", str(tmp_path / "m.bgw"), "--threads", "2"]
    assert main(argv + ["--out", str(tmp_path / "s.csv")]) == 2
    assert "numerical failure" in capsys.readouterr().err
    assert threading.active_count() == before


def test_import_leaves_the_thread_pool_unloaded():
    # concurrent.futures costs a few ms of start-up; only the model path uses it.
    code = "import sys, bandgauge; print('concurrent.futures' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.stdout.strip() == "False", out.stderr
