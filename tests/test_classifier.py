"""Dual-branch classifier: forward, gradients, training, serialization."""

import gc
import math
import struct
import sys
import tracemalloc
import zlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bandgauge.classifier import (
    _BLOCK_PIXELS,
    BaselineConfig,
    PatchSample,
    TrainConfig,
    TrainingDivergedError,
    WeightChecksumError,
    WeightFormatError,
    WeightVersionError,
    _conv_forward,
    _conv_input_grad,
    _conv_param_grads,
    _rebuild,
    bce_loss,
    forward_batch,
    init_params,
    load_params,
    loss_and_grads,
    save_params,
    train,
)
from bandgauge.freq import LowFreqMap, PwsConfig, sobel_hfm
from bandgauge.cli import main
from bandgauge.imgcore import Label, PlanarImage, save_image
from bandgauge.pipeline import RunConfig, score_image
from bandgauge.sfmask import spatial_frequency
from conftest import quantized_ramp_patch, train_val


def tiny_params(patch=8, widths=(2, 3, 4), fc=8, seed=0, dtype=np.float64):
    return init_params(patch, widths, fc, seed=seed, dtype=dtype)


def zeroed(params):
    return _rebuild(params, [np.zeros_like(t) for t in params.tensors()])


def forward(params, hfm, lfm):
    """Probability for one (hfm, lfm) pair."""
    return float(forward_batch(params, [hfm], [lfm])[0])


def make_sample(hfm_arr, lfm_arr, banded):
    return PatchSample(
        np.abs(hfm_arr),
        LowFreqMap(lfm_arr),
        Label.BANDED if banded else Label.NON_BANDED,
    )


def toy_separable_set(n, patch=16, seed=0):
    """Banded: vertical stripes in the HFM; non-banded: all zeros."""
    r = np.random.default_rng(seed)
    samples = []
    for i in range(n):
        banded = i % 2 == 0
        if banded:
            hfm = np.zeros((patch, patch))
            hfm[:, :: 4] = 1.0 + 0.1 * r.random((patch, patch))[:, ::4]
            lfm = np.tile(np.linspace(0.0, 1.0, patch), (patch, 1))
        else:
            hfm = np.zeros((patch, patch))
            lfm = np.full((patch, patch), 0.5)
        samples.append(make_sample(hfm, lfm, banded))
    return samples


# --- forward -------------------------------------------------------------------


def test_zero_weights_give_half():
    params = zeroed(tiny_params())
    x = np.random.default_rng(0).random((8, 8))
    assert forward(params, x, x) == 0.5


def test_head_bias_dominates():
    params = zeroed(tiny_params())
    tensors = [np.zeros_like(t) for t in params.tensors()]
    tensors[-1] = np.array([10.0])  # final bias
    params = _rebuild(params, tensors)
    x = np.zeros((8, 8))
    assert forward(params, x, x) == pytest.approx(1.0 / (1.0 + math.exp(-10.0)), abs=1e-12)


def test_batch_grouping_invariance(rng):
    # Two full forward blocks and a partial one.
    params = tiny_params(patch=256, seed=3)
    block = max(1, _BLOCK_PIXELS // 256**2)
    n = 2 * block + 3
    h = rng.random((n, 256, 256))
    l = rng.random((n, 256, 256))
    batched = forward_batch(params, h, l)
    singles = np.array([forward(params, h[i], l[i]) for i in range(n)])
    assert batched.shape == (n,)
    assert np.abs(batched - singles).max() < 1e-6


def test_inference_forward_is_the_training_forward(rng):
    # forward_batch keeps no backward caches; its logits are the same bits.
    from bandgauge.classifier import _net_forward

    params = tiny_params(patch=32, seed=4)
    h = rng.random((5, 32, 32)).astype(np.float32)
    l = rng.random((5, 32, 32)).astype(np.float32)
    kept, (_, _, _, cache_h, cache_l) = _net_forward(params, h, l)
    lean, (_, _, _, no_h, no_l) = _net_forward(params, h, l, keep_caches=False)
    assert len(cache_h) == len(cache_l) == len(params.widths) and no_h == no_l == []
    assert kept.tobytes() == lean.tobytes()


def test_batch_length_mismatch_rejected():
    params = tiny_params()
    with pytest.raises(ValueError, match="3 high-frequency maps but 2 low-frequency"):
        forward_batch(params, np.zeros((3, 8, 8)), np.zeros((2, 8, 8)))


def test_input_shape_validated():
    params = tiny_params()
    with pytest.raises(ValueError):
        forward(params, np.zeros((9, 9)), np.zeros((9, 9)))


def test_nonfinite_input_rejected():
    params = tiny_params()
    bad = np.zeros((8, 8))
    bad[0, 0] = np.inf
    with pytest.raises(ValueError):
        forward(params, bad, np.zeros((8, 8)))


def test_branches_are_independent(rng):
    params = tiny_params(seed=7)
    h = rng.random((8, 8))
    l = rng.random((8, 8)) * 0.1  # asymmetric inputs
    base = forward(params, h, l)

    # Permute one kernel of branch_h: output must move.
    tensors = [t.copy() for t in params.tensors()]
    tensors[0] = tensors[0][::-1].copy()
    assert forward(_rebuild(params, tensors), h, l) != pytest.approx(base, abs=1e-12)

    # Swap the branches: output must move on asymmetric inputs.
    n = 2 * len(params.widths)
    swapped = params.tensors()
    swapped = swapped[n : 2 * n] + swapped[:n] + swapped[2 * n :]
    assert forward(_rebuild(params, swapped), h, l) != pytest.approx(base, abs=1e-12)


# --- convolution kernel ------------------------------------------------------------


def oracle_conv_forward(x, w, b):
    """Reference 3x3 / stride-2 / pad-1 convolution: padded input, columns
    laid out (B, Ho*Wo, C*9)."""
    bsz, c, h, wi = x.shape
    f = w.shape[0]
    ho = (h + 2 - 3) // 2 + 1
    wo = (wi + 2 - 3) // 2 + 1
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    cols6 = np.empty((bsz, c, 3, 3, ho, wo), dtype=x.dtype)
    for ky in range(3):
        for kx in range(3):
            cols6[:, :, ky, kx] = xp[
                :, :, ky : ky + 2 * ho - 1 : 2, kx : kx + 2 * wo - 1 : 2
            ]
    cols = cols6.transpose(0, 4, 5, 1, 2, 3).reshape(bsz, ho * wo, c * 9)
    wmat = w.reshape(f, c * 9).T
    out = cols @ wmat + b
    return out.transpose(0, 2, 1).reshape(bsz, f, ho, wo), (cols, x.shape)


def oracle_conv_backward(dout, w, cache):
    cols, x_shape = cache
    bsz, c, h, wi = x_shape
    f = w.shape[0]
    ho, wo = dout.shape[2], dout.shape[3]
    dmat = dout.reshape(bsz, f, ho * wo).transpose(0, 2, 1)
    db = dmat.sum(axis=(0, 1))
    dwmat = np.einsum("bpc,bpf->cf", cols, dmat)
    dw = dwmat.T.reshape(f, c, 3, 3)
    dcols = dmat @ w.reshape(f, c * 9)
    d6 = dcols.reshape(bsz, ho, wo, c, 3, 3).transpose(0, 3, 4, 5, 1, 2)
    dxp = np.zeros((bsz, c, h + 2, wi + 2), dtype=dout.dtype)
    for ky in range(3):
        for kx in range(3):
            dxp[:, :, ky : ky + 2 * ho - 1 : 2, kx : kx + 2 * wo - 1 : 2] += d6[
                :, :, ky, kx
            ]
    return dxp[:, :, 1:-1, 1:-1], dw, db


@st.composite
def _conv_cases(draw):
    dims = tuple(draw(st.integers(1, 3)) for _ in range(3))  # B, C, F
    side = st.integers(1, 19)
    return dims, (draw(side), draw(side)), draw(st.sampled_from(["float32", "float64"]))


@given(_conv_cases(), st.integers(0, 2**32 - 1))
@example(((1, 1, 1), (1, 1), "float32"), 0)
@example(((2, 1, 3), (2, 3), "float32"), 1)
@example(((1, 2, 2), (3, 2), "float64"), 2)
@example(((3, 3, 2), (19, 18), "float32"), 3)  # odd x even
@example(((2, 3, 3), (18, 19), "float64"), 4)
@settings(max_examples=150, deadline=None)
def test_conv_matches_oracle(case, seed):
    # float32 draws small integers, so every sum is exact whatever its order
    # and the kernel must reproduce the oracle bit for bit; float64 draws
    # reals and allows for summation order.
    (bsz, c, f), (h, w), dtype = case
    r = np.random.default_rng(seed)

    def draw(shape):
        if dtype == "float32":
            return r.integers(-4, 5, shape).astype(dtype)
        return r.standard_normal(shape)

    x, wt, b = draw((bsz, c, h, w)), draw((f, c, 3, 3)), draw(f)
    want, want_cache = oracle_conv_forward(x, wt, b)
    got, cache = _conv_forward(x, wt, b)
    dout = draw(want.shape)
    pairs = [(got, want)]
    grads = (_conv_input_grad(dout, wt, cache), *_conv_param_grads(dout, cache))
    pairs += zip(grads, oracle_conv_backward(dout, wt, want_cache))
    for g, e in pairs:
        assert g.shape == e.shape and g.dtype == np.dtype(dtype)
        if dtype == "float32":
            assert np.array_equal(g, e)
        else:
            assert np.abs(g - e).max() <= 1e-12 * max(np.abs(e).max(), 1e-300)


# --- gradients -------------------------------------------------------------------


def numeric_grad(params, tensors, i, h, l, y, step=1e-4):
    t = tensors[i]
    grad = np.zeros_like(t)
    flat = t.reshape(-1)
    gflat = grad.reshape(-1)
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + step
        up = bce_loss(_rebuild(params, tensors), h, l, y)
        flat[j] = orig - step
        down = bce_loss(_rebuild(params, tensors), h, l, y)
        flat[j] = orig
        gflat[j] = (up - down) / (2.0 * step)
    return grad


def min_preactivation_gap(params, h, l):
    """Smallest |z| at any rectifier input; the loss has kinks at z = 0 and
    central differences are only valid away from them."""
    from bandgauge.classifier import _net_forward

    _, (feat, h1, r, _, _) = _net_forward(params, h, l)
    gaps = [np.abs(h1).min()]
    for bp, x in ((params.branch_h, h), (params.branch_l, l)):
        a = x[:, None]
        for w, b in zip(bp.conv_w, bp.conv_b):
            z, _ = _conv_forward(a, w, b)
            gaps.append(np.abs(z).min())
            a = np.maximum(z, 0.0)
    return min(gaps)


def kink_free_case(seed, patch=8, widths=(2, 3), fc=6, n=4):
    """Net + batch whose rectifier inputs stay clear of zero (else resample)."""
    while True:
        r = np.random.default_rng(seed)
        params = init_params(patch, widths, fc, seed=seed, dtype=np.float64)
        h = r.random((n, patch, patch))
        l = r.random((n, patch, patch))
        y = (np.arange(n) % 2).astype(np.float64)
        if min_preactivation_gap(params, h, l) > 1e-3:
            return params, h, l, y
        seed += 1000


def test_gradient_check_small_net():
    params, h, l, y = kink_free_case(seed=11)
    _, grads = loss_and_grads(params, h, l, y)
    tensors = [t.copy() for t in params.tensors()]
    for i in range(len(tensors)):
        num = numeric_grad(params, tensors, i, h, l, y)
        denom = max(np.abs(num).max(), np.abs(grads[i]).max(), 1e-8)
        rel = np.abs(grads[i] - num).max() / denom
        assert rel < 1e-3, f"tensor {i}: rel err {rel}"


def test_initial_bce_near_ln2(rng):
    for seed in range(5):
        params = tiny_params(patch=8, seed=seed, dtype=np.float64)
        h = rng.random((16, 8, 8))
        l = rng.random((16, 8, 8))
        y = np.array([0.0, 1.0] * 8)
        assert bce_loss(params, h, l, y) == pytest.approx(math.log(2.0), abs=0.1)


# --- training --------------------------------------------------------------------


def test_single_class_rejected():
    samples = toy_separable_set(10)[0::2]  # all banded
    with pytest.raises(ValueError):
        train(samples, TrainConfig(epochs=1, patch_size=16), val_samples=samples)


def test_toy_set_reaches_full_train_accuracy():
    samples = toy_separable_set(200, patch=16, seed=5)
    cfg = TrainConfig(
        learning_rate=3e-3,
        batch_size=32,
        epochs=8,
        seed=1,
        patch_size=16,
        widths=(4, 6, 8),
        fc_width=16,
    )
    tr, va = train_val(samples, cfg.seed)
    params, history = train(tr, cfg, val_samples=va)
    h = np.stack([s.hfm for s in samples])
    l = np.stack([s.lfm.values for s in samples])
    y = np.array([s.label.is_banded for s in samples])
    p = forward_batch(params, h, l)
    assert ((p > 0.5) == y).mean() == 1.0
    assert history[-1].val_acc == 1.0


def test_monotone_learnability_first_epochs():
    samples = toy_separable_set(160, patch=16, seed=9)
    cfg = TrainConfig(
        learning_rate=1e-3,
        batch_size=16,
        epochs=3,
        seed=4,
        patch_size=16,
        widths=(4, 6, 8),
        fc_width=16,
    )
    tr, va = train_val(samples, cfg.seed)
    _, history = train(tr, cfg, val_samples=va)
    accs = [h.val_acc for h in history]
    assert accs == sorted(accs)


def test_no_signal_stays_at_class_prior():
    # Zero inputs carry no information: the net predicts one class for all.
    samples = []
    for i in range(100):
        banded = i < 30
        z = np.zeros((8, 8))
        samples.append(make_sample(z, z, banded))
    cfg = TrainConfig(
        learning_rate=1e-3,
        batch_size=16,
        epochs=1,
        seed=0,
        patch_size=8,
        widths=(2, 3, 4),
        fc_width=8,
    )
    tr, va = train_val(samples, cfg.seed)
    params, history = train(tr, cfg, val_samples=va)
    val_banded = np.array([s.label.is_banded for s in va])
    prior = max(val_banded.mean(), 1.0 - val_banded.mean())
    assert history[-1].val_acc == pytest.approx(prior)


def test_seed_reproducibility(tmp_path):
    samples = toy_separable_set(60, patch=8, seed=2)
    cfg = TrainConfig(
        learning_rate=1e-3,
        batch_size=8,
        epochs=2,
        seed=7,
        patch_size=8,
        widths=(2, 3, 4),
        fc_width=8,
    )
    tr, va = train_val(samples, cfg.seed)
    p1, _ = train(tr, cfg, val_samples=va)
    p2, _ = train(tr, cfg, val_samples=va)
    f1, f2 = tmp_path / "a.bgw", tmp_path / "b.bgw"
    save_params(p1, f1)
    save_params(p2, f2)
    assert f1.read_bytes() == f2.read_bytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_detected():
    samples = toy_separable_set(40, patch=8, seed=2)
    cfg = TrainConfig(
        learning_rate=1e300,
        batch_size=8,
        epochs=3,
        seed=0,
        patch_size=8,
        widths=(2, 3, 4),
        fc_width=8,
    )
    tr, va = train_val(samples, cfg.seed)
    with pytest.raises(TrainingDivergedError):
        train(tr, cfg, val_samples=va)


def test_one_workspace_gives_the_fresh_array_bits(rng):
    # Batches of 32, 16 and 32 through one workspace: the short batch reads
    # views of the 32-row buffers.  If one buffer served two roles in a
    # step, or a result aliased the workspace, a later step would change it.
    params = init_params(32, (4, 6, 8), 16, seed=1)
    batches = []
    for size in (32, 16, 32):
        h, l = rng.random((2, size, 32, 32)).astype(np.float32)
        batches.append((h, l, (np.arange(size) % 2).astype(np.float64)))
    ws = {}
    reused = [loss_and_grads(params, *batch, ws) for batch in batches]
    assert ws
    for (loss, grads), batch in zip(reused, batches):
        want_loss, want = loss_and_grads(params, *batch)
        assert loss.hex() == want_loss.hex()
        assert [g.tobytes() for g in grads] == [g.tobytes() for g in want]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_diverged_train_leaves_nothing_behind():
    # Batches of 16 tiles of 64 x 64: the workspace takes several MiB,
    # against 1.5 MiB for the whole training set.
    samples = toy_separable_set(40, patch=64, seed=2)
    cfg = TrainConfig(learning_rate=1e300, batch_size=16, epochs=3, seed=0, patch_size=64)
    tr, va = train_val(samples, cfg.seed)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with pytest.raises(TrainingDivergedError) as caught:
            train(tr, cfg, val_samples=va)
        # The traceback keeps train's frame and its locals alive, but not
        # the workspace: that goes on the way out.
        held_by_traceback = tracemalloc.get_traced_memory()[0] - before
        del caught
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held_by_traceback < 3 << 20
    assert held < 64 << 10


def test_two_trains_at_once_give_the_serial_bytes(tmp_path):
    # Each call owns its workspace, so two calls on two threads, switching
    # often, must not see each other's buffers.
    samples = toy_separable_set(60, patch=16, seed=2)
    runs = []
    for seed in (3, 4):
        cfg = TrainConfig(learning_rate=1e-3, batch_size=8, epochs=3, seed=seed,
                          patch_size=16, widths=(2, 3, 4), fc_width=8)
        runs.append((cfg, *train_val(samples, seed)))
    serial = [train(tr, cfg, val_samples=va)[0] for cfg, tr, va in runs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(2) as pool:
            futures = [pool.submit(train, tr, cfg, val_samples=va) for cfg, tr, va in runs]
            pooled = [f.result()[0] for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for i, (a, b) in enumerate(zip(serial, pooled)):
        save_params(a, tmp_path / f"serial{i}.bgw")
        save_params(b, tmp_path / f"pooled{i}.bgw")
        assert (tmp_path / f"serial{i}.bgw").read_bytes() == (tmp_path / f"pooled{i}.bgw").read_bytes()


def test_report_written(tmp_path):
    samples = toy_separable_set(40, patch=8, seed=2)
    cfg = TrainConfig(
        learning_rate=1e-3, batch_size=8, epochs=2, seed=0,
        patch_size=8, widths=(2, 3, 4), fc_width=8,
    )
    report = tmp_path / "curve.csv"
    tr, va = train_val(samples, cfg.seed)
    train(tr, cfg, val_samples=va, report_path=report)
    lines = report.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss,val_acc"
    assert len(lines) == 3


# --- classification through score_image -------------------------------------------


def one_tile_prob(patch, model=None):
    """The probability score_image gives a single-tile image of `patch`."""
    config = RunConfig(patch_size=patch.shape[0], pws=PwsConfig(max_iters=5))
    res = score_image(PlanarImage.from_array(patch), config, model)
    assert res.bmap.total_patches == 1
    return res.bmap.prob[0]


def test_tie_is_non_banded():
    assert one_tile_prob(np.full((8, 8), 0.5), zeroed(tiny_params(patch=8))) == 0.5


def test_trained_model_separates_ramp_from_noise():
    r = np.random.default_rng(0)
    samples = []
    for i in range(120):
        if i % 2 == 0:
            patch = quantized_ramp_patch(16, levels=4)
            patch = np.clip(patch + r.normal(0, 0.002, patch.shape), 0, 1)
            banded = True
        else:
            patch = r.random((16, 16))
            banded = False
        hfm = sobel_hfm(patch)
        lfm = LowFreqMap(patch)  # identity stand-in keeps this test fast
        samples.append(PatchSample(hfm, lfm, Label.BANDED if banded else Label.NON_BANDED))
    cfg = TrainConfig(
        learning_rate=3e-3, batch_size=16, epochs=6, seed=3,
        patch_size=16, widths=(4, 6, 8), fc_width=16,
    )
    tr, va = train_val(samples, cfg.seed)
    params, _ = train(tr, cfg, val_samples=va)

    ramp = quantized_ramp_patch(16, levels=4)
    noise = np.random.default_rng(99).random((16, 16))
    p_ramp = forward(params, sobel_hfm(ramp), ramp)
    p_noise = forward(params, sobel_hfm(noise), noise)
    assert p_ramp > 0.5
    assert p_noise <= 0.5


# --- baseline ---------------------------------------------------------------------


def test_baseline_constant_patch():
    assert one_tile_prob(np.full((16, 16), 0.5)) == 0.0


def test_baseline_noise_patch(rng):
    patch = rng.random((32, 32))
    cfg = BaselineConfig()
    _, _, sf = spatial_frequency(patch)
    assert sf >= cfg.sf_ceiling  # the rule's reason: too active
    assert not cfg.banded(float(sobel_hfm(patch).mean()), sf)
    assert one_tile_prob(patch) == 0.0


def test_baseline_quantized_ramp():
    patch = quantized_ramp_patch(64, levels=4)
    cfg = BaselineConfig()
    mean_grad = float(sobel_hfm(patch).mean())
    _, _, sf = spatial_frequency(patch)
    assert mean_grad > cfg.grad_floor and sf < cfg.sf_ceiling
    assert cfg.banded(mean_grad, sf)
    assert one_tile_prob(patch) == 1.0


def test_baseline_small_patch_rejected():
    # The rule never sees a patch smaller than 8x8: the config refuses one.
    with pytest.raises(ValueError):
        RunConfig(patch_size=4)


# --- weight container ---------------------------------------------------------------


def test_save_load_roundtrip(tmp_path):
    params = init_params(16, (4, 6, 8), 16, seed=5)
    path = tmp_path / "w.bgw"
    save_params(params, path)
    back = load_params(path)
    assert back.patch_size == params.patch_size
    assert back.widths == params.widths
    assert back.fc_width == params.fc_width
    assert back.seed == params.seed
    for a, b in zip(params.tensors(), back.tensors()):
        assert a.shape == b.shape
        assert (a == b).all()


def test_truncated_file_checksum_error(tmp_path):
    params = init_params(8, (2, 3, 4), 8, seed=0)
    path = tmp_path / "w.bgw"
    save_params(params, path)
    path.write_bytes(path.read_bytes()[:-9])
    with pytest.raises(WeightChecksumError):
        load_params(path)


def test_flipped_version_byte(tmp_path):
    params = init_params(8, (2, 3, 4), 8, seed=0)
    path = tmp_path / "w.bgw"
    save_params(params, path)
    blob = bytearray(path.read_bytes())
    blob[4] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(WeightVersionError):
        load_params(path)


def test_corrupt_payload_detected(tmp_path):
    params = init_params(8, (2, 3, 4), 8, seed=0)
    path = tmp_path / "w.bgw"
    save_params(params, path)
    blob = bytearray(path.read_bytes())
    blob[60] ^= 0x5A
    path.write_bytes(bytes(blob))
    with pytest.raises(WeightChecksumError):
        load_params(path)


def test_not_a_container(tmp_path):
    path = tmp_path / "nope.bgw"
    path.write_bytes(b"whatever bytes these are")
    with pytest.raises(WeightFormatError):
        load_params(path)


# Headers that disagree with themselves, each in a container with a valid CRC.
CRAFTED_HEADERS = {
    # patch size 16, fc width 8, no conv widths; seed, epochs, no tensors
    "zero-widths": struct.pack("<IIB", 16, 8, 0) + struct.pack("<qII", 0, 0, 0),
    # three conv widths declared, one present, and nothing after it
    "short-header": struct.pack("<IIBI", 16, 8, 3, 4),
    # one conv width; one tensor declared, but no shape table follows
    "missing-tensor": struct.pack("<IIBI", 16, 8, 1, 2) + struct.pack("<qII", 0, 0, 1),
}


@pytest.mark.parametrize("case", sorted(CRAFTED_HEADERS))
def test_crafted_header_is_a_format_error(tmp_path, capsys, case):
    path = tmp_path / "w.bgw"
    body = b"BGWT\x01" + CRAFTED_HEADERS[case]
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    with pytest.raises(WeightFormatError):
        load_params(path)
    image = tmp_path / "one.pgm"
    save_image(PlanarImage.from_array(np.zeros((16, 16), dtype=np.uint8)), image)
    argv = ["score", str(image), "--model", str(path), "--out", str(tmp_path / "s.csv")]
    assert main(argv) == 1
    assert "input error" in capsys.readouterr().err
