"""Patch-level banded / non-banded classification.

Two parallel convolutional branches digest a patch's high-frequency map and
low-frequency map; the branches share a shape but never share parameters.
Each branch contributes hierarchical features: the global average of its
first convolution layer and of its last layer.  The concatenated features
from both branches run through a two-layer fully-connected head ending in a
single sigmoid probability, trained with binary cross entropy and Adam.

A handcrafted, training-free baseline is included as a fallback: a patch is
called banded when it shows clear gradient activity while remaining a
low-activity (smooth) region overall.

All numerics are plain numpy.  Default network width is deliberately small
enough to train on a laptop CPU in minutes.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, replace

import numpy as np

from .checks import check
from .freq import HighFreqMap, LowFreqMap, PwsConfig, pws_lfm, sobel_hfm
from .imgcore import Label, PatchLabel, PlanarImage, to_luma
from .sfmask import spatial_frequency


class WeightFormatError(ValueError):
    """Weight container cannot be decoded."""


class WeightChecksumError(WeightFormatError):
    pass


class WeightVersionError(WeightFormatError):
    pass


class WeightShapeError(WeightFormatError):
    pass


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite during training."""


@dataclass(frozen=True)
class BranchParams:
    """Convolution stack of one branch: 3x3 kernels, stride 2."""

    conv_w: tuple  # each (out_ch, in_ch, 3, 3)
    conv_b: tuple  # each (out_ch,)


@dataclass(frozen=True)
class DualNetParams:
    """Weights and architecture metadata of the dual-branch network."""

    patch_size: int
    widths: tuple
    fc_width: int
    branch_h: BranchParams
    branch_l: BranchParams
    head_w1: np.ndarray
    head_b1: np.ndarray
    head_w2: np.ndarray
    head_b2: np.ndarray
    seed: int = 0
    epochs_trained: int = 0

    def __post_init__(self):
        shapes_h = [w.shape for w in self.branch_h.conv_w]
        shapes_l = [w.shape for w in self.branch_l.conv_w]
        if shapes_h != shapes_l:
            raise ValueError("branches must share one shape (not values)")
        if tuple(s[0] for s in shapes_h) != tuple(self.widths):
            raise ValueError("conv widths disagree with metadata")
        feat_dim = 2 * (self.widths[0] + self.widths[-1])
        if self.head_w1.shape != (feat_dim, self.fc_width):
            raise ValueError(
                f"head expects {feat_dim}-wide features, got {self.head_w1.shape}"
            )
        if self.head_w2.shape != (self.fc_width, 1):
            raise ValueError("final layer must output a single logit")

    @property
    def feature_dim(self) -> int:
        return 2 * (self.widths[0] + self.widths[-1])

    def tensors(self) -> list:
        """All weight arrays in canonical (serialization) order."""
        out = []
        for br in (self.branch_h, self.branch_l):
            for w, b in zip(br.conv_w, br.conv_b):
                out.extend([w, b])
        out.extend([self.head_w1, self.head_b1, self.head_w2, self.head_b2])
        return out


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    batch_size: int = 32
    epochs: int = 25
    seed: int = 0
    split: tuple = (0.8, 0.1, 0.1)
    patch_size: int = 64
    widths: tuple = (8, 16, 32)
    fc_width: int = 128

    def __post_init__(self):
        check("learning_rate", self.learning_rate, gt=0)
        for name in ("batch_size", "epochs", "fc_width"):
            check(name, getattr(self, name), int, ge=1)
        check("seed", self.seed, int, ge=0)
        check("patch_size", self.patch_size, int, ge=8)
        for width in self.widths:
            check("widths", width, int, ge=1)
        for frac in self.split:
            check("split", frac, ge=0)
        if abs(sum(self.split) - 1.0) > 1e-9:
            raise ValueError("split fractions must sum to 1")


@dataclass(frozen=True)
class PatchSample:
    hfm: HighFreqMap
    lfm: LowFreqMap
    label: PatchLabel

    def __post_init__(self):
        if self.hfm.values.shape != self.lfm.values.shape:
            raise ValueError("frequency maps must share one shape")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    val_acc: float


@dataclass(frozen=True)
class BaselineConfig:
    """Thresholds for the handcrafted rule.

    grad_floor is the minimum mean gradient magnitude (evidence of contours);
    a single step of ~1.3 gray levels somewhere in the patch clears it.
    sf_ceiling caps the patch spatial frequency (smooth-region requirement),
    standing in for a fraction of the grid-level activity threshold; noise
    textures sit far above it.
    """

    grad_floor: float = 0.005
    sf_ceiling: float = 0.1

    def __post_init__(self):
        check("grad_floor", self.grad_floor, ge=0)
        check("sf_ceiling", self.sf_ceiling, ge=0)

    def banded(self, mean_grad, sf):
        """The rule, on scalars or per-patch arrays: contours present
        (mean gradient magnitude above the floor), overall activity low
        (spatial frequency below the ceiling)."""
        return (mean_grad > self.grad_floor) & (sf < self.sf_ceiling)


def init_params(
    patch_size: int,
    widths: tuple = (8, 16, 32),
    fc_width: int = 128,
    seed: int = 0,
    dtype=np.float32,
) -> DualNetParams:
    """Glorot-uniform initialization; the two branches draw independently."""
    rng = np.random.default_rng(seed)

    def glorot(shape, fan_in, fan_out):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=shape).astype(dtype)

    def branch():
        ws, bs = [], []
        in_ch = 1
        for out_ch in widths:
            ws.append(glorot((out_ch, in_ch, 3, 3), in_ch * 9, out_ch * 9))
            bs.append(np.zeros(out_ch, dtype=dtype))
            in_ch = out_ch
        return BranchParams(tuple(ws), tuple(bs))

    feat_dim = 2 * (widths[0] + widths[-1])
    return DualNetParams(
        patch_size=patch_size,
        widths=tuple(widths),
        fc_width=fc_width,
        branch_h=branch(),
        branch_l=branch(),
        head_w1=glorot((feat_dim, fc_width), feat_dim, fc_width),
        head_b1=np.zeros(fc_width, dtype=dtype),
        head_w2=glorot((fc_width, 1), fc_width, 1),
        head_b2=np.zeros(1, dtype=dtype),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Forward / backward


def _conv_forward(x, w, b):
    """3x3 convolution, stride 2, pad 1. x: (B, C, H, W) -> (B, F, Ho, Wo)."""
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


def _conv_backward(dout, w, cache):
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


def _branch_forward(bp: BranchParams, x):
    caches = []
    a = x
    act_first = None
    for w, b in zip(bp.conv_w, bp.conv_b):
        z, cache = _conv_forward(a, w, b)
        a = np.maximum(z, 0.0)
        caches.append((cache, z, a))
        if act_first is None:
            act_first = a
    feat = np.concatenate(
        [act_first.mean(axis=(2, 3)), a.mean(axis=(2, 3))], axis=1
    )
    return feat, caches


def _branch_backward(bp: BranchParams, caches, dfeat):
    f1 = bp.conv_w[0].shape[0]
    d_early, d_late = dfeat[:, :f1], dfeat[:, f1:]
    grads_w = [None] * len(bp.conv_w)
    grads_b = [None] * len(bp.conv_w)

    _, z_last, a_last = caches[-1]
    area = a_last.shape[2] * a_last.shape[3]
    da = np.broadcast_to(
        (d_late / area)[:, :, None, None], a_last.shape
    ).astype(a_last.dtype)
    for i in range(len(caches) - 1, -1, -1):
        cache, z, a = caches[i]
        if i == 0:
            area0 = a.shape[2] * a.shape[3]
            da = da + (d_early / area0)[:, :, None, None]
        dz = da * (z > 0)
        da, grads_w[i], grads_b[i] = _conv_backward(dz, bp.conv_w[i], cache)
    return grads_w, grads_b


def _net_forward(params: DualNetParams, h_batch, l_batch):
    xh = h_batch[:, None, :, :]
    xl = l_batch[:, None, :, :]
    fh, cache_h = _branch_forward(params.branch_h, xh)
    fl, cache_l = _branch_forward(params.branch_l, xl)
    feat = np.concatenate([fh, fl], axis=1)
    h1 = feat @ params.head_w1 + params.head_b1
    r = np.maximum(h1, 0.0)
    logit = (r @ params.head_w2 + params.head_b2).ravel()
    return logit, (feat, h1, r, cache_h, cache_l)


def _sigmoid(z):
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def forward_batch(params: DualNetParams, h_batch, l_batch) -> np.ndarray:
    """Probabilities for a batch of (hfm, lfm) map pairs."""
    h_batch = _stack_maps(h_batch, params)
    l_batch = _stack_maps(l_batch, params)
    logit, _ = _net_forward(params, h_batch, l_batch)
    return _sigmoid(logit)


def forward(params: DualNetParams, hfm, lfm) -> float:
    """Banded probability for one patch's frequency-map pair."""
    return float(forward_batch(params, [hfm], [lfm])[0])


def _stack_maps(maps, params: DualNetParams):
    arrs = []
    for m in maps:
        v = m.values if isinstance(m, (HighFreqMap, LowFreqMap)) else np.asarray(m)
        if v.shape != (params.patch_size, params.patch_size):
            raise ValueError(
                f"map shape {v.shape} does not match patch size {params.patch_size}"
            )
        if not np.isfinite(v).all():
            raise ValueError("non-finite values in network input")
        arrs.append(v)
    dtype = params.head_w1.dtype
    return np.stack(arrs).astype(dtype)


def loss_and_grads(params: DualNetParams, h_batch, l_batch, y):
    """Binary cross entropy and gradients for every tensor (canonical order)."""
    y = np.asarray(y, dtype=np.float64)
    logit, (feat, h1, r, cache_h, cache_l) = _net_forward(params, h_batch, l_batch)
    zl = logit.astype(np.float64)
    loss = float(np.mean(np.logaddexp(0.0, zl) - y * zl))
    bsz = len(y)
    dtype = params.head_w1.dtype

    dlogit = ((_sigmoid(zl) - y) / bsz).astype(dtype)[:, None]
    dw2 = r.T @ dlogit
    db2 = dlogit.sum(axis=0)
    dr = dlogit @ params.head_w2.T
    dh1 = dr * (h1 > 0)
    dw1 = feat.T @ dh1
    db1 = dh1.sum(axis=0)
    dfeat = dh1 @ params.head_w1.T

    half = params.feature_dim // 2
    gw_h, gb_h = _branch_backward(params.branch_h, cache_h, dfeat[:, :half])
    gw_l, gb_l = _branch_backward(params.branch_l, cache_l, dfeat[:, half:])

    grads = []
    for gw, gb in ((gw_h, gb_h), (gw_l, gb_l)):
        for w, b in zip(gw, gb):
            grads.extend([w, b])
    grads.extend([dw1, db1, dw2, db2])
    return loss, grads


def bce_loss(params: DualNetParams, h_batch, l_batch, y) -> float:
    h_batch = _stack_maps(h_batch, params)
    l_batch = _stack_maps(l_batch, params)
    y = np.asarray(y, dtype=np.float64)
    logit, _ = _net_forward(params, h_batch, l_batch)
    zl = logit.astype(np.float64)
    return float(np.mean(np.logaddexp(0.0, zl) - y * zl))


# ---------------------------------------------------------------------------
# Training


def _rebuild(params: DualNetParams, tensors: list) -> DualNetParams:
    n_conv = len(params.widths)
    it = iter(tensors)

    def branch():
        ws, bs = [], []
        for _ in range(n_conv):
            ws.append(next(it))
            bs.append(next(it))
        return BranchParams(tuple(ws), tuple(bs))

    bh = branch()
    bl = branch()
    return replace(
        params,
        branch_h=bh,
        branch_l=bl,
        head_w1=next(it),
        head_b1=next(it),
        head_w2=next(it),
        head_b2=next(it),
    )


def train(samples, cfg: TrainConfig, val_samples=None, report_path=None):
    """Train the dual-branch network.

    When val_samples is None the sample list is shuffled by cfg.seed and cut
    by cfg.split into train/val (the test fraction is simply held out).
    Returns (params_of_best_validation_epoch, per_epoch_stats).
    """
    labels = [s.label.is_banded for s in samples]
    if len(set(labels)) < 2:
        raise ValueError("training data must contain both classes")

    if val_samples is None:
        order = np.random.default_rng(cfg.seed).permutation(len(samples))
        n_train = int(round(cfg.split[0] * len(samples)))
        n_val = int(round(cfg.split[1] * len(samples)))
        train_set = [samples[i] for i in order[:n_train]]
        val_set = [samples[i] for i in order[n_train : n_train + n_val]]
    else:
        train_set = list(samples)
        val_set = list(val_samples)
    if not train_set or not val_set:
        raise ValueError("empty train or validation split")

    params = init_params(
        cfg.patch_size, cfg.widths, cfg.fc_width, seed=cfg.seed
    )
    tensors = [t.copy() for t in params.tensors()]
    h_tr, l_tr, y_tr = _dataset_arrays(train_set, params)
    h_va, l_va, y_va = _dataset_arrays(val_set, params)

    adam_m = [np.zeros_like(t) for t in tensors]
    adam_v = [np.zeros_like(t) for t in tensors]
    b1, b2, eps = 0.9, 0.999, 1e-8
    step = 0

    best_acc = -1.0
    best_tensors = [t.copy() for t in tensors]
    best_epoch = 0
    history = []

    for epoch in range(1, cfg.epochs + 1):
        rng = np.random.default_rng([cfg.seed, epoch])
        order = rng.permutation(len(train_set))
        losses = []
        cur = _rebuild(params, tensors)
        for s in range(0, len(order), cfg.batch_size):
            idx = order[s : s + cfg.batch_size]
            loss, grads = loss_and_grads(cur, h_tr[idx], l_tr[idx], y_tr[idx])
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, step {s // cfg.batch_size}"
                )
            step += 1
            for i, g in enumerate(grads):
                adam_m[i] = b1 * adam_m[i] + (1 - b1) * g
                adam_v[i] = b2 * adam_v[i] + (1 - b2) * g * g
                mh = adam_m[i] / (1 - b1**step)
                vh = adam_v[i] / (1 - b2**step)
                tensors[i] = tensors[i] - (
                    cfg.learning_rate * mh / (np.sqrt(vh) + eps)
                ).astype(tensors[i].dtype)
            cur = _rebuild(params, tensors)
            losses.append(loss)
        val_logit, _ = _net_forward(cur, h_va, l_va)
        val_zl = val_logit.astype(np.float64)
        val_p = _sigmoid(val_zl)
        val_loss = float(np.mean(np.logaddexp(0.0, val_zl) - y_va * val_zl))
        val_acc = float(np.mean((val_p > 0.5) == (y_va > 0.5)))
        history.append(EpochStats(epoch, float(np.mean(losses)), val_loss, val_acc))
        if val_acc > best_acc:
            best_acc = val_acc
            best_tensors = [t.copy() for t in tensors]
            best_epoch = epoch

    final = replace(
        _rebuild(params, best_tensors), seed=cfg.seed, epochs_trained=best_epoch
    )
    if report_path is not None:
        _write_report(history, report_path)
    return final, history


def _dataset_arrays(samples, params):
    h = _stack_maps([s.hfm for s in samples], params)
    l = _stack_maps([s.lfm for s in samples], params)
    y = np.array([1.0 if s.label.is_banded else 0.0 for s in samples])
    return h, l, y


def _write_report(history, path):
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write("epoch,train_loss,val_loss,val_acc\n")
        for st in history:
            fh.write(
                f"{st.epoch},{st.train_loss:.8g},{st.val_loss:.8g},{st.val_acc:.8g}\n"
            )


# ---------------------------------------------------------------------------
# Prediction


def predict(params: DualNetParams, patch, pws_cfg: PwsConfig | None = None) -> PatchLabel:
    """Classify one patch: frequency maps are computed here."""
    luma = _patch_luma(patch)
    if luma.shape != (params.patch_size, params.patch_size):
        raise ValueError(
            f"patch shape {luma.shape} does not match model size {params.patch_size}"
        )
    hfm = sobel_hfm(luma)
    lfm = pws_lfm(luma, pws_cfg or PwsConfig())
    p = forward(params, hfm, lfm)
    banded = p > 0.5  # exact tie counts as non-banded
    return PatchLabel(Label.BANDED if banded else Label.NON_BANDED, max(p, 1.0 - p))


def baseline_predict(patch, cfg: BaselineConfig = BaselineConfig()) -> PatchLabel:
    """Training-free rule: contours present, overall activity low."""
    luma = _patch_luma(patch)
    if min(luma.shape) < 8:
        raise ValueError("baseline rule needs patches of at least 8x8")
    mean_grad = float(sobel_hfm(luma).values.mean())
    _, _, sf = spatial_frequency(luma)
    banded = cfg.banded(mean_grad, sf)
    return PatchLabel(Label.BANDED if banded else Label.NON_BANDED, 1.0)


def _patch_luma(patch) -> np.ndarray:
    if isinstance(patch, PlanarImage):
        return to_luma(patch).planes[0].astype(np.float64)
    arr = np.asarray(patch, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("expected a 2-D patch")
    return arr


# ---------------------------------------------------------------------------
# Weight container

_MAGIC = b"BGWT"
_VERSION = 1


def save_params(params: DualNetParams, path) -> None:
    """Write the self-describing binary weight container."""
    head = bytearray()
    head += _MAGIC
    head += struct.pack("<B", _VERSION)
    head += struct.pack(
        "<IIB", params.patch_size, params.fc_width, len(params.widths)
    )
    for wdt in params.widths:
        head += struct.pack("<I", wdt)
    head += struct.pack("<qI", params.seed, params.epochs_trained)
    tensors = params.tensors()
    head += struct.pack("<I", len(tensors))
    for t in tensors:
        head += struct.pack("<B", t.ndim)
        for d in t.shape:
            head += struct.pack("<I", d)
    payload = b"".join(
        np.ascontiguousarray(t, dtype="<f4").tobytes() for t in tensors
    )
    body = bytes(head) + payload
    crc = zlib.crc32(body) & 0xFFFFFFFF
    with open(path, "wb") as fh:
        fh.write(body + struct.pack("<I", crc))


def load_params(path) -> DualNetParams:
    """Read and validate a weight container written by save_params."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 9 or blob[:4] != _MAGIC:
        raise WeightFormatError("not a weight container")
    (version,) = struct.unpack_from("<B", blob, 4)
    if version != _VERSION:
        raise WeightVersionError(f"unknown container version {version}")
    stored_crc = struct.unpack("<I", blob[-4:])[0] if len(blob) >= 13 else None
    if stored_crc is None or zlib.crc32(blob[:-4]) & 0xFFFFFFFF != stored_crc:
        raise WeightChecksumError("checksum mismatch (file corrupt or truncated)")
    pos = 5
    patch_size, fc_width, n_conv = struct.unpack_from("<IIB", blob, pos)
    pos += 9
    widths = struct.unpack_from(f"<{n_conv}I", blob, pos)
    pos += 4 * n_conv
    seed, epochs = struct.unpack_from("<qI", blob, pos)
    pos += 12
    (n_tensors,) = struct.unpack_from("<I", blob, pos)
    pos += 4
    shapes = []
    for _ in range(n_tensors):
        (ndim,) = struct.unpack_from("<B", blob, pos)
        pos += 1
        shape = struct.unpack_from(f"<{ndim}I", blob, pos)
        pos += 4 * ndim
        shapes.append(shape)
    tensors = []
    for shape in shapes:
        count = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(blob, dtype="<f4", count=count, offset=pos)
        pos += 4 * count
        tensors.append(arr.reshape(shape).copy())
    if pos != len(blob) - 4:
        raise WeightShapeError("payload length disagrees with shape table")
    ref = init_params(patch_size, widths, fc_width, seed=0)
    expected = [t.shape for t in ref.tensors()]
    if [tuple(s) for s in shapes] != [tuple(s) for s in expected]:
        raise WeightShapeError("tensor shapes disagree with declared architecture")
    out = _rebuild(ref, tensors)
    return replace(out, seed=seed, epochs_trained=epochs)
