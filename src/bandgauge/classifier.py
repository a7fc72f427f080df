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

import math
import struct
import zlib
from dataclasses import dataclass, replace

import numpy as np

from .checks import check
from .csvfile import write_rows
from .freq import LowFreqMap
from .imgcore import Label


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


@dataclass(frozen=True)
class PatchSample:
    """One training tile: its (N, N) Sobel map as a read-only float64 array,
    its low-frequency map and its label."""

    hfm: np.ndarray
    lfm: LowFreqMap
    label: Label

    def __post_init__(self):
        hfm = np.asarray(self.hfm, dtype=np.float64).view()
        if hfm.shape != self.lfm.values.shape:
            raise ValueError("frequency maps must share one shape")
        hfm.flags.writeable = False
        object.__setattr__(self, "hfm", hfm)


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


def _taps(n):
    """Per kernel offset k of a 3x3 / stride-2 / pad-1 window along an axis of
    length n: the output positions [lo, hi) whose input index 2*i + k - 1
    lies inside the axis, and the slice of input indices they read.  The
    other output positions read the zero border."""
    out = []
    for k in range(3):
        lo, hi = (1 if k == 0 else 0), (n // 2 if k == 2 else (n + 1) // 2)
        start = 2 * lo + k - 1
        out.append((lo, hi, slice(start, start + 2 * (hi - lo) - 1, 2)))
    return out


def _conv_forward(x, w, b):
    """3x3 convolution, stride 2, pad 1. x: (B, C, H, W) -> (B, F, Ho, Wo).

    Lowered to one matmul per patch over columns (B, C*9, Ho*Wo), which
    W.reshape(F, C*9) @ cols turns into (B, F, Ho*Wo) with no re-layout.
    The zero padding is written straight into the columns.
    """
    bsz, c, h, wi = x.shape
    f = w.shape[0]
    ho, wo = (h + 1) // 2, (wi + 1) // 2
    cols = np.empty((bsz, c, 3, 3, ho, wo), dtype=x.dtype)
    for ky, (ylo, yhi, ys) in enumerate(_taps(h)):
        for kx, (xlo, xhi, xs) in enumerate(_taps(wi)):
            tap = cols[:, :, ky, kx]
            tap[:, :, :ylo] = 0
            tap[:, :, yhi:] = 0
            tap[:, :, ylo:yhi, :xlo] = 0
            tap[:, :, ylo:yhi, xhi:] = 0
            tap[:, :, ylo:yhi, xlo:xhi] = x[:, :, ys, xs]
    cols = cols.reshape(bsz, c * 9, ho * wo)
    out = w.reshape(f, c * 9) @ cols
    out += b[:, None]
    return out.reshape(bsz, f, ho, wo), (cols, x.shape)


def _conv_param_grads(dout, cache):
    """Weight and bias gradients of _conv_forward."""
    cols, (_, c, _, _) = cache
    bsz, f = dout.shape[:2]
    dmat = dout.reshape(bsz, f, -1)
    dw = (dmat @ cols.mT).sum(axis=0)
    return dw.reshape(f, c, 3, 3), dmat.sum(axis=(0, 2))


def _conv_input_grad(dout, w, cache):
    """Input gradient of _conv_forward: W^T @ dout scattered back through the
    9 taps into an unpadded dx."""
    _, x_shape = cache
    bsz, c, h, wi = x_shape
    f, ho, wo = dout.shape[1:]
    dcols = w.reshape(f, c * 9).T @ dout.reshape(bsz, f, ho * wo)
    d6 = dcols.reshape(bsz, c, 3, 3, ho, wo)
    dx = np.zeros(x_shape, dtype=dout.dtype)
    for ky, (ylo, yhi, ys) in enumerate(_taps(h)):
        for kx, (xlo, xhi, xs) in enumerate(_taps(wi)):
            dx[:, :, ys, xs] += d6[:, :, ky, kx, ylo:yhi, xlo:xhi]
    return dx


def _branch_forward(bp: BranchParams, x, keep_caches=True):
    """Features of one branch and, if kept, each layer's (cache, z, a) for
    the backward pass; without them one layer's intermediates live at a time."""
    caches = []
    a = x
    early = None
    for w, b in zip(bp.conv_w, bp.conv_b):
        z, cache = _conv_forward(a, w, b)
        a = np.maximum(z, 0.0)
        if keep_caches:
            caches.append((cache, z, a))
        if early is None:
            early = a.mean(axis=(2, 3))
    feat = np.concatenate([early, a.mean(axis=(2, 3))], axis=1)
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
        grads_w[i], grads_b[i] = _conv_param_grads(dz, cache)
        if i > 0:  # the network input needs no gradient
            da = _conv_input_grad(dz, bp.conv_w[i], cache)
    return grads_w, grads_b


def _net_forward(params: DualNetParams, h_batch, l_batch, keep_caches=True):
    xh = h_batch[:, None, :, :]
    xl = l_batch[:, None, :, :]
    fh, cache_h = _branch_forward(params.branch_h, xh, keep_caches)
    fl, cache_l = _branch_forward(params.branch_l, xl, keep_caches)
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


# Input pixels per forward block (2 patches at N = 235, 32 at N = 64).
# forward_batch streams the patches through the network in blocks of about
# this size, so only one block's float32 intermediates are alive at a time.
# Small blocks also keep the allocator reusing memory instead of mapping
# fresh pages for every layer: on 1080p frames at N = 235, blocks of 1-2
# patches scored faster than blocks of 8 or more.
_BLOCK_PIXELS = 1 << 17


def forward_batch(params: DualNetParams, h_batch, l_batch) -> np.ndarray:
    """Probabilities for a batch of (hfm, lfm) map pairs."""
    if len(h_batch) != len(l_batch):
        raise ValueError(
            f"{len(h_batch)} high-frequency maps but {len(l_batch)} low-frequency maps"
        )
    h_batch = _stack_maps(h_batch, params)
    l_batch = _stack_maps(l_batch, params)
    step = max(1, _BLOCK_PIXELS // params.patch_size**2)
    logits = [
        _net_forward(params, h_batch[s : s + step], l_batch[s : s + step], keep_caches=False)[0]
        for s in range(0, len(h_batch), step)
    ]
    return _sigmoid(np.concatenate(logits))


def _stack_maps(maps, params: DualNetParams):
    n = params.patch_size
    out = np.empty((len(maps), n, n), dtype=params.head_w1.dtype)
    for i, m in enumerate(maps):
        v = m.values if isinstance(m, LowFreqMap) else np.asarray(m)
        if v.shape != (n, n):
            raise ValueError(f"map shape {v.shape} does not match patch size {n}")
        out[i] = v
    if not np.isfinite(out).all():
        raise ValueError("non-finite values in network input")
    return out


def loss_and_grads(params: DualNetParams, h_batch, l_batch, y):
    """Binary cross entropy and gradients for every tensor (canonical order)."""
    y = np.asarray(y, dtype=np.float64)
    logit, (feat, h1, r, cache_h, cache_l) = _net_forward(params, h_batch, l_batch)
    zl = logit.astype(np.float64)
    loss = _bce(zl, y)
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
    logit, _ = _net_forward(params, h_batch, l_batch, keep_caches=False)
    return _bce(logit, np.asarray(y, dtype=np.float64))


def _bce(logit, y) -> float:
    """Mean binary cross entropy of float64 labels y at these logits, in float64."""
    z = np.asarray(logit, dtype=np.float64)
    return float(np.mean(np.logaddexp(0.0, z) - y * z))


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


def train(samples, cfg: TrainConfig, val_samples, report_path=None):
    """Train the dual-branch network on samples, selecting the epoch by its
    accuracy on val_samples.

    Returns (params_of_best_validation_epoch, per_epoch_stats).
    """
    labels = [s.label.is_banded for s in samples]
    if len(set(labels)) < 2:
        raise ValueError("training data must contain both classes")

    train_set = list(samples)
    val_set = list(val_samples)
    if not train_set or not val_set:
        raise ValueError("empty train or validation set")

    params = init_params(
        cfg.patch_size, cfg.widths, cfg.fc_width, seed=cfg.seed
    )
    tensors = params.tensors()  # params' own arrays: each step updates them in place
    h_tr, l_tr, y_tr = _dataset_arrays(train_set, params)
    h_va, l_va, y_va = _dataset_arrays(val_set, params)

    adam_m = [np.zeros_like(t) for t in tensors]
    adam_v = [np.zeros_like(t) for t in tensors]
    b1, b2, eps = 0.9, 0.999, 1e-8
    step = 0

    best_acc = -1.0
    best_tensors, best_epoch = None, 0
    history = []

    for epoch in range(1, cfg.epochs + 1):
        rng = np.random.default_rng([cfg.seed, epoch])
        order = rng.permutation(len(train_set))
        losses = []
        for s in range(0, len(order), cfg.batch_size):
            idx = order[s : s + cfg.batch_size]
            loss, grads = loss_and_grads(params, h_tr[idx], l_tr[idx], y_tr[idx])
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, step {s // cfg.batch_size}"
                )
            step += 1
            for t, m, v, g in zip(tensors, adam_m, adam_v, grads):
                m *= b1
                m += (1 - b1) * g
                v *= b2
                v += (1 - b2) * g * g
                mh = m / (1 - b1**step)
                vh = v / (1 - b2**step)
                t -= cfg.learning_rate * mh / (np.sqrt(vh) + eps)
            losses.append(loss)
        val_zl = _net_forward(params, h_va, l_va, keep_caches=False)[0].astype(np.float64)
        val_loss = _bce(val_zl, y_va)
        val_acc = float(np.mean((_sigmoid(val_zl) > 0.5) == (y_va > 0.5)))
        history.append(EpochStats(epoch, float(np.mean(losses)), val_loss, val_acc))
        if val_acc > best_acc:
            best_acc = val_acc
            best_tensors = [t.copy() for t in tensors]
            best_epoch = epoch

    final = replace(
        _rebuild(params, best_tensors), seed=cfg.seed, epochs_trained=best_epoch
    )
    if report_path is not None:
        write_rows(
            report_path,
            ("epoch", "train_loss", "val_loss", "val_acc"),
            [(st.epoch, f"{st.train_loss:.8g}", f"{st.val_loss:.8g}", f"{st.val_acc:.8g}")
             for st in history],
        )
    return final, history


def _dataset_arrays(samples, params):
    h = _stack_maps([s.hfm for s in samples], params)
    l = _stack_maps([s.lfm for s in samples], params)
    y = np.array([1.0 if s.label.is_banded else 0.0 for s in samples])
    return h, l, y


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


def _tensor_shapes(widths, fc_width) -> list:
    """The shapes of init_params' tensors, in canonical order, worked out
    without allocating them (a weight file's round trip checks the two agree)."""
    shapes = []
    for _ in range(2):
        in_ch = 1
        for out_ch in widths:
            shapes += [(out_ch, in_ch, 3, 3), (out_ch,)]
            in_ch = out_ch
    feat_dim = 2 * (widths[0] + widths[-1])
    return shapes + [(feat_dim, fc_width), (fc_width,), (fc_width, 1), (1,)]


def load_params(path) -> DualNetParams:
    """Read and validate a weight container written by save_params.

    The shape table must match the shapes the header's architecture implies
    before any tensor is allocated.
    """
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
    body = memoryview(blob)[:-4]
    try:
        pos = 5
        patch_size, fc_width, n_conv = struct.unpack_from("<IIB", body, pos)
        pos += 9
        widths = struct.unpack_from(f"<{n_conv}I", body, pos)
        pos += 4 * n_conv
        seed, epochs = struct.unpack_from("<qI", body, pos)
        pos += 12
        (n_tensors,) = struct.unpack_from("<I", body, pos)
        pos += 4
        shapes = []
        for _ in range(n_tensors):
            (ndim,) = struct.unpack_from("<B", body, pos)
            pos += 1
            shapes.append(struct.unpack_from(f"<{ndim}I", body, pos))
            pos += 4 * ndim
    except struct.error as exc:
        raise WeightFormatError(f"header ends early: {exc}") from None
    if patch_size < 8 or n_conv < 1 or min(widths) < 1 or fc_width < 1:
        raise WeightFormatError(
            f"header declares patch size {patch_size}, widths {widths} and fc width {fc_width}"
        )
    if shapes != _tensor_shapes(widths, fc_width):
        raise WeightShapeError("tensor shapes disagree with declared architecture")
    counts = [math.prod(shape) for shape in shapes]
    if pos + 4 * sum(counts) != len(body):
        raise WeightShapeError("payload length disagrees with shape table")
    tensors = []
    for shape, count in zip(shapes, counts):
        arr = np.frombuffer(body, dtype="<f4", count=count, offset=pos)
        tensors.append(arr.reshape(shape).copy())
        pos += 4 * count
    out = _rebuild(init_params(patch_size, widths, fc_width, seed=0), tensors)
    return replace(out, seed=seed, epochs_trained=epochs)
