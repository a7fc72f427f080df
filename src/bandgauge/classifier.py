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


def _check_architecture(patch_size, widths, fc_width) -> None:
    """The floors of a network's shape, the same ones a weight file's header
    must clear: patches of at least 8 pixels, one or more convolution widths
    and every width and the head's width at least 1."""
    check("patch_size", patch_size, int, ge=8)
    if len(widths) < 1:
        raise ValueError("widths must hold at least one width")
    for width in widths:
        check("widths", width, int, ge=1)
    check("fc_width", fc_width, int, ge=1)


def _tensor_shapes(widths, fc_width) -> list:
    """The layout of the network's weights: the shape of each tensor, in the
    canonical order that DualNetParams.tensors, the gradients, Adam and the
    weight file share.  Per h-branch layer its 3x3 kernel (out_ch, in_ch, 3,
    3) and bias (out_ch,), the same for the l branch, then the head's w1
    (features, fc_width), b1 (fc_width,), w2 (fc_width, 1) and b2 (1,)."""
    shapes = []
    for _ in range(2):
        in_ch = 1
        for out_ch in widths:
            shapes += [(out_ch, in_ch, 3, 3), (out_ch,)]
            in_ch = out_ch
    feat_dim = 2 * (widths[0] + widths[-1])
    return shapes + [(feat_dim, fc_width), (fc_width,), (fc_width, 1), (1,)]


@dataclass(frozen=True)
class DualNetParams:
    """Weights and architecture metadata of the dual-branch network.

    tensors is a tuple of every weight array in the order _tensor_shapes
    states; a list given is kept as a tuple.
    """

    patch_size: int
    widths: tuple
    fc_width: int
    tensors: tuple
    seed: int = 0
    epochs_trained: int = 0

    def __post_init__(self):
        _check_architecture(self.patch_size, self.widths, self.fc_width)
        object.__setattr__(self, "tensors", tuple(self.tensors))
        want = _tensor_shapes(self.widths, self.fc_width)
        if len(self.tensors) != len(want):
            raise ValueError(f"{len(want)} tensors expected, got {len(self.tensors)}")
        for i, (t, shape) in enumerate(zip(self.tensors, want)):
            if t.shape != shape:
                raise ValueError(f"tensor {i} has shape {t.shape}, the architecture needs {shape}")

    @property
    def feature_dim(self) -> int:
        return 2 * (self.widths[0] + self.widths[-1])


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
        for name in ("batch_size", "epochs"):
            check(name, getattr(self, name), int, ge=1)
        check("seed", self.seed, int, ge=0)
        _check_architecture(self.patch_size, self.widths, self.fc_width)


@dataclass(frozen=True)
class PatchSample:
    """One training tile: its (N, N) Sobel and low-frequency maps, each a
    read-only float64 view of the array given, and its label."""

    hfm: np.ndarray
    lfm: np.ndarray
    label: Label

    def __post_init__(self):
        hfm, lfm = (np.asarray(m, dtype=np.float64).view() for m in (self.hfm, self.lfm))
        if hfm.ndim != 2 or hfm.shape != lfm.shape:
            raise ValueError("frequency maps must share one shape")
        hfm.flags.writeable = lfm.flags.writeable = False
        object.__setattr__(self, "hfm", hfm)
        object.__setattr__(self, "lfm", lfm)


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
    """Glorot-uniform weights and zero biases, drawn tensor by tensor in
    canonical order; the two branches draw independently."""
    _check_architecture(patch_size, widths, fc_width)
    rng = np.random.default_rng(seed)
    tensors = []
    for shape in _tensor_shapes(widths, fc_width):
        if len(shape) == 1:
            tensors.append(np.zeros(shape, dtype=dtype))
            continue
        # fan_in + fan_out: (out_ch + in_ch) * 9 for a kernel, rows + columns
        # for a head matrix.
        fans = (shape[0] + shape[1]) * math.prod(shape[2:])
        limit = np.sqrt(6.0 / fans)
        tensors.append(rng.uniform(-limit, limit, size=shape).astype(dtype))
    return DualNetParams(patch_size, tuple(widths), fc_width, tensors, seed=seed)


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


def _buffer(ws, key, shape, dtype):
    """An uninitialised array of this shape and dtype.

    Without a workspace it is fresh.  With one, key names a role in the
    step (never a shape), and the first call for it sizes its buffer: in
    train that is the first step, the largest batch.  A later call gets a
    view of the buffer's leading rows, or a fresh array if it needs more
    rows (a validation set larger than a batch) or another shape.
    """
    if ws is None:
        return np.empty(shape, dtype)
    buf = ws.get(key)
    if buf is None:
        buf = ws[key] = np.empty(shape, dtype)
    if buf.shape[0] < shape[0] or buf.shape[1:] != shape[1:] or buf.dtype != dtype:
        return np.empty(shape, dtype)
    return buf[: shape[0]]


def _part(ws, key):
    """The sub-workspace for key, or None without a workspace."""
    return None if ws is None else ws.setdefault(key, {})


def _conv_forward(x, w, b, ws=None):
    """3x3 convolution, stride 2, pad 1. x: (B, C, H, W) -> (B, F, Ho, Wo).

    Lowered to one matmul per patch over columns (B, C*9, Ho*Wo), which
    W.reshape(F, C*9) @ cols turns into (B, F, Ho*Wo) with no re-layout.
    The zero padding is written straight into the columns.  With a
    workspace, the columns and the output are its buffers.
    """
    bsz, c, h, wi = x.shape
    f = w.shape[0]
    ho, wo = (h + 1) // 2, (wi + 1) // 2
    cols = _buffer(ws, "cols", (bsz, c, 3, 3, ho, wo), x.dtype)
    for ky, (ylo, yhi, ys) in enumerate(_taps(h)):
        for kx, (xlo, xhi, xs) in enumerate(_taps(wi)):
            tap = cols[:, :, ky, kx]
            tap[:, :, :ylo] = 0
            tap[:, :, yhi:] = 0
            tap[:, :, ylo:yhi, :xlo] = 0
            tap[:, :, ylo:yhi, xhi:] = 0
            tap[:, :, ylo:yhi, xlo:xhi] = x[:, :, ys, xs]
    cols = cols.reshape(bsz, c * 9, ho * wo)
    out = _buffer(ws, "z", (bsz, f, ho * wo), np.result_type(w, cols))
    np.matmul(w.reshape(f, c * 9), cols, out=out)
    out += b[:, None]
    return out.reshape(bsz, f, ho, wo), (cols, x.shape)


def _conv_param_grads(dout, cache, ws=None):
    """Weight and bias gradients of _conv_forward."""
    cols, (_, c, _, _) = cache
    bsz, f = dout.shape[:2]
    dmat = dout.reshape(bsz, f, -1)
    per_patch = _buffer(ws, "dw", (bsz, f, c * 9), np.result_type(dmat, cols))
    dw = np.matmul(dmat, cols.mT, out=per_patch).sum(axis=0)
    return dw.reshape(f, c, 3, 3), dmat.sum(axis=(0, 2))


def _conv_input_grad(dout, w, cache, ws=None):
    """Input gradient of _conv_forward: W^T @ dout scattered back through the
    9 taps into an unpadded dx."""
    _, x_shape = cache
    bsz, c, h, wi = x_shape
    f, ho, wo = dout.shape[1:]
    dcols = _buffer(ws, "dcols", (bsz, c * 9, ho * wo), np.result_type(w, dout))
    np.matmul(w.reshape(f, c * 9).T, dout.reshape(bsz, f, ho * wo), out=dcols)
    d6 = dcols.reshape(bsz, c, 3, 3, ho, wo)
    dx = _buffer(ws, "dx", x_shape, dout.dtype)
    dx[...] = 0
    for ky, (ylo, yhi, ys) in enumerate(_taps(h)):
        for kx, (xlo, xhi, xs) in enumerate(_taps(wi)):
            dx[:, :, ys, xs] += d6[:, :, ky, kx, ylo:yhi, xlo:xhi]
    return dx


def _parts(tensors, n_conv):
    """Canonical-order tensors (weights or their gradients) as the h branch's
    (kernel, bias) pairs, the l branch's pairs and the head's (w1, b1, w2, b2)."""
    pairs = list(zip(tensors[0::2], tensors[1::2]))
    return pairs[:n_conv], pairs[n_conv : 2 * n_conv], tensors[-4:]


def _branch_forward(layers, x, keep_caches=True, ws=None):
    """Features of one branch, given its (kernel, bias) pairs, and, if kept,
    each layer's (cache, a) for the backward pass; without them and without
    a workspace, one layer's intermediates live at a time.  The rectifier
    runs in place: a > 0 exactly where its input z > 0, so a alone gives
    backward its mask."""
    caches = []
    a = x
    early = None
    for i, (w, b) in enumerate(layers):
        z, cache = _conv_forward(a, w, b, _part(ws, i))
        a = np.maximum(z, 0.0, out=z)
        if keep_caches:
            caches.append((cache, a))
        if early is None:
            early = a.mean(axis=(2, 3))
    feat = np.concatenate([early, a.mean(axis=(2, 3))], axis=1)
    return feat, caches


def _branch_backward(layers, caches, dfeat, ws=None):
    """Gradients of one branch, kernel then bias per layer.  Its workspace
    holds only this call's intermediates, so both branches may share one,
    one after the other."""
    f1 = layers[0][0].shape[0]
    d_early, d_late = dfeat[:, :f1], dfeat[:, f1:]
    grads = [None] * (2 * len(layers))

    _, a_last = caches[-1]
    area = a_last.shape[2] * a_last.shape[3]
    da = _buffer(ws, "da", a_last.shape, a_last.dtype)
    np.copyto(da, (d_late / area)[:, :, None, None])
    for i in range(len(caches) - 1, -1, -1):
        cache, a = caches[i]
        layer = _part(ws, i)
        if i == 0:
            area0 = a.shape[2] * a.shape[3]
            da += (d_early / area0)[:, :, None, None]
        active = np.greater(a, 0, out=_buffer(layer, "active", a.shape, bool))
        dz = np.multiply(da, active, out=da)
        grads[2 * i], grads[2 * i + 1] = _conv_param_grads(dz, cache, layer)
        if i > 0:  # the network input needs no gradient
            da = _conv_input_grad(dz, layers[i][0], cache, layer)
    return grads


def _net_forward(params: DualNetParams, h_batch, l_batch, keep_caches=True, ws=None):
    layers_h, layers_l, (w1, b1, w2, b2) = _parts(params.tensors, len(params.widths))
    xh = h_batch[:, None, :, :]
    xl = l_batch[:, None, :, :]
    fh, cache_h = _branch_forward(layers_h, xh, keep_caches, _part(ws, "h"))
    fl, cache_l = _branch_forward(layers_l, xl, keep_caches, _part(ws, "l"))
    feat = np.concatenate([fh, fl], axis=1)
    h1 = feat @ w1 + b1
    r = np.maximum(h1, 0.0)
    logit = (r @ w2 + b2).ravel()
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
    out = np.empty((len(maps), n, n), dtype=params.tensors[-4].dtype)  # the head's w1
    for i, m in enumerate(maps):
        v = np.asarray(m)
        if v.shape != (n, n):
            raise ValueError(f"map shape {v.shape} does not match patch size {n}")
        out[i] = v
    if not np.isfinite(out).all():
        raise ValueError("non-finite values in network input")
    return out


def loss_and_grads(params: DualNetParams, h_batch, l_batch, y, ws=None):
    """Binary cross entropy and gradients for every tensor (canonical order).

    ws, a dict, is the workspace that the step's large intermediates are
    written into, so that steps reuse memory instead of allocating it.
    """
    y = np.asarray(y, dtype=np.float64)
    logit, (feat, h1, r, cache_h, cache_l) = _net_forward(params, h_batch, l_batch, ws=ws)
    zl = logit.astype(np.float64)
    loss = _bce(zl, y)
    bsz = len(y)
    layers_h, layers_l, (w1, _, w2, _) = _parts(params.tensors, len(params.widths))

    dlogit = ((_sigmoid(zl) - y) / bsz).astype(w1.dtype)[:, None]
    dw2 = r.T @ dlogit
    db2 = dlogit.sum(axis=0)
    dr = dlogit @ w2.T
    dh1 = dr * (h1 > 0)
    dw1 = feat.T @ dh1
    db1 = dh1.sum(axis=0)
    dfeat = dh1 @ w1.T

    half = params.feature_dim // 2
    back = _part(ws, "back")
    grads = _branch_backward(layers_h, cache_h, dfeat[:, :half], back)
    grads += _branch_backward(layers_l, cache_l, dfeat[:, half:], back)
    return loss, grads + [dw1, db1, dw2, db2]


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

    params = init_params(cfg.patch_size, cfg.widths, cfg.fc_width, seed=cfg.seed)
    tensors = params.tensors  # params' own arrays: each step updates them in place
    h_tr, l_tr, y_tr = _dataset_arrays(train_set, params)
    h_va, l_va, y_va = _dataset_arrays(val_set, params)

    adam_m = [np.zeros_like(t) for t in tensors]
    adam_v = [np.zeros_like(t) for t in tensors]
    b1, b2, eps = 0.9, 0.999, 1e-8
    step = 0

    best_acc = -1.0
    best_tensors, best_epoch = None, 0
    history = []

    # One workspace for the whole call: every step and validation pass
    # writes its large intermediates into it, and it goes on every exit.
    ws = {}
    try:
        for epoch in range(1, cfg.epochs + 1):
            rng = np.random.default_rng([cfg.seed, epoch])
            order = rng.permutation(len(train_set))
            losses = []
            for s in range(0, len(order), cfg.batch_size):
                idx = order[s : s + cfg.batch_size]
                shape = (idx.size, *h_tr.shape[1:])
                h = np.take(h_tr, idx, axis=0, out=_buffer(ws, "batch_h", shape, h_tr.dtype))
                l = np.take(l_tr, idx, axis=0, out=_buffer(ws, "batch_l", shape, l_tr.dtype))
                loss, grads = loss_and_grads(params, h, l, y_tr[idx], ws)
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
            val_logit = _net_forward(params, h_va, l_va, keep_caches=False, ws=ws)[0]
            val_zl = val_logit.astype(np.float64)
            val_loss = _bce(val_zl, y_va)
            val_acc = float(np.mean((_sigmoid(val_zl) > 0.5) == (y_va > 0.5)))
            history.append(EpochStats(epoch, float(np.mean(losses)), val_loss, val_acc))
            if val_acc > best_acc:
                best_acc = val_acc
                best_tensors = [t.copy() for t in tensors]
                best_epoch = epoch
    finally:
        ws.clear()

    final = replace(params, tensors=best_tensors, epochs_trained=best_epoch)
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
    tensors = params.tensors
    head = bytearray(_MAGIC)
    head += struct.pack("<BIIB", _VERSION, params.patch_size, params.fc_width, len(params.widths))
    head += struct.pack(f"<{len(params.widths)}I", *params.widths)
    head += struct.pack("<qII", params.seed, params.epochs_trained, len(tensors))
    for t in tensors:
        head += struct.pack(f"<B{t.ndim}I", t.ndim, *t.shape)
    payload = b"".join(np.ascontiguousarray(t, dtype="<f4").tobytes() for t in tensors)
    body = bytes(head) + payload
    crc = zlib.crc32(body) & 0xFFFFFFFF
    with open(path, "wb") as fh:
        fh.write(body + struct.pack("<I", crc))


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
        seed, epochs, n_tensors = struct.unpack_from("<qII", body, pos)
        pos += 16
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
    return DualNetParams(patch_size, widths, fc_width, tensors, seed=seed, epochs_trained=epochs)
