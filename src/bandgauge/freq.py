"""High- and low-frequency map generation.

The high-frequency map is the gradient magnitude under the isotropic Sobel
operator (sqrt-2 center weights), with image borders handled by edge
replication.

The low-frequency map is a piecewise-smooth approximation of the input: the
minimizer of

    F(L) = 1/2 sum (I - L)^2  +  alpha * sum_active (L_q - L_p)^2  +  beta*|E|

where the second sum runs over 4-neighbour pixel pairs whose endpoints both
lie outside a frozen edge set E.  E is fixed up front from the input's
forward-difference gradient magnitude (threshold tau, default mean + 2 std),
which turns the problem into a single positive-definite quadratic.  That
quadratic is solved by red-black Gauss-Seidel sweeps with natural (Neumann)
boundary handling: L sits in a zero-bordered buffer, and a sweep updates
its stride-2 sub-lattices (0,0), (1,1) (red) then (0,1), (1,0) (black) with
0/1 pair weights.  Red-black ordering makes every sweep deterministic and
exact coordinate minimization makes the energy non-increasing per sweep.
Smoothing never crosses E, so strong edges survive while plateau noise is
averaged away.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import check
from .imgcore import PlanarImage

_SQ2 = np.sqrt(2.0)
SOBEL_X = np.array([[-1.0, 0.0, 1.0], [-_SQ2, 0.0, _SQ2], [-1.0, 0.0, 1.0]])
SOBEL_Y = SOBEL_X.T.copy()


@dataclass(frozen=True)
class HighFreqMap:
    """Non-negative gradient magnitudes, same shape as the source.

    A field of more than two dimensions is a stack of tiles' maps over its
    last two axes.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim < 2:
            raise ValueError("expected a magnitude field of at least 2 dimensions")
        if v.size and float(v.min()) < 0.0:
            raise ValueError("gradient magnitudes must be non-negative")
        v = np.ascontiguousarray(v)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def width(self) -> int:
        return self.values.shape[-1]

    @property
    def height(self) -> int:
        return self.values.shape[-2]


@dataclass(frozen=True)
class LowFreqMap:
    """Smoothed field in [0, 1] plus the per-sweep energy trace."""

    values: np.ndarray
    energy_trace: tuple = ()

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if v.ndim != 2:
            raise ValueError("expected a 2-D field")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        if len(self.energy_trace) >= 2 and self.energy_trace[-1] > self.energy_trace[0] + 1e-9:
            raise ValueError("solver ended above its starting energy")

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def height(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class PwsConfig:
    """Solver knobs for the piecewise-smooth decomposition.

    edge_threshold None means: derive tau per image as mean + 2 std of the
    forward-difference gradient magnitude.
    """

    reg_alpha: float = 2.0
    reg_beta: float = 0.05
    edge_threshold: float | None = None
    max_iters: int = 120
    tol: float = 1e-5

    def __post_init__(self):
        for name in ("reg_alpha", "reg_beta", "tol"):
            check(name, getattr(self, name), gt=0)
        check("edge_threshold", self.edge_threshold, optional=True)
        check("max_iters", self.max_iters, int, ge=1)


def _as_plane(img) -> np.ndarray:
    if isinstance(img, PlanarImage):
        if img.channels != 1 or not img.is_float:
            raise ValueError("expected a 1-channel float image")
        return img.planes[0].astype(np.float64)
    arr = np.asarray(img, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("expected a 2-D array")
    return arr


def sobel_hfm(patch) -> HighFreqMap:
    """Gradient-magnitude map of a 1-channel float patch, or of a stack of
    patches over the last two axes, each with its own replicated border."""
    arr = _as_plane(patch) if isinstance(patch, PlanarImage) else np.asarray(patch, np.float64)
    if arr.ndim < 2:
        raise ValueError("expected an array of at least 2 dimensions")
    if min(arr.shape[-2:]) < 3:
        raise ValueError("patch must be at least 3x3")
    arr = np.ascontiguousarray(arr)
    # Opposite kernel taps are differenced first so constants cancel exactly.
    gx = _smooth_across(_central_difference(arr, -1), -2)
    gy = _smooth_across(_central_difference(arr, -2), -1)
    gx *= gx
    gy *= gy
    gx += gy
    return HighFreqMap(np.sqrt(gx, out=gx))


# The Sobel helpers run each step as one pass over the flattened stack, so
# that numpy loops over contiguous memory instead of row by row.  A flat
# shift by one row or column reads across a tile's edge only in the tile's
# first and last line along that axis; those lines are then redone with the
# tile's edge replicated, which is what padding the tile would give.


def _lines(axis: int):
    """Index of the first / second / second-last / last line along axis."""
    tail = (slice(None),) if axis == -2 else ()
    return [(Ellipsis, i) + tail for i in (0, 1, -2, -1)]


def _central_difference(arr: np.ndarray, axis: int) -> np.ndarray:
    """arr[i + 1] - arr[i - 1] along axis, the edge sample replicated."""
    step = arr.strides[axis] // arr.itemsize
    flat, out = arr.reshape(-1), np.empty_like(arr)
    np.subtract(flat[2 * step :], flat[: -2 * step], out=out.reshape(-1)[step:-step])
    first, second, second_last, last = _lines(axis)
    np.subtract(arr[second], arr[first], out=out[first])
    np.subtract(arr[last], arr[second_last], out=out[last])
    return out


def _smooth_across(d: np.ndarray, axis: int) -> np.ndarray:
    """(d[i - 1] + sqrt2 * d[i]) + d[i + 1] along axis, the edge replicated."""
    step = d.strides[axis] // d.itemsize
    flat, out = d.reshape(-1), _SQ2 * d
    out_flat = out.reshape(-1)
    out_flat[step:] += flat[:-step]
    out_flat[:-step] += flat[step:]
    first, second, second_last, last = _lines(axis)
    for line, before, after in ((first, first, second), (last, second_last, last)):
        np.multiply(d[line], _SQ2, out=out[line])
        out[line] += d[before]
        out[line] += d[after]
    return out


def gradient_magnitude(arr: np.ndarray) -> np.ndarray:
    """Forward-difference gradient magnitude, zero on the far borders."""
    dx = np.zeros_like(arr)
    dy = np.zeros_like(arr)
    dx[:, :-1] = arr[:, 1:] - arr[:, :-1]
    dy[:-1, :] = arr[1:, :] - arr[:-1, :]
    return np.sqrt(dx * dx + dy * dy)


def edge_set(img, threshold: float | None = None) -> np.ndarray:
    """Boolean mask of pixels whose gradient magnitude exceeds the cutoff."""
    arr = _as_plane(img)
    mag = gradient_magnitude(arr)
    if threshold is None:
        threshold = float(mag.mean() + 2.0 * mag.std())
    return mag > threshold


def _pair_masks(edges: np.ndarray):
    keep = ~edges  # a pair is active only when neither endpoint is an edge
    return keep[:, :-1] & keep[:, 1:], keep[:-1] & keep[1:]


def pws_energy(i_arr, l_arr, edges: np.ndarray, cfg: PwsConfig) -> float:
    """Discrete objective value for a candidate smooth field."""
    i_arr = _as_plane(i_arr)
    l_arr = _as_plane(l_arr)
    if i_arr.shape != l_arr.shape or i_arr.shape != edges.shape:
        raise ValueError("image, field, and edge mask must share one shape")
    return _energy(i_arr, l_arr, *_pair_masks(edges), cfg, float(edges.sum()))


def _energy(i_arr, l_arr, pair_h, pair_v, cfg: PwsConfig, n_edges: float) -> float:
    d, dh, dv = i_arr - l_arr, l_arr[:, 1:] - l_arr[:, :-1], l_arr[1:] - l_arr[:-1]
    for t in (d, dh, dv):
        t *= t
    dh *= pair_h
    dv *= pair_v
    smooth = float(dh.sum() + dv.sum())
    return 0.5 * float(d.sum()) + cfg.reg_alpha * smooth + cfg.reg_beta * n_edges


def pws_lfm(img, cfg: PwsConfig = PwsConfig()) -> LowFreqMap:
    """Low-frequency map: solve the frozen-edge quadratic for the input."""
    arr = _as_plane(img)
    if not np.isfinite(arr).all():
        raise ValueError("input contains non-finite samples")
    edges = edge_set(arr, cfg.edge_threshold)
    h, w = arr.shape
    # Column x of wh weighs the pair (x-1, x), row y of wv the pair (y-1, y).
    wh, wv = np.zeros((h, w + 1)), np.zeros((h + 1, w))
    wh[:, 1:-1], wv[1:-1] = _pair_masks(edges)
    wl, wr, wu, wd = wh[:, :-1], wh[:, 1:], wv[:-1], wv[1:]
    a2 = 2.0 * cfg.reg_alpha
    diag = 1.0 + a2 * (wl + wr + wu + wd)
    pad = np.pad(arr, 1)
    l_cur = pad[1:-1, 1:-1]
    lattices = []
    for py, px in ((0, 0), (1, 1), (0, 1), (1, 0)):
        views = [pad[py + 1 + dy : h + 1 + dy : 2, px + 1 + dx : w + 1 + dx : 2]
                 for dy, dx in ((0, 0), (0, -1), (0, 1), (-1, 0), (1, 0))]
        coefs = [c[py::2, px::2].copy() for c in (wl, wr, wu, wd, arr, diag)]
        lattices.append((views, coefs))
    pair_h, pair_v, n_edges = wh[:, 1:-1].copy(), wv[1:-1].copy(), float(edges.sum())

    trace = [_energy(arr, l_cur, pair_h, pair_v, cfg, n_edges)]
    for _ in range(cfg.max_iters):
        for (centre, left, right, up, down), (cl, cr, cu, cd, arr_s, diag_s) in lattices:
            # (arr + a2 * (wl*left + wr*right + wu*up + wd*down)) / diag, in this order
            ns = cl * left
            ns += cr * right
            ns += cu * up
            ns += cd * down
            ns *= a2
            ns += arr_s
            np.divide(ns, diag_s, out=centre)
        trace.append(_energy(arr, l_cur, pair_h, pair_v, cfg, n_edges))
        if abs(trace[-2] - trace[-1]) <= cfg.tol * max(abs(trace[-2]), 1e-30):
            break
    return LowFreqMap(np.clip(l_cur, arr.min(), arr.max()), tuple(trace))
