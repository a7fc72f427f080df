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

from .imgcore import PlanarImage

_SQ2 = np.sqrt(2.0)
SOBEL_X = np.array([[-1.0, 0.0, 1.0], [-_SQ2, 0.0, _SQ2], [-1.0, 0.0, 1.0]])
SOBEL_Y = SOBEL_X.T.copy()


@dataclass(frozen=True)
class HighFreqMap:
    """Non-negative gradient magnitudes, same shape as the source."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise ValueError("expected a 2-D magnitude field")
        if v.size and float(v.min()) < 0.0:
            raise ValueError("gradient magnitudes must be non-negative")
        v = np.ascontiguousarray(v)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def height(self) -> int:
        return self.values.shape[0]


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
        for name in ("reg_alpha", "reg_beta", "tol", "edge_threshold"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.reg_alpha <= 0 or self.reg_beta <= 0 or self.tol <= 0:
            raise ValueError("reg_alpha, reg_beta and tol must be positive")
        n = self.max_iters
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError(f"max_iters must be an int of at least 1, got {n!r}")


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
    """Gradient-magnitude map of a 1-channel float patch."""
    arr = _as_plane(patch)
    if min(arr.shape) < 3:
        raise ValueError("patch must be at least 3x3")
    h, w = arr.shape
    p = np.pad(arr, 1, mode="edge")
    # Opposite kernel taps are differenced first so constants cancel exactly.
    east_west = p[:, 2 : w + 2] - p[:, 0:w]
    gx = east_west[0:h] + _SQ2 * east_west[1 : h + 1] + east_west[2 : h + 2]
    south_north = p[2 : h + 2, :] - p[0:h, :]
    gy = south_north[:, 0:w] + _SQ2 * south_north[:, 1 : w + 1] + south_north[:, 2 : w + 2]
    return HighFreqMap(np.sqrt(gx * gx + gy * gy))


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
