"""High- and low-frequency map generation.

The high-frequency map is the gradient magnitude under the isotropic Sobel
operator (sqrt-2 center weights), with image borders handled by edge
replication; ``sobel_hfm`` returns it as a plain float64 array.

The low-frequency map is a piecewise-smooth approximation of the input,
obtained by descending

    F(L) = 1/2 sum (I - L)^2  +  alpha * sum_active (L_q - L_p)^2  +  beta*|E|

where the second sum runs over 4-neighbour pixel pairs whose endpoints both
lie outside a frozen edge set E.  E is fixed up front from the input's
forward-difference gradient magnitude (threshold tau, default mean + 2
std), which turns the problem into a single positive-definite quadratic.

When no active pair differs at L = I, the input attains F's lower bound
beta*|E| and is returned as it is, without a sweep: a flat tile, or one
whose every step is an edge.  Otherwise the quadratic is descended by
red-black successive over-relaxation (SOR) sweeps with natural (Neumann)
boundary handling: L is held as its four stride-2 sub-lattices, each in a
zero-bordered frame, and a sweep updates (0,0), (1,1) (red) then (0,1),
(1,0) (black) with 0/1 pair weights.  Red-black ordering makes every sweep
deterministic, and it makes the system consistently ordered, so Young's
theory (D. M. Young, Iterative Solution of Large Linear Systems, 1971)
gives the over-relaxation factor: the Jacobi spectral radius is at most
rho = 8 alpha / (1 + 8 alpha), and omega = 2 / (1 + sqrt(1 - rho^2)),
about 1.495 at alpha = 2.  Each update moves a point omega times its
Gauss-Seidel step delta, the step to the exact minimizer of F over its
sub-lattice, so it lowers F by exactly omega (2 - omega) / 2 sum diag *
delta^2, where diag is the coefficient the Gauss-Seidel value divides by:
the solver tracks F by this decrement instead of re-evaluating it.  The
map is the iterate at which a sweep's decrement falls to tol times the
energy before it, or to tol times the rounding floor eps * 1/2 sum I^2
when the energy is below that floor.  The minimizer lies within the
input's range, and the iterate within its stopping distance of it.
Smoothing never crosses E, so strong edges survive while plateau noise is
averaged away.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import check

_SQ2 = np.sqrt(2.0)


@dataclass(frozen=True)
class LowFreqMap:
    """Smoothed field plus the solver's running energies.

    energy_trace[0] is F at L = I; each later entry is the one before it
    minus the exact decrement of one sweep, so it matches F recomputed from
    that sweep's iterate up to rounding.  A single entry means no sweep ran.
    """

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


@dataclass(frozen=True)
class PwsConfig:
    """Solver knobs for the piecewise-smooth decomposition.

    edge_threshold None means: derive tau per image as mean + 2 std of the
    forward-difference gradient magnitude.  The sweeps over-relax by
    omega = 2 / (1 + sqrt(1 - rho^2)), rho = 8 reg_alpha / (1 + 8 reg_alpha)
    (about 1.495 at the default alpha), and an input on which no active
    pair differs is returned as it is, without a sweep.  max_iters caps the
    sweeps and tol is the stop rule's relative energy decrement.
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
    arr = np.asarray(img, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("expected a 2-D array")
    return arr


def sobel_hfm(patch) -> np.ndarray:
    """Gradient magnitudes of a 2-D float array, or of a stack of them over
    the last two axes, each with its own replicated border: a float64 array
    of the input's shape, non-negative wherever the input is finite."""
    arr = np.ascontiguousarray(patch, dtype=np.float64)
    if arr.ndim < 2:
        raise ValueError("expected an array of at least 2 dimensions")
    if min(arr.shape[-2:]) < 3:
        raise ValueError("patch must be at least 3x3")
    # Opposite kernel taps are differenced first so constants cancel exactly.
    gx = _smooth_across(_central_difference(arr, -1), -2)
    gy = _smooth_across(_central_difference(arr, -2), -1)
    gx *= gx
    gy *= gy
    gx += gy
    return np.sqrt(gx, out=gx)


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
    return _magnitude(*_squared_differences(arr))


def _squared_differences(arr: np.ndarray):
    """Squared forward differences along x, (h, w-1), and along y, (h-1, w)."""
    dx, dy = arr[:, 1:] - arr[:, :-1], arr[1:] - arr[:-1]
    dx *= dx
    dy *= dy
    return dx, dy


def _magnitude(dx2: np.ndarray, dy2: np.ndarray) -> np.ndarray:
    """sqrt(dx^2 + dy^2), the differences past the far borders taken as 0."""
    mag = np.empty((dy2.shape[0] + 1, dx2.shape[1] + 1))
    mag[:, :-1] = dx2
    mag[:, -1] = 0.0
    mag[:-1] += dy2
    return np.sqrt(mag, out=mag)


def _edges(mag: np.ndarray, threshold: float | None) -> np.ndarray:
    if threshold is None:
        threshold = float(mag.mean() + 2.0 * mag.std())
    return mag > threshold


def edge_set(img, threshold: float | None = None) -> np.ndarray:
    """Boolean mask of pixels whose gradient magnitude exceeds the cutoff."""
    return _edges(gradient_magnitude(_as_plane(img)), threshold)


def _pair_masks(edges: np.ndarray):
    keep = ~edges  # a pair is active only when neither endpoint is an edge
    return keep[:, :-1] & keep[:, 1:], keep[:-1] & keep[1:]


def pws_energy(i_arr, l_arr, edges: np.ndarray, cfg: PwsConfig) -> float:
    """Discrete objective value for a candidate smooth field."""
    i_arr = _as_plane(i_arr)
    l_arr = _as_plane(l_arr)
    if i_arr.shape != l_arr.shape or i_arr.shape != edges.shape:
        raise ValueError("image, field, and edge mask must share one shape")
    d, dh, dv = i_arr - l_arr, l_arr[:, 1:] - l_arr[:, :-1], l_arr[1:] - l_arr[:-1]
    for t in (d, dh, dv):
        t *= t
    pair_h, pair_v = _pair_masks(edges)
    dh *= pair_h
    dv *= pair_v
    smooth, n_edges = float(dh.sum() + dv.sum()), float(edges.sum())
    return 0.5 * float(d.sum()) + cfg.reg_alpha * smooth + cfg.reg_beta * n_edges


# Red sub-lattices, then black: (row parity, column parity).
_PARITIES = ((0, 0), (1, 1), (0, 1), (1, 0))


def _sub_lattices(arr: np.ndarray, edges: np.ndarray, a2: float) -> list:
    """Per sub-lattice: its parity, its points and their four neighbours as
    (centre, left, right, up, down) views of L, the update's coefficients
    (wl, wr, wu, wd, arr, diag), and two scratch arrays of its shape.

    Sub-lattice (py, px) holds the pixels (py + 2i, px + 2j) inside a zero
    border, in a frame of its own.  Each neighbour of its points then lies in
    one other frame at one shift, a contiguous window.  Frame cells outside
    the image hold 0 both for L and for "not an edge", so every pair that
    reaches one weighs 0, as at the border of a padded field.
    """
    h, w = arr.shape
    frames = np.zeros((2, 4, (h + 1) // 2 + 2, (w + 1) // 2 + 2))  # L, then not-E
    shapes = [arr[py::2, px::2].shape for py, px in _PARITIES]
    for k, ((py, px), (hc, wc)) in enumerate(zip(_PARITIES, shapes)):
        frames[0, k, 1 : 1 + hc, 1 : 1 + wc] = arr[py::2, px::2]
        np.logical_not(edges[py::2, px::2], out=frames[1, k, 1 : 1 + hc, 1 : 1 + wc])
    size = shapes[0][0] * shapes[0][1]  # (0, 0) is the largest sub-lattice
    ns_buf, t_buf = np.empty(size), np.empty(size)
    lattices = []
    for k, ((py, px), (hc, wc)) in enumerate(zip(_PARITIES, shapes)):
        centre, kept = frames[:, k, 1 : 1 + hc, 1 : 1 + wc]
        neighbours = []
        for dy, dx in ((0, -1), (0, 1), (-1, 0), (1, 0)):
            q = _PARITIES.index(((py + dy) % 2, (px + dx) % 2))
            oy, ox = 1 + (py + dy) // 2, 1 + (px + dx) // 2
            neighbours.append(frames[:, q, oy : oy + hc, ox : ox + wc])
        # A pair weighs 1 when neither end is an edge.
        weights = [kept * nb_kept for _, nb_kept in neighbours]
        diag = weights[0] + weights[1]
        diag += weights[2]
        diag += weights[3]
        diag *= a2
        diag += 1.0  # 1 + a2 * (wl + wr + wu + wd)
        views = [centre] + [nb for nb, _ in neighbours]
        scratch = ns_buf[: hc * wc].reshape(hc, wc), t_buf[: hc * wc].reshape(hc, wc)
        lattices.append(((py, px), views, weights + [centre.copy(), diag], scratch))
    return lattices


def pws_lfm(img, cfg: PwsConfig = PwsConfig()) -> LowFreqMap:
    """Low-frequency map: descend the frozen-edge quadratic from L = I."""
    arr = _as_plane(img)
    if not np.isfinite(arr).all():
        raise ValueError("input contains non-finite samples")
    dx2, dy2 = _squared_differences(arr)
    edges = _edges(_magnitude(dx2, dy2), cfg.edge_threshold)
    # At L = I the data term is 0 and the pair differences are dx and dy;
    # a pair with an edge at either end does not count.
    dx2[edges[:, :-1] | edges[:, 1:]] = 0.0
    dy2[edges[:-1] | edges[1:]] = 0.0
    smooth, n_edges = float(dx2.sum() + dy2.sum()), float(edges.sum())
    energy = cfg.reg_alpha * smooth + cfg.reg_beta * n_edges
    if smooth == 0.0:
        # No active pair differs, so L = I attains F's lower bound beta*|E|.
        return LowFreqMap(arr.copy(), (energy,))
    # Below eps * 1/2 sum I^2 an energy is rounding noise.
    floor = np.finfo(np.float64).eps * 0.5 * float(np.einsum("ij,ij->", arr, arr))
    a2 = 2.0 * cfg.reg_alpha
    # Young's factor for the bound rho on the Jacobi spectral radius: each
    # of a point's up to four neighbours weighs at most a2 / (1 + 4 a2).
    rho = 8.0 * cfg.reg_alpha / (1.0 + 8.0 * cfg.reg_alpha)
    omega = 2.0 / (1.0 + (1.0 - rho * rho) ** 0.5)
    lattices = _sub_lattices(arr, edges, a2)

    trace = [energy]
    for _ in range(cfg.max_iters):
        drop = 0.0
        for _, (centre, left, right, up, down), coefs, (ns, t) in lattices:
            cl, cr, cu, cd, arr_s, diag_s = coefs
            # (arr + a2 * (wl*left + wr*right + wu*up + wd*down)) / diag, in this order
            np.multiply(cl, left, out=ns)
            ns += np.multiply(cr, right, out=t)
            ns += np.multiply(cu, up, out=t)
            ns += np.multiply(cd, down, out=t)
            ns *= a2
            ns += arr_s
            ns /= diag_s
            ns -= centre  # the Gauss-Seidel step
            drop += float(np.einsum("ij,ij,ij->", ns, ns, diag_s))
            ns *= omega
            centre += ns
        # omega times the step to a sub-lattice's exact minimizer lowers F
        # by omega (2 - omega) / 2 sum diag * step^2.
        drop *= 0.5 * omega * (2.0 - omega)
        prev, energy = energy, energy - drop
        trace.append(energy)
        if drop <= cfg.tol * max(prev, floor):
            break
    out = np.empty_like(arr)
    for (py, px), (centre, *_), _, _ in lattices:
        out[py::2, px::2] = centre
    return LowFreqMap(out, tuple(trace))
