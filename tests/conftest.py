import math

import numpy as np
import pytest

from bandgauge.imgcore import PlanarImage


def gray_image(value, w=16, h=16):
    return PlanarImage.from_array(np.full((h, w), value, dtype=np.uint8))


def rgb_image(r, g, b, w=8, h=8):
    arr = np.zeros((h, w, 3), dtype=np.uint8)
    arr[:, :, 0] = r
    arr[:, :, 1] = g
    arr[:, :, 2] = b
    return PlanarImage.from_array(arr)


def quantized_ramp_patch(n=64, levels=4, horizontal=True):
    """Float [0,1] ramp collapsed to `levels` plateaus (banding look)."""
    ramp = np.linspace(0.0, 1.0, n)
    q = np.floor(ramp * levels * 0.999999) / (levels - 1)
    q = np.clip(q, 0.0, 1.0)
    patch = np.tile(q, (n, 1))
    return patch if horizontal else patch.T


# Per-tile references for the streamed scoring stages: the formulas as they
# ran one tile (or one whole frame) at a time, before blocks.

SQ2 = np.sqrt(2.0)


def extract(grid, arr, k):
    """View of the grid's patch k out of a (h, w) array."""
    x, y = grid.origin(k)
    n = grid.patch_size
    return arr[y : y + n, x : x + n]


def luma_reference(img):
    """The per-pixel luma formula on whole-frame float64 planes."""
    if img.channels == 3:
        r, g, b = (p.astype(np.float64) for p in img.planes)
        y = 0.299 * r + 0.587 * g + 0.114 * b
    else:
        y = img.planes[0].astype(np.float64)
    if not img.is_float:
        y /= 255.0
    return np.clip(y, 0.0, 1.0).astype(np.float32)


def sobel_reference(patch):
    """Sobel magnitude of one edge-padded 2-D array, differences taken first."""
    h, w = patch.shape
    p = np.pad(patch, 1, mode="edge")
    east_west = p[:, 2 : w + 2] - p[:, 0:w]
    gx = east_west[0:h] + SQ2 * east_west[1 : h + 1] + east_west[2 : h + 2]
    south_north = p[2 : h + 2, :] - p[0:h, :]
    gy = south_north[:, 0:w] + SQ2 * south_north[:, 1 : w + 1] + south_north[:, 2 : w + 2]
    return np.sqrt(gx * gx + gy * gy)


def sf_reference(patch):
    """One tile's (cf, rf, sf)."""
    n = patch.shape[0]
    cs = float(((patch[:, 1:] - patch[:, :-1]) ** 2).sum()) / (n * n)
    rs = float(((patch[1:, :] - patch[:-1, :]) ** 2).sum()) / (n * n)
    return math.sqrt(cs), math.sqrt(rs), math.sqrt(cs + rs)


def train_val(samples, seed):
    """(train, val) lists: the samples shuffled by seed, cut 0.8 / 0.1 with
    the last tenth held out."""
    order = np.random.default_rng(seed).permutation(len(samples))
    n_train = int(round(0.8 * len(samples)))
    n_val = int(round(0.1 * len(samples)))
    return (
        [samples[i] for i in order[:n_train]],
        [samples[i] for i in order[n_train : n_train + n_val]],
    )


def simpson_integral(fn, lo, hi, n=20000):
    """Composite Simpson; n is forced even, and fn takes all n + 1 nodes as
    one array."""
    if n % 2:
        n += 1
    xs = np.linspace(lo, hi, n + 1)
    ys = fn(xs)
    h = (hi - lo) / n
    return h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum())


def t_pdf(x, dof):
    """t density at each point of an array."""
    c = math.exp(math.lgamma((dof + 1) / 2.0) - math.lgamma(dof / 2.0))
    c /= math.sqrt(dof * math.pi)
    return c * (1.0 + x * x / dof) ** (-(dof + 1) / 2.0)


def t_cdf_by_integration(x, dof, n=20000):
    """Independent t CDF: 0.5 + integral of the density from 0 to x."""
    if x == 0.0:
        return 0.5
    sign = 1.0 if x > 0 else -1.0
    return 0.5 + sign * simpson_integral(lambda u: t_pdf(u, dof), 0.0, abs(x), n)


def t_upper_quantile_by_integration(p, dof):
    """Independent upper-tail quantile via bisection on the integral CDF."""
    target = 1.0 - p
    lo, hi = 0.0, 4.0
    while t_cdf_by_integration(hi, dof) < target:
        hi *= 2.0
        if hi > 1e7:
            raise RuntimeError("bracketing failed")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if t_cdf_by_integration(mid, dof) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-9 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def f_pdf(x, d1, d2):
    """F density at each point of an array; 0 where x <= 0."""
    pos = x > 0
    x = np.where(pos, x, 1.0)
    ln = (
        math.lgamma((d1 + d2) / 2.0)
        - math.lgamma(d1 / 2.0)
        - math.lgamma(d2 / 2.0)
        + (d1 / 2.0) * math.log(d1 / d2)
        + (d1 / 2.0 - 1.0) * np.log(x)
        - ((d1 + d2) / 2.0) * np.log(1.0 + d1 * x / d2)
    )
    return np.where(pos, np.exp(ln), 0.0)


def f_cdf_by_integration(x, d1, d2, n=40000):
    if x <= 0:
        return 0.0
    # Substitute x = u^2 to smooth out the density's power-law corner at 0.
    return simpson_integral(
        lambda u: 2.0 * u * f_pdf(u * u, d1, d2), 0.0, np.sqrt(x), n
    )


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240816)
