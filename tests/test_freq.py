"""Frequency maps: Sobel magnitudes and the piecewise-smooth solver."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bandgauge.datagen import KINDS, SynthSpec, make_sample
from bandgauge.freq import (
    PwsConfig,
    edge_set,
    pws_energy,
    pws_lfm,
    sobel_hfm,
)
from bandgauge.imgcore import tile, to_luma
from bandgauge.pipeline import RunConfig
from conftest import SQ2, extract, sobel_reference


def dense_direct_solve(i_arr, edges, alpha):
    """Independent minimizer of the frozen-edge quadratic.

    Builds the full normal-equation matrix from the energy definition
    (stationarity of 1/2 (I-L)^2 + alpha * sum_active (L_q - L_p)^2) and
    solves it densely.
    """
    h, w = i_arr.shape
    n = h * w
    keep = ~edges
    idx = lambda y, x: y * w + x
    a = np.zeros((n, n))
    for y in range(h):
        for x in range(w):
            p = idx(y, x)
            a[p, p] += 1.0
            for dy, dx in ((0, 1), (1, 0)):
                qy, qx = y + dy, x + dx
                if qy < h and qx < w and keep[y, x] and keep[qy, qx]:
                    q = idx(qy, qx)
                    a[p, p] += 2.0 * alpha
                    a[q, q] += 2.0 * alpha
                    a[p, q] -= 2.0 * alpha
                    a[q, p] -= 2.0 * alpha
    return np.linalg.solve(a, i_arr.ravel()).reshape(h, w)


def masked_smooth(l_arr, edges):
    """The sum of squared active pair differences, by boolean compaction."""
    keep = ~edges
    active_h = keep[:, :-1] & keep[:, 1:]
    active_v = keep[:-1, :] & keep[1:, :]
    dh = l_arr[:, 1:] - l_arr[:, :-1]
    dv = l_arr[1:, :] - l_arr[:-1, :]
    return float((dh * dh)[active_h].sum() + (dv * dv)[active_v].sum())


def masked_energy(i_arr, l_arr, edges, cfg):
    """The objective with the pair masks applied by boolean compaction."""
    data = 0.5 * float(((i_arr - l_arr) ** 2).sum())
    smooth = masked_smooth(l_arr, edges)
    return data + cfg.reg_alpha * smooth + cfg.reg_beta * float(edges.sum())


def young_omega(alpha):
    """Young's optimal factor for a Jacobi spectral radius of 8a / (1 + 8a)."""
    rho = 8.0 * alpha / (1.0 + 8.0 * alpha)
    return 2.0 / (1.0 + (1.0 - rho * rho) ** 0.5)


def masked_red_black(arr, cfg):
    """Reference solver: full-grid neighbour sums and boolean colour masks.

    The same Gauss-Seidel value gs = (arr + 2 alpha * ns) / diag, with ns
    summed left, right, up, down, applied one colour at a time over the
    whole grid as L + omega * (gs - L), omega by Young's formula.  When the
    masked smooth sum at L = I is 0.0 it returns the input with no sweep.
    Otherwise it stops by pws_lfm's rule on its own decrement,
    omega (2 - omega) / 2 sum diag * (gs - L)^2 over each colour by boolean
    compaction, against the energy it recomputes with masked_energy.
    Returns (field, recomputed energy trace).
    """
    edges = edge_set(arr, cfg.edge_threshold)
    if masked_smooth(arr, edges) == 0.0:
        return arr.copy(), [masked_energy(arr, arr, edges, cfg)]
    keep = ~edges
    active_h = keep[:, :-1] & keep[:, 1:]
    active_v = keep[:-1, :] & keep[1:, :]
    h, w = arr.shape
    wl, wr, wu, wd = (np.zeros((h, w)) for _ in range(4))
    wl[:, 1:] = active_h
    wr[:, :-1] = active_h
    wu[1:, :] = active_v
    wd[:-1, :] = active_v
    a2 = 2.0 * cfg.reg_alpha
    omega = young_omega(cfg.reg_alpha)
    diag = 1.0 + a2 * (wl + wr + wu + wd)
    yy, xx = np.indices((h, w))
    red = (yy + xx) % 2 == 0
    floor = np.finfo(np.float64).eps * 0.5 * float((arr * arr).sum())

    l_cur = arr.copy()
    trace = [masked_energy(arr, l_cur, edges, cfg)]
    for _ in range(cfg.max_iters):
        drop = 0.0
        for mask in (red, ~red):
            ns = np.zeros_like(l_cur)
            ns[:, 1:] += wl[:, 1:] * l_cur[:, :-1]
            ns[:, :-1] += wr[:, :-1] * l_cur[:, 1:]
            ns[1:, :] += wu[1:, :] * l_cur[:-1, :]
            ns[:-1, :] += wd[:-1, :] * l_cur[1:, :]
            step = (arr[mask] + a2 * ns[mask]) / diag[mask] - l_cur[mask]
            drop += float((diag[mask] * step**2).sum())
            l_cur[mask] = l_cur[mask] + step * omega
        trace.append(masked_energy(arr, l_cur, edges, cfg))
        if 0.5 * omega * (2.0 - omega) * drop <= cfg.tol * max(trace[-2], floor):
            break
    return l_cur, trace


# --- Sobel HFM ----------------------------------------------------------------


def test_constant_patch_zero_hfm():
    hfm = sobel_hfm(np.full((9, 9), 0.4))
    assert np.abs(hfm).max() == 0.0


def test_horizontal_ramp_interior_response():
    n = 16
    s = 1.0 / n
    xs = np.arange(n) * s
    patch = np.tile(xs, (n, 1))
    hfm = sobel_hfm(patch)
    want = (4.0 + 2.0 * SQ2) * s
    interior = hfm[1:-1, 1:-1]
    assert np.abs(interior - want).max() < 1e-12
    # Vertical component is zero: magnitude equals |horizontal| everywhere
    # interior, and rows are all identical.
    assert np.abs(hfm - hfm[0]).max() < 1e-12


def test_rotation_symmetry(rng):
    patch = rng.random((12, 12))
    rotated = np.rot90(patch)
    a = sobel_hfm(rotated)
    b = np.rot90(sobel_hfm(patch))
    assert np.abs(a - b).max() < 1e-12


SOBEL_X = np.array([[-1.0, 0.0, 1.0], [-SQ2, 0.0, SQ2], [-1.0, 0.0, 1.0]])
SOBEL_Y = SOBEL_X.T


def test_matches_naive_kernel_correlation(rng):
    patch = rng.random((9, 11))
    padded = np.pad(patch, 1, mode="edge")
    h, w = patch.shape
    want = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            win = padded[y : y + 3, x : x + 3]
            gx = (win * SOBEL_X).sum()
            gy = (win * SOBEL_Y).sum()
            want[y, x] = np.sqrt(gx * gx + gy * gy)
    assert np.abs(sobel_hfm(patch) - want).max() < 1e-12


def test_constant_offset_invariance(rng):
    patch = rng.random((10, 10)) * 0.5
    a = sobel_hfm(patch)
    b = sobel_hfm(patch + 0.25)
    assert np.abs(a - b).max() < 1e-12


def test_small_patch_rejected():
    with pytest.raises(ValueError):
        sobel_hfm(np.zeros((2, 5)))
    with pytest.raises(ValueError):
        sobel_hfm(np.zeros((4, 3, 2)))
    with pytest.raises(ValueError):
        sobel_hfm(np.zeros(9))


@st.composite
def tile_stacks(draw):
    """A (B, n, n) float64 stack, B in 1..5 and n in 3..40."""
    b, n = draw(st.integers(1, 5)), draw(st.integers(3, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from([2, 7, 256, 0]))  # 0: continuous values
    stack = rng.random((b, n, n))
    return np.floor(stack * levels) / levels if levels else stack


@settings(max_examples=120, deadline=None)
@given(tile_stacks())
@example(np.zeros((1, 3, 3)))
@example(np.arange(2 * 40 * 40, dtype=np.float64).reshape(2, 40, 40) / 3200.0)
def test_sobel_on_a_stack_is_per_tile_bitwise(stack):
    got = sobel_hfm(stack)
    assert got.shape == stack.shape
    assert np.isfinite(got).all() and got.min() >= 0.0
    for tile, values in zip(stack, got):
        # Each tile of the stack keeps its own replicated border.
        assert values.tobytes() == sobel_hfm(tile).tobytes()
        assert values.tobytes() == sobel_reference(tile).tobytes()


# --- energy --------------------------------------------------------------------


def test_energy_zero_for_exact_constant_fit():
    i_arr = np.full((6, 6), 0.3)
    e = np.zeros((6, 6), dtype=bool)
    assert pws_energy(i_arr, i_arr, e, PwsConfig()) == 0.0


def test_energy_linear_in_alpha(rng):
    i_arr = rng.random((8, 8))
    l_arr = rng.random((8, 8))
    edges = edge_set(i_arr)
    cfgs = [PwsConfig(reg_alpha=a, reg_beta=0.05) for a in (1.0, 2.0, 4.0)]
    e1, e2, e4 = (pws_energy(i_arr, l_arr, edges, c) for c in cfgs)
    assert e4 - e2 == pytest.approx(2.0 * (e2 - e1), rel=1e-12)


def test_energy_dimension_mismatch():
    with pytest.raises(ValueError):
        pws_energy(np.zeros((4, 4)), np.zeros((4, 5)), np.zeros((4, 4), bool), PwsConfig())


def test_solver_output_beats_identity(rng):
    for _ in range(5):
        i_arr = rng.random((16, 16))
        cfg = PwsConfig(max_iters=400, tol=1e-10)
        lfm = pws_lfm(i_arr, cfg)
        edges = edge_set(i_arr)
        assert pws_energy(i_arr, lfm.values, edges, cfg) <= pws_energy(
            i_arr, i_arr, edges, cfg
        )


# --- solver behaviour ------------------------------------------------------------


def test_constant_image_is_fixed_point():
    arr = np.full((10, 10), 0.6)
    lfm = pws_lfm(arr, PwsConfig())
    assert np.abs(lfm.values - arr).max() == 0.0
    assert lfm.energy_trace[0] == 0.0


def test_alpha_to_zero_returns_input(rng):
    arr = rng.random((12, 12))
    lfm = pws_lfm(arr, PwsConfig(reg_alpha=1e-9, max_iters=200, tol=1e-14))
    assert np.abs(lfm.values - arr).max() < 1e-6


def test_monotone_energy_descent(rng):
    # The trace falls by non-negative decrements by construction, so the
    # energy is recomputed from each iterate instead.
    for _ in range(4):
        arr = rng.random((14, 14))
        edges = edge_set(arr)
        cfgs = [PwsConfig(max_iters=k, tol=1e-14) for k in range(1, 61)]
        energies = [pws_energy(arr, arr, edges, cfgs[0])]
        energies += [pws_energy(arr, pws_lfm(arr, c).values, edges, c) for c in cfgs]
        assert (np.diff(energies) <= 1e-12).all()
        assert energies[-1] < energies[0]


def test_noise_free_step_is_preserved_exactly():
    arr = np.full((16, 16), 0.2)
    arr[:, 8:] = 0.7
    cfg = PwsConfig(edge_threshold=0.3, max_iters=2000, tol=1e-14)
    lfm = pws_lfm(arr, cfg)
    assert np.abs(lfm.values - arr).max() < 1e-9


def test_noisy_step_smoothing():
    rng = np.random.default_rng(424242)
    clean = np.full((16, 16), 0.2)
    clean[:, 8:] = 0.7
    noise = rng.normal(0.0, 0.05, size=(16, 16))
    noise[:, 7:9] = 0.0  # keep the edge clean so tau separates it
    noisy = np.clip(clean + noise, 0.0, 1.0)
    cfg = PwsConfig(reg_alpha=2.0, edge_threshold=0.3, max_iters=4000, tol=1e-14)
    lfm = pws_lfm(noisy, cfg)

    # The edge pixels sit in the frozen set, so the solver reproduces them
    # exactly; the step height across the edge survives up to the plateau
    # noise's sample mean (the exact-preservation case is tested noise-free).
    assert np.abs(lfm.values[:, 7] - noisy[:, 7]).max() < 1e-9
    step = lfm.values[:, 8].mean() - lfm.values[:, 7].mean()
    true_step = clean[:, 8].mean() - clean[:, 7].mean()
    assert abs(step - true_step) < 0.02

    off_edge = np.ones((16, 16), dtype=bool)
    off_edge[:, 6:10] = False
    rms_in = np.sqrt(np.mean((noisy - clean)[off_edge] ** 2))
    rms_out = np.sqrt(np.mean((lfm.values - clean)[off_edge] ** 2))
    assert rms_out <= rms_in / 4.0

    # And the solver agrees with the dense direct solve of the same system.
    direct = dense_direct_solve(noisy, edge_set(noisy, 0.3), cfg.reg_alpha)
    rel = np.linalg.norm(lfm.values - direct) / np.linalg.norm(direct)
    assert rel < 1e-6


def test_direct_solve_agreement_random(rng):
    for _ in range(5):
        h = int(rng.integers(6, 20))
        w = int(rng.integers(6, 20))
        arr = rng.random((h, w))
        alpha = float(rng.uniform(0.5, 4.0))
        cfg = PwsConfig(reg_alpha=alpha, max_iters=20000, tol=1e-14)
        lfm = pws_lfm(arr, cfg)
        direct = dense_direct_solve(arr, edge_set(arr), alpha)
        rel = np.linalg.norm(lfm.values - direct) / np.linalg.norm(direct)
        assert rel < 1e-6


def test_nonfinite_input_rejected():
    arr = np.zeros((8, 8))
    arr[3, 3] = np.nan
    with pytest.raises(ValueError):
        pws_lfm(arr, PwsConfig())


@pytest.mark.parametrize(
    "bad",
    [
        {"reg_alpha": np.nan},
        {"reg_alpha": np.inf},
        {"reg_beta": np.nan},
        {"tol": np.nan},
        {"tol": np.inf},
        {"edge_threshold": np.nan},
        {"edge_threshold": -np.inf},
        {"max_iters": 2.5},
        {"max_iters": 120.0},
        {"max_iters": True},
        {"max_iters": "120"},
        {"max_iters": 0},
    ],
    ids=lambda bad: "-".join(f"{k}={v!r}" for k, v in bad.items()),
)
def test_nonfinite_or_non_int_config_rejected(bad):
    with pytest.raises(ValueError):
        PwsConfig(**bad)


def test_solver_defaults_defined_once():
    cfg = PwsConfig()
    assert (cfg.reg_alpha, cfg.reg_beta, cfg.max_iters, cfg.tol) == (2.0, 0.05, 120, 1e-5)
    assert cfg.edge_threshold is None
    assert RunConfig().pws == cfg
    assert PwsConfig(max_iters=np.int64(7)).max_iters == 7


def test_bad_config_rejected():
    with pytest.raises(ValueError):
        PwsConfig(reg_alpha=0.0)
    with pytest.raises(ValueError):
        PwsConfig(tol=-1.0)


# --- strided sub-lattice sweeps against the masked reference ----------------------

_ROW = np.array([[0.1, 0.9, 0.3, 0.35, 0.8, 0.2, 0.6]])


@st.composite
def _solver_cases(draw):
    h = draw(st.integers(1, 17))
    w = draw(st.integers(1, 17))
    arr = draw(hnp.arrays(np.float64, (h, w), elements=st.floats(0.0, 1.0)))
    cfg = PwsConfig(
        reg_alpha=draw(st.floats(0.05, 8.0)),
        edge_threshold=draw(st.none() | st.floats(0.0, 0.8)),
        max_iters=draw(st.integers(1, 60)),
    )
    return arr, cfg


@given(_solver_cases())
@example((_ROW, PwsConfig()))  # 1 x n
@example((_ROW.T, PwsConfig(edge_threshold=0.3)))  # n x 1
@example((np.full((1, 1), 0.4), PwsConfig()))
@example((np.array([[0.0, 1.0], [1.0, 0.0]]), PwsConfig(reg_alpha=0.5, max_iters=40)))
@example((np.arange(35.0).reshape(5, 7) % 4 / 3, PwsConfig(max_iters=60)))  # odd sides
@example((np.arange(48.0).reshape(6, 8) % 5 / 4, PwsConfig(edge_threshold=0.0)))  # even
@example((np.array([[3.81896261e-161, 0.0]]), PwsConfig(reg_alpha=1.0, max_iters=1)))  # subnormal
@settings(max_examples=200, deadline=None)
def test_strided_sweeps_match_masked_red_black(case):
    arr, cfg = case
    lfm = pws_lfm(arr, cfg)
    want, want_trace = masked_red_black(arr, cfg)
    assert np.array_equal(lfm.values, want)
    assert len(lfm.energy_trace) == len(want_trace)  # same sweep count
    atol = energy_atol(arr, cfg, len(want_trace))
    np.testing.assert_allclose(lfm.energy_trace, want_trace, rtol=1e-12, atol=atol)


def energy_atol(arr, cfg, entries):
    """Rounding allowance between the running and a recomputed energy.

    A relative test cannot absorb it near 0: on a flat 1x3 row at alpha 3
    the two read -8e-32 and +8e-32 when the solver swept such rows.  The
    allowance is some hundreds of eps times the scale of the energy's terms,
    (1 + 16 alpha) sum I^2.  Below the normal range a product rounds by up
    to one subnormal step instead, so a few such steps per pixel and trace
    entry are allowed on top: energies of 3.755e-322 and 3.804e-322 differ
    by one step.
    """
    atol = 1e-13 * (1.0 + 16.0 * cfg.reg_alpha) * float((arr * arr).sum())
    return atol + 8 * arr.size * entries * np.finfo(np.float64).smallest_subnormal


def test_final_energy_is_the_documented_objective(rng):
    for h, w in ((1, 9), (9, 1), (2, 2), (15, 16), (33, 21), (64, 64)):
        arr = rng.random((h, w))
        cfg = PwsConfig(reg_alpha=float(rng.uniform(0.5, 4.0)))
        lfm = pws_lfm(arr, cfg)
        edges = edge_set(arr)
        want = pws_energy(arr, lfm.values, edges, cfg)
        assert lfm.energy_trace[-1] == pytest.approx(want, rel=1e-12)
        assert want == pytest.approx(masked_energy(arr, lfm.values, edges, cfg), rel=1e-12)


# --- properties of the over-relaxed solver -------------------------------------


@given(_solver_cases())
@settings(max_examples=200, deadline=None)
def test_energy_trace_falls_to_the_returned_maps_energy(case):
    # Each sweep lowers F by omega (2 - omega) / 2 sum diag * step^2, which
    # is >= 0 for any 0 < omega < 2.
    arr, cfg = case
    lfm = pws_lfm(arr, cfg)
    trace = np.array(lfm.energy_trace)
    assert (np.diff(trace) <= 0.0).all(), trace
    want = pws_energy(arr, lfm.values, edge_set(arr, cfg.edge_threshold), cfg)
    atol = energy_atol(arr, cfg, len(trace))
    np.testing.assert_allclose(trace[-1], want, rtol=1e-12, atol=atol)


@st.composite
def _plateau_cases(draw):
    """Up to four constant quadrants: L = I often minimizes F on them."""
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    cy, cx = draw(st.integers(0, h)), draw(st.integers(0, w))
    levels = draw(st.lists(st.sampled_from([0.0, 0.25, 0.6, 1.0]), min_size=4, max_size=4))
    arr = np.full((h, w), levels[0])
    arr[cy:, :cx], arr[:cy, cx:], arr[cy:, cx:] = levels[1:]
    cfg = PwsConfig(
        reg_alpha=draw(st.floats(0.05, 8.0)),
        edge_threshold=draw(st.none() | st.floats(0.0, 0.8)),
    )
    return arr, cfg


@given(_plateau_cases() | _solver_cases())
@example((np.full((5, 4), 0.3), PwsConfig()))
@example((np.repeat([[0.0, 0.0, 1.0, 1.0]], 3, axis=0), PwsConfig(edge_threshold=0.5)))
@settings(max_examples=200, deadline=None)
def test_no_sweep_exactly_when_the_input_minimizes_f(case):
    arr, cfg = case
    lfm = pws_lfm(arr, cfg)
    edges = edge_set(arr, cfg.edge_threshold)
    swept = len(lfm.energy_trace) > 1
    assert swept == (masked_smooth(arr, edges) > 0.0)
    if not swept:
        assert lfm.values.tobytes() == arr.tobytes()
        direct = dense_direct_solve(arr, edges, cfg.reg_alpha)
        assert np.abs(lfm.values - direct).max() <= 1e-12


# --- the eight symmetries of the square ---------------------------------------

_SYMMETRIES = {
    "identity": lambda a: a,
    "rot90": lambda a: np.rot90(a, 1),
    "rot180": lambda a: np.rot90(a, 2),
    "rot270": lambda a: np.rot90(a, 3),
    "transpose": lambda a: a.T,
    "anti-transpose": lambda a: np.rot90(a, 2).T,
    "flip-rows": np.flipud,
    "flip-columns": np.fliplr,
}
# On even sides these keep each pixel's colour (y + x) mod 2; the others
# swap red and black.  On odd sides all eight keep it.
_KEEP_COLOURS = {"identity", "rot180", "transpose", "anti-transpose"}
# These turn forward differences into backward ones.
_REVERSE_AN_AXIS = set(_SYMMETRIES) - {"identity", "transpose"}


def tilewise(fn, image, n):
    """fn's map of each n x n tile of an image that the grid tiles exactly,
    laid out where the tile lies."""
    out = np.empty_like(image)
    for y in range(0, image.shape[0], n):
        for x in range(0, image.shape[1], n):
            out[y : y + n, x : x + n] = fn(np.ascontiguousarray(image[y : y + n, x : x + n]))
    return out


@st.composite
def _tiled_images(draw, max_side):
    """(image, n): a rows x cols grid of n x n tiles, n in 3..max_side."""
    n = draw(st.integers(3, max_side))
    rows, cols = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from([2, 7, 256, 0]))  # 0: continuous values
    image = rng.random((rows * n, cols * n))
    return (np.floor(image * levels) / levels if levels else image), n


@pytest.mark.parametrize("name", list(_SYMMETRIES))
@given(case=_tiled_images(24))
@settings(max_examples=40, deadline=None)
def test_sobel_follows_the_symmetries_of_the_square(name, case):
    image, n = case
    g = _SYMMETRIES[name]
    got = tilewise(sobel_hfm, np.ascontiguousarray(g(image)), n)
    want = g(tilewise(sobel_hfm, image, n))
    # A symmetry negates or swaps the two central differences, and swaps the
    # two outer taps of the smoothing sum; only that sum's order changes, so
    # the magnitudes (at most 2 (2 + sqrt 2) on [0, 1]) agree to rounding.
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


_FORWARD_EDGES = (
    "the frozen edge set is built from forward differences, which a "
    "reversed axis turns into backward ones (FOUND note in CHANGES.md)"
)


@pytest.mark.parametrize(
    "name, edge_rule",
    [
        pytest.param(name, rule, marks=pytest.mark.xfail(strict=True, reason=_FORWARD_EDGES))
        if rule == "drawn" and name in _REVERSE_AN_AXIS
        else (name, rule)
        for name in _SYMMETRIES
        for rule in ("drawn", "none")
    ],
)
@given(case=_tiled_images(16), alpha=st.floats(0.05, 8.0), tau=st.none() | st.floats(0.0, 0.8))
@example(case=(np.random.default_rng(3).random((6, 6)), 6), alpha=2.0, tau=None)
@settings(max_examples=30, deadline=None)
def test_pws_lfm_follows_the_symmetries_of_the_square(name, edge_rule, case, alpha, tau):
    # edge_rule "none" sets a threshold above every forward-difference
    # magnitude on [0, 1] (at most sqrt 2), so that no pixel is an edge.
    image, n = case
    g = _SYMMETRIES[name]
    cfg = PwsConfig(reg_alpha=alpha, edge_threshold=tau if edge_rule == "drawn" else 2.0)
    got = tilewise(lambda t: pws_lfm(t, cfg).values, np.ascontiguousarray(g(image)), n)
    want = g(tilewise(lambda t: pws_lfm(t, cfg).values, image, n))
    if n % 2 or name in _KEEP_COLOURS:
        # Every update meets the same values; only the order of the sums
        # over neighbours and over the image changes.
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    else:
        # Red and black swap, so the two runs take different iterates and
        # may stop at different sweeps.  Each map lies within its stopping
        # distance of the exact minimizer, which the symmetry carries over.
        def distance(t):
            direct = dense_direct_solve(t, edge_set(t, cfg.edge_threshold), alpha)
            return np.abs(pws_lfm(t, cfg).values - direct)

        slack = tilewise(distance, np.ascontiguousarray(g(image)), n) + g(tilewise(distance, image, n))
        assert (np.abs(got - want) <= slack + 1e-10).all()


# --- flat tiles and real tiles ------------------------------------------------


@pytest.mark.parametrize("n, step", [(64, 1), (235, 4)])
def test_flat_tile_is_returned_with_no_sweep(n, step):
    # No pair of a flat tile differs, so L = I already minimizes F and the
    # solver returns the input without a sweep.
    for level in [k / 255 for k in range(0, 256, step)] + [0.7, 1 / 3]:
        arr = np.full((n, n), level)
        lfm = pws_lfm(arr, PwsConfig())
        assert lfm.values.tobytes() == arr.tobytes(), level
        assert len(lfm.energy_trace) == 1, (level, len(lfm.energy_trace) - 1)


def _datagen_tiles():
    """(name, luma) of 64^2 tiles of each kind at depths 8, 5, 3 and of one
    235^2 noise tile: the hypothesis cases stop at 17 x 17."""
    for kind in KINDS:
        for depth in (8, 5, 3):
            image = make_sample(SynthSpec(kind, size=128, bit_depth=depth, seed=depth)).image
            luma = to_luma(image).astype(np.float64)
            grid = tile(image, 64)
            for k in range(len(grid)):
                yield f"{kind}-d{depth}-{k}", extract(grid, luma, k)
    noise = make_sample(SynthSpec("noise_texture", size=235, bit_depth=8, seed=1)).image
    yield "noise_texture-235", to_luma(noise).astype(np.float64)


def test_real_tiles_match_masked_red_black_bitwise():
    sweeps = []
    for name, arr in _datagen_tiles():
        lfm = pws_lfm(arr, PwsConfig())
        want, want_trace = masked_red_black(arr, PwsConfig())
        assert lfm.values.tobytes() == want.tobytes(), name
        assert len(lfm.energy_trace) == len(want_trace), name
        sweeps.append(len(want_trace) - 1)
    # Both paths stay covered: tiles that L = I already solves, and tiles
    # that need sweeps.
    assert 0 in sweeps and max(sweeps) > 0, sweeps
