"""Correlations, logistic alignment, curves, threshold search, F-test."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bandgauge.evalharness import (
    Logistic5Params,
    _inversions,
    _paired,
    _projected_sse,
    _rankdata,
    fit_logistic5,
    ftest_significance,
    krcc,
    logistic5,
    pearson,
    plcc_rmse,
    roc_pr,
    srcc,
    threshold_search,
)
from conftest import f_cdf_by_integration


# --- naive reference implementations (oracles) ------------------------------------


def naive_ranks(v):
    v = list(v)
    ranks = [0.0] * len(v)
    for i, a in enumerate(v):
        less = sum(1 for b in v if b < a)
        equal = sum(1 for b in v if b == a)
        ranks[i] = less + (equal + 1) / 2.0
    return ranks


def naive_pearson(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    num = sum((a - mx) * (b - my) for a, b in zip(x, y))
    den = math.sqrt(sum((a - mx) ** 2 for a in x) * sum((b - my) ** 2 for b in y))
    return num / den


def naive_srcc(x, y):
    return naive_pearson(naive_ranks(x), naive_ranks(y))


def naive_krcc(x, y):
    n = len(x)
    conc = disc = tx = ty = 0
    for i in range(n):
        for j in range(i + 1, n):
            a = int(x[i] > x[j]) - int(x[i] < x[j])
            b = int(y[i] > y[j]) - int(y[i] < y[j])
            if a == 0 and b == 0:
                tx += 1
                ty += 1
            elif a == 0:
                tx += 1
            elif b == 0:
                ty += 1
            elif a == b:
                conc += 1
            else:
                disc += 1
    n0 = n * (n - 1) // 2
    return (conc - disc) / math.sqrt((n0 - tx) * (n0 - ty))


def naive_auroc(scores, labels):
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def naive_auprc(scores, labels):
    pairs = sorted(zip(scores, labels), key=lambda t: -t[0])
    n_pos = sum(labels)
    distinct = sorted({s for s, _ in pairs}, reverse=True)
    area = 0.0
    prev_recall = 0.0
    for thr in distinct:
        tp = sum(1 for s, l in pairs if s >= thr and l == 1)
        fp = sum(1 for s, l in pairs if s >= thr and l == 0)
        recall = tp / n_pos
        precision = tp / (tp + fp)
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


def naive_best_accuracy(scores, labels):
    cands = sorted(set(scores))
    cands = (
        [cands[0] - 1.0]
        + [0.5 * (a + b) for a, b in zip(cands, cands[1:])]
        + list(cands)
        + [cands[-1] + 1.0]
    )
    best = 0.0
    for t in cands:
        acc = sum((s >= t) == (l == 1) for s, l in zip(scores, labels)) / len(scores)
        best = max(best, acc)
    return best


# --- the earlier loop and sign-matrix implementations, kept as bit-exact oracles --------


def loop_rankdata(v):
    order = np.argsort(v, kind="stable")
    ranks = np.empty(v.size, dtype=np.float64)
    sv = v[order]
    i = 0
    while i < v.size:
        j = i
        while j + 1 < v.size and sv[j + 1] == sv[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def loop_krcc(x, y):
    """The O(n^2) tau-b that the merge count replaced: the sum of sign
    products one row at a time, and its integer numerator."""
    score = sum(
        int(np.sign(x[i + 1 :] - x[i]) @ np.sign(y[i + 1 :] - y[i]))
        for i in range(x.size - 1)
    )
    denom = krcc_denominator(x, y)
    if denom == 0.0:
        raise ValueError("correlation undefined for a constant vector")
    return score, score / denom


def krcc_denominator(x, y):
    n0 = x.size * (x.size - 1) // 2
    ties_x, ties_y = (
        sum(c * (c - 1) // 2 for c in np.unique(v, return_counts=True)[1].tolist())
        for v in (x, y)
    )
    return math.sqrt((n0 - ties_x) * (n0 - ties_y))


def matrix_krcc(x, y):
    sx = np.sign(x[:, None] - x[None, :])
    sy = np.sign(y[:, None] - y[None, :])
    iu = np.triu_indices(x.size, k=1)
    prod = sx[iu] * sy[iu]
    concordant = int((prod > 0).sum())
    discordant = int((prod < 0).sum())
    n0 = x.size * (x.size - 1) // 2
    ties_x = n0 - int((sx[iu] != 0).sum())
    ties_y = n0 - int((sy[iu] != 0).sum())
    denom = math.sqrt((n0 - ties_x) * (n0 - ties_y))
    if denom == 0.0:
        raise ValueError("correlation undefined for a constant vector")
    return (concordant - discordant) / denom


def loop_roc_pr(s, lab):
    """(auroc, auprc, roc_points, pr_points)."""
    n_pos = int(lab.sum())
    n_neg = lab.size - n_pos
    rank_sum = float(loop_rankdata(s)[lab == 1].sum())
    auroc = (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    order = np.argsort(-s, kind="stable")
    s_ord = s[order]
    lab_ord = lab[order]
    tp = fp = 0
    roc_points = [(0.0, 0.0)]
    pr_points = []
    auprc = 0.0
    prev_recall = 0.0
    i = 0
    while i < s_ord.size:
        j = i
        while j + 1 < s_ord.size and s_ord[j + 1] == s_ord[i]:
            j += 1
        tp += int(lab_ord[i : j + 1].sum())
        fp += (j - i + 1) - int(lab_ord[i : j + 1].sum())
        recall = tp / n_pos
        precision = tp / (tp + fp)
        roc_points.append((fp / n_neg, recall))
        pr_points.append((recall, precision))
        auprc += (recall - prev_recall) * precision
        prev_recall = recall
        i = j + 1
    return float(auroc), float(auprc), tuple(roc_points), tuple(pr_points)


def threshold_candidates(scores):
    """One below all scores, the midpoints between distinct scores, one above all."""
    u = sorted(set(scores))
    return [u[0] - 1.0] + [0.5 * (a + b) for a, b in zip(u, u[1:])] + [u[-1] + 1.0]


def lstsq_solve(z, w, p):
    """Coefficients and SSE of w on [sigmoid, z, 1], p = (slope, centre) in z."""
    s = logistic5((1.0, p[0], p[1], 0.0, 0.0), z)
    basis = np.stack([s, z, np.ones_like(z)], axis=1)
    if not np.isfinite(basis).all():
        return None, math.inf
    coef, *_ = np.linalg.lstsq(basis, w, rcond=None)
    r = basis @ coef - w
    return coef, float(r @ r)


def loop_nelder_mead(fn, x0, max_iters=4000, ftol=1e-13):
    """Plain simplex descent; returns (x_best, f_best)."""
    n = len(x0)
    scale = np.where(np.abs(x0) > 1e-8, 0.1 * np.abs(x0), 0.1)
    simplex = [np.asarray(x0, dtype=np.float64)]
    for i in range(n):
        v = simplex[0].copy()
        v[i] += scale[i]
        simplex.append(v)
    fvals = [fn(v) for v in simplex]
    for _ in range(max_iters):
        idx = np.argsort(fvals)
        simplex = [simplex[i] for i in idx]
        fvals = [fvals[i] for i in idx]
        if abs(fvals[-1] - fvals[0]) <= ftol * (abs(fvals[0]) + ftol):
            break
        centroid = np.mean(simplex[:-1], axis=0)
        worst = simplex[-1]
        refl = centroid + (centroid - worst)
        f_refl = fn(refl)
        if f_refl < fvals[0]:
            expand = centroid + 2.0 * (centroid - worst)
            f_exp = fn(expand)
            if f_exp < f_refl:
                simplex[-1], fvals[-1] = expand, f_exp
            else:
                simplex[-1], fvals[-1] = refl, f_refl
        elif f_refl < fvals[-2]:
            simplex[-1], fvals[-1] = refl, f_refl
        else:
            contract = centroid + 0.5 * (worst - centroid)
            f_con = fn(contract)
            if f_con < fvals[-1]:
                simplex[-1], fvals[-1] = contract, f_con
            else:
                best = simplex[0]
                simplex = [best] + [best + 0.5 * (v - best) for v in simplex[1:]]
                fvals = [fvals[0]] + [fn(v) for v in simplex[1:]]
    i_best = int(np.argmin(fvals))
    return simplex[i_best], fvals[i_best]


def lstsq_fit_logistic5(predicted, subjective):
    """The fit with one 3-column least-squares solve per objective value,
    63 grid points scored one by one."""
    x, y = _paired(predicted, subjective, minimum=6)
    mu, sd = float(x.mean()), float(x.std()) or 1.0
    my, sy = float(y.mean()), float(y.std()) or 1.0
    z, w = (x - mu) / sd, (y - my) / sy

    def solve(p):
        return lstsq_solve(z, w, p)

    def sse(p):
        return solve(p)[1]

    centres = np.percentile(z, np.arange(10, 100, 10))
    start = min(
        (np.array([2.0**k, c]) for k in range(-3, 4) for c in centres), key=sse
    )
    p, _ = loop_nelder_mead(sse, start)
    p, _ = loop_nelder_mead(sse, p)  # polish pass
    c_s, c_z, c_1 = solve(p)[0] * sy
    beta = np.array([c_s, p[0] / sd, mu + p[1] * sd, c_z / sd, my + c_1 - c_z * mu / sd])
    r = logistic5(beta, x) - y
    rmse = math.sqrt(float(r @ r) / x.size)
    return Logistic5Params(*(float(b) for b in beta), rmse=rmse)


def bits(v):
    return np.asarray(v, dtype=np.float64).tobytes()


# --- correlations -------------------------------------------------------------------


def test_srcc_endpoints():
    x = [1.0, 2.0, 5.0, 9.0, 11.0]
    assert srcc(x, x) == pytest.approx(1.0)
    assert srcc(x, [-v for v in x]) == pytest.approx(-1.0)


def test_srcc_hand_case():
    assert srcc([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, rel=1e-12)


def test_krcc_cases():
    x = [1.0, 2.0, 4.0, 9.0]
    assert krcc(x, x) == pytest.approx(1.0)
    assert krcc(x, [-v for v in x]) == pytest.approx(-1.0)
    # 3 points: 2 concordant pairs, 1 discordant
    assert krcc([1, 2, 3], [2, 1, 3]) == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_constant_vector_rejected():
    with pytest.raises(ValueError):
        srcc([1.0, 1.0, 1.0, 1.0], [1, 2, 3, 4])
    with pytest.raises(ValueError):
        krcc([1.0, 1.0, 1.0, 1.0], [1, 2, 3, 4])


def test_rank_metrics_match_naive(rng):
    for _ in range(30):
        n = int(rng.integers(5, 40))
        x = rng.integers(0, 12, size=n).astype(float)  # plenty of ties
        y = rng.integers(0, 12, size=n).astype(float)
        if len(set(x)) < 2 or len(set(y)) < 2:
            continue
        assert srcc(x, y) == pytest.approx(naive_srcc(list(x), list(y)), abs=1e-10)
        assert krcc(x, y) == pytest.approx(naive_krcc(list(x), list(y)), abs=1e-10)


def test_rank_metrics_monotone_invariant(rng):
    x = rng.random(25)
    y = rng.random(25)
    fx = np.exp(3.0 * x)  # strictly monotone transform
    assert srcc(fx, y) == pytest.approx(srcc(x, y), abs=1e-12)
    assert krcc(fx, y) == pytest.approx(krcc(x, y), abs=1e-12)


@st.composite
def tied_samples(draw):
    """Integer-valued scores, mostly from a small range (top 0 ties every value)."""
    n = draw(st.integers(3, 80))
    top = draw(st.sampled_from([0, 1, 2, 4, 8, 30, 100]))
    values = st.lists(st.integers(0, top), min_size=n, max_size=n)
    x = np.array(draw(values), dtype=np.float64)
    y = np.array(draw(values), dtype=np.float64)
    labels = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    return x, y, labels


@settings(max_examples=300, deadline=None)
@given(tied_samples())
@example((np.full(9, 3.0), np.arange(9.0) % 4, np.arange(9) % 2))  # all-tied scores
def test_group_kernels_match_loop_oracles(sample):
    x, y, labels = sample
    assert bits(_rankdata(x)) == bits(loop_rankdata(x))
    if np.ptp(x) > 0 and np.ptp(y) > 0:
        assert bits(srcc(x, y)) == bits(pearson(loop_rankdata(x), loop_rankdata(y)))
        assert bits(krcc(x, y)) == bits(matrix_krcc(x, y))
    else:
        with pytest.raises(ValueError):
            krcc(x, y)
    if labels.min() < labels.max():
        res = roc_pr(x, labels)
        auroc, auprc, roc_points, pr_points = loop_roc_pr(x, labels)
        assert bits(res.auroc) == bits(auroc)
        assert bits(res.auprc) == bits(auprc)
        assert bits(res.roc_points) == bits(roc_points)
        assert bits(res.pr_points) == bits(pr_points)
    t, acc = threshold_search(x, labels)
    assert acc == naive_best_accuracy(list(x), list(labels))
    cands = threshold_candidates(list(x))
    accs = [np.mean((x >= c) == (labels == 1)) for c in cands]
    assert t == cands[accs.index(max(accs))]


@st.composite
def paired_scores(draw):
    """n = 3-400 pairs, untied or drawn from a few values (ties), or with
    one side constant."""
    n = draw(st.integers(3, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = draw(st.sampled_from([None, 0, 1, 3, 20]))  # None: continuous, no ties
    if top is None:
        return rng.random(n), rng.random(n)
    return (rng.integers(0, top + 1, n).astype(np.float64),
            rng.integers(0, draw(st.sampled_from([top, 5])) + 1, n).astype(np.float64))


@settings(max_examples=200, deadline=None)
@given(paired_scores())
def test_krcc_is_the_sign_sum(pair):
    x, y = pair
    # The merge count gives the discordant pairs: brute-force inversions of
    # y once the pairs are sorted by (x, y).
    ranks = np.unique(y, return_inverse=True)[1][np.lexsort((y, x))]
    above = ranks[:, None] > ranks[None, :]
    assert _inversions(ranks) == int(above[np.triu_indices(ranks.size, 1)].sum())
    if np.ptp(x) == 0 or np.ptp(y) == 0:
        with pytest.raises(ValueError):
            krcc(x, y)
        return
    score, tau = loop_krcc(x, y)
    assert krcc(x, y).hex() == tau.hex()
    # The numerator, recovered from tau-b: the same integer sign sum.
    assert round(krcc(x, y) * krcc_denominator(x, y)) == score


def test_krcc_on_the_bench_subsets():
    for x, y in rated_subsets(2000):
        assert krcc(x, y).hex() == loop_krcc(x, y)[1].hex()


def test_krcc_memory_linear_in_n():
    x, y = np.random.default_rng(3).random((2, 2000))
    tracemalloc.start()
    try:
        krcc(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


# --- logistic fit ---------------------------------------------------------------------


def test_fit_recovers_noiseless_curve(rng):
    truth = np.array([40.0, 0.5, 3.0, 1.5, 20.0])
    x = np.linspace(-4.0, 10.0, 50)
    y = logistic5(truth, x)
    fit = fit_logistic5(x, y)
    mapped = logistic5(fit.as_array(), x)
    rmse = float(np.sqrt(np.mean((mapped - y) ** 2)))
    assert rmse <= 1e-4 * (y.max() - y.min())


def test_fit_exact_affine_case():
    x = np.linspace(0.0, 5.0, 25)
    fit = fit_logistic5(x, x)
    assert fit.rmse <= 1e-6


@st.composite
def paired_scores(draw):
    n = draw(st.integers(6, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    r = np.random.default_rng(seed)
    x = r.random(n) * draw(st.sampled_from([1.0, 10.0, 100.0]))
    slope = draw(st.sampled_from([-3.0, 0.0, 3.0]))
    y = slope * x + r.normal(0.0, draw(st.sampled_from([0.0, 0.1, 1.0])), size=n)
    return x, y


_EXAMPLE = np.random.default_rng(23)
_X6 = _EXAMPLE.random(6) * 10.0
_X_TIES = _EXAMPLE.integers(0, 15, size=30).astype(float)
_X_BIG = 1e6 + _EXAMPLE.normal(0.0, 5.0, size=25)


@settings(max_examples=40, deadline=None)
@given(paired_scores())
@example((_X6, 3.0 * _X6 + _EXAMPLE.normal(0.0, 1.0, size=6)))  # n = 6
@example((np.repeat([1.0, 4.0], 5), _EXAMPLE.normal(0.0, 1.0, size=10)))  # two values
@example((_X_TIES, _EXAMPLE.integers(0, 15, size=30).astype(float)))  # ties
@example((np.arange(8.0), np.full(8, 2.5)))  # constant y
@example((_X_BIG, 0.5 * (_X_BIG - 1e6) + _EXAMPLE.normal(0.0, 1.0, size=25)))  # |x| ~ 1e6
def test_fit_never_worse_than_linear(xy):
    x, y = xy
    fit = fit_logistic5(x, y)
    a = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    lin_rmse = float(np.sqrt(np.mean((a @ coef - y) ** 2)))
    assert fit.rmse <= lin_rmse + 1e-9
    assert fit_logistic5(x, y).as_array().tobytes() == fit.as_array().tobytes()


def test_fit_order_invariant(rng):
    x = np.linspace(0.0, 8.0, 30)
    y = logistic5([10.0, 1.0, 4.0, 0.5, 2.0], x) + rng.normal(0, 0.05, size=30)
    fit_a = fit_logistic5(x, y)
    perm = rng.permutation(30)
    fit_b = fit_logistic5(x[perm], y[perm])
    grid = np.linspace(0.0, 8.0, 17)
    ga = logistic5(fit_a.as_array(), grid)
    gb = logistic5(fit_b.as_array(), grid)
    assert np.abs(ga - gb).max() < 1e-5


def standardised(x, y):
    """(z, w) as fit_logistic5 searches them."""
    sd, sy = float(x.std()) or 1.0, float(y.std()) or 1.0
    return (x - float(x.mean())) / sd, (y - float(y.mean())) / sy


@st.composite
def objective_cases(draw):
    """A standardised set, and a (slope, centre) at which to score it."""
    n = draw(st.integers(6, 400))
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    shape = draw(st.sampled_from(["noisy", "constant x", "constant y", "two x", "logistic"]))
    x = scale * r.normal(0.0, 1.0, n)
    if shape == "constant x":
        x = np.full(n, scale)
    elif shape == "two x":
        x = scale * r.integers(0, 2, n).astype(float)
    if shape == "constant y":
        y = np.full(n, 3.0)
    elif shape == "logistic":
        y = logistic5([40.0, 2.0 / scale, 0.3 * scale, 1.5 / scale, 20.0], x)
    else:
        y = logistic5([40.0, 2.0 / scale, 0.0, 1.5 / scale, 20.0], x) + r.normal(0.0, 5.0, n)
    slope = draw(
        st.one_of(
            st.floats(-20.0, 20.0),
            st.floats(-1e6, 1e6),  # |t| > 500: the clipped tails
            st.sampled_from([0.0, 1e-12, 1e-8, 1e-4, 2.0**-8]),  # nearly affine
        )
    )
    centre = draw(st.floats(-4.0, 4.0))
    return (*standardised(x, y), (slope, centre))


def exact_sse(s, z, w):
    """The SSE of w on [s, z, 1] in rational arithmetic: Gram-Schmidt on
    the float values as given, with no rounding."""
    basis = []
    for col in (s, z, np.ones_like(z)):
        v = [Fraction(float(a)) for a in col]
        for b, bb in basis:
            c = sum(a * e for a, e in zip(v, b)) / bb
            v = [a - c * e for a, e in zip(v, b)]
        bb = sum(a * a for a in v)
        if bb:
            basis.append((v, bb))
    r = [Fraction(float(a)) for a in w]
    for b, bb in basis:
        c = sum(a * e for a, e in zip(r, b)) / bb
        r = [a - c * e for a, e in zip(r, b)]
    return float(sum(a * a for a in r))


# Six points, all on the sigmoid's flat tail at (6, 4), where the lstsq SSE
# is off by 8.6e-11: 1.55831403925 against the exact 1.55831403917.
_Z6, _W6 = standardised(
    np.array([0.0855, -0.6124, 1.4787, 0.0291, -1.7048, 0.7239]),
    np.array([0.9143, 0.0343, 0.8584, -0.6878, -1.8493, 0.7301]),
)


@settings(max_examples=200, deadline=None)
@given(objective_cases())
@example((_Z6, _W6, (6.0, 4.0)))
def test_projected_sse_is_the_least_squares_sse(case):
    z, w, p = case
    n, ww = z.size, float(w @ w)
    sse, sse_rows = _projected_sse(z, w)
    got = [sse(p), float(sse_rows(np.array([p]))[0])]
    s = logistic5((1.0, p[0], p[1], 0.0, 0.0), z)
    affine = np.stack([z, np.ones_like(z)], axis=1)
    s_perp = np.linalg.norm(s - affine @ np.linalg.lstsq(affine, s, rcond=None)[0])
    s_scale = max(np.linalg.norm(s), math.sqrt(n))
    cutoff = np.finfo(np.float64).eps * max(n, 3) * s_scale
    if s_perp >= 1e3 * cutoff:
        # Where the sigmoid is nearly affine in z, forming s_perp leaves
        # rounding of about n * eps * |s - mean(s)| in it; lstsq loses digits
        # there too.  Away from that, the bound is 1e-12 of |w|^2.
        near_affine = n * np.finfo(np.float64).eps * np.linalg.norm(s - s.mean()) / s_perp
        exact = exact_sse(s, z, w)
        assert max(abs(g - exact) for g in got) <= (1e-12 + near_affine) * ww
        # lstsq's own SSE is off by up to about eps * |basis| / |s_perp|
        # of |w|^2, so it is a reference only where s_perp is not small.
        if s_perp >= 1e-3 * s_scale:
            assert max(abs(g - lstsq_solve(z, w, p)[1]) for g in got) <= 1e-12 * ww
    elif s_perp <= 0.5 * cutoff:
        # Below the cutoff the sigmoid adds nothing: the SSE is |w_perp|^2,
        # the value at slope 0, where the sigmoid is exactly 0.  (The
        # margin covers rounding in this test's own estimate of |s_perp|.)
        assert got == [sse((0.0, 0.0))] * 2
        assert abs(got[0] - lstsq_solve(z, w, (0.0, 0.0))[1]) <= 1e-12 * ww


def test_projected_sse_of_a_nan_basis_is_inf():
    z, w = standardised(np.arange(10.0), np.arange(10.0) ** 2)
    sse, _ = _projected_sse(z, w)
    with np.errstate(invalid="ignore"):
        for p in [(math.nan, 0.0), (math.inf, float(z[3]))]:  # inf * 0 = nan
            assert sse(p) == math.inf


def rated_subsets(seed, images=2000, schemes=15):
    """The bench's rated-set recipe: MOS scattered round a logistic function
    of the objective score, ~22 ratings per image, 3% outliers; the full set
    and one subset per distortion scheme.  MOS is the plain per-image mean."""
    rng = np.random.default_rng(seed)
    scheme = np.arange(images) % schemes
    severity = rng.uniform(0.0, 0.4, images) * rng.uniform(0.6, 1.0, schemes)[scheme]
    quality = 95.0 - 90.0 / (1.0 + np.exp(-(severity - 0.18) / 0.05))
    counts = rng.integers(20, 25, images)
    scores = np.repeat(quality, counts) + rng.normal(0.0, 8.0, counts.sum())
    outliers = rng.random(scores.size) < 0.03
    scores[outliers] = rng.uniform(0.0, 100.0, int(outliers.sum()))
    scores = np.clip(scores, 0.0, 100.0)
    predicted = severity + rng.normal(0.0, 0.01, images)
    bounds = np.concatenate([[0], np.cumsum(counts)])
    mos = np.array([scores[bounds[i] : bounds[i + 1]].mean() for i in range(images)])
    sets = [np.ones(images, dtype=bool)] + [scheme == k for k in range(schemes)]
    return [(predicted[sel], mos[sel]) for sel in sets]


@pytest.mark.parametrize("seed", [2000, 2001, 2002])
def test_fit_is_bit_identical_to_the_lstsq_fit(seed):
    for x, y in rated_subsets(seed):
        want = lstsq_fit_logistic5(x, y).as_array().tobytes()
        assert fit_logistic5(x, y).as_array().tobytes() == want, x.size


def test_plcc_rmse_perfect_and_shifted(rng):
    x = np.linspace(0.0, 5.0, 40)
    y = logistic5([8.0, 1.2, 2.0, 0.3, 1.0], x)
    plcc, rmse = plcc_rmse(x, y)
    assert plcc == pytest.approx(1.0, abs=1e-6)
    assert rmse < 1e-5
    _, rmse_shifted = plcc_rmse(x, y + 10.0)
    assert rmse_shifted == pytest.approx(rmse, abs=1e-6)


def test_plcc_near_zero_for_permuted(rng):
    r = np.random.default_rng(17)
    x = r.random(200)
    y = r.permutation(x)
    plcc, _ = plcc_rmse(x, y)
    assert abs(plcc) < 0.2


# --- ROC / PR -------------------------------------------------------------------------


def test_roc_separable():
    res = roc_pr([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1])
    assert res.auroc == 1.0
    assert res.auprc == pytest.approx(1.0)


def test_roc_spot_value():
    res = roc_pr([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
    assert res.auroc == pytest.approx(0.75, rel=1e-12)


def test_roc_random_near_half():
    r = np.random.default_rng(5)
    scores = r.random(1000)
    labels = r.integers(0, 2, size=1000)
    res = roc_pr(scores, labels)
    assert 0.45 <= res.auroc <= 0.55


def test_roc_complement_identity(rng):
    scores = rng.permutation(50) / 50.0  # tie-free
    labels = (rng.random(50) < 0.4).astype(int)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    a = roc_pr(scores, labels).auroc
    b = roc_pr(-scores, labels).auroc
    assert a + b == pytest.approx(1.0, abs=1e-12)


def test_roc_pr_match_naive(rng):
    for _ in range(25):
        n = int(rng.integers(8, 60))
        scores = rng.integers(0, 10, size=n).astype(float)  # ties included
        labels = (rng.random(n) < 0.5).astype(int)
        if labels.min() == labels.max():
            continue
        res = roc_pr(scores, labels)
        assert res.auroc == pytest.approx(
            naive_auroc(list(scores), list(labels)), abs=1e-10
        )
        assert res.auprc == pytest.approx(
            naive_auprc(list(scores), list(labels)), abs=1e-10
        )


def test_single_class_rejected():
    with pytest.raises(ValueError):
        roc_pr([0.1, 0.5], [1, 1])


# --- threshold search --------------------------------------------------------------------


def test_threshold_separable_gap():
    t, acc = threshold_search([0.1, 0.2, 0.7, 0.9], [0, 0, 1, 1])
    assert acc == 1.0
    assert 0.2 < t <= 0.7


def test_threshold_single_label_value():
    t, acc = threshold_search([0.3, 0.5, 0.9], [1, 1, 1])
    assert acc == 1.0
    assert t <= 0.3
    t, acc = threshold_search([0.3, 0.5, 0.9], [0, 0, 0])
    assert acc == 1.0
    assert t > 0.9


def test_threshold_matches_exhaustive(rng):
    for _ in range(30):
        scores = rng.integers(0, 25, size=50).astype(float)
        labels = (rng.random(50) < 0.5).astype(int)
        _, acc = threshold_search(scores, labels)
        assert acc == pytest.approx(
            naive_best_accuracy(list(scores), list(labels)), abs=1e-12
        )


@pytest.mark.parametrize(
    "scores, labels",
    [
        ([math.nan, 0.5, 0.2, 0.9], [0, 1, 0, 1]),
        ([0.1, 0.5, 0.2, 0.9], [0, 1, 2, 1]),
        ([0.1, 0.5, 0.2, 0.9], [0, 1, 0.5, 1]),
        ([], []),
    ],
    ids=["nan-score", "label-2", "label-0.5", "empty"],
)
def test_threshold_rejects_bad_input(scores, labels):
    with pytest.raises(ValueError):
        threshold_search(scores, labels)


@pytest.mark.parametrize(
    "scores, labels, best",
    [
        # The midpoint of two adjacent floats rounds onto the lower one.
        ([1.0, float(np.nextafter(1.0, 2.0))], [0, 1], 1.0),
        # One above all scores rounds onto the top score.
        ([1e17, 2e17], [0, 0], 0.5),
    ],
    ids=["adjacent-floats", "top-plus-one-rounds"],
)
def test_threshold_accuracy_is_that_of_the_threshold(scores, labels, best):
    t, acc = threshold_search(scores, labels)
    assert acc == best
    assert acc == np.mean((np.array(scores) >= t) == (np.array(labels) == 1))


# --- F-test ----------------------------------------------------------------------------


def test_ftest_identical_not_significant(rng):
    res = rng.normal(0, 1, size=30)
    out = ftest_significance(res, res.copy())
    assert out.f_stat == pytest.approx(1.0)
    assert not out.significant


def test_ftest_much_smaller_variance_significant(rng):
    b = rng.normal(0, 1.0, size=100)
    a = rng.normal(0, 0.1, size=100)
    out = ftest_significance(a, b)
    assert out.significant
    assert out.critical == pytest.approx(0.717, abs=0.01)


def test_ftest_critical_matches_integration():
    out = ftest_significance(np.arange(100.0), np.arange(100.0) * 2.0)
    # CDF at the reported critical value must equal 0.05.
    assert f_cdf_by_integration(out.critical, 99, 99) == pytest.approx(0.05, abs=1e-6)


def test_ftest_asymmetry(rng):
    a = rng.normal(0, 0.5, size=40)
    b = rng.normal(0, 1.5, size=40)
    ab = ftest_significance(a, b)
    ba = ftest_significance(b, a)
    assert not (ab.significant and ba.significant)


def test_ftest_zero_variance_rejected():
    with pytest.raises(ValueError):
        ftest_significance(np.arange(10.0), np.zeros(10))

