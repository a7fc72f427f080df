"""Evaluation machinery: correlations, logistic score alignment,
classification curves, threshold search and significance testing.

Monotonicity metrics (rank and pairwise-order correlation) are computed on
raw scores; consistency metrics (linear correlation, RMS error) are computed
after aligning predictions to the subjective scale with a five-parameter
logistic curve

    f(x) = b1 * (1/2 - 1 / (1 + exp(b2 * (x - b3)))) + b4 * x + b5

fitted by variable projection: b1, b4 and b5 enter linearly and are solved
exactly, so only the slope b2 and centre b3 are searched, from a fixed grid
and without random starts.  Once x and y are standardised, x and 1 are
orthogonal, so the residual at each (b2, b3) comes in closed form from one
projection of the sigmoid, with no least-squares solve; one solve at the
chosen (b2, b3) gives the coefficients.  The basis always holds x and 1, so
the fit is never worse than the affine least-squares fit.

Ranks, tie counts and curve steps all come from the groups of equal
scores.  The decision threshold is the smallest candidate at which
`score >= threshold` is most accurate; the candidates are one below all
scores, the midpoints between adjacent distinct scores and one above all
scores, so with labels of one class it lies below or above every score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .statdist import f_quantile


def _paired(x, y, minimum=4):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("paired score vectors must be 1-D and equally long")
    if x.size < minimum:
        raise ValueError(f"need at least {minimum} pairs")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("scores must be finite")
    return x, y


def _groups(v: np.ndarray):
    """(distinct values ascending, group index of each element, group sizes)."""
    return np.unique(v, return_inverse=True, return_counts=True)


def _rankdata(v: np.ndarray) -> np.ndarray:
    """Average ranks, 1-based, ties averaged."""
    _, group, counts = _groups(v)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[group]


def pearson(x, y) -> float:
    x, y = _paired(x, y, minimum=2)
    xc = x - x.mean()
    yc = y - y.mean()
    denom = math.sqrt(float((xc * xc).sum()) * float((yc * yc).sum()))
    if denom == 0.0:
        raise ValueError("correlation undefined for a constant vector")
    return float((xc * yc).sum()) / denom


def srcc(predicted, subjective) -> float:
    """Rank correlation with averaged ties."""
    x, y = _paired(predicted, subjective, minimum=3)
    return pearson(_rankdata(x), _rankdata(y))


def _tied_pairs(counts) -> int:
    return int((counts * (counts - 1) // 2).sum())


def _inversions(r: np.ndarray) -> int:
    """Pairs i < j with r[i] > r[j], for integer ranks r in [0, r.max()].

    Bottom-up merge count: at width w, every block of w ranks is sorted,
    and each rank in a right block adds the number of ranks above it in its
    left partner.  Keys pair * k + rank make all left blocks one sorted
    array, so a level is one searchsorted and one sort.
    """
    n = r.size
    k = int(r.max()) + 1
    pos = np.arange(n)
    total = 0
    w = 1
    while w < n:
        pair = pos // (2 * w)
        keys = pair * k + r
        right = pos % (2 * w) >= w
        # A right block exists only beside a full left block of w ranks,
        # and the left blocks before pair p hold p * w ranks.
        not_above = np.searchsorted(keys[~right], keys[right], side="right") - pair[right] * w
        total += int((w - not_above).sum())
        r = np.sort(keys) - pair * k
        w *= 2
    return total


def krcc(predicted, subjective) -> float:
    """Pairwise-order correlation, tie-corrected (tau-b).

    The sum of sign products over all pairs is the integer
    n0 - ties_x - ties_y + ties_xy - 2 * discordant pairs, and the
    discordant pairs are the strict inversions of y once the pairs are
    sorted by (x, y) (Knight 1966), counted by merging in O(n log n).
    """
    x, y = _paired(predicted, subjective, minimum=3)
    n0 = x.size * (x.size - 1) // 2
    ties_x = _tied_pairs(_groups(x)[2])
    _, y_rank, y_counts = _groups(y)
    ties_y = _tied_pairs(y_counts)
    denom = math.sqrt((n0 - ties_x) * (n0 - ties_y))
    if denom == 0.0:
        raise ValueError("correlation undefined for a constant vector")
    order = np.lexsort((y, x))
    xs, ys = x[order], y[order]
    starts = np.flatnonzero(np.r_[True, (xs[1:] != xs[:-1]) | (ys[1:] != ys[:-1])])
    ties_xy = _tied_pairs(np.diff(np.r_[starts, x.size]))
    score = n0 - ties_x - ties_y + ties_xy - 2 * _inversions(y_rank[order])
    return score / denom


@dataclass(frozen=True)
class Logistic5Params:
    b1: float
    b2: float
    b3: float
    b4: float
    b5: float
    rmse: float

    def as_array(self):
        return np.array([self.b1, self.b2, self.b3, self.b4, self.b5])


def _sigmoid(slope, centre, z, out=None):
    """The curve's sigmoid term, 1/2 - 1/(1 + exp(slope * (z - centre))),
    each step written into out when it is given."""
    s = np.multiply(slope, np.subtract(z, centre, out=out), out=out)
    s = np.exp(np.clip(s, -500.0, 500.0, out=out), out=out)
    return np.subtract(0.5, np.divide(1.0, np.add(1.0, s, out=out), out=out), out=out)


def logistic5(beta, x):
    """Evaluate the mapping curve; beta is array-like of 5 coefficients."""
    b1, b2, b3, b4, b5 = np.asarray(beta, dtype=np.float64)
    return b1 * _sigmoid(b2, b3, np.asarray(x, dtype=np.float64)) + b4 * np.asarray(x) + b5


def _nelder_mead(fn, x0, max_iters=4000, ftol=1e-13):
    """Plain simplex descent over two parameters; returns (x_best, f_best).

    The three vertices are pairs of Python floats, on which each step costs
    less than on two-element arrays and rounds the same.
    """
    a, b = float(x0[0]), float(x0[1])
    da, db = (0.1 * abs(v) if abs(v) > 1e-8 else 0.1 for v in (a, b))
    simplex = [(a, b), (a + da, b), (a, b + db)]
    fvals = [fn(v) for v in simplex]
    for _ in range(max_iters):
        order = sorted(range(3), key=fvals.__getitem__)
        simplex = [simplex[i] for i in order]
        fvals = [fvals[i] for i in order]
        if abs(fvals[2] - fvals[0]) <= ftol * (abs(fvals[0]) + ftol):
            break
        (a0, b0), (a1, b1), (aw, bw) = simplex
        # The vertices summed in order, then divided: the bits of np.mean.
        ca, cb = (a0 + a1) / 2, (b0 + b1) / 2
        refl = (ca + (ca - aw), cb + (cb - bw))
        f_refl = fn(refl)
        if f_refl < fvals[0]:
            expand = (ca + 2.0 * (ca - aw), cb + 2.0 * (cb - bw))
            f_exp = fn(expand)
            if f_exp < f_refl:
                simplex[2], fvals[2] = expand, f_exp
            else:
                simplex[2], fvals[2] = refl, f_refl
        elif f_refl < fvals[1]:
            simplex[2], fvals[2] = refl, f_refl
        else:
            contract = (ca + 0.5 * (aw - ca), cb + 0.5 * (bw - cb))
            f_con = fn(contract)
            if f_con < fvals[2]:
                simplex[2], fvals[2] = contract, f_con
            else:
                simplex[1:] = [(a0 + 0.5 * (u - a0), b0 + 0.5 * (v - b0)) for u, v in simplex[1:]]
                fvals[1:] = [fn(v) for v in simplex[1:]]
    i_best = min(range(3), key=fvals.__getitem__)
    return simplex[i_best], fvals[i_best]


def _projected_sse(z, w):
    """The search's objective: the SSE of w on the basis [sigmoid, z, 1].

    Returns (sse, sse_rows): sse(p) at one point p = (slope, centre), and
    sse_rows(points) at each row of an (m, 2) array of finite points (the
    start grid).  w and each sigmoid s are projected once off the
    orthonormal pair {1/sqrt(n), centred z/|z|}; the residual is then
    w_perp - (s_perp . w_perp / |s_perp|^2) s_perp, formed directly, so an
    exact fit keeps its zero.  Where |s_perp| is at most lstsq's rank
    cutoff, eps * max(n, 3) * max(|s|, sqrt(n)), s adds nothing to the
    basis and the SSE is |w_perp|^2.  In sse, a sigmoid holding NaN (a
    non-finite basis) scores +inf.
    """
    n = z.size
    zc = z - z.mean()
    z_norm = math.sqrt(float(zc @ zc))
    q = zc / z_norm if z_norm > 0.0 else zc  # constant x: z adds nothing to 1
    w_perp = w - w.mean()
    w_perp -= (q @ w_perp) * q
    w_sse = float(w_perp @ w_perp)
    rank_tol = np.finfo(np.float64).eps * max(n, 3)
    root_n = math.sqrt(n)
    s, r = np.empty(n), np.empty(n)  # sse's scratch, owned by this one fit

    def sse(p):
        _sigmoid(p[0], p[1], z, out=s)
        s_norm = math.sqrt(s @ s)
        np.subtract(s, s.sum() / n, out=s)
        np.subtract(s, np.multiply(s @ q, q, out=r), out=s)
        ss = float(s @ s)
        if math.isnan(ss):
            return math.inf
        if math.sqrt(ss) <= rank_tol * max(s_norm, root_n):
            return w_sse
        np.subtract(w_perp, np.multiply(s @ w_perp / ss, s, out=r), out=r)
        return float(r @ r)

    def sse_rows(points):
        s = _sigmoid(points[:, :1], points[:, 1:], z)
        s_norm = np.sqrt(np.einsum("ij,ij->i", s, s))
        s -= s.mean(axis=1, keepdims=True)
        s -= np.outer(s @ q, q)
        ss = np.einsum("ij,ij->i", s, s)
        full = np.sqrt(ss) > rank_tol * np.maximum(s_norm, root_n)
        r = w_perp - (s @ w_perp / np.where(full, ss, 1.0))[:, None] * s
        return np.where(full, np.einsum("ij,ij->i", r, r), w_sse)

    return sse, sse_rows


def fit_logistic5(predicted, subjective) -> Logistic5Params:
    """Least-squares fit of the alignment curve by variable projection.

    For a slope b2 and centre b3, the best (b1, b4, b5) are linear in y, so
    the residual is that of y on the basis [sigmoid, x, 1], in closed form
    from one 1-D projection (`_projected_sse`).  Only (b2, b3) are
    searched: from the best point of a fixed grid (slopes 2^-3..2^3 per
    standard deviation of x, centres at the deciles of x), scored as one
    array, by simplex descent and one polish pass.  One least-squares
    solve at the chosen (b2, b3) then gives b1, b4 and b5.  x and y are
    standardised first, so neither the search nor its stopping rule
    depends on their units.  The basis holds x and 1, so the fit is never
    worse than the affine least-squares fit.
    """
    x, y = _paired(predicted, subjective, minimum=6)
    mu, sd = float(x.mean()), float(x.std()) or 1.0
    my, sy = float(y.mean()), float(y.std()) or 1.0
    z, w = (x - mu) / sd, (y - my) / sy
    sse, sse_rows = _projected_sse(z, w)

    centres = np.percentile(z, np.arange(10, 100, 10))
    grid = np.array([(2.0**k, c) for k in range(-3, 4) for c in centres])
    start = grid[int(np.argmin(sse_rows(grid)))]
    p, _ = _nelder_mead(sse, start)
    p, _ = _nelder_mead(sse, p)  # polish pass
    basis = np.stack([_sigmoid(p[0], p[1], z), z, np.ones_like(z)], axis=1)
    coef, *_ = np.linalg.lstsq(basis, w, rcond=None)
    c_s, c_z, c_1 = coef * sy
    beta = np.array([c_s, p[0] / sd, mu + p[1] * sd, c_z / sd, my + c_1 - c_z * mu / sd])
    r = logistic5(beta, x) - y
    rmse = math.sqrt(float(r @ r) / x.size)
    return Logistic5Params(*(float(b) for b in beta), rmse=rmse)


def plcc_rmse(predicted, subjective) -> tuple:
    """Linear correlation and RMS error after logistic alignment."""
    x, y = _paired(predicted, subjective, minimum=6)
    fit = fit_logistic5(x, y)
    mapped = logistic5(fit.as_array(), x)
    if float(np.std(mapped)) == 0.0:
        # Degenerate mapping (constant predictions): correlation undefined.
        raise ValueError("mapped predictions are constant")
    plcc = pearson(mapped, y)
    rmse = float(np.sqrt(np.mean((mapped - y) ** 2)))
    return plcc, rmse


@dataclass(frozen=True)
class RocPrResult:
    auroc: float
    auprc: float
    roc_points: tuple  # (fpr, tpr) steps
    pr_points: tuple  # (recall, precision) steps


def _binary_set(scores, labels):
    s = np.asarray(scores, dtype=np.float64)
    lab = np.asarray(labels)
    if s.shape != lab.shape or s.ndim != 1 or s.size == 0:
        raise ValueError("scores and labels must be 1-D, non-empty and equally long")
    if not np.isfinite(s).all():
        raise ValueError("scores must be finite")
    if not ((lab == 0) | (lab == 1)).all():
        raise ValueError("labels must be 0/1")
    return s, lab.astype(np.int64)


def roc_pr(scores, labels) -> RocPrResult:
    """Threshold-free classification quality.

    The ROC area uses the rank statistic with tie correction; the PR area
    accumulates precision step-wise over distinct score thresholds
    (descending), handling tied scores as one block.
    """
    s, lab = _binary_set(scores, labels)
    if lab.min() == lab.max():
        raise ValueError("both classes must be present")
    n_pos = int(lab.sum())
    n_neg = lab.size - n_pos

    rank_sum = float(_rankdata(s)[lab == 1].sum())
    auroc = (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)

    # Groups of -s run over the distinct scores in descending order.
    _, group, counts = _groups(-s)
    pos = np.bincount(group[lab == 1], minlength=counts.size)
    tp, fp = np.cumsum(pos), np.cumsum(counts - pos)
    recall, precision = tp / n_pos, tp / (tp + fp)
    auprc = np.cumsum(np.diff(recall, prepend=0.0) * precision)[-1]
    roc_points = ((0.0, 0.0), *zip((fp / n_neg).tolist(), recall.tolist()))
    pr_points = tuple(zip(recall.tolist(), precision.tolist()))
    return RocPrResult(float(auroc), float(auprc), roc_points, pr_points)


def threshold_search(scores, labels) -> tuple:
    """(threshold, accuracy) maximizing accuracy of `score >= threshold`.

    The candidate thresholds are one below all scores, the midpoints between
    adjacent distinct scores and one above all scores; the smallest
    candidate with the best accuracy wins.  Labels may all be one class.
    """
    s, lab = _binary_set(scores, labels)
    uniq, group, counts = _groups(s)
    mids = 0.5 * (uniq[:-1] + uniq[1:])
    # The midpoint of two adjacent floats rounds onto the lower one; cut at
    # the upper one instead, so each cut separates its two groups.
    mids = np.where(mids > uniq[:-1], mids, uniq[1:])
    cuts = np.concatenate([[uniq[0] - 1.0], mids, [uniq[-1] + 1.0]])
    pos = np.bincount(group[lab == 1], minlength=counts.size)
    # Correct calls when groups k.. are called positive: every positive,
    # plus the negatives below group k, minus the positives below group k.
    correct = int(lab.sum()) + np.concatenate([[0], np.cumsum(counts - 2 * pos)])
    # Index by the group each cut really starts at, so the accuracy is
    # that of `score >= threshold` even where uniq[-1] + 1 rounds.
    correct = correct[np.searchsorted(uniq, cuts)]
    best = int(np.argmax(correct))
    return float(cuts[best]), float(correct[best] / s.size)


@dataclass(frozen=True)
class FTestResult:
    f_stat: float
    critical: float
    significant: bool  # first residual set significantly better


def ftest_significance(residuals_a, residuals_b, confidence: float = 0.95) -> FTestResult:
    """Left-tailed variance-ratio test: is model a significantly better?"""
    a = np.asarray(residuals_a, dtype=np.float64)
    b = np.asarray(residuals_b, dtype=np.float64)
    if a.size < 4 or b.size < 4:
        raise ValueError("need at least 4 residuals per model")
    var_a = float(a.var(ddof=1))
    var_b = float(b.var(ddof=1))
    if var_b == 0.0:
        raise ValueError("reference residuals have zero variance")
    f_stat = var_a / var_b
    critical = f_quantile(1.0 - confidence, a.size - 1, b.size - 1)
    return FTestResult(f_stat, critical, f_stat < critical)

