"""Raw opinion-score screening and MOS aggregation.

The screening statistic is the maximum absolute deviation from the sample
mean in sample-standard-deviation units (N-1 denominator).  A point is
rejected only while BOTH hold: the statistic exceeds the t-derived critical
value

    (N-1)/sqrt(N) * sqrt(t^2 / (N - 2 + t^2)),   t = upper critical value of
    Student's t with N-2 dof at level alpha/(2N),

and the extreme point's deviation exceeds sd_multiplier * SD.  Removal is
one point at a time with full recomputation, never shrinking a set below
three scores.  The mean of the kept scores is the MOS.

Sets of one size are screened together as one array: at each step every
set still screening removes at most its one most deviant score, so the
kept scores, their order and the MOS are those of screening each set alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .checks import check
from .csvfile import read_rows, write_rows
from .statdist import student_t_upper_critical


@dataclass(frozen=True)
class RatingSet:
    """Raw scores for one image, on the 0-100 continuous scale."""

    image_id: str
    scores: tuple

    def __post_init__(self):
        scores = tuple(float(s) for s in self.scores)
        for s in scores:
            if not 0.0 <= s <= 100.0:
                raise ValueError(f"score {s} outside the 0-100 scale")
        object.__setattr__(self, "scores", scores)


@dataclass(frozen=True)
class OutlierConfig:
    """sig_alpha is the Grubbs significance level; sd_multiplier gates the
    additional deviation test (None or 0 disables that gate); max_removals
    of None means: remove until the test passes or only 3 scores remain."""

    sig_alpha: float = 0.05
    sd_multiplier: float | None = 2.5
    max_removals: int | None = None

    def __post_init__(self):
        check("sig_alpha", self.sig_alpha, gt=0, lt=1)
        check("sd_multiplier", self.sd_multiplier, optional=True, ge=0)
        check("max_removals", self.max_removals, int, optional=True, ge=0)


@functools.lru_cache(maxsize=1024)
def grubbs_threshold(n: int, sig_alpha: float = 0.05) -> float:
    """Critical value of the two-sided test for a sample of size n.

    Memoised: it depends only on (n, sig_alpha), and outlier removal asks
    for it again at every step.
    """
    if n < 3:
        raise ValueError("the test needs at least 3 scores")
    t = student_t_upper_critical(sig_alpha / (2.0 * n), n - 2)
    return (n - 1) / math.sqrt(n) * math.sqrt(t * t / (n - 2 + t * t))


def _screen(block: np.ndarray, cfg: OutlierConfig):
    """Screen the rows of a (sets, n) block of rating sets of one size.

    Every row still screening at step t holds its n - t kept scores,
    compacted in input order, so the row mean and SD are those of the set's
    own kept scores, and each step removes at most one score per row.
    Returns (MOS per row, the step at which each score was removed or -1
    for a kept score).
    """
    m, n = block.shape
    mos = np.empty(m)
    removed_at = np.full((m, n), -1)
    limit = n if cfg.max_removals is None else cfg.max_removals
    rows = np.arange(m)  # block row of each row still screening
    cols = np.broadcast_to(np.arange(n), (m, n))  # input position of each kept score
    held = block
    for t in range(n):
        mean = held.mean(axis=1)
        if n - t <= 3 or t >= limit:
            mos[rows] = mean
            break
        sd = held.std(axis=1, ddof=1)
        dev = np.abs(held - mean[:, None])
        worst = dev.argmax(axis=1)  # ties go to the lowest index
        d = dev[np.arange(rows.size), worst]
        with np.errstate(divide="ignore", invalid="ignore"):
            go = (sd != 0.0) & (d / sd > grubbs_threshold(n - t, cfg.sig_alpha))
        if cfg.sd_multiplier:
            go &= d > cfg.sd_multiplier * sd
        mos[rows[~go]] = mean[~go]
        if not go.any():
            break
        on = np.flatnonzero(go)
        keep = np.ones((on.size, n - t), dtype=bool)
        keep[np.arange(on.size), worst[on]] = False
        removed_at[rows[on], cols[on, worst[on]]] = t
        held = held[on][keep].reshape(on.size, n - t - 1)
        cols = cols[on][keep].reshape(on.size, n - t - 1)
        rows = rows[on]
    return mos, removed_at


def remove_outliers(ratings: RatingSet, cfg: OutlierConfig = OutlierConfig()):
    """Iteratively drop the most deviant score while the tests agree.

    Returns (kept, removed) tuples: kept scores in input order, removed ones
    in removal order.  Ties on deviation resolve to the lowest index, so the
    result is deterministic and independent of input permutation up to
    multiset.
    """
    scores = ratings.scores
    if not scores:
        return (), ()
    _, removed_at = _screen(np.array([scores]), cfg)
    # Kept scores (-1) first in input order, then removed ones by step.
    order = np.argsort(removed_at[0], kind="stable").tolist()
    n_kept = int((removed_at[0] < 0).sum())
    return (
        tuple(scores[i] for i in order[:n_kept]),
        tuple(scores[i] for i in order[n_kept:]),
    )


# ---------------------------------------------------------------------------
# CSV surfaces

def read_ratings_csv(path):
    """(image_id, rater_id, score) rows -> list of RatingSet, input order."""
    by_image = {}
    for line_no, (image_id, _, text) in read_rows(path, ("image_id", "rater_id", "score")):
        try:
            score = float(text)
        except ValueError:
            raise ValueError(f"{path}:{line_no}: bad score {text!r}") from None
        if not 0.0 <= score <= 100.0:
            raise ValueError(
                f"{path}:{line_no}: score {text} for image {image_id} outside the 0-100 scale"
            )
        by_image.setdefault(image_id, []).append(score)
    return [RatingSet(image_id, tuple(scores)) for image_id, scores in by_image.items()]


def write_mos_csv(results, path) -> None:
    """results: iterable of (image_id, mos, n_kept, n_removed)."""
    rows = [(i, f"{v:.10g}", k, r) for i, v, k, r in results]
    write_rows(path, ("image_id", "mos", "n_kept", "n_removed"), rows)


def mos_pipeline(ratings, cfg: OutlierConfig = OutlierConfig()):
    """Screen every rating set and aggregate: rows for write_mos_csv, in
    input order.  Sets of one size are screened together as one block."""
    ratings = list(ratings)
    sizes = np.array([len(rs.scores) for rs in ratings], dtype=np.intp)
    if (sizes == 0).any():
        raise ValueError("cannot average an empty score set")
    mos = np.empty(len(ratings))
    n_removed = np.empty(len(ratings), dtype=np.intp)
    for n in np.unique(sizes):
        members = np.flatnonzero(sizes == n)
        block = np.array([ratings[i].scores for i in members], dtype=np.float64)
        mos[members], removed_at = _screen(block, cfg)
        n_removed[members] = (removed_at >= 0).sum(axis=1)
    return [
        (rs.image_id, v, n - r, r)
        for rs, v, n, r in zip(ratings, mos.tolist(), sizes.tolist(), n_removed.tolist())
    ]
