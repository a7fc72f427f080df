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


def _mean_sd(scores) -> tuple:
    arr = np.asarray(scores, dtype=np.float64)
    mean = float(arr.mean())
    sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return mean, sd


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


def remove_outliers(ratings: RatingSet, cfg: OutlierConfig = OutlierConfig()):
    """Iteratively drop the most deviant score while the tests agree.

    Returns (kept, removed) tuples; order of kept scores is preserved and
    ties on deviation resolve to the lowest index, so the result is
    deterministic and independent of input permutation up to multiset.
    """
    kept = list(ratings.scores)
    removed = []
    max_removals = cfg.max_removals if cfg.max_removals is not None else len(kept)
    while len(kept) > 3 and len(removed) < max_removals:
        mean, sd = _mean_sd(kept)
        if sd == 0.0:
            break
        deviations = [abs(s - mean) for s in kept]
        worst = max(range(len(kept)), key=lambda i: (deviations[i], -i))
        g = deviations[worst] / sd
        if g <= grubbs_threshold(len(kept), cfg.sig_alpha):
            break
        if cfg.sd_multiplier and deviations[worst] <= cfg.sd_multiplier * sd:
            break
        removed.append(kept.pop(worst))
    return tuple(kept), tuple(removed)


def mos(scores) -> float:
    """Arithmetic mean of the kept scores."""
    if len(scores) == 0:
        raise ValueError("cannot average an empty score set")
    return float(np.mean(np.asarray(scores, dtype=np.float64)))


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
    """Screen every rating set and aggregate: rows for write_mos_csv."""
    out = []
    for rs in ratings:
        kept, removed = remove_outliers(rs, cfg)
        out.append((rs.image_id, mos(kept), len(kept), len(removed)))
    return out
