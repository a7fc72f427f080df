"""Grubbs screening and MOS aggregation."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bandgauge.subjective import (
    OutlierConfig,
    RatingSet,
    grubbs_threshold,
    mos_pipeline,
    read_ratings_csv,
    remove_outliers,
    write_mos_csv,
)
from conftest import t_upper_quantile_by_integration

# Two-sided critical values at alpha = 0.05 from the standard published table.
PUBLISHED = {3: 1.1543, 5: 1.7150, 10: 2.2900, 20: 2.7082, 30: 2.9085}


def reference_threshold(n, alpha=0.05):
    """Same formula, t-quantile from quadrature instead of incomplete beta."""
    t = t_upper_quantile_by_integration(alpha / (2.0 * n), n - 2)
    return (n - 1) / math.sqrt(n) * math.sqrt(t * t / (n - 2 + t * t))


def loop_remove_outliers(ratings, cfg=OutlierConfig()):
    """The one-set screening loop that the grouped arrays replaced: the
    oracle for their bits and their removal order."""
    kept = list(ratings.scores)
    removed = []
    max_removals = cfg.max_removals if cfg.max_removals is not None else len(kept)
    while len(kept) > 3 and len(removed) < max_removals:
        arr = np.asarray(kept, dtype=np.float64)
        mean = float(arr.mean())
        sd = float(arr.std(ddof=1))
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


def loop_mos(scores):
    if len(scores) == 0:
        raise ValueError("cannot average an empty score set")
    return float(np.mean(np.asarray(scores, dtype=np.float64)))


def loop_mos_rows(ratings, cfg):
    """(id, MOS as float hex, kept, removed) per set, by the loop oracle."""
    rows = []
    for rs in ratings:
        kept, removed = loop_remove_outliers(rs, cfg)
        rows.append((rs.image_id, loop_mos(kept).hex(), len(kept), len(removed)))
    return rows


def hex_rows(rows):
    return [(i, v.hex(), k, r) for i, v, k, r in rows]


def test_statistic_degenerate():
    # Zero variance: the statistic is 0 and nothing is removed.
    rs = RatingSet("img", (10.0,) * 5)
    assert remove_outliers(rs, OutlierConfig(sd_multiplier=None)) == (rs.scores, ())


def test_statistic_hand_value():
    rs = RatingSet("img", (0.0, 0.0, 0.0, 0.0, 10.0))
    g = 8.0 / math.sqrt(20.0)  # mean 2, sample sd sqrt(20): 1.789
    assert g > grubbs_threshold(5, 0.05)  # 1.715
    kept, removed = remove_outliers(rs, OutlierConfig(sd_multiplier=None))
    assert kept == (0.0,) * 4 and removed == (10.0,)
    # The SD gate compares the same statistic with sd_multiplier, which
    # pins its value from both sides.
    assert remove_outliers(rs, OutlierConfig(sd_multiplier=g * (1 - 1e-9)))[1] == (10.0,)
    assert remove_outliers(rs, OutlierConfig(sd_multiplier=g * (1 + 1e-9)))[1] == ()


def test_statistic_translation_invariant(rng):
    scores = list(rng.uniform(0, 10, size=8))
    scores.insert(int(rng.integers(0, 9)), 50.0)
    shifted = [s + 30.0 for s in scores]
    cfg = OutlierConfig(sd_multiplier=None)
    _, removed = remove_outliers(RatingSet("a", scores), cfg)
    _, removed_shifted = remove_outliers(RatingSet("b", shifted), cfg)
    assert removed  # the 50 at least
    assert removed_shifted == tuple(shifted[scores.index(v)] for v in removed)


def test_threshold_matches_published_table():
    for n, want in PUBLISHED.items():
        assert grubbs_threshold(n, 0.05) == pytest.approx(want, abs=1e-3)


def test_threshold_matches_integration_oracle():
    for n in (3, 5, 10, 20, 30):
        assert grubbs_threshold(n, 0.05) == pytest.approx(
            reference_threshold(n), abs=1e-6
        )


def test_threshold_monotone_in_n():
    values = [grubbs_threshold(n, 0.05) for n in range(3, 51)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_threshold_decreasing_in_alpha():
    for n in (5, 12, 30):
        assert grubbs_threshold(n, 0.01) > grubbs_threshold(n, 0.05) > grubbs_threshold(n, 0.20)


def test_threshold_needs_three():
    with pytest.raises(ValueError):
        grubbs_threshold(2)


# --- removal ---------------------------------------------------------------------


def test_tight_cluster_keeps_everything():
    rs = RatingSet("img", (50.0, 51.0, 49.0, 52.0, 48.0))
    kept, removed = remove_outliers(rs)
    assert kept == rs.scores and removed == ()


def test_small_sample_blocked_by_sd_gate():
    # With five scores the statistic is capped at 4/sqrt(5) < 2.5, so the
    # 2.5-SD gate can never agree for N=5 and nothing may be removed.
    rs = RatingSet("img", (1.0, 1.0, 1.0, 1.0, 100.0))
    kept, removed = remove_outliers(rs, OutlierConfig())
    assert removed == ()
    arr = np.array(rs.scores)
    g = np.abs(arr - arr.mean()).max() / arr.std(ddof=1)
    assert g > grubbs_threshold(5, 0.05)  # Grubbs alone would have fired
    assert g < 2.5


def test_extreme_point_removed_without_sd_gate():
    rs = RatingSet("img", (1.0, 1.0, 1.0, 1.0, 100.0))
    kept, removed = remove_outliers(rs, OutlierConfig(sd_multiplier=None))
    assert removed == (100.0,)
    assert kept == (1.0, 1.0, 1.0, 1.0)
    assert mos_pipeline([rs], OutlierConfig(sd_multiplier=None))[0][1] == 1.0


def test_large_sample_conjunctive_removal():
    # For N >= 14 the Grubbs bound exceeds 2.5 SD, so both tests can agree.
    scores = tuple([50.0 + 0.1 * i for i in range(19)] + [99.0])
    kept, removed = remove_outliers(RatingSet("img", scores))
    assert removed == (99.0,)
    assert len(kept) == 19


def test_never_below_three_and_max_removals():
    scores = (0.0, 0.1, 50.0, 99.9, 100.0)
    cfg = OutlierConfig(sd_multiplier=None, max_removals=1)
    kept, removed = remove_outliers(RatingSet("img", scores), cfg)
    assert len(removed) <= 1

    tiny = RatingSet("img", (1.0, 2.0, 95.0))
    kept, removed = remove_outliers(tiny, OutlierConfig(sd_multiplier=None))
    assert kept == tiny.scores  # N == 3 is never reduced


def test_removal_idempotent(rng):
    for _ in range(20):
        scores = tuple(np.clip(rng.normal(55, 12, size=17), 0, 100))
        rs = RatingSet("x", scores)
        kept1, _ = remove_outliers(rs)
        kept2, removed2 = remove_outliers(RatingSet("x", kept1))
        assert kept2 == kept1 and removed2 == ()


def test_permutation_invariant_multiset(rng):
    scores = list(np.clip(rng.normal(40, 15, size=16), 0, 100)) + [100.0]
    kept_a, _ = remove_outliers(RatingSet("x", tuple(scores)))
    perm = list(scores)
    rng.shuffle(perm)
    kept_b, _ = remove_outliers(RatingSet("x", tuple(perm)))
    assert sorted(kept_a) == pytest.approx(sorted(kept_b))


def test_tie_break_lowest_index():
    scores = (10.0, 90.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 90.0, 10.0)
    cfg = OutlierConfig(sd_multiplier=None, max_removals=1)
    kept, removed = remove_outliers(RatingSet("x", scores), cfg)
    if removed:  # the first extreme (index 1 vs 9 both |dev| equal) goes first
        assert kept.count(90.0) + kept.count(10.0) == 3


def test_scale_validation():
    with pytest.raises(ValueError):
        RatingSet("x", (0.0, 101.0, 5.0))
    with pytest.raises(ValueError):
        OutlierConfig(sig_alpha=0.0)


# --- MOS ------------------------------------------------------------------------


def test_mos_values():
    rows = mos_pipeline([RatingSet("a", (50.0, 60.0, 70.0)), RatingSet("b", (42.5,))])
    assert rows == [("a", 60.0, 3, 0), ("b", 42.5, 1, 0)]
    with pytest.raises(ValueError, match="empty"):
        mos_pipeline([RatingSet("a", (50.0,)), RatingSet("c", ())])


def test_full_pipeline_with_disabled_gate():
    rs = RatingSet("img7", (1.0, 1.0, 1.0, 1.0, 100.0))
    rows = mos_pipeline([rs], OutlierConfig(sd_multiplier=None))
    assert rows == [("img7", 1.0, 4, 1)]


def test_csv_roundtrip(tmp_path):
    path = tmp_path / "ratings.csv"
    path.write_text(
        "image_id,rater_id,score\n"
        "a,r1,10\na,r2,12\na,r3,11\na,r4,9\n"
        "b,r1,80\nb,r2,85\nb,r3,90\n"
    )
    ratings = read_ratings_csv(path)
    assert [r.image_id for r in ratings] == ["a", "b"]
    assert ratings[0].scores == (10.0, 12.0, 11.0, 9.0)

    out = tmp_path / "mos.csv"
    write_mos_csv(mos_pipeline(ratings), out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "image_id,mos,n_kept,n_removed"
    assert lines[1].startswith("a,10.5,4,0")

    bad = tmp_path / "bad.csv"
    bad.write_text("image_id,rater_id,score\na,r1,notanumber\n")
    with pytest.raises(ValueError, match=":2:"):
        read_ratings_csv(bad)


# --- grouped screening against the one-set loop ------------------------------------


@st.composite
def rating_sets(draw):
    """1-60 sets of 0-40 scores: clustered with wide outliers, constant,
    or drawn from a few values (ties); sizes repeat, so groups form."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(0, 40), min_size=1, max_size=6))
    kinds = st.sampled_from(["spread", "constant", "ties"])
    sets = []
    for i, kind in enumerate(draw(st.lists(kinds, min_size=1, max_size=60))):
        n = sizes[i % len(sizes)]
        if kind == "constant":
            scores = np.full(n, rng.uniform(0.0, 100.0))
        elif kind == "ties":
            scores = rng.choice([0.0, 50.0, 50.5, 100.0], n)
        else:
            scores = np.clip(rng.normal(rng.uniform(5.0, 95.0), 4.0, n), 0.0, 100.0)
            wide = rng.random(n) < 0.15
            scores[wide] = rng.uniform(0.0, 100.0, int(wide.sum()))
        sets.append(RatingSet(f"s{i}", tuple(scores)))
    cfg = OutlierConfig(
        sig_alpha=draw(st.sampled_from([0.01, 0.05, 0.3])),
        sd_multiplier=draw(st.sampled_from([None, 0, 2.5])),
        max_removals=draw(st.sampled_from([None, 0, 1, 3])),
    )
    return sets, cfg


@settings(max_examples=300, deadline=None)
@given(rating_sets())
@example(([RatingSet("a", (1.0,) * 4 + (100.0,)), RatingSet("b", (1.0, 2.0, 100.0))],
          OutlierConfig(sd_multiplier=None)))
def test_grouped_screening_is_the_one_set_loop(case):
    sets, cfg = case
    for rs in sets:
        assert remove_outliers(rs, cfg) == loop_remove_outliers(rs, cfg)
    if any(not rs.scores for rs in sets):
        with pytest.raises(ValueError, match="empty"):
            mos_pipeline(sets, cfg)
    else:
        assert hex_rows(mos_pipeline(sets, cfg)) == loop_mos_rows(sets, cfg)


def bench_rated_sets(seed=2000, images=2000, schemes=15):
    """The bench's rated set: ~22 ratings per image round a logistic
    function of the objective score, 3% of them uniform outliers."""
    rng = np.random.default_rng(seed)
    scheme = np.arange(images) % schemes
    severity = rng.uniform(0.0, 0.4, images) * rng.uniform(0.6, 1.0, schemes)[scheme]
    quality = 95.0 - 90.0 / (1.0 + np.exp(-(severity - 0.18) / 0.05))
    counts = rng.integers(20, 25, images)
    scores = np.repeat(quality, counts) + rng.normal(0.0, 8.0, counts.sum())
    outliers = rng.random(scores.size) < 0.03
    scores[outliers] = rng.uniform(0.0, 100.0, int(outliers.sum()))
    scores = np.clip(scores, 0.0, 100.0)
    bounds = np.concatenate([[0], np.cumsum(counts)])
    return [
        RatingSet(f"img{i:04d}", tuple(scores[bounds[i] : bounds[i + 1]])) for i in range(images)
    ]


def test_bench_rated_set_matches_the_loop():
    sets = bench_rated_sets()
    rows = hex_rows(mos_pipeline(sets))
    assert rows == loop_mos_rows(sets, OutlierConfig())
    assert sum(r[3] for r in rows) == 707
