"""Acceptance gate: one criterion per test, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
A7 needs real patch data (BAND2K_DIR env var) and is skipped without it.
"""

import csv
import math
import os
import time

import numpy as np
import pytest

from bandgauge.classifier import (
    TrainConfig,
    bce_loss,
    forward_batch,
    init_params,
    loss_and_grads,
    save_params,
    train,
)
from bandgauge.cli import main
from bandgauge.datagen import SynthSpec, gen_base, make_dataset, quantize_bitdepth
from bandgauge.evalharness import (
    fit_logistic5,
    krcc,
    logistic5,
    pearson,
    roc_pr,
    srcc,
    threshold_search,
)
from bandgauge.freq import PwsConfig, edge_set, pws_energy, pws_lfm
from bandgauge.imgcore import PlanarImage, save_image, tile
from bandgauge.scoring import banding_map, pool_score
from bandgauge.sfmask import mask_weight, spatial_frequency
from bandgauge.subjective import (
    OutlierConfig,
    RatingSet,
    grubbs_threshold,
    remove_outliers,
)
from bandgauge.sfmask import MaskWeights

import conftest
import test_classifier as clf_helpers
import test_evalharness as naive
import test_freq as freq_helpers


def report(name, ok, detail):
    print(f"{name} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def trained():
    """Shared dataset + model for A1/A2 (seeded, deterministic)."""
    bundle = make_dataset(130, seed=11, patch_size=64, image_size=256)
    cfg = TrainConfig(
        learning_rate=1e-3, batch_size=32, epochs=8, seed=5, patch_size=64
    )
    t0 = time.time()
    params, history = train(bundle.train, cfg, val_samples=bundle.val)
    return bundle, params, history, time.time() - t0


def test_a1_classifier_on_synthetic(trained):
    bundle, params, history, train_seconds = trained
    n_total = len(bundle.train) + len(bundle.val) + len(bundle.test)
    assert n_total >= 2000
    h = np.stack([s.hfm for s in bundle.test])
    l = np.stack([s.lfm.values for s in bundle.test])
    y = np.array([1 if s.label.is_banded else 0 for s in bundle.test])
    p = forward_batch(params, h, l)
    res = roc_pr(p, y)
    acc = float(((p > 0.5) == (y == 1)).mean())
    ok = res.auroc >= 0.95 and acc >= 0.90 and train_seconds <= 600.0
    report(
        "A1",
        ok,
        f"test AUROC {res.auroc:.4f} (>=0.95), accuracy {acc:.4f} (>=0.90), "
        f"training {train_seconds:.0f}s (<=600s) on {n_total} patches",
    )


def test_a2_end_to_end_monotonicity(trained, tmp_path):
    _, params, _, _ = trained
    wpath = tmp_path / "model.bgw"
    save_params(params, wpath)
    base = gen_base(SynthSpec("linear_ramp", size=256, bit_depth=8, seed=77))
    paths = []
    for d in (7, 6, 5, 4, 3):
        p = tmp_path / f"ramp_d{d}.png"
        save_image(quantize_bitdepth(base, d), p)
        paths.append(str(p))

    t0 = time.time()
    out_model = tmp_path / "scores_model.csv"
    rc1 = main(["score", *paths, "--model", str(wpath), "--out", str(out_model)])
    out_base = tmp_path / "scores_baseline.csv"
    rc2 = main(["score", *paths, "--patch-size", "64", "--out", str(out_base)])
    elapsed = time.time() - t0

    q_model = [float(r["q"]) for r in csv.DictReader(open(out_model))]
    q_base = [float(r["q"]) for r in csv.DictReader(open(out_base))]
    strict = sum(b > a for a, b in zip(q_model, q_model[1:]))
    nondec = all(b >= a for a, b in zip(q_base, q_base[1:]))
    ok = rc1 == 0 and rc2 == 0 and strict >= 4 and nondec and elapsed <= 30.0
    report(
        "A2",
        ok,
        f"model Q strictly increasing in {strict}/4 pairs "
        f"({', '.join(f'{q:.3f}' for q in q_model)}); baseline non-decreasing: "
        f"{nondec}; runtime {elapsed:.1f}s (<=30s)",
    )


def test_predict_contract_with_trained_model(trained):
    # Not a numbered criterion: score_image on a one-tile image must agree
    # with the trained model's batch behaviour on generated content.
    from bandgauge.pipeline import RunConfig, score_image

    _, params, _, _ = trained
    config = RunConfig(patch_size=64)
    ramp = quantize_bitdepth(
        gen_base(SynthSpec("linear_ramp", size=64, bit_depth=8, seed=123)), 3
    )
    noise = gen_base(SynthSpec("noise_texture", size=64, bit_depth=8, seed=124))
    ramp_p, noise_p = (score_image(img, config, params).bmap.prob[0] for img in (ramp, noise))
    assert ramp_p > 0.5
    assert 0.0 <= noise_p <= 0.5


def test_a3_pooling_oracle():
    rng = np.random.default_rng(303)
    banded, clean = 1.0, 0.0  # a tile's probability
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(8, 33))
        cols = int(rng.integers(1, 5))
        rows = int(rng.integers(1, 5))
        img = PlanarImage.from_array(
            np.zeros((rows * n, cols * n), dtype=np.uint8)
        )
        grid = tile(img, n)
        labels = [banded if rng.random() < 0.7 else clean for _ in grid.patches]
        weights = MaskWeights(rng.uniform(1.0, 3.0, size=len(grid)))
        hfms = []
        for _ in grid.patches:
            vals = rng.random((n, n)) * 5.0
            vals[rng.random((n, n)) < rng.uniform(0.1, 0.9)] = 0.0
            hfms.append(vals)
        bm = banding_map(grid, labels, weights, hfms)
        p = float(rng.choice([20.0, 50.0, 80.0, 100.0]))
        got = pool_score(bm, p)
        from test_scoring import brute_force_pool

        want_q, want_scores = brute_force_pool(bm, p)
        assert got.q == want_q, f"q mismatch at instance {checked}"
        assert list(got.per_patch_scores) == want_scores
        checked += 1
    report("A3", checked == 1000, f"{checked}/1000 pooled maps bitwise-equal to full-sort oracle")


def reference_remove_outliers(scores, alpha, sd_mult, threshold_cache):
    """Independent iterative screening: quadrature-based thresholds, own
    bookkeeping, same contract."""
    kept = list(scores)
    removed = []
    while len(kept) > 3:
        n = len(kept)
        mean = sum(kept) / n
        var = sum((s - mean) ** 2 for s in kept) / (n - 1)
        sd = math.sqrt(var)
        if sd == 0.0:
            break
        best_i = 0
        for i in range(1, n):
            if abs(kept[i] - mean) > abs(kept[best_i] - mean):
                best_i = i
        dev = abs(kept[best_i] - mean)
        if n not in threshold_cache:
            t = conftest.t_upper_quantile_by_integration(alpha / (2.0 * n), n - 2)
            threshold_cache[n] = (
                (n - 1) / math.sqrt(n) * math.sqrt(t * t / (n - 2 + t * t))
            )
        if dev / sd <= threshold_cache[n]:
            break
        if sd_mult is not None and dev <= sd_mult * sd:
            break
        removed.append(kept.pop(best_i))
    return kept, removed


def test_a4_grubbs_oracle():
    published = {3: 1.1543, 5: 1.7150, 10: 2.2900, 20: 2.7082, 30: 2.9085}
    max_err = max(
        abs(grubbs_threshold(n, 0.05) - want) for n, want in published.items()
    )
    assert max_err < 1e-3

    rng = np.random.default_rng(404)
    cache = {}
    agree = 0
    for i in range(500):
        n = int(rng.integers(5, 25))
        scores = np.clip(rng.normal(55.0, 12.0, size=n), 0.0, 100.0)
        if rng.random() < 0.6:  # plant up to two extreme points
            for _ in range(int(rng.integers(1, 3))):
                scores[int(rng.integers(0, n))] = float(rng.choice([0.0, 100.0]))
        scores = tuple(float(s) for s in scores)
        sd_mult = None if i % 2 else 2.5
        cfg = OutlierConfig(sig_alpha=0.05, sd_multiplier=sd_mult)
        kept, _ = remove_outliers(RatingSet("x", scores), cfg)
        ref_kept, _ = reference_remove_outliers(list(scores), 0.05, sd_mult, cache)
        assert list(kept) == ref_kept, f"instance {i}: {kept} != {ref_kept}"
        agree += 1
    report(
        "A4",
        max_err < 1e-3 and agree == 500,
        f"critical values within {max_err:.2e} of published table; "
        f"{agree}/500 kept-sets match the independent reference exactly",
    )


def test_a5_solver_oracle():
    rng = np.random.default_rng(505)
    worst_rel = worst_energy = 0.0
    for i in range(50):
        h = int(rng.integers(6, 25))
        w = int(rng.integers(6, 25))
        arr = rng.random((h, w))
        alpha = float(rng.uniform(0.5, 4.0))
        cfg = PwsConfig(reg_alpha=alpha, max_iters=20000, tol=1e-14)
        lfm = pws_lfm(arr, cfg)
        # The solver's energy is a running total of exact decrements; it must
        # agree with the objective recomputed from the map it returns.
        energy = pws_energy(arr, lfm.values, edge_set(arr), cfg)
        energy_rel = abs(lfm.energy_trace[-1] - energy) / energy
        worst_energy = max(worst_energy, energy_rel)
        assert energy_rel <= 1e-12, f"instance {i}: energy off by {energy_rel}"
        direct = freq_helpers.dense_direct_solve(arr, edge_set(arr), alpha)
        rel = float(np.linalg.norm(lfm.values - direct) / np.linalg.norm(direct))
        worst_rel = max(worst_rel, rel)
        assert rel <= 1e-6, f"instance {i}: rel err {rel}"
    report(
        "A5",
        worst_rel <= 1e-6 and worst_energy <= 1e-12,
        f"50/50 instances within 1e-6 of dense solve (worst {worst_rel:.2e}); "
        f"final running energy within {worst_energy:.1e} of the recomputed objective",
    )


def test_a6_metric_harness():
    rng = np.random.default_rng(606)

    worst = {"srcc": 0.0, "krcc": 0.0, "plcc": 0.0, "rmse": 0.0, "auroc": 0.0, "auprc": 0.0}
    for _ in range(200):
        n = int(rng.integers(5, 50))
        x = rng.integers(0, 15, size=n).astype(float)
        y = rng.integers(0, 15, size=n).astype(float)
        if len(set(x)) < 2 or len(set(y)) < 2:
            continue
        worst["srcc"] = max(
            worst["srcc"], abs(srcc(x, y) - naive.naive_srcc(list(x), list(y)))
        )
        worst["krcc"] = max(
            worst["krcc"], abs(krcc(x, y) - naive.naive_krcc(list(x), list(y)))
        )

    for _ in range(200):
        n = int(rng.integers(8, 60))
        x = rng.normal(0, 2, size=n)
        y = 2.0 * x + rng.normal(0, 0.5, size=n)
        fit = fit_logistic5(x, y)
        mapped = logistic5(fit.as_array(), x)
        worst["plcc"] = max(
            worst["plcc"],
            abs(pearson(mapped, y) - naive.naive_pearson(list(mapped), list(y))),
        )
        rmse = float(np.sqrt(np.mean((mapped - y) ** 2)))
        ref_rmse = math.sqrt(sum((a - b) ** 2 for a, b in zip(mapped, y)) / n)
        worst["rmse"] = max(worst["rmse"], abs(rmse - ref_rmse))

    thr_ok = 0
    for _ in range(200):
        n = int(rng.integers(8, 80))
        scores = rng.integers(0, 12, size=n).astype(float)
        labels = (rng.random(n) < 0.5).astype(int)
        if labels.min() == labels.max():
            continue
        res = roc_pr(scores, labels)
        worst["auroc"] = max(
            worst["auroc"],
            abs(res.auroc - naive.naive_auroc(list(scores), list(labels))),
        )
        worst["auprc"] = max(
            worst["auprc"],
            abs(res.auprc - naive.naive_auprc(list(scores), list(labels))),
        )
        _, acc = threshold_search(scores, labels)
        ref_acc = naive.naive_best_accuracy(list(scores), list(labels))
        assert acc == pytest.approx(ref_acc, abs=1e-12)
        thr_ok += 1

    truth = np.array([35.0, 0.8, 2.0, 1.2, 10.0])
    xs = np.linspace(-3.0, 7.0, 60)
    ys = logistic5(truth, xs)
    fit = fit_logistic5(xs, ys)
    rec_rmse = float(np.sqrt(np.mean((logistic5(fit.as_array(), xs) - ys) ** 2)))
    rec_ok = rec_rmse <= 1e-4 * (ys.max() - ys.min())

    agree = max(worst.values()) < 1e-10
    report(
        "A6",
        agree and rec_ok,
        f"max |impl - naive| {max(worst.values()):.2e} (<1e-10) over 200 instances "
        f"per metric; logistic recovery rmse {rec_rmse:.2e}; threshold search "
        f"matched exhaustive on {thr_ok} instances",
    )


def test_a7_band2k_if_available(tmp_path):
    data_dir = os.environ.get("BAND2K_DIR")
    if not data_dir:
        print("A7 SKIP: BAND2K_DIR not set (released patch data not present)")
        pytest.skip("BAND-2k data not available")
    manifest = os.path.join(data_dir, "manifest.csv")
    if not os.path.exists(manifest):
        print("A7 SKIP: no manifest.csv under BAND2K_DIR")
        pytest.skip("BAND-2k manifest not found")

    from bandgauge.datagen import load_dataset

    bundle = load_dataset(manifest)
    cfg = TrainConfig(patch_size=235)
    params, _ = train(bundle.train, cfg, val_samples=bundle.val)
    h = np.stack([s.hfm for s in bundle.test])
    l = np.stack([s.lfm.values for s in bundle.test])
    y = np.array([1 if s.label.is_banded else 0 for s in bundle.test])
    p = forward_batch(params, h, l)
    acc = float(((p > 0.5) == (y == 1)).mean())
    report("A7", acc >= 0.85, f"real-data test accuracy {acc:.4f} (>=0.85)")


def test_a8_gradient_check():
    worst_rel = 0.0
    for net in range(20):
        params, h, l, y = clf_helpers.kink_free_case(
            seed=800 + net, patch=8, widths=(2, 3), fc=6, n=4
        )
        _, grads = loss_and_grads(params, h, l, y)
        tensors = [t.copy() for t in params.tensors()]
        for i in range(len(tensors)):
            num = clf_helpers.numeric_grad(params, tensors, i, h, l, y, step=1e-4)
            denom = max(np.abs(num).max(), np.abs(grads[i]).max(), 1e-8)
            rel = float(np.abs(grads[i] - num).max() / denom)
            worst_rel = max(worst_rel, rel)
            assert rel <= 1e-3, f"net {net} tensor {i}: rel {rel}"

    rng = np.random.default_rng(808)
    bce_errs = []
    for seed in range(5):
        params = init_params(8, (2, 3, 4), 8, seed=seed, dtype=np.float64)
        h = rng.random((32, 8, 8))
        l = rng.random((32, 8, 8))
        y = np.array([0.0, 1.0] * 16)
        bce_errs.append(abs(bce_loss(params, h, l, y) - math.log(2.0)))
    bce_ok = max(bce_errs) <= 0.1
    report(
        "A8",
        worst_rel <= 1e-3 and bce_ok,
        f"20 nets, every parameter: max rel grad err {worst_rel:.2e} (<=1e-3); "
        f"initial balanced BCE within {max(bce_errs):.3f} of ln 2 (<=0.1)",
    )


def test_a9_equation_spot_values():
    w = mask_weight(3.0, 2.0, 235, 1.5)
    w_ok = w == 1.0 + 1.0 / 235
    cf, rf, sf = spatial_frequency(np.array([[0.0, 1.0], [1.0, 0.0]]))
    sf_ok = cf == math.sqrt(0.5) and rf == math.sqrt(0.5) and sf == 1.0
    img = PlanarImage.from_array(np.full((8, 8), 200, dtype=np.uint8))
    q = quantize_bitdepth(img, 4)
    q_ok = int(q.planes[0][0, 0]) == 200
    report(
        "A9",
        w_ok and sf_ok and q_ok,
        f"mask weight {w!r} == 1 + 1/235: {w_ok}; checkerboard sf "
        f"({cf:.6f}, {rf:.6f}, {sf:.1f}) exact: {sf_ok}; quantize(200, 4) == 200: {q_ok}",
    )
