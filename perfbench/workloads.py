"""The ops of each workload and the checks on their outputs.

Every check tests a property of the method or compares with a value
computed here apart from the program; none compares with stored output.
Ops call the program through module attributes (``imgcore.load_image``,
``evalharness.srcc``, ...) so that the tracer's wrappers are seen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from bandgauge import classifier, datagen, evalharness, imgcore, pipeline, subjective


@dataclass(frozen=True)
class Op:
    name: str
    cls: str  # content class, for the per-class op times in the README
    run: Callable  # () -> output
    check: Callable  # (output, reference summary or None) -> list of errors
    summary: Callable  # output -> what every later round must reproduce


def build(man: dict, model) -> tuple:
    """(ops of one round, check over a round's summaries) for a manifest."""
    if man["workload"] == "offline":
        return [_study_op(man)], lambda outs: []
    ops = []
    for f in man["files"]:
        source = np.load(f["source"]) if "source" in f else None
        for n in man["sizes"]:
            ops.append(_score_op(f, n, model, source))
    return ops, lambda outs: _ladder_errors(man, ops, outs)


# ---------------------------------------------------------------------------
# Scoring from files: score-baseline, score-model, ingest


def _score_op(f: dict, n: int, model, source) -> Op:
    path, w, h = f["path"], f["width"], f["height"]
    cfg = pipeline.RunConfig(patch_size=n)

    def run():
        img = imgcore.load_image(path)
        return img, pipeline.score_image(img, cfg, model)

    def summary(out):
        res = out[1]
        return (res.score.q, res.banded_patch_count, res.bmap.total_patches)

    def check(out, ref):
        img, res = out
        q, banded, total = summary(out)
        errs = []
        if not (math.isfinite(q) and q >= 0.0):
            errs.append(f"q = {q} is not finite and >= 0")
        if total != (w // n) * (h // n):
            errs.append(f"{total} patches, expected {(w // n) * (h // n)}")
        if (q == 0.0) != (banded == 0):
            errs.append(f"q = {q} with {banded} banded patches")
        if source is not None and not np.array_equal(img.to_array(), source):
            errs.append("decoded pixels differ from the generated array")
        if ref is not None and summary(out) != ref:
            errs.append(f"scored {summary(out)}, warm-up scored {ref}")
        return errs

    return Op(f"{f['name']}@{n}", f["class"], run, check, summary)


def _ladder_errors(man: dict, ops, outs) -> list:
    """Baseline q must not fall as the bit depth of one base falls."""
    if "model" in man or "ladder" not in man:
        return []
    errs = []
    for n in man["sizes"]:
        qs = [outs[i][0] for i, op in enumerate(ops)
              if outs[i] is not None and op.name in {f"{d}@{n}" for d in man["ladder"]}]
        if len(qs) == len(man["ladder"]) and any(b < a for a, b in zip(qs, qs[1:])):
            errs.append(f"ladder q at N={n} falls with bit depth: {qs}")
    return errs


# ---------------------------------------------------------------------------
# offline: dataset build, training, classification and subjective evaluation


def _study_op(man: dict) -> Op:
    st = man["study"]
    data = np.load(man["ratings"])
    counts, predicted, scheme = data["counts"], data["predicted"], data["scheme"]
    bounds = np.concatenate([[0], np.cumsum(counts)])
    ratings = [
        subjective.RatingSet(f"img{i:04d}", tuple(data["scores"][bounds[i] : bounds[i + 1]]))
        for i in range(len(counts))
    ]
    subsets = [np.ones(len(counts), dtype=bool)] + [scheme == k for k in range(st["schemes"])]
    train_cfg = classifier.TrainConfig(
        epochs=st["epochs"], seed=man["train_seed"], patch_size=st["patch_size"]
    )

    def run():
        ds = datagen.make_dataset(
            st["images"], man["dataset_seed"], tuple(st["split"]),
            st["patch_size"], st["image_size"],
        )
        params, _ = classifier.train(list(ds.train), train_cfg, val_samples=list(ds.val))
        probs = classifier.forward_batch(
            params, [s.hfm for s in ds.test], [s.lfm for s in ds.test]
        )
        labels = np.array([int(s.label.is_banded) for s in ds.test])
        roc = evalharness.roc_pr(probs, labels)
        threshold = evalharness.threshold_search(probs, labels)
        rows = subjective.mos_pipeline(ratings)
        mos = np.array([r[1] for r in rows])
        evals = []
        for sel in subsets:
            x, y = predicted[sel], mos[sel]
            evals.append(
                (evalharness.srcc(x, y), evalharness.krcc(x, y), *evalharness.plcc_rmse(x, y))
            )
        return {
            "probs": probs, "labels": labels, "auroc": roc.auroc, "auprc": roc.auprc,
            "threshold": threshold, "rows": rows, "mos": mos, "evals": evals,
        }

    def summary(out):
        return (out["auroc"], out["auprc"], out["threshold"], tuple(out["mos"]),
                tuple(out["evals"]))

    def check(out, ref):
        errs = []
        pos = out["probs"][out["labels"] == 1]
        neg = out["probs"][out["labels"] == 0]
        auroc = float(np.mean(pos[:, None] > neg[None, :])
                      + 0.5 * np.mean(pos[:, None] == neg[None, :]))
        if abs(out["auroc"] - auroc) > 1e-12:
            errs.append(f"AUROC {out['auroc']} != pairwise {auroc}")
        for row, given in zip(out["rows"], counts):
            _, value, kept, removed = row
            if not 0.0 <= value <= 100.0 or kept + removed != given:
                errs.append(f"MOS row {row} with {given} ratings given")
                break
        for k, (sel, ev) in enumerate(zip(subsets, out["evals"])):
            x, y = predicted[sel], out["mos"][sel]
            r = np.corrcoef(_avg_ranks(x), _avg_ranks(y))[0, 1]
            if abs(ev[0] - r) > 1e-9:
                errs.append(f"set {k}: SRCC {ev[0]} != rank correlation {r}")
            affine = np.polyval(np.polyfit(x, y, 1), x)
            affine_rmse = math.sqrt(float(np.mean((affine - y) ** 2)))
            if ev[3] > affine_rmse * (1.0 + 1e-9):
                errs.append(f"set {k}: logistic RMSE {ev[3]} > affine RMSE {affine_rmse}")
        if ref is not None and summary(out) != ref:
            errs.append("study outputs differ from the warm-up round")
        return errs

    return Op("study", "study", run, check, summary)


def _avg_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks with ties averaged."""
    _, inv, cnt = np.unique(v, return_inverse=True, return_counts=True)
    upper = np.cumsum(cnt)
    return (upper - (cnt - 1) / 2.0)[inv]
