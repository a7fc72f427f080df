"""Command-line surface.

Subcommands: score, detect, gen, train, eval, mos.  Option precedence is
flags > JSON config file > the defaults of the config dataclasses (of
datagen.make_dataset for gen), whose field names are the config keys.  Exit
codes: 0 success, 1 input error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import json
import os
import sys

import numpy as np

from . import classifier, datagen, evalharness, subjective
from .classifier import TrainConfig, TrainingDivergedError
from .freq import pws_lfm, sobel_hfm
from .imgcore import ImageFormatError, load_image, save_image, to_luma
from .pipeline import RunConfig, score_image
from .scoring import map_to_image, to_8bit

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERIC = 2

_INPUT_ERRORS = (
    ImageFormatError,
    datagen.ManifestError,
    FileNotFoundError,
    IsADirectoryError,
    NotADirectoryError,
    PermissionError,
    ValueError,
)
_NUMERIC_ERRORS = (TrainingDivergedError, ArithmeticError, RuntimeError)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bandgauge", description="Banding artifact detection and scoring"
    )
    parser.add_argument("--config", help="JSON config file (flags win over it)")
    sub = parser.add_subparsers(dest="command", required=True)

    sc = sub.add_parser("score", help="score images for banding severity")
    sc.add_argument("images", nargs="+")
    sc.add_argument("--model", help="weight container path (default: baseline rule)")
    sc.add_argument("--patch-size", type=int)
    sc.add_argument("--p-percent", type=float)
    sc.add_argument("--gamma", type=float)
    sc.add_argument("--hfm-scope", dest="hfm_scope", help="patch or image")
    sc.add_argument("--threads", type=int)
    sc.add_argument("--out", help="CSV report path (default stdout)")

    dt = sub.add_parser("detect", help="write the banding visibility map")
    dt.add_argument("image")
    dt.add_argument("--model")
    dt.add_argument("--patch-size", type=int)
    dt.add_argument("--gamma", type=float)
    dt.add_argument("--out", required=True, help="map image path (.png/.pgm)")
    dt.add_argument("--raw", help="also dump raw float map (.npy)")
    dt.add_argument(
        "--dump-freq",
        dest="dump_freq",
        help="debug: write <prefix>.hfm.pgm and <prefix>.lfm.pgm of the luma",
    )

    gn = sub.add_parser("gen", help="generate a labeled synthetic dataset")
    gn.add_argument("--n", type=int, required=True, help="number of images")
    gn.add_argument("--seed", type=int)
    gn.add_argument("--out", required=True, help="output directory")
    gn.add_argument("--patch-size", type=int)
    gn.add_argument("--image-size", type=int)

    tr = sub.add_parser("train", help="train the dual-branch classifier")
    tr.add_argument("--manifest", required=True)
    tr.add_argument("--out", required=True, help="weight container path")
    tr.add_argument("--report", help="training curve CSV")
    tr.add_argument("--epochs", type=int)
    tr.add_argument("--learning-rate", type=float)
    tr.add_argument("--batch-size", type=int)
    tr.add_argument("--patch-size", type=int)
    tr.add_argument("--seed", type=int)

    ev = sub.add_parser("eval", help="evaluate scores against MOS or labels")
    ev.add_argument("--scores", required=True, help="CSV with image_id,score columns")
    ev.add_argument("--mos", help="CSV with image_id,mos columns (correlation task)")
    ev.add_argument("--labels", help="CSV with image_id,label columns (classification)")
    ev.add_argument("--out", help="metric report CSV (default stdout)")
    ev.add_argument(
        "--curves",
        help="classification task: write <prefix>.roc.csv and <prefix>.pr.csv",
    )

    mo = sub.add_parser("mos", help="screen ratings and aggregate MOS")
    mo.add_argument("--ratings", required=True, help="CSV image_id,rater_id,score")
    mo.add_argument("--out", required=True)
    mo.add_argument("--alpha", type=float, dest="sig_alpha")
    mo.add_argument("--sd-multiplier", type=float)
    return parser


# The settings each subcommand takes from its flags and config file: the
# target they build and the target's keywords they may set.
_RUN_SETTINGS = (RunConfig, tuple(f.name for f in dataclasses.fields(RunConfig)))
_SETTINGS = {
    "score": _RUN_SETTINGS,
    "detect": _RUN_SETTINGS,
    "gen": (dict, ("seed", "patch_size", "image_size")),  # make_dataset keywords
    "train": (TrainConfig, ("learning_rate", "batch_size", "epochs", "seed", "patch_size")),
    "mos": (subjective.OutlierConfig, ("sig_alpha", "sd_multiplier")),
}
# Nested config sections (RunConfig's pws and baseline): key -> dataclass.
_SECTIONS = {
    f.name: f.default_factory
    for f in dataclasses.fields(RunConfig)
    if dataclasses.is_dataclass(f.default_factory)
}


def _load_config_file(path):
    """The config file as a dict; a key no subcommand reads is an error."""
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    known = {name for _, names in _SETTINGS.values() for name in names}
    for key, value in data.items():
        if key not in known:
            raise ValueError(f"{path}: unknown config key {key}")
        if key not in _SECTIONS:
            continue
        if not isinstance(value, dict):
            raise ValueError(f"{path}: config key {key} must be a JSON object")
        unknown = sorted(value.keys() - {f.name for f in dataclasses.fields(_SECTIONS[key])})
        if unknown:
            raise ValueError(f"{path}: unknown config key {key}.{unknown[0]}")
    return data


def _settings(args, filecfg) -> dict:
    """Keywords for the command's target, flag > config file; names set by
    neither are left to the target's own defaults."""
    out = {}
    for name in _SETTINGS[args.command][1]:
        if getattr(args, name, None) is not None:
            out[name] = getattr(args, name)
        elif name in _SECTIONS and name in filecfg:
            out[name] = _SECTIONS[name](**filecfg[name])
        elif name in filecfg:
            out[name] = filecfg[name]
    return out


def _config_and_model(args, filecfg):
    """RunConfig and model of score/detect; an unset patch size follows the model."""
    settings = _settings(args, filecfg)
    threads = os.environ.get("BANDGAUGE_THREADS")
    if threads is not None and "threads" not in settings:
        try:
            settings["threads"] = int(threads)
        except ValueError:
            raise ValueError(f"BANDGAUGE_THREADS={threads!r} is not an integer") from None
    config = RunConfig(**settings)
    model = classifier.load_params(args.model) if args.model else None
    if model is not None and "patch_size" not in settings:
        config = dataclasses.replace(config, patch_size=model.patch_size)
    return config, model


def _cmd_score(args, filecfg) -> int:
    config, model = _config_and_model(args, filecfg)
    lines = ["path,q,banded_patch_count,total_patches"]
    failures = 0

    def one(path):
        img = load_image(path)
        return score_image(img, config, model)

    with concurrent.futures.ThreadPoolExecutor(max_workers=config.threads) as pool:
        futures = [pool.submit(one, p) for p in args.images]
        for path, fut in zip(args.images, futures):
            try:
                res = fut.result()
            except Exception as exc:  # noqa: BLE001 - per-image isolation
                print(f"error: {path}: {exc}", file=sys.stderr)
                failures += 1
                continue
            lines.append(
                f"{path},{res.score.q:.10g},{res.banded_patch_count},"
                f"{res.bmap.total_patches}"
            )
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_INPUT if failures else EXIT_OK


def _cmd_detect(args, filecfg) -> int:
    config, model = _config_and_model(args, filecfg)
    img = load_image(args.image)
    res = score_image(img, config, model)
    save_image(map_to_image(res.bmap), args.out)
    if args.raw:
        np.save(args.raw, res.bmap.values)
    if args.dump_freq:
        luma = to_luma(img).planes[0].astype("float64")
        save_image(to_8bit(sobel_hfm(luma).values), f"{args.dump_freq}.hfm.pgm")
        save_image(to_8bit(pws_lfm(luma, config.pws).values), f"{args.dump_freq}.lfm.pgm")
    print(f"{args.image}: q={res.score.q:.10g} map={args.out}")
    return EXIT_OK


def _cmd_gen(args, filecfg) -> int:
    datagen.make_dataset(n_images=args.n, out_dir=args.out, **_settings(args, filecfg))
    print(f"dataset written to {args.out}")
    return EXIT_OK


def _cmd_train(args, filecfg) -> int:
    settings = _settings(args, filecfg)
    cfg = TrainConfig(**settings)
    bundle = datagen.load_dataset(args.manifest)
    if not bundle.train or not bundle.val:
        raise ValueError("manifest must provide non-empty train and val splits")
    if "patch_size" not in settings:
        cfg = dataclasses.replace(cfg, patch_size=bundle.train[0].hfm.values.shape[0])
    params, history = classifier.train(
        bundle.train, cfg, val_samples=bundle.val, report_path=args.report
    )
    classifier.save_params(params, args.out)
    last = history[-1]
    best = max(history, key=lambda h: h.val_acc)
    print(
        f"trained {last.epoch} epochs; best val_acc={best.val_acc:.4f} "
        f"at epoch {best.epoch}; weights -> {args.out}"
    )
    return EXIT_OK


def _read_two_column_csv(path, value_names):
    """CSV keyed by first column; value taken from the first matching header."""
    import csv as _csv

    out = {}
    with open(path, "r", encoding="ascii", newline="") as fh:
        reader = _csv.reader(fh)
        header = next(reader, None)
        if not header or len(header) < 2:
            raise ValueError(f"{path}:1: need a header with at least two columns")
        idx = None
        for name in value_names:
            if name in header:
                idx = header.index(name)
                break
        if idx is None:
            raise ValueError(
                f"{path}:1: no column named one of {value_names} in {header}"
            )
        for line_no, row in enumerate(reader, start=2):
            if len(row) <= idx:
                raise ValueError(f"{path}:{line_no}: short row")
            try:
                out[row[0]] = float(row[idx])
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: bad value {row[idx]!r}") from exc
    return out


def _cmd_eval(args, filecfg) -> int:
    scores = _read_two_column_csv(args.scores, ("score", "q"))
    rows = []
    if args.mos:
        target = _read_two_column_csv(args.mos, ("mos",))
        ids = sorted(set(scores) & set(target))
        if len(ids) < 6:
            raise ValueError("need at least 6 common ids for correlation metrics")
        x = np.array([scores[i] for i in ids])
        y = np.array([target[i] for i in ids])
        rows.append(("srcc", evalharness.srcc(x, y)))
        rows.append(("krcc", evalharness.krcc(x, y)))
        plcc, rmse = evalharness.plcc_rmse(x, y)
        rows.append(("plcc", plcc))
        rows.append(("rmse", rmse))
        rows.append(("n", float(len(ids))))
    elif args.labels:
        target = _read_two_column_csv(args.labels, ("label",))
        ids = sorted(set(scores) & set(target))
        if len(ids) < 4:
            raise ValueError("need at least 4 common ids for classification metrics")
        s = np.array([scores[i] for i in ids])
        lab = np.array([int(target[i]) for i in ids])
        rp = evalharness.roc_pr(s, lab)
        thr, acc = evalharness.threshold_search(s, lab)
        rows.extend(
            [
                ("auroc", rp.auroc),
                ("auprc", rp.auprc),
                ("accuracy", acc),
                ("threshold", thr),
                ("n", float(len(ids))),
            ]
        )
        if args.curves:
            _write_points(f"{args.curves}.roc.csv", "fpr,tpr", rp.roc_points)
            _write_points(f"{args.curves}.pr.csv", "recall,precision", rp.pr_points)
    else:
        raise ValueError("eval needs --mos or --labels")
    text = "metric,value\n" + "".join(f"{k},{v:.10g}\n" for k, v in rows)
    if args.out:
        with open(args.out, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
    width = max(len(k) for k, _ in rows)
    for k, v in rows:
        print(f"{k:<{width}}  {v:.6g}")
    return EXIT_OK


def _write_points(path, header, points) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(header + "\n")
        for a, b in points:
            fh.write(f"{a:.10g},{b:.10g}\n")


def _cmd_mos(args, filecfg) -> int:
    cfg = subjective.OutlierConfig(**_settings(args, filecfg))
    ratings = subjective.read_ratings_csv(args.ratings)
    results = subjective.mos_pipeline(ratings, cfg)
    subjective.write_mos_csv(results, args.out)
    print(f"{len(results)} images -> {args.out}")
    return EXIT_OK


_COMMANDS = {
    "score": _cmd_score,
    "detect": _cmd_detect,
    "gen": _cmd_gen,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "mos": _cmd_mos,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        filecfg = _load_config_file(args.config)
        return _COMMANDS[args.command](args, filecfg)
    except _NUMERIC_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except _INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except json.JSONDecodeError as exc:
        print(f"input error: bad config JSON: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
