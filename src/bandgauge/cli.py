"""Command-line surface.

Subcommands: score, detect, gen, train, eval, mos.  Option precedence is
flags > JSON config file > the defaults of the config dataclasses (of
datagen.make_dataset for gen), whose field names are the config keys.  Exit
codes: 0 success, 1 input error (a bad flag included), 2 numerical failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import json
import sys

import numpy as np

from . import classifier, datagen, evalharness, subjective
from .classifier import TrainConfig, TrainingDivergedError
from .csvfile import read_keyed, write_rows
from .imgcore import ImageFormatError, load_image, save_image
from .pipeline import RunConfig, _in_order, score_image
from .scoring import map_to_image

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
    sc.add_argument("--threads", type=int)
    sc.add_argument("--out", help="CSV report path (default stdout)")

    dt = sub.add_parser("detect", help="write the banding visibility map")
    dt.add_argument("image")
    dt.add_argument("--model")
    dt.add_argument("--patch-size", type=int)
    dt.add_argument("--gamma", type=float)
    dt.add_argument("--out", required=True, help="map image path (.png/.pgm)")
    dt.add_argument("--raw", help="also dump raw float map (.npy)")

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
    target = ev.add_mutually_exclusive_group(required=True)
    target.add_argument(
        "--mos", help="CSV with image_id,mos columns (correlation task; or --labels)"
    )
    target.add_argument(
        "--labels",
        help="CSV with image_id,label columns (classification; or --mos); the reported threshold "
        "is the smallest of: one below all scores, the midpoints between adjacent "
        "distinct scores, one above all scores, at which score >= threshold is most "
        "accurate",
    )
    ev.add_argument("--out", help="metric report CSV (default stdout)")
    ev.add_argument(
        "--curves",
        help="classification task (needs --labels): write <prefix>.roc.csv and <prefix>.pr.csv",
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
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: bad config JSON: {exc}") from None
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
    config = RunConfig(**settings)
    model = classifier.load_params(args.model) if args.model else None
    if model is not None and "patch_size" not in settings:
        config = dataclasses.replace(config, patch_size=model.patch_size)
    return config, model


def _cmd_score(args, filecfg) -> int:
    config, model = _config_and_model(args, filecfg)
    # At most `threads` files in flight; several at once get one worker each,
    # so that no more than `threads` workers are busy.
    workers = min(config.threads, len(args.images))
    if workers > 1:
        config = dataclasses.replace(config, threads=1)

    def row(path):
        res = score_image(load_image(path), config, model)
        return (path, f"{res.score.q:.10g}", res.banded_patch_count, res.bmap.total_patches)

    rows = []
    exit_code = EXIT_OK
    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        for path, fut in zip(args.images, _in_order(pool, row, args.images, workers)):
            try:
                rows.append(fut.result())
            except _NUMERIC_ERRORS as exc:
                print(f"numerical failure: {path}: {exc}", file=sys.stderr)
                exit_code = EXIT_NUMERIC
            except _INPUT_ERRORS as exc:
                print(f"input error: {path}: {exc}", file=sys.stderr)
                exit_code = max(exit_code, EXIT_INPUT)
    write_rows(args.out, ("path", "q", "banded_patch_count", "total_patches"), rows)
    return exit_code


def _cmd_detect(args, filecfg) -> int:
    config, model = _config_and_model(args, filecfg)
    res = score_image(load_image(args.image), config, model)
    save_image(map_to_image(res.bmap), args.out)
    if args.raw:
        np.save(args.raw, res.bmap.values)
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
        cfg = dataclasses.replace(cfg, patch_size=bundle.train[0].hfm.shape[0])
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


def _label(text) -> int:
    if text not in ("0", "1"):
        raise ValueError("label must be 0 or 1")
    return int(text)


def _cmd_eval(args, filecfg) -> int:
    if args.curves and not args.labels:
        raise ValueError("--curves needs --labels: curves belong to the classification task")
    scores = read_keyed(args.scores, ("score", "q"))
    rows = []
    if args.mos:
        target = read_keyed(args.mos, ("mos",))
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
    else:
        target = read_keyed(args.labels, ("label",), _label)
        ids = sorted(set(scores) & set(target))
        if len(ids) < 4:
            raise ValueError("need at least 4 common ids for classification metrics")
        s = np.array([scores[i] for i in ids])
        lab = np.array([target[i] for i in ids])
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
            fmt = lambda points: [(f"{a:.10g}", f"{b:.10g}") for a, b in points]  # noqa: E731
            write_rows(f"{args.curves}.roc.csv", ("fpr", "tpr"), fmt(rp.roc_points))
            write_rows(f"{args.curves}.pr.csv", ("recall", "precision"), fmt(rp.pr_points))
    if args.out:
        write_rows(args.out, ("metric", "value"), [(k, f"{v:.10g}") for k, v in rows])
    width = max(len(k) for k, _ in rows)
    for k, v in rows:
        print(f"{k:<{width}}  {v:.6g}")
    return EXIT_OK


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
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
        return EXIT_OK if exc.code == EXIT_OK else EXIT_INPUT
    try:
        filecfg = _load_config_file(args.config)
        return _COMMANDS[args.command](args, filecfg)
    except _NUMERIC_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except _INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
