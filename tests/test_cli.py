"""Pipeline assembly and the command-line surface."""

import csv
import dataclasses
import json
import math
import pathlib
import re
import shutil
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandgauge.classifier import BaselineConfig, TrainConfig, init_params, save_params
from bandgauge.cli import (
    _SECTIONS,
    _SETTINGS,
    _build_parser,
    _load_config_file,
    _settings,
    main,
)
from bandgauge.csvfile import read_keyed
from bandgauge.datagen import SynthSpec, gen_base, make_sample, quantize_bitdepth
from bandgauge.imgcore import PlanarImage, load_image, save_image
from bandgauge.pipeline import RunConfig, score_image
from bandgauge.subjective import OutlierConfig
from conftest import gray_image

ROOT = pathlib.Path(__file__).resolve().parents[1]


def write_ramp(tmp_path, depth, size=256, name=None):
    base = gen_base(SynthSpec("linear_ramp", size=size, bit_depth=8, seed=0))
    img = quantize_bitdepth(base, depth)
    path = tmp_path / (name or f"ramp_d{depth}.png")
    save_image(img, path)
    return path


def read_score_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


# --- pipeline API ----------------------------------------------------------------


def test_constant_image_scores_zero():
    img = gray_image(128, w=128, h=128)
    res = score_image(img, RunConfig(patch_size=64))
    assert res.score.q == 0.0
    assert res.banded_patch_count == 0
    assert res.bmap.values.shape == (128, 128)


def test_quantized_ramp_scores_above_clean(tmp_path):
    base = gen_base(SynthSpec("linear_ramp", size=256, bit_depth=8, seed=0))
    coarse = quantize_bitdepth(base, 3)
    cfg = RunConfig(patch_size=64)
    q_coarse = score_image(coarse, cfg).score.q
    q_fine = score_image(quantize_bitdepth(base, 7), cfg).score.q
    assert q_coarse > q_fine > 0.0


def test_model_patch_size_mismatch_rejected():
    from bandgauge.classifier import init_params

    img = gray_image(128, w=128, h=128)
    model = init_params(32, (2, 3, 4), 8, seed=0)
    with pytest.raises(ValueError):
        score_image(img, RunConfig(patch_size=64), model)


@pytest.mark.parametrize(
    "cls, bad, field",
    [
        (RunConfig, {"gamma": -1}, "gamma"),
        (RunConfig, {"gamma": float("nan")}, "gamma"),
        (RunConfig, {"p_percent": 150}, "p_percent"),
        (RunConfig, {"p_percent": 0}, "p_percent"),
        (RunConfig, {"patch_size": 7}, "patch_size"),
        (RunConfig, {"patch_size": 64.0}, "patch_size"),
        (RunConfig, {"threads": 2.5}, "threads"),
        (RunConfig, {"threads": 0}, "threads"),
        (BaselineConfig, {"grad_floor": float("nan")}, "grad_floor"),
        (TrainConfig, {"epochs": "3"}, "epochs"),
        (TrainConfig, {"learning_rate": 0.0}, "learning_rate"),
        (OutlierConfig, {"sd_multiplier": "2"}, "sd_multiplier"),
        (OutlierConfig, {"sig_alpha": 1.0}, "sig_alpha"),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else None,
)
def test_config_rejects_bad_field(cls, bad, field):
    with pytest.raises(ValueError, match=field):
        cls(**bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("with_model", [False, True], ids=["baseline", "model"])
def test_non_finite_pixel_rejected(bad, with_model):
    arr = np.full((64, 64), 0.5)
    arr[3, 5] = bad
    model = init_params(32, (2, 3, 4), 8, seed=0) if with_model else None
    # An infinite sample is already refused by PlanarImage itself.
    with pytest.raises(ValueError, match="non-finite|must lie in"):
        score_image(PlanarImage.from_array(arr), RunConfig(patch_size=32), model)


@st.composite
def tiled_images(draw):
    """(image, same image with its right/bottom remainder rewritten, N)."""
    n = draw(st.sampled_from([8, 12, 16]))
    cols, rows = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    w = cols * n + draw(st.integers(0, n - 1))
    h = rows * n + draw(st.integers(0, n - 1))
    levels = draw(st.integers(2, 64))
    noise = draw(st.sampled_from([0, 4, 64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ramp = np.add.outer(np.arange(h) * rng.random(), np.arange(w) * rng.random())
    arr = np.floor(ramp / max(ramp.max(), 1e-9) * (levels - 1) + 0.5) * (255 // (levels - 1))
    noisy = np.kron(rng.random((rows + 1, cols + 1)) < 0.5, np.ones((n, n)))[:h, :w]
    arr = np.clip(arr + noisy * rng.integers(-noise, noise + 1, (h, w)), 0, 255)
    other = arr.copy()
    other[rows * n :, :] = rng.integers(0, 256, other[rows * n :, :].shape)
    other[:, cols * n :] = rng.integers(0, 256, other[:, cols * n :].shape)
    if draw(st.booleans()):
        return PlanarImage.from_array(arr / 255.0), PlanarImage.from_array(other / 255.0), n
    return (
        PlanarImage.from_array(arr.astype(np.uint8)),
        PlanarImage.from_array(other.astype(np.uint8)),
        n,
    )


@settings(max_examples=60, deadline=None)
@given(tiled_images())
def test_baseline_score_properties(case):
    img, rewritten, n = case
    cfg = RunConfig(patch_size=n)
    res = score_image(img, cfg)
    q = res.score.q
    assert math.isfinite(q) and q >= 0.0
    assert (q == 0.0) == (res.banded_patch_count == 0)
    other = score_image(rewritten, cfg)
    assert other.score.q == q
    assert other.bmap.prob.tobytes() == res.bmap.prob.tobytes()
    assert np.array_equal(other.bmap.values, res.bmap.values)


# --- score command ----------------------------------------------------------------


def test_score_constant_gray_csv(tmp_path, capsys):
    img_path = tmp_path / "flat.png"
    save_image(gray_image(100, w=128, h=128), img_path)
    out = tmp_path / "scores.csv"
    rc = main(["score", str(img_path), "--patch-size", "64", "--out", str(out)])
    assert rc == 0
    rows = read_score_csv(out)
    assert len(rows) == 1
    assert float(rows[0]["q"]) == 0.0
    assert rows[0]["banded_patch_count"] == "0"
    assert rows[0]["total_patches"] == "4"


def test_score_depth_ordering_with_baseline(tmp_path):
    p3 = write_ramp(tmp_path, 3)
    p7 = write_ramp(tmp_path, 7)
    out = tmp_path / "scores.csv"
    rc = main(["score", str(p3), str(p7), "--patch-size", "64", "--out", str(out)])
    assert rc == 0
    rows = read_score_csv(out)
    q = {r["path"]: float(r["q"]) for r in rows}
    assert q[str(p3)] > q[str(p7)]


def test_score_deterministic_bytes(tmp_path):
    paths = [str(write_ramp(tmp_path, d)) for d in (3, 4, 6)]
    outs = []
    for threads in ("1", "2", "2"):
        out = tmp_path / f"s{len(outs)}.csv"
        argv = ["score", *paths, "--patch-size", "64", "--threads", threads]
        assert main(argv + ["--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]
    assert len(outs[0].splitlines()) == 4

    # The model path: 16 tiles of 128 in two forward blocks per file.  One
    # file alone gets every worker; several share them one each.
    model = tmp_path / "m.bgw"
    save_params(init_params(128, (2, 3, 4), 8, seed=0), model)
    paths = [str(write_ramp(tmp_path, d, size=512, name=f"big{d}.png")) for d in (3, 5)]

    def score(images, threads):
        out = tmp_path / "model.csv"
        argv = ["score", *images, "--model", str(model), "--threads", threads]
        assert main(argv + ["--out", str(out)]) == 0
        return out.read_bytes().splitlines(keepends=True)

    outs = []
    for threads in ("1", "2", "3"):
        together = score(paths, threads)
        alone = [score([p], threads) for p in paths]
        assert together == alone[0] + alone[1][1:]
        outs.append(together)
    assert outs[0] == outs[1] == outs[2]
    assert len(outs[0]) == 3


def test_score_memory_does_not_grow_with_the_file_count(tmp_path):
    rng = np.random.default_rng(0)
    first = tmp_path / "f00.png"
    save_image(PlanarImage.from_array(rng.integers(0, 256, (720, 960, 3), dtype=np.uint8)), first)
    paths = [str(first)]
    for k in range(1, 12):
        paths.append(str(shutil.copyfile(first, tmp_path / f"f{k:02d}.png")))

    def peak(images):
        tracemalloc.start()
        try:
            argv = ["score", *images, "--threads", "2", "--out", str(tmp_path / "s.csv")]
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # Keeping every file's result until the end peaked at 16.2 MiB for 2
    # files and 68.7 MiB for 12.
    assert peak(paths) < 1.5 * peak(paths[:2])


def test_score_csv_quotes_a_path_with_a_comma(tmp_path):
    src = write_ramp(tmp_path, 4, name="a,b.png")
    out = tmp_path / "s.csv"
    assert main(["score", str(src), "--patch-size", "64", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        header, row = list(csv.reader(fh))
    assert len(header) == len(row) == 4
    assert row[0] == str(src)


def test_score_and_eval_read_a_non_ascii_path(tmp_path):
    src = write_ramp(tmp_path, 4, name="café.png")
    out = tmp_path / "s.csv"
    assert main(["score", str(src), "--patch-size", "64", "--out", str(out)]) == 0
    assert read_keyed(out, ("score", "q")) == {
        str(src): float(out.read_text(encoding="utf-8").splitlines()[1].split(",")[1])
    }


def test_score_mos_eval_chain_with_non_ascii_ids(tmp_path, capsys):
    # score -> mos -> eval on images whose names are not ASCII, one of them
    # holding a comma as well.
    names = ["café.png", "naïve.png", "Ω,1.png", "日本.png", "ü.png", "ß.png"]
    paths = [str(write_ramp(tmp_path, d, size=128, name=n)) for d, n in zip(range(2, 8), names)]
    scores = tmp_path / "s.csv"
    assert main(["score", *paths, "--patch-size", "64", "--out", str(scores)]) == 0
    ratings = tmp_path / "r.csv"
    with open(ratings, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["image_id", "rater_id", "score"])
        for k, path in enumerate(paths):
            writer.writerows([path, f"r{r}", 90 - 10 * k + r] for r in range(5))
    mos = tmp_path / "m.csv"
    assert main(["mos", "--ratings", str(ratings), "--out", str(mos)]) == 0
    report = tmp_path / "e.csv"
    assert main(["eval", "--scores", str(scores), "--mos", str(mos), "--out", str(report)]) == 0
    metrics = read_keyed(report, ("value",))
    assert metrics["n"] == 6.0
    assert read_keyed(mos, ("mos",))[paths[0]] == 92.0


@pytest.mark.parametrize("bad", ["0.7", "1.0", "2", "-1", "yes", "nan", ""])
def test_eval_label_must_be_0_or_1(tmp_path, capsys, bad):
    scores = tmp_path / "s.csv"
    scores.write_text("image_id,score\n" + "".join(f"i{i},{i}\n" for i in range(4)))
    labels = tmp_path / "l.csv"
    labels.write_text(f"image_id,label\ni0,0\ni1,1\ni2,{bad}\ni3,1\n")
    assert main(["eval", "--scores", str(scores), "--labels", str(labels)]) == 1
    assert f"{labels}:4: label must be 0 or 1" in capsys.readouterr().err


def test_eval_labels_accept_0_and_1(tmp_path, capsys):
    scores = tmp_path / "s.csv"
    scores.write_text("image_id,score\n" + "".join(f"i{i},{i}\n" for i in range(4)))
    labels = tmp_path / "l.csv"
    labels.write_text("image_id,label\ni0,0\ni1,0\ni2,1\ni3,1\n")
    assert main(["eval", "--scores", str(scores), "--labels", str(labels)]) == 0
    assert "auroc      1" in capsys.readouterr().out


def test_score_numeric_failure_exit_code(tmp_path, monkeypatch, capsys):
    good, bad = write_ramp(tmp_path, 4), write_ramp(tmp_path, 4, size=128, name="bad.png")

    def flaky(img, config, model=None):
        if img.width == 128:
            raise RuntimeError("solver blew up")
        return score_image(img, config, model)

    monkeypatch.setattr("bandgauge.cli.score_image", flaky)
    out = tmp_path / "s.csv"
    rc = main(["score", str(bad), str(good), "--patch-size", "64", "--out", str(out)])
    assert rc == 2
    assert [r["path"] for r in read_score_csv(out)] == [str(good)]
    assert "numerical failure" in capsys.readouterr().err

    def broken(img, config, model=None):
        raise TypeError("a programming error is not an input error")

    monkeypatch.setattr("bandgauge.cli.score_image", broken)
    with pytest.raises(TypeError):
        main(["score", str(good), "--patch-size", "64", "--out", str(out)])


def test_score_missing_file_exit_code(tmp_path, capsys):
    out = tmp_path / "s.csv"
    rc = main(["score", str(tmp_path / "absent.png"), "--out", str(out)])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_config_file_precedence(tmp_path, capsys):
    p = write_ramp(tmp_path, 4)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"patch_size": 32}))
    out = tmp_path / "s.csv"
    assert main(["--config", str(cfg), "score", str(p), "--out", str(out)]) == 0
    assert read_score_csv(out)[0]["total_patches"] == "64"  # 256/32 squared
    assert (
        main(
            ["--config", str(cfg), "score", str(p), "--patch-size", "64", "--out", str(out)]
        )
        == 0
    )
    assert read_score_csv(out)[0]["total_patches"] == "16"  # flag wins

    cfg.write_text("not json {")
    assert main(["--config", str(cfg), "score", str(p), "--out", str(out)]) == 1
    assert f"{cfg}: bad config JSON" in capsys.readouterr().err


UNKNOWN_KEYS = [
    ({"gama": 9}, "gama"),
    ({"pws": {"max_iter": 3}}, "pws.max_iter"),
    ({"baseline": {"grad_flor": 9}}, "baseline.grad_flor"),
    ({"pooling": "global"}, "pooling"),
]
BAD_CONFIGS = (
    [
        ("score", {"pws": {"reg_alpha": float("nan")}}, "reg_alpha", "pws0"),
        ("score", {"pws": {"tol": float("inf")}}, "tol", "pws1"),
        ("score", {"pws": {"max_iters": 2.5}}, "max_iters", "pws2"),
        ("score", {"gamma": -1}, "gamma", "score-gamma"),
        ("score", {"p_percent": 150}, "p_percent", "score-p_percent"),
        ("score", {"threads": "2"}, "threads", "score-threads"),
        ("detect", {"patch_size": 7}, "patch_size", "detect-patch_size"),
        ("detect", {"pws": 3}, "pws", "detect-pws-not-object"),
        ("gen", {"image_size": "64"}, "image_size", "gen-image_size"),
        ("train", {"epochs": "3"}, "epochs", "train-epochs"),
        ("mos", {"sd_multiplier": "2"}, "sd_multiplier", "mos-sd_multiplier"),
    ]
    + [
        (cmd, cfg, key, f"{cmd}-unknown-{key}")
        for cmd in ("score", "detect", "gen", "train", "mos")
        for cfg, key in UNKNOWN_KEYS
    ]
)


@pytest.mark.parametrize(
    "command, config, key",
    [case[:3] for case in BAD_CONFIGS],
    ids=[case[3] for case in BAD_CONFIGS],
)
def test_bad_solver_config_exits_1(tmp_path, capsys, command, config, key):
    # Every input path is absent: the config must fail before any is read.
    absent = str(tmp_path / "absent")
    argv = {
        "score": ["score", absent, "--out", str(tmp_path / "s.csv")],
        "detect": ["detect", absent, "--out", str(tmp_path / "m.png")],
        "gen": ["gen", "--n", "10", "--out", absent],
        "train": ["train", "--manifest", absent, "--out", str(tmp_path / "w.bgw")],
        "mos": ["mos", "--ratings", absent, "--out", str(tmp_path / "mos.csv")],
    }[command]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["--config", str(cfg)] + argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error:") and key in err
    assert "Traceback" not in err and absent not in err
    assert not (tmp_path / "absent").exists()


@pytest.mark.parametrize(
    "argv, default",
    [
        (["score", "x.png"], RunConfig()),
        (["detect", "x.png", "--out", "m.png"], RunConfig()),
        (["gen", "--n", "10", "--out", "d"], {}),  # make_dataset's own defaults
        (["train", "--manifest", "m.csv", "--out", "w.bgw"], TrainConfig()),
        (["mos", "--ratings", "r.csv", "--out", "o.csv"], OutlierConfig()),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_config_defaults_come_from_the_dataclasses(tmp_path, argv, default):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}")
    args = _build_parser().parse_args(["--config", str(cfg)] + argv)
    target, _ = _SETTINGS[args.command]
    assert target(**_settings(args, _load_config_file(args.config))) == default


def test_one_config_file_serves_score_and_train(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"patch_size": 32, "gamma": 2.0, "epochs": 3, "sig_alpha": 0.1}))
    filecfg = _load_config_file(str(cfg))
    score = _build_parser().parse_args(["score", "x.png", "--gamma", "1.0"])
    train = _build_parser().parse_args(["train", "--manifest", "m", "--out", "w"])
    assert RunConfig(**_settings(score, filecfg)) == RunConfig(patch_size=32, gamma=1.0)
    assert TrainConfig(**_settings(train, filecfg)) == TrainConfig(patch_size=32, epochs=3)


def test_readme_lists_exactly_the_config_keys():
    # Each bullet of the README's "Config file keys" list names commands
    # before its "):" and their keys after it, nested section fields included.
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    bullets = re.split(r"^- ", text.split("Config file keys", 1)[1].split("\n\n")[1], flags=re.M)
    documented = {}
    for bullet in bullets[1:]:
        head, keys = bullet.split("):", 1)
        for command in re.findall(r"`(\w+)`", head.split("(")[0]):
            documented[command] = set(re.findall(r"`([a-z_]+)`", keys))
    accepted = {
        command: set(names).union(
            *(
                (f.name for f in dataclasses.fields(_SECTIONS[name]))
                for name in names
                if name in _SECTIONS
            )
        )
        for command, (_, names) in _SETTINGS.items()
    }
    assert documented == accepted


def test_removed_hfm_scope_is_an_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"hfm_scope": "patch"}))
    argv = ["score", str(tmp_path / "absent.png"), "--out", str(tmp_path / "s.csv")]
    assert main(["--config", str(cfg)] + argv) == 1
    assert f"{cfg}: unknown config key hfm_scope" in capsys.readouterr().err
    assert main(argv + ["--hfm-scope", "patch"]) == 1
    assert "unrecognized arguments: --hfm-scope" in capsys.readouterr().err


# --- usage errors -----------------------------------------------------------------


def test_bad_int_flag_exits_1(tmp_path, capsys):
    p = write_ramp(tmp_path, 4)
    assert main(["score", str(p), "--patch-size", "abc"]) == 1
    assert "--patch-size: invalid int value: 'abc'" in capsys.readouterr().err


def test_missing_positional_argument_exits_1(capsys):
    assert main(["score"]) == 1
    assert "the following arguments are required: images" in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert main(["score", "--help"]) == 0
    assert "--patch-size" in capsys.readouterr().out


# --- detect command ----------------------------------------------------------------


def test_detect_flat_image_black_map(tmp_path):
    img_path = tmp_path / "flat.png"
    save_image(gray_image(40, w=128, h=128), img_path)
    out = tmp_path / "map.png"
    rc = main(["detect", str(img_path), "--patch-size", "64", "--out", str(out)])
    assert rc == 0
    m = load_image(out)
    assert m.width == 128 and m.height == 128
    assert (m.planes[0] == 0).all()


@pytest.mark.parametrize("size", [(128, 128), (200, 144), (131, 97)])
def test_detect_map_dimensions(tmp_path, size):
    w, h = size
    img_path = tmp_path / "x.png"
    save_image(gray_image(90, w=w, h=h), img_path)
    out = tmp_path / "m.png"
    assert main(["detect", str(img_path), "--patch-size", "32", "--out", str(out)]) == 0
    m = load_image(out)
    assert (m.width, m.height) == (w, h)


def test_detect_mass_concentrates_in_banded_region(tmp_path):
    sample = make_sample(SynthSpec("mixed_scene", size=256, bit_depth=3, seed=1))
    img_path = tmp_path / "mixed.png"
    save_image(sample.image, img_path)
    out_img = tmp_path / "m.png"
    raw = tmp_path / "m.npy"
    rc = main(
        [
            "detect", str(img_path), "--patch-size", "64",
            "--out", str(out_img), "--raw", str(raw),
        ]
    )
    assert rc == 0
    values = np.load(raw)
    assert values.shape == (256, 256)
    total = values.sum()
    assert total > 0
    inside = values[sample.banded_mask].sum()
    assert inside / total > 0.5


# --- gen / train -------------------------------------------------------------------


def test_gen_deterministic(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main(["gen", "--n", "10", "--seed", "7", "--out", str(d1),
                 "--image-size", "128"]) == 0
    assert main(["gen", "--n", "10", "--seed", "7", "--out", str(d2),
                 "--image-size", "128"]) == 0
    assert (d1 / "manifest.csv").read_bytes() == (d2 / "manifest.csv").read_bytes()


def test_train_eval_mos_flow(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["gen", "--n", "20", "--seed", "3", "--out", str(data),
                 "--image-size", "128"]) == 0

    weights = tmp_path / "model.bgw"
    report = tmp_path / "curve.csv"
    rc = main(
        [
            "train", "--manifest", str(data / "manifest.csv"),
            "--out", str(weights), "--report", str(report),
            "--epochs", "10", "--learning-rate", "1e-3", "--batch-size", "16",
            "--seed", "1",
        ]
    )
    assert rc == 0
    assert weights.exists()
    lines = report.read_text().strip().splitlines()
    assert len(lines) == 11

    # Score with the trained model end to end.
    img = tmp_path / "probe.png"
    save_image(make_sample(SynthSpec("linear_ramp", size=128, bit_depth=3, seed=9)).image, img)
    out = tmp_path / "s.csv"
    assert main(["score", str(img), "--model", str(weights), "--out", str(out)]) == 0
    assert float(read_score_csv(out)[0]["q"]) >= 0.0

    # eval: identical predicted/MOS vectors must give srcc = plcc = 1.
    pred = tmp_path / "pred.csv"
    target = tmp_path / "target.csv"
    with open(pred, "w") as fh:
        fh.write("image_id,score\n")
        for i, v in enumerate([3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5]):
            fh.write(f"i{i},{v}\n")
    with open(target, "w") as fh:
        fh.write("image_id,mos\n")
        for i, v in enumerate([3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5]):
            fh.write(f"i{i},{v}\n")
    rep = tmp_path / "report.csv"
    assert main(["eval", "--scores", str(pred), "--mos", str(target), "--out", str(rep)]) == 0
    metrics = {r["metric"]: float(r["value"]) for r in csv.DictReader(open(rep))}
    assert metrics["srcc"] == pytest.approx(1.0)
    assert metrics["plcc"] == pytest.approx(1.0, abs=1e-9)
    assert metrics["rmse"] == pytest.approx(0.0, abs=1e-9)

    # classification mode
    labels = tmp_path / "labels.csv"
    with open(labels, "w") as fh:
        fh.write("image_id,label\n")
        for i in range(8):
            fh.write(f"i{i},{1 if i % 2 else 0}\n")
    curves = tmp_path / "curves"
    assert main(
        ["eval", "--scores", str(pred), "--labels", str(labels),
         "--curves", str(curves)]
    ) == 0
    roc_lines = (tmp_path / "curves.roc.csv").read_text().strip().splitlines()
    assert roc_lines[0] == "fpr,tpr"
    assert len(roc_lines) > 2
    pr_lines = (tmp_path / "curves.pr.csv").read_text().strip().splitlines()
    assert pr_lines[0] == "recall,precision"

    # mos pipeline
    ratings = tmp_path / "ratings.csv"
    with open(ratings, "w") as fh:
        fh.write("image_id,rater_id,score\n")
        for r in range(15):
            fh.write(f"imgA,r{r},{50 + (r % 5)}\n")
        fh.write("imgA,r15,100\n")
    mos_out = tmp_path / "mos.csv"
    assert main(["mos", "--ratings", str(ratings), "--out", str(mos_out)]) == 0
    rows = list(csv.DictReader(open(mos_out)))
    assert rows[0]["image_id"] == "imgA"
    assert int(rows[0]["n_kept"]) + int(rows[0]["n_removed"]) == 16


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_exit_code(tmp_path):
    data = tmp_path / "data"
    assert main(["gen", "--n", "10", "--seed", "2", "--out", str(data),
                 "--image-size", "128"]) == 0
    rc = main(
        [
            "train", "--manifest", str(data / "manifest.csv"),
            "--out", str(tmp_path / "w.bgw"),
            "--epochs", "2", "--learning-rate", "1e300",
        ]
    )
    assert rc == 2


def test_train_bad_manifest_exit_code(tmp_path):
    bad = tmp_path / "m.csv"
    bad.write_text("image_path,patch_x,patch_y,N,label,split\nnope.png,0,0,64,banded,train\n")
    rc = main(["train", "--manifest", str(bad), "--out", str(tmp_path / "w.bgw")])
    assert rc == 1


def test_eval_requires_target(tmp_path, capsys):
    pred = tmp_path / "pred.csv"
    pred.write_text("image_id,score\na,1\nb,2\nc,3\nd,4\ne,5\nf,6\n")
    assert main(["eval", "--scores", str(pred)]) == 1
    assert "one of the arguments --mos --labels is required" in capsys.readouterr().err


def test_eval_takes_one_target(tmp_path, capsys):
    files = [str(tmp_path / name) for name in ("s.csv", "m.csv", "l.csv")]
    assert main(["eval", "--scores", files[0], "--mos", files[1], "--labels", files[2]]) == 1
    assert "argument --labels: not allowed with argument --mos" in capsys.readouterr().err


def test_eval_curves_need_labels(tmp_path, capsys):
    pred, mos = tmp_path / "pred.csv", tmp_path / "mos.csv"
    pred.write_text("image_id,score\n" + "".join(f"i{i},{i}\n" for i in range(8)))
    mos.write_text("image_id,mos\n" + "".join(f"i{i},{i}\n" for i in range(8)))
    curves = tmp_path / "c"
    assert main(["eval", "--scores", str(pred), "--mos", str(mos), "--curves", str(curves)]) == 1
    assert "--curves needs --labels" in capsys.readouterr().err
    assert set(tmp_path.iterdir()) == {pred, mos}  # no curve file


@pytest.mark.parametrize("which", ["scores", "mos", "labels"])
def test_eval_duplicate_id_exits_1(tmp_path, capsys, which):
    files = {}
    for name, column in (("scores", "score"), ("mos", "mos"), ("labels", "label")):
        rows = [f"img{i},{i % 2}" for i in range(8)]
        if name == which:
            rows.insert(2, "img1,1")
        files[name] = tmp_path / f"{name}.csv"
        files[name].write_text(f"image_id,{column}\n" + "\n".join(rows) + "\n")
    target = "labels" if which == "labels" else "mos"
    argv = ["eval", "--scores", str(files["scores"]), f"--{target}", str(files[target])]
    assert main(argv) == 1
    assert f"{files[which]}:4: duplicate id 'img1'" in capsys.readouterr().err


def test_mos_score_out_of_scale_names_file_and_line(tmp_path, capsys):
    ratings = tmp_path / "r.csv"
    ratings.write_text("image_id,rater_id,score\nimgA,r1,50\nimgA,r2,120\n")
    out = tmp_path / "m.csv"
    assert main(["mos", "--ratings", str(ratings), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{ratings}:3: score 120 for image imgA outside the 0-100 scale" in err
    assert not out.exists()
