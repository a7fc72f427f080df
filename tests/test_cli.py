"""Pipeline assembly and the command-line surface."""

import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandgauge.classifier import BaselineConfig, TrainConfig, init_params
from bandgauge.cli import _SETTINGS, _build_parser, _load_config_file, _settings, main
from bandgauge.datagen import SynthSpec, gen_base, make_sample, quantize_bitdepth
from bandgauge.imgcore import PlanarImage, load_image, save_image
from bandgauge.pipeline import RunConfig, score_image
from bandgauge.subjective import OutlierConfig
from conftest import gray_image


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


def test_image_scope_sees_tile_boundary_contours():
    # Plateau boundaries aligned exactly with the tile grid are invisible to
    # per-patch filtering (edge replication) but visible in image scope.
    arr = np.tile(np.arange(256, dtype=np.uint8)[:, None], (1, 256))
    img = quantize_bitdepth(PlanarImage.from_array(arr), 2)
    q_patch = score_image(img, RunConfig(patch_size=64)).score.q
    q_image = score_image(img, RunConfig(patch_size=64, hfm_scope="image")).score.q
    assert q_patch == 0.0
    assert q_image > 0.0
    with pytest.raises(ValueError):
        RunConfig(hfm_scope="everywhere")


@pytest.mark.parametrize(
    "cls, bad, field",
    [
        (RunConfig, {"gamma": -1}, "gamma"),
        (RunConfig, {"gamma": float("nan")}, "gamma"),
        (RunConfig, {"p_percent": 150}, "p_percent"),
        (RunConfig, {"p_percent": 0}, "p_percent"),
        (RunConfig, {"patch_size": 7}, "patch_size"),
        (RunConfig, {"patch_size": 64.0}, "patch_size"),
        (RunConfig, {"hfm_scope": "x"}, "hfm_scope"),
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
    assert [m.label for m in other.bmap.patch_meta] == [m.label for m in res.bmap.patch_meta]
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
    p = write_ramp(tmp_path, 4)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["score", str(p), "--patch-size", "64", "--out", str(out1)]) == 0
    assert main(["score", str(p), "--patch-size", "64", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_score_missing_file_exit_code(tmp_path, capsys):
    out = tmp_path / "s.csv"
    rc = main(["score", str(tmp_path / "absent.png"), "--out", str(out)])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_score_threads_env(tmp_path, monkeypatch):
    p = write_ramp(tmp_path, 4)
    out = tmp_path / "s.csv"
    monkeypatch.setenv("BANDGAUGE_THREADS", "2")
    assert main(["score", str(p), "--patch-size", "64", "--out", str(out)]) == 0
    monkeypatch.setenv("BANDGAUGE_THREADS", "zebra")
    assert main(["score", str(p), "--patch-size", "64", "--out", str(out)]) == 1


def test_config_file_precedence(tmp_path):
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


def test_detect_dump_freq(tmp_path):
    p = write_ramp(tmp_path, 4, size=128)
    out = tmp_path / "m.png"
    prefix = tmp_path / "dbg"
    rc = main(
        [
            "detect", str(p), "--patch-size", "64", "--out", str(out),
            "--dump-freq", str(prefix),
        ]
    )
    assert rc == 0
    hfm = load_image(f"{prefix}.hfm.pgm")
    lfm = load_image(f"{prefix}.lfm.pgm")
    assert (hfm.width, hfm.height) == (128, 128)
    assert (lfm.width, lfm.height) == (128, 128)
    assert int(hfm.planes[0].max()) == 255  # normalized dump


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


def test_eval_requires_target(tmp_path):
    pred = tmp_path / "pred.csv"
    pred.write_text("image_id,score\na,1\nb,2\nc,3\nd,4\ne,5\nf,6\n")
    assert main(["eval", "--scores", str(pred)]) == 1
