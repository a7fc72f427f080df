"""Pipeline assembly and the command-line surface."""

import csv
import json

import numpy as np
import pytest

from bandgauge.cli import main
from bandgauge.datagen import SynthSpec, gen_base, make_sample, quantize_bitdepth
from bandgauge.imgcore import PlanarImage, load_image, save_image
from bandgauge.pipeline import RunConfig, score_image
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


@pytest.mark.parametrize(
    "pws", [{"reg_alpha": float("nan")}, {"tol": float("inf")}, {"max_iters": 2.5}]
)
def test_bad_solver_config_exits_1(tmp_path, pws):
    p = write_ramp(tmp_path, 4)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pws": pws}))
    assert main(["--config", str(cfg), "score", str(p), "--out", str(tmp_path / "s.csv")]) == 1


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
