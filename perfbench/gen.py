"""Seeded benchmark inputs built from ``bandgauge.datagen`` bases.

Every input is a pure function of the workload seed: the same seed writes
the same bytes.  PNG files come from the benchmark's own writer, which picks
each row's filter by the usual minimum-sum-of-absolute-differences rule over
an allowed set of filter types, so the decoder sees the filters that real
encoders emit (the program's own encoder writes filter 0 only).  Every file
is decoded once here and compared with the array it was written from.
"""

from __future__ import annotations

import json
import os
import struct
import zlib

import numpy as np

from bandgauge.classifier import init_params, save_params
from bandgauge.datagen import (
    SynthSpec,
    gen_base,
    make_dataset,
    quantize_bitdepth,
    quantize_ycbcr,
)
from bandgauge.freq import PwsConfig
from bandgauge.imgcore import PlanarImage, load_image

FRAME_W, FRAME_H = 1920, 1080
INGEST_W, INGEST_H = 640, 360
LADDER_DEPTHS = (8, 6, 5, 4, 3)
BASELINE_SIZES = (235, 64)
MODEL_SIZE = 235
INGEST_SIZE = 64
FILTER_NAMES = ("none", "sub", "up", "average", "paeth")
NONE_UP = (0, 2)
ALL_FILTERS = (0, 1, 2, 3, 4)

# The offline study: a small dataset build and training run, then the
# evaluation of a paper-scale subjective set (2,000 images, ~22 raters,
# 15 distortion schemes).
STUDY_IMAGES = 20
STUDY_SPLIT = (0.6, 0.2, 0.2)
STUDY_IMAGE_SIZE = 128
STUDY_PATCH = 64
STUDY_EPOCHS = 4
RATED_IMAGES = 2000
SCHEMES = 15
# The rated set stands for a fixed subjective database such as BAND-2k's, so
# it does not follow the workload seed.  The Nelder-Mead fits' iteration
# counts depend chaotically on the data: over ten seeds the evaluations of
# one study's 16 fits spread by 22% (IQR over median), which no bound on
# ops_per_s could hold.  The seed still drives the dataset build and training.
RATED_SET_SEED = 2000

_SIG = b"\x89PNG\r\n\x1a\n"


def _chunk(tag: bytes, body: bytes) -> bytes:
    crc = zlib.crc32(tag + body) & 0xFFFFFFFF
    return struct.pack(">I", len(body)) + tag + body + struct.pack(">I", crc)


def _filter_rows(rows: np.ndarray, bpp: int, allowed) -> np.ndarray:
    """The allowed PNG filters applied to every row: (len(allowed), h, stride).

    Filtering reads only raw bytes, so it vectorizes over the whole image;
    row 0 sees a zero row above, as the decoder assumes.
    """
    x = rows.astype(np.int16)
    up = np.zeros_like(x)
    up[1:] = x[:-1]
    left = np.zeros_like(x)
    left[:, bpp:] = x[:, :-bpp]
    upleft = np.zeros_like(x)
    upleft[:, bpp:] = up[:, :-bpp]

    def paeth():
        p = left + up - upleft
        pa, pb, pc = np.abs(p - left), np.abs(p - up), np.abs(p - upleft)
        return np.where((pa <= pb) & (pa <= pc), left, np.where(pb <= pc, up, upleft))

    predictors = (
        lambda: 0,
        lambda: left,
        lambda: up,
        lambda: (left + up) >> 1,
        paeth,
    )
    return np.stack([((x - predictors[f]()) & 0xFF).astype(np.uint8) for f in allowed])


def encode_png(arr: np.ndarray, allowed) -> tuple:
    """8-bit grayscale (h, w) or RGB (h, w, 3) PNG; returns (bytes, row filters)."""
    h, w = arr.shape[:2]
    nch = 1 if arr.ndim == 2 else 3
    rows = np.ascontiguousarray(arr, dtype=np.uint8).reshape(h, w * nch)
    cand = _filter_rows(rows, nch, allowed)
    cost = np.abs(cand.view(np.int8).astype(np.int32)).sum(axis=2)
    pick = np.argmin(cost, axis=0)  # ties go to the lowest filter type
    body = np.empty((h, 1 + w * nch), dtype=np.uint8)
    body[:, 0] = np.asarray(allowed)[pick]
    body[:, 1:] = cand[pick, np.arange(h)]
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 0 if nch == 1 else 2, 0, 0, 0)
    blob = (
        _SIG
        + _chunk(b"IHDR", ihdr)
        + _chunk(b"IDAT", zlib.compress(body.tobytes(), 3))
        + _chunk(b"IEND", b"")
    )
    return blob, body[:, 0]


# ---------------------------------------------------------------------------
# Content


def _base(kind: str, seed: int, width: int, height: int) -> np.ndarray:
    """A square datagen base of side `width`, rows resampled to `height`."""
    plane = gen_base(SynthSpec(kind, size=width, bit_depth=8, seed=seed)).planes[0]
    rows = np.rint(np.linspace(0, width - 1, height)).astype(np.intp)
    return plane[rows]


def _tint(gray: np.ndarray) -> np.ndarray:
    g = gray.astype(np.float64)
    rgb = np.stack([g, 0.85 * g + 16.0, 0.7 * g + 40.0], axis=-1)
    return np.clip(np.rint(rgb), 0, 255).astype(np.uint8)


def _speckle(seed: int, width: int, height: int) -> np.ndarray:
    # Sparse bright specks on black, as in a dark low-light frame.
    noise = _base("noise_texture", seed, width, height)
    return np.where(noise > 190, noise, 0).astype(np.uint8)


def _line_jitter(seed: int, width: int, height: int) -> np.ndarray:
    # A dark-to-bright horizontal colour ramp whose lines are offset by a few
    # levels each, as in an analog capture with line jitter.
    ramp = _base("linear_ramp", seed, width, width).T[:height].astype(np.float64)
    jitter = np.random.default_rng([seed, 0x7177]).integers(-4, 5, size=(height, 1, 1))
    rgb = ramp[:, :, None] * np.array([1.0, 0.8, 0.6]) + jitter
    return np.clip(np.rint(rgb), 0, 255).astype(np.uint8)


def _render(kind, colour, depth, seed, width, height, bases) -> np.ndarray:
    if kind == "speckle":
        arr = _speckle(seed, width, height)
    elif kind == "line_jitter":
        return _line_jitter(seed, width, height)
    else:
        if (kind, seed) not in bases:
            bases[kind, seed] = _base(kind, seed, width, height)
        arr = bases[kind, seed]
    if colour == "rgb":
        arr = _tint(arr)
    if depth == 8:
        return arr
    img = PlanarImage.from_array(arr)
    # RGB content is banded in luma, as a 4:2:0 codec would band it.
    out = quantize_ycbcr(img, depth) if colour == "rgb" else quantize_bitdepth(img, depth)
    return out.to_array()


def _seed(root: int, *path: int) -> int:
    return int(np.random.SeedSequence([root, *path]).generate_state(1)[0])


def frame_specs(seed: int) -> list:
    """(name, content class, kind, colour, depth, base seed) of the 1080p frames.

    The five sky frames share one base and form the bit-depth ladder.
    """
    sky = _seed(seed, 1)
    specs = [(f"sky_d{d}", "smooth", "sky_gradient", "gray", d, sky) for d in LADDER_DEPTHS]
    specs += [
        ("ramp_rgb_d5", "smooth", "linear_ramp", "rgb", 5, _seed(seed, 2)),
        ("radial_d4", "smooth", "radial_ramp", "gray", 4, _seed(seed, 3)),
        ("noise_rgb", "textured", "noise_texture", "rgb", 8, _seed(seed, 4)),
        ("mixed_rgb_d4", "mixed", "mixed_scene", "rgb", 4, _seed(seed, 5)),
    ]
    return specs


def ingest_specs(seed: int) -> list:
    """640x360 files; each content class makes a different filter win."""
    return [
        ("sky_gray_d5", "smooth", "sky_gradient", "gray", 5, _seed(seed, 11)),
        ("noise_rgb", "textured", "noise_texture", "rgb", 8, _seed(seed, 12)),
        ("mixed_gray_d4", "mixed", "mixed_scene", "gray", 4, _seed(seed, 13)),
        ("speckle_gray", "speckle", "speckle", "gray", 8, _seed(seed, 14)),
        ("jitter_rgb", "jitter", "line_jitter", "rgb", 8, _seed(seed, 15)),
    ]


def _write_pngs(specs, width, height, allowed, out_dir, keep_arrays):
    """Write one PNG per spec; returns (file records, rows per filter type)."""
    files = []
    rows = np.zeros(len(FILTER_NAMES), dtype=np.int64)
    bases = {}
    for name, cls, kind, colour, depth, bseed in specs:
        arr = _render(kind, colour, depth, bseed, width, height, bases)
        blob, choice = encode_png(arr, allowed)
        path = os.path.join(out_dir, f"{name}.png")
        with open(path, "wb") as fh:
            fh.write(blob)
        rows += np.bincount(choice, minlength=len(FILTER_NAMES))
        rec = {"name": name, "class": cls, "path": path, "width": width, "height": height}
        if keep_arrays:
            # The workload compares every decode with this array.
            rec["source"] = os.path.join(out_dir, f"{name}.npy")
            np.save(rec["source"], arr)
        elif not np.array_equal(load_image(path).to_array(), arr):
            raise RuntimeError(f"{path}: decoded pixels differ from the source array")
        files.append(rec)
    return files, dict(zip(FILTER_NAMES, rows.tolist()))


def _study_dataset_seed(seed: int) -> int:
    """First derived dataset seed whose splits hold both labels where needed.

    Labels and the split do not depend on the solver, so a one-sweep build
    decides this cheaply; the result is a pure function of `seed`.
    """
    def both_labels(part) -> bool:
        return {s.label.is_banded for s in part} == {True, False}

    for k in range(1000):
        ds = _seed(seed, 100, k)
        b = make_dataset(
            STUDY_IMAGES, ds, STUDY_SPLIT, STUDY_PATCH, STUDY_IMAGE_SIZE,
            pws_cfg=PwsConfig(max_iters=1),
        )
        if both_labels(b.train) and both_labels(b.test) and b.val:
            return ds
    raise RuntimeError("no dataset seed with both labels in train and test")


def _rated_set(path: str) -> None:
    """Raw opinion scores, objective scores and scheme ids of the rated set.

    Opinion scores scatter around a logistic function of the objective
    (banding) score, the relation the five-parameter fit assumes.
    """
    rng = np.random.default_rng(RATED_SET_SEED)
    scheme = np.arange(RATED_IMAGES) % SCHEMES
    severity = rng.uniform(0.0, 0.4, RATED_IMAGES) * rng.uniform(0.6, 1.0, SCHEMES)[scheme]
    quality = 95.0 - 90.0 / (1.0 + np.exp(-(severity - 0.18) / 0.05))
    counts = rng.integers(20, 25, RATED_IMAGES)  # ~22 raters per image
    scores = np.repeat(quality, counts) + rng.normal(0.0, 8.0, counts.sum())
    outliers = rng.random(scores.size) < 0.03
    scores[outliers] = rng.uniform(0.0, 100.0, int(outliers.sum()))
    np.savez(
        path,
        scores=np.clip(scores, 0.0, 100.0),
        counts=counts,
        predicted=severity + rng.normal(0.0, 0.01, RATED_IMAGES),
        scheme=scheme,
    )


def write_inputs(workload: str, seed: int, out_dir: str) -> str:
    """Generate the inputs of one workload; returns the manifest path."""
    os.makedirs(out_dir, exist_ok=True)
    man = {"workload": workload, "seed": seed}
    if workload in ("score-baseline", "score-model"):
        man["files"], man["filter_rows"] = _write_pngs(
            frame_specs(seed), FRAME_W, FRAME_H, NONE_UP, out_dir, keep_arrays=False
        )
        man["ladder"] = [f"sky_d{d}" for d in LADDER_DEPTHS]
        if workload == "score-model":
            man["model"] = os.path.join(out_dir, "model.bgw")
            save_params(init_params(MODEL_SIZE, seed=_seed(seed, 50)), man["model"])
            man["sizes"] = [MODEL_SIZE]
        else:
            man["sizes"] = list(BASELINE_SIZES)
    elif workload == "ingest":
        man["files"], man["filter_rows"] = _write_pngs(
            ingest_specs(seed), INGEST_W, INGEST_H, ALL_FILTERS, out_dir, keep_arrays=True
        )
        man["sizes"] = [INGEST_SIZE]
        if min(man["filter_rows"].values()) == 0:
            raise RuntimeError(f"not every filter type occurs: {man['filter_rows']}")
    elif workload == "offline":
        man["study"] = {
            "images": STUDY_IMAGES,
            "split": list(STUDY_SPLIT),
            "image_size": STUDY_IMAGE_SIZE,
            "patch_size": STUDY_PATCH,
            "epochs": STUDY_EPOCHS,
            "schemes": SCHEMES,
        }
        man["dataset_seed"] = _study_dataset_seed(seed)
        man["train_seed"] = _seed(seed, 200)
        man["ratings"] = os.path.join(out_dir, "ratings.npz")
        _rated_set(man["ratings"])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(man, fh, indent=1)
    return path
