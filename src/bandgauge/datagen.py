"""Synthetic labeled banding data.

Banding is induced the dependency-free way: bit-depth reduction followed by
promotion back to 8 bits (mid-rise reconstruction levels), applied to smooth
synthetic bases.  A pixel ground-truth mask marks the smooth regions where
quantization plateaus become visible; a patch is labeled banded when the
masked fraction of its area exceeds 30% (strictly).

Image-to-split assignment happens at the image level so no patch of one
image can leak across splits.  Every image derives its own RNG stream from
(root seed, image index).
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np

from .checks import check
from .classifier import PatchSample
from .csvfile import read_rows, write_rows
from .freq import PwsConfig
from .freq import pws_lfm, sobel_hfm  # noqa: F401 - wrapped by name in perfbench/tracer.py
from .imgcore import (
    BLOCK_PIXELS,
    Label,
    PatchGrid,
    PlanarImage,
    load_image,
    save_image,
    tile,
    to_luma,
)
from .pipeline import tile_maps

KINDS = ("linear_ramp", "radial_ramp", "sky_gradient", "noise_texture", "mixed_scene")
_SMOOTH_KINDS = ("linear_ramp", "radial_ramp", "sky_gradient")

DEPTHS = (2, 3, 4, 5, 6, 7)  # bit depths of generated images, in turn
BANDED_MAX_DEPTH = 6  # ground truth: see make_sample
CONTOUR_RADIUS = 16
NOISE_SIGMA = 24.0  # gray levels, of the noise_texture base


@dataclass(frozen=True)
class SynthSpec:
    kind: str
    size: int = 256
    bit_depth: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if not 1 <= self.bit_depth <= 8:
            raise ValueError("bit depth must lie in 1..8")
        if self.size < 16:
            raise ValueError("image size too small")


@dataclass(frozen=True)
class GeneratedSample:
    image: PlanarImage
    banded_mask: np.ndarray
    spec: SynthSpec

    def __post_init__(self):
        m = np.ascontiguousarray(np.asarray(self.banded_mask, dtype=bool))
        if m.shape != (self.image.height, self.image.width):
            raise ValueError("mask dimensions must match the image")
        m.flags.writeable = False
        object.__setattr__(self, "banded_mask", m)


def gen_base(spec: SynthSpec) -> PlanarImage:
    """Clean 8-bit grayscale base image for a spec."""
    s = spec.size
    rng = np.random.default_rng([spec.seed, 0x5EED])
    if spec.kind == "linear_ramp":
        field = _linear_ramp(s, rng)
    elif spec.kind == "radial_ramp":
        field = _radial_ramp(s)
    elif spec.kind == "sky_gradient":
        field = _sky_gradient(s, rng)
    elif spec.kind == "noise_texture":
        field = _noise_texture(s, rng)
    else:  # mixed_scene: smooth upper half, noise lower half
        top = _linear_ramp(s, rng)[: s // 2]
        bottom = _noise_texture(s, rng)[s // 2 :]
        field = np.vstack([top, bottom])
    arr = np.clip(np.rint(field), 0, 255).astype(np.uint8)
    return PlanarImage.from_array(arr)


def _linear_ramp(s: int, rng) -> np.ndarray:
    # Row-constant, monotone 0..255.  A seeded phase wobble keeps the slope
    # between 0.75 and 1.25 levels per row so quantization contours never
    # land systematically on tile boundaries.
    t = np.linspace(0.0, 1.0, s)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    wobble = np.sin(2.0 * np.pi * t + phase) - np.sin(phase)
    col = 255.0 * (t + 0.04 * wobble)
    return np.repeat(col[:, None], s, axis=1)


def _radial_ramp(s: int) -> np.ndarray:
    c = (s - 1) / 2.0
    yy, xx = np.indices((s, s))
    r = np.hypot(yy - c, xx - c)
    # Normalize over the realized radii so the center pixel is exactly 255
    # even when the geometric center falls between pixels.
    return 255.0 * (r.max() - r) / (r.max() - r.min())


def _sky_gradient(s: int, rng) -> np.ndarray:
    # A slow ramp plus two image-scale cosine swells; slope stays around one
    # gray level per pixel, so the base itself shows no banding.
    yy, xx = np.indices((s, s), dtype=np.float64)
    u, v = yy / s, xx / s
    field = 0.9 * u + 0.35 * v
    for _ in range(2):
        fu, fv = rng.uniform(0.3, 1.0, size=2)
        phase = rng.uniform(0.0, 2 * np.pi)
        amp = rng.uniform(0.08, 0.2)
        field = field + amp * np.cos(2 * np.pi * (fu * u + fv * v) + phase)
    field -= field.min()
    return field * (255.0 / field.max())


def _noise_texture(s: int, rng) -> np.ndarray:
    return 128.0 + rng.normal(0.0, NOISE_SIGMA, size=(s, s))


def quantize_bitdepth(img: PlanarImage, d: int) -> PlanarImage:
    """Reduce to d bits then promote back with mid-rise reconstruction."""
    if img.is_float:
        raise ValueError("quantization expects an 8-bit image")
    if not 1 <= d <= 8:
        raise ValueError("bit depth must lie in 1..8")
    if d == 8:
        return img
    step = 1 << (8 - d)
    half = 1 << (7 - d)
    planes = tuple(
        ((p.astype(np.int32) // step) * step + half).astype(np.uint8)
        for p in img.planes
    )
    return PlanarImage(img.width, img.height, img.channels, planes)


def quantize_ycbcr(img: PlanarImage, d: int, chroma: bool = False) -> PlanarImage:
    """Quantize an RGB image in YCbCr 4:2:0 space: luma always, chroma on
    request. Grayscale content should use quantize_bitdepth directly."""
    from .imgcore import rgb_to_ycbcr420, ycbcr420_to_rgb

    y, cb, cr = rgb_to_ycbcr420(img)
    y = quantize_bitdepth(y, d)
    if chroma:
        cb = quantize_bitdepth(cb, d)
        cr = quantize_bitdepth(cr, d)
    return ycbcr420_to_rgb(y, cb, cr)


def _dilate(mask: np.ndarray, radius: int) -> np.ndarray:
    """Chebyshev dilation of a boolean mask by `radius` pixels (separable)."""
    h, w = mask.shape
    rows = np.zeros_like(mask)
    padded = np.pad(mask, ((radius, radius), (0, 0)), mode="constant")
    for dy in range(2 * radius + 1):
        rows |= padded[dy : dy + h]
    out = np.zeros_like(mask)
    padded = np.pad(rows, ((0, 0), (radius, radius)), mode="constant")
    for dx in range(2 * radius + 1):
        out |= padded[:, dx : dx + w]
    return out


def make_sample(spec: SynthSpec) -> GeneratedSample:
    """Quantized image plus its pixel-level ground truth.

    A pixel counts as banded when it is smooth in the base, the depth is at
    most BANDED_MAX_DEPTH, and a quantization plateau boundary passes within
    CONTOUR_RADIUS: flat patches deep inside one plateau carry no visible
    contour and stay non-banded.
    """
    base = gen_base(spec)
    image = quantize_bitdepth(base, spec.bit_depth)
    s = spec.size
    mask = np.zeros((s, s), dtype=bool)
    if spec.bit_depth <= BANDED_MAX_DEPTH and spec.kind != "noise_texture":
        q = image.planes[0]
        contour = np.zeros((s, s), dtype=bool)
        contour[:, :-1] |= q[:, 1:] != q[:, :-1]
        contour[:-1, :] |= q[1:, :] != q[:-1, :]
        mask = _dilate(contour, CONTOUR_RADIUS)
        if spec.kind == "mixed_scene":
            mask[s // 2 :, :] = False
    return GeneratedSample(image, mask, spec)


def label_patches(sample: GeneratedSample, grid: PatchGrid):
    """Banded iff strictly more than 30% of the patch area is masked."""
    n, rows, cols = grid.patch_size, grid.rows, grid.cols
    mask = sample.banded_mask[: rows * n, : cols * n]
    counts = mask.reshape(rows, n, cols, n).sum(axis=(1, 3))
    banded = counts.ravel() / float(n * n) > 0.30
    return tuple(Label.BANDED if b else Label.NON_BANDED for b in banded)


@dataclass(frozen=True)
class ManifestRow:
    image_path: str
    patch_x: int
    patch_y: int
    patch_size: int
    label: Label
    split: str


@dataclass(frozen=True)
class DatasetBundle:
    train: tuple
    val: tuple
    test: tuple
    manifest: tuple  # ManifestRow per patch


def make_dataset(
    n_images: int,
    seed: int = 0,
    split=(0.8, 0.1, 0.1),
    patch_size: int = 64,
    image_size: int = 256,
    out_dir=None,
    pws_cfg: PwsConfig | None = None,
) -> DatasetBundle:
    """Generate images, label patches, and precompute frequency maps.

    Whole images are assigned to train/val/test; when out_dir is given the
    images are written as PNG and a manifest.csv alongside them.  The maps
    come from ``pipeline.tile_maps``, as on the scoring path.
    """
    check("seed", seed, int, ge=0)
    check("patch_size", patch_size, int, ge=8)
    check("image_size", image_size, int, ge=16)
    if n_images < 10:
        raise ValueError("need at least 10 images for a meaningful split")
    if len(split) != 3 or abs(sum(split) - 1.0) > 1e-9 or min(split) < 0:
        raise ValueError("split must be three non-negative fractions summing to 1")
    pws_cfg = pws_cfg or PwsConfig()

    n_train = int(round(split[0] * n_images))
    n_val = int(round(split[1] * n_images))
    split_names = ["train"] * n_train + ["val"] * n_val
    split_names += ["test"] * (n_images - len(split_names))
    order = np.random.default_rng([seed, 0xA55]).permutation(n_images)
    assigned = [""] * n_images
    for pos, img_idx in enumerate(order):
        assigned[img_idx] = split_names[pos]

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)

    buckets = {"train": [], "val": [], "test": []}
    manifest = []
    for i in range(n_images):
        kind = KINDS[i % len(KINDS)]
        depth = DEPTHS[i % len(DEPTHS)]
        spec = SynthSpec(
            kind, size=image_size, bit_depth=depth, seed=_image_seed(seed, i)
        )
        sample = make_sample(spec)
        name = f"img_{i:04d}_{kind}_d{depth}.png"
        if out_dir is not None:
            save_image(sample.image, os.path.join(out_dir, name))
        grid = tile(sample.image, patch_size)
        labels = label_patches(sample, grid)
        luma = to_luma(sample.image).planes[0]
        for start, block in grid.blocks(luma, max(1, BLOCK_PIXELS // patch_size**2)):
            hv, lfms = tile_maps(block, pws_cfg)
            for k, (h, lfm) in enumerate(zip(hv, lfms), start):
                x, y = grid.patches[k]
                buckets[assigned[i]].append(PatchSample(h, lfm, labels[k]))
                manifest.append(
                    ManifestRow(name, x, y, patch_size, labels[k], assigned[i])
                )
    if out_dir is not None:
        write_manifest(manifest, os.path.join(out_dir, "manifest.csv"))
    return DatasetBundle(
        tuple(buckets["train"]),
        tuple(buckets["val"]),
        tuple(buckets["test"]),
        tuple(manifest),
    )


def _image_seed(root_seed: int, index: int) -> int:
    # Stable per-image stream id; SeedSequence keeps streams independent.
    return int(np.random.SeedSequence([root_seed, index]).generate_state(1)[0])


_MANIFEST_HEADER = ("image_path", "patch_x", "patch_y", "N", "label", "split")


def write_manifest(rows, path) -> None:
    write_rows(
        path,
        _MANIFEST_HEADER,
        [(r.image_path, r.patch_x, r.patch_y, r.patch_size, r.label.value, r.split)
         for r in rows],
    )


class ManifestError(ValueError):
    """Malformed manifest; the message carries the offending line number."""


def read_manifest(path):
    return [row for _, row in _numbered_manifest(path)]


def _numbered_manifest(path):
    """(line_no, ManifestRow) per data row, so later checks can name the line."""
    try:
        rows = read_rows(path, _MANIFEST_HEADER)
        return [(line_no, _manifest_row(path, line_no, row)) for line_no, row in rows]
    except ValueError as exc:
        raise ManifestError(str(exc)) from None


def _manifest_row(path, line_no, row) -> ManifestRow:
    try:
        x, y, n = int(row[1]), int(row[2]), int(row[3])
    except ValueError:
        raise ValueError(f"{path}:{line_no}: non-integer coordinate") from None
    if x < 0 or y < 0:
        raise ValueError(f"{path}:{line_no}: negative patch coordinate ({x}, {y})")
    if n < 8:
        raise ValueError(f"{path}:{line_no}: patch size {n} is below 8")
    try:
        label = Label(row[4])
    except ValueError:
        raise ValueError(f"{path}:{line_no}: unknown label {row[4]!r}") from None
    if row[5] not in ("train", "val", "test"):
        raise ValueError(f"{path}:{line_no}: unknown split {row[5]!r}")
    return ManifestRow(row[0], x, y, n, label, row[5])


def load_dataset(manifest_path, pws_cfg: PwsConfig | None = None):
    """Rebuild split patch-sample lists from a manifest and its images.

    Samples keep manifest order, and each row's maps come from
    ``pipeline.tile_maps``.  One image's luma is held at a time, so an image
    whose rows are not contiguous in the manifest is decoded again for each
    run of its rows.
    """
    pws_cfg = pws_cfg or PwsConfig()
    numbered = _numbered_manifest(manifest_path)
    base = os.path.dirname(os.path.abspath(manifest_path))

    @functools.lru_cache(maxsize=1)
    def luma_of(image_path):
        return to_luma(load_image(os.path.join(base, image_path))).planes[0]

    buckets = {"train": [], "val": [], "test": []}
    for line_no, r in numbered:
        n = r.patch_size
        patch = luma_of(r.image_path)[r.patch_y : r.patch_y + n, r.patch_x : r.patch_x + n]
        if patch.shape != (n, n):
            raise ManifestError(
                f"{manifest_path}:{line_no}: patch at ({r.patch_x}, {r.patch_y})"
                f" leaves {r.image_path}"
            )
        hv, lfms = tile_maps(patch[None].astype(np.float64), pws_cfg)
        buckets[r.split].append(PatchSample(hv[0], lfms[0], r.label))
    return DatasetBundle(
        tuple(buckets["train"]),
        tuple(buckets["val"]),
        tuple(buckets["test"]),
        tuple(r for _, r in numbered),
    )
