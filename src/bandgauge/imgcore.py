"""Image substrate: planar raster type, file I/O, color conversion, tiling.

Images are stored as per-channel 2-D numpy planes, either 8-bit unsigned
(samples in 0..255) or float32 (samples in 0.0..1.0).  All types are frozen
and their arrays are made read-only, so values can be shared freely across
threads; every operation returns new data.

Supported on disk: PNG (8-bit grayscale / RGB, non-interlaced) and binary
PGM (P5) / PPM (P6).  All five PNG row filters (None, Sub, Up, Average,
Paeth) are decoded in numpy, a whole row or a whole anti-diagonal of pixels
at a time.  A PNG header declaring more than ``PNG_MAX_PIXELS`` pixels is
rejected before its data is inflated.  Malformed files of either kind raise
``ImageFormatError``.
"""

from __future__ import annotations

import enum
import struct
import zlib
from dataclasses import dataclass

import numpy as np


class ImageFormatError(ValueError):
    """Raised for unreadable, unsupported, or malformed image files."""


class Label(enum.Enum):
    """A patch's ground-truth verdict; the value is its manifest string."""

    BANDED = "banded"
    NON_BANDED = "non_banded"

    @property
    def is_banded(self) -> bool:
        return self is Label.BANDED


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    if out is arr and arr.flags.writeable:
        out = arr.copy()
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class PlanarImage:
    """Decoded raster: 1 or 3 planes of shape (height, width)."""

    width: int
    height: int
    channels: int
    planes: tuple

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image dimensions must be positive")
        if self.channels not in (1, 3):
            raise ValueError("channels must be 1 or 3")
        if len(self.planes) != self.channels:
            raise ValueError("plane count does not match channel count")
        frozen = []
        for p in self.planes:
            p = np.asarray(p)
            if p.shape != (self.height, self.width):
                raise ValueError(
                    f"plane shape {p.shape} != ({self.height}, {self.width})"
                )
            if p.dtype == np.uint8:
                pass
            elif p.dtype in (np.float32, np.float64):
                p = p.astype(np.float32, copy=False)
                if p.size and not (float(p.min()) >= 0.0 and float(p.max()) <= 1.0):
                    raise ValueError("float samples must lie in [0, 1]")
            else:
                raise ValueError(f"unsupported sample dtype {p.dtype}")
            frozen.append(_freeze(p))
        if len({p.dtype for p in frozen}) != 1:
            raise ValueError("all planes must share one sample depth")
        object.__setattr__(self, "planes", tuple(frozen))

    @property
    def is_float(self) -> bool:
        return self.planes[0].dtype == np.float32

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "PlanarImage":
        """Build from (h, w) or (h, w, 3)."""
        arr = np.asarray(arr)
        if arr.ndim == 2:
            return cls(arr.shape[1], arr.shape[0], 1, (arr,))
        if arr.ndim == 3 and arr.shape[2] == 3:
            h, w = arr.shape[:2]
            return cls(w, h, 3, tuple(arr[:, :, c] for c in range(3)))
        raise ValueError(f"cannot build image from array of shape {arr.shape}")

    def to_array(self) -> np.ndarray:
        """(h, w) for grayscale, (h, w, 3) for color. Returns a copy."""
        if self.channels == 1:
            return self.planes[0].copy()
        return np.stack(self.planes, axis=-1)


@dataclass(frozen=True)
class PatchGrid:
    """Non-overlapping N x N tiling anchored at (0, 0), raster order.

    Right/bottom remainders narrower than N are not covered.
    """

    patch_size: int
    cols: int
    rows: int
    image_width: int
    image_height: int

    def __post_init__(self):
        n = self.patch_size
        if self.cols * n > self.image_width or self.rows * n > self.image_height:
            raise ValueError(f"{self.cols}x{self.rows} tiles of {n} leave the image")

    def __len__(self) -> int:
        return self.rows * self.cols

    def origin(self, k: int) -> tuple[int, int]:
        """(x, y) of tile k's top-left pixel; k indexes like a sequence of tiles."""
        r, c = divmod(range(len(self))[k], self.cols)
        return c * self.patch_size, r * self.patch_size

    def blocks(self, plane: np.ndarray, size: int):
        """Yield (index of the first patch, float64 (B, n, n) copy) per run
        of ``size`` consecutive patches in raster order.

        A run may cross grid rows, and only the last one may be shorter.
        It is copied one grid-row segment at a time out of the plane's
        (rows, n, cols, n) view, so the plane is never copied whole.
        """
        if size < 1:
            raise ValueError(f"block size must be at least 1, got {size}")
        n, cols = self.patch_size, self.cols
        view = plane[: self.rows * n, : cols * n].reshape(self.rows, n, cols, n)
        for start in range(0, len(self), size):
            stop = min(start + size, len(self))
            out = np.empty((stop - start, n, n))
            k = start
            while k < stop:
                r, c = divmod(k, cols)
                end = min(stop, (r + 1) * cols)
                out[k - start : end - start] = view[r, :, c : c + end - k].transpose(1, 0, 2)
                k = end
            yield start, out


def tile(img: PlanarImage, n: int) -> PatchGrid:
    """Tile an image into an N x N grid; remainders are discarded."""
    if n < 8:
        raise ValueError("patch size must be at least 8")
    if n > img.width or n > img.height:
        raise ValueError(f"patch size {n} exceeds image {img.width}x{img.height}")
    return PatchGrid(n, img.width // n, img.height // n, img.width, img.height)


# BT.601 luma weights; the synthetic data targets YCbCr 4:2:0 sources.
_LUMA_R, _LUMA_G, _LUMA_B = 0.299, 0.587, 0.114

# Pixels per block of the streamed per-pixel and per-tile stages (to_luma,
# and the PatchGrid.blocks runs of grid_stats and the baseline rule).  The
# work is memory-bound: a block this size keeps its float64 temporaries in a
# 2 MB L2, and both 2**17 and whole frames measure slower.
BLOCK_PIXELS = 2**16


def to_luma(img: PlanarImage) -> np.ndarray:
    """The image's luma as a read-only float32 (height, width) plane in [0, 1].

    3-channel input is combined with BT.601 weights; 1-channel input is only
    rescaled (8-bit) or passed through (float).  Rows are converted in blocks
    of about BLOCK_PIXELS.
    """
    out = np.empty((img.height, img.width), dtype=np.float32)
    step = max(1, BLOCK_PIXELS // img.width)
    for r0 in range(0, img.height, step):
        rows = slice(r0, r0 + step)
        if img.channels == 3:
            # _LUMA_R * r + _LUMA_G * g + _LUMA_B * b, in place
            y, g, b = (p[rows].astype(np.float64) for p in img.planes)
            y *= _LUMA_R
            g *= _LUMA_G
            y += g
            b *= _LUMA_B
            y += b
        else:
            y = img.planes[0][rows].astype(np.float64)
        if not img.is_float:
            y /= 255.0
        out[rows] = np.clip(y, 0.0, 1.0, out=y)
    out.flags.writeable = False
    return out


def rgb_to_ycbcr420(img: PlanarImage):
    """Full-range BT.601 conversion with 2x2 box-averaged chroma.

    Returns (y, cb, cr) as 8-bit single-channel images; cb/cr are half
    resolution. Requires an even-sized 3-channel 8-bit image.
    """
    if img.channels != 3 or img.is_float:
        raise ValueError("expected a 3-channel 8-bit image")
    if img.width % 2 or img.height % 2:
        raise ValueError("dimensions must be even for 4:2:0 subsampling")
    r, g, b = (p.astype(np.float64) for p in img.planes)
    y = _LUMA_R * r + _LUMA_G * g + _LUMA_B * b
    cb = 128.0 - 0.168736 * r - 0.331264 * g + 0.5 * b
    cr = 128.0 + 0.5 * r - 0.418688 * g - 0.081312 * b
    cb_half = _box2(cb)
    cr_half = _box2(cr)
    mk = lambda a: PlanarImage.from_array(
        np.clip(np.rint(a), 0, 255).astype(np.uint8)
    )
    return mk(y), mk(cb_half), mk(cr_half)


def ycbcr420_to_rgb(y: PlanarImage, cb: PlanarImage, cr: PlanarImage) -> PlanarImage:
    """Inverse of rgb_to_ycbcr420; chroma is upsampled nearest-neighbour."""
    yf = y.planes[0].astype(np.float64)
    cbf = _up2(cb.planes[0].astype(np.float64)) - 128.0
    crf = _up2(cr.planes[0].astype(np.float64)) - 128.0
    r = yf + 1.402 * crf
    g = yf - 0.344136 * cbf - 0.714136 * crf
    b = yf + 1.772 * cbf
    out = np.stack([r, g, b], axis=-1)
    return PlanarImage.from_array(np.clip(np.rint(out), 0, 255).astype(np.uint8))


def _box2(a: np.ndarray) -> np.ndarray:
    return (a[0::2, 0::2] + a[0::2, 1::2] + a[1::2, 0::2] + a[1::2, 1::2]) / 4.0


def _up2(a: np.ndarray) -> np.ndarray:
    return np.repeat(np.repeat(a, 2, axis=0), 2, axis=1)


# ---------------------------------------------------------------------------
# File I/O


def load_image(path) -> PlanarImage:
    """Decode a PNG or binary PGM/PPM file."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ImageFormatError(f"cannot read {path}: {exc}") from exc
    if data[:8] == _PNG_SIGNATURE:
        arr = _png_decode(data)
    elif data[:2] in (b"P5", b"P6"):
        arr = _pnm_decode(data)
    else:
        raise ImageFormatError(f"{path}: not a PNG or binary PGM/PPM file")
    return PlanarImage.from_array(arr)


def save_image(img: PlanarImage, path) -> None:
    """Encode 8-bit image to PNG / PGM / PPM chosen by extension."""
    if img.is_float:
        raise ValueError("only 8-bit images can be saved; quantize first")
    suffix = str(path).lower().rsplit(".", 1)
    ext = suffix[1] if len(suffix) == 2 else ""
    arr = img.to_array()
    if ext == "png":
        blob = _png_encode(arr)
    elif ext == "pgm":
        if img.channels != 1:
            raise ValueError("PGM holds grayscale only")
        blob = _pnm_encode(arr)
    elif ext == "ppm":
        if img.channels != 3:
            raise ValueError("PPM holds RGB only")
        blob = _pnm_encode(arr)
    else:
        raise ValueError(f"unsupported output extension {ext!r}")
    with open(path, "wb") as fh:
        fh.write(blob)


_PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"

# Largest width x height accepted from a PNG header.  It is checked before
# inflating, so a small file cannot make the decoder allocate without bound;
# 8192 x 8192 leaves room for 8K UHD (7680 x 4320) frames.
PNG_MAX_PIXELS = 8192 * 8192


def _png_chunk(tag: bytes, body: bytes) -> bytes:
    crc = zlib.crc32(tag + body) & 0xFFFFFFFF
    return struct.pack(">I", len(body)) + tag + body + struct.pack(">I", crc)


def _png_encode(arr: np.ndarray) -> bytes:
    gray = arr.ndim == 2
    h, w = arr.shape[:2]
    color_type = 0 if gray else 2
    ihdr = struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 0)
    rows = arr.reshape(h, -1).astype(np.uint8)
    raw = b"".join(b"\x00" + rows[r].tobytes() for r in range(h))
    return (
        _PNG_SIGNATURE
        + _png_chunk(b"IHDR", ihdr)
        + _png_chunk(b"IDAT", zlib.compress(raw, 9))
        + _png_chunk(b"IEND", b"")
    )


def _png_decode(data: bytes) -> np.ndarray:
    ihdr, idat = _png_chunks(data)
    w, h, depth, color_type, comp, filt, interlace = ihdr
    if w == 0 or h == 0:
        raise ImageFormatError("PNG has zero dimension")
    if depth != 8 or color_type not in (0, 2):
        raise ImageFormatError(
            "unsupported PNG variant (need 8-bit grayscale or RGB)"
        )
    if comp != 0 or filt != 0 or interlace != 0:
        raise ImageFormatError("unsupported PNG compression/interlace mode")
    if w * h > PNG_MAX_PIXELS:
        raise ImageFormatError(
            f"PNG is {w}x{h}, more than the {PNG_MAX_PIXELS} pixels accepted"
        )
    nch = 1 if color_type == 0 else 3
    stride = w * nch
    raw = _png_inflate(idat, h * (stride + 1))
    ftypes = np.frombuffer(raw, dtype=np.uint8)[:: stride + 1]
    top = int(ftypes.max())
    if top > 4:
        r = int(np.argmax(ftypes > 4))
        raise ImageFormatError(f"unknown PNG filter type {ftypes[r]} in row {r}")
    if top >= 3:
        out = _png_unfilter_wavefront(raw, ftypes, h, w, nch)
    else:
        out = _png_unfilter_rows(raw, ftypes, h, stride, nch)
    return out.reshape(h, w) if nch == 1 else out.reshape(h, w, 3)


def _png_chunks(data: bytes):
    """(IHDR fields, concatenated IDAT bodies) of a CRC-checked chunk list."""
    pos = 8
    idat = []
    while True:
        if pos + 8 > len(data):
            raise ImageFormatError("truncated PNG: chunk header or IEND missing")
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        tag = data[pos + 4 : pos + 8]
        body = data[pos + 8 : pos + 8 + length]
        if len(body) != length:
            raise ImageFormatError("truncated PNG chunk body")
        crc_bytes = data[pos + 8 + length : pos + 12 + length]
        if len(crc_bytes) != 4:
            raise ImageFormatError("truncated PNG chunk CRC")
        (crc,) = struct.unpack(">I", crc_bytes)
        if zlib.crc32(tag + body) & 0xFFFFFFFF != crc:
            raise ImageFormatError(f"PNG chunk {tag!r} CRC mismatch")
        if (tag == b"IHDR") != (pos == 8):
            raise ImageFormatError("PNG must begin with its one IHDR chunk")
        if tag == b"IHDR":
            if length != 13:
                raise ImageFormatError(f"PNG IHDR is {length} bytes, not 13")
            ihdr = struct.unpack(">IIBBBBB", body)
        elif tag == b"IDAT":
            idat.append(body)
        elif tag == b"IEND":
            break
        pos += 12 + length
    return ihdr, b"".join(idat)


def _png_inflate(idat: bytes, expected: int) -> bytes:
    """Inflate exactly ``expected`` bytes; a longer stream is cut off unread."""
    inflater = zlib.decompressobj()
    try:
        raw = inflater.decompress(idat, expected + 1)
    except zlib.error as exc:
        raise ImageFormatError(f"PNG data stream corrupt: {exc}") from exc
    if len(raw) > expected:
        raise ImageFormatError("PNG data stream is longer than its IHDR declares")
    if len(raw) != expected:
        raise ImageFormatError("PNG data stream has wrong length")
    if not inflater.eof:
        raise ImageFormatError("PNG data stream is truncated")
    return raw


def _png_unfilter_rows(raw: bytes, ftypes, h: int, stride: int, nch: int):
    """Images filtered None, Sub and Up only: one row at a time."""
    lines = np.frombuffer(raw, dtype=np.uint8).reshape(h, stride + 1)[:, 1:]
    out = np.empty((h, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.uint8)
    for r, ftype in enumerate(ftypes.tolist()):
        if ftype == 0:
            out[r] = lines[r]
        elif ftype == 1:
            # Sub: running sum of each channel; uint8 arithmetic wraps mod 256.
            np.cumsum(
                lines[r].reshape(-1, nch), axis=0, dtype=np.uint8,
                out=out[r].reshape(-1, nch),
            )
        else:
            np.add(lines[r], prev, out=out[r])
        prev = out[r]
    return out


def _png_unfilter_wavefront(raw: bytes, ftypes, h: int, w: int, nch: int):
    """Any mix of the five filters, one anti-diagonal of pixels per step.

    Pixel (r, x) lies on diagonal d = r + x.  Its left and above neighbours
    lie on diagonal d - 1 and its upper-left neighbour on d - 2, so every
    pixel of a diagonal can be reconstructed at once.  Both the filtered
    bytes and the output are read through strided views whose columns are
    the diagonals; no skewed copy is made.
    """
    as_strided = np.lib.stride_tricks.as_strided
    # Output with a zero top row and left column: the filters read zero
    # for the neighbours outside the image.
    padded = np.zeros((h + 1) * (w + 1) * nch, dtype=np.uint8)
    # skew[r + 1, d + 2] is pixel (r, d - r); its left neighbour is
    # skew[r + 1, d + 1], above is skew[r, d + 1], upper-left skew[r, d].
    skew = as_strided(
        padded, shape=(h + 1, h + w + 1, nch), strides=(w * nch, nch, 1)
    )
    # filt[r, d] is the filtered pixel (r, d - r).
    filt = as_strided(
        np.frombuffer(raw, dtype=np.uint8)[1:],
        shape=(h, h + w - 1, nch),
        strides=((w - 1) * nch + 1, nch, 1),
        writeable=False,
    )
    present = set(ftypes.tolist())
    # Per-row 0/1 weights of each filter's predictor; summing the weighted
    # predictors selects one per row (faster than np.choose or np.where).
    weights = {
        t: np.repeat((ftypes == t)[:, None], nch, axis=1).astype(np.int16)
        for t in present - {0}
    }
    for d in range(h + w - 1):
        r0, r1 = max(0, d - w + 1), min(h, d + 1)
        a = skew[r0 + 1 : r1 + 1, d + 1].astype(np.int16)
        b = skew[r0:r1, d + 1].astype(np.int16)
        preds = {1: a, 2: b}
        if 3 in present:
            preds[3] = (a + b) >> 1
        if 4 in present:
            preds[4] = _paeth(a, b, skew[r0:r1, d].astype(np.int16))
        pred = sum(preds[t] * wt[r0:r1] for t, wt in weights.items())
        np.add(
            filt[r0:r1, d], pred.astype(np.uint8), out=skew[r0 + 1 : r1 + 1, d + 2]
        )
    return padded.reshape(h + 1, (w + 1) * nch)[1:, nch:]


def _paeth(a, b, c):
    """Paeth predictor on int16 samples, ties broken left, above, upper-left."""
    bc = b - c
    ac = a - c
    pa = np.abs(bc)
    pb = np.abs(ac)
    pc = np.abs(bc + ac)
    return np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))


def _pnm_encode(arr: np.ndarray) -> bytes:
    gray = arr.ndim == 2
    h, w = arr.shape[:2]
    magic = b"P5" if gray else b"P6"
    header = magic + f"\n{w} {h}\n255\n".encode("ascii")
    return header + arr.astype(np.uint8).tobytes()


def _pnm_decode(data: bytes) -> np.ndarray:
    magic = data[:2]
    nch = 1 if magic == b"P5" else 3
    pos = 2
    fields = []
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ImageFormatError("malformed PNM header")
        fields.append(data[start:pos])
    pos += 1  # single whitespace after maxval
    try:
        w, h, maxval = (int(f) for f in fields)
    except ValueError as exc:
        raise ImageFormatError("malformed PNM header") from exc
    if w == 0 or h == 0:
        raise ImageFormatError("PNM has zero dimension")
    if maxval != 255:
        raise ImageFormatError("only 8-bit PNM supported")
    need = w * h * nch
    body = data[pos : pos + need]
    if len(body) != need:
        raise ImageFormatError("PNM pixel data truncated")
    arr = np.frombuffer(body, dtype=np.uint8)
    return arr.reshape(h, w) if nch == 1 else arr.reshape(h, w, 3)
