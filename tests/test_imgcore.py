"""Raster type, codecs, color conversion, and tiling."""

import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bandgauge import datagen
from bandgauge.cli import main
from bandgauge.imgcore import (
    BLOCK_PIXELS,
    PNG_MAX_PIXELS,
    ImageFormatError,
    PatchGrid,
    PlanarImage,
    _png_decode,
    load_image,
    rgb_to_ycbcr420,
    save_image,
    tile,
    to_luma,
    ycbcr420_to_rgb,
)
from conftest import extract, gray_image, luma_reference, rgb_image


# --- PlanarImage invariants -------------------------------------------------


def test_plane_shape_enforced():
    with pytest.raises(ValueError):
        PlanarImage(4, 4, 1, (np.zeros((4, 5), dtype=np.uint8),))


def test_float_range_enforced():
    with pytest.raises(ValueError):
        PlanarImage.from_array(np.full((4, 4), 1.5, dtype=np.float32))
    arr = np.full((4, 4), 0.5)
    arr[1, 2] = np.nan
    with pytest.raises(ValueError, match="must lie in"):
        PlanarImage.from_array(arr)


def test_zero_dimension_rejected():
    with pytest.raises(ValueError):
        PlanarImage(0, 4, 1, (np.zeros((4, 0), dtype=np.uint8),))


def test_planes_are_immutable():
    img = gray_image(7)
    with pytest.raises(ValueError):
        img.planes[0][0, 0] = 1


# --- file round trips --------------------------------------------------------


def test_constant_pgm_roundtrip(tmp_path):
    img = gray_image(128, w=4, h=4)
    path = tmp_path / "c.pgm"
    save_image(img, path)
    back = load_image(path)
    assert back.width == 4 and back.height == 4 and back.channels == 1
    assert (back.planes[0] == 128).all()


@pytest.mark.parametrize("ext", ["png", "pgm"])
def test_gray_roundtrip_bit_exact(tmp_path, ext, rng):
    arr = rng.integers(0, 256, size=(21, 33), dtype=np.uint8)
    img = PlanarImage.from_array(arr)
    path = tmp_path / f"g.{ext}"
    save_image(img, path)
    assert (load_image(path).planes[0] == arr).all()


@pytest.mark.parametrize("ext", ["png", "ppm"])
def test_rgb_roundtrip_bit_exact(tmp_path, ext, rng):
    arr = rng.integers(0, 256, size=(17, 9, 3), dtype=np.uint8)
    img = PlanarImage.from_array(arr)
    path = tmp_path / f"c.{ext}"
    save_image(img, path)
    assert (load_image(path).to_array() == arr).all()


def test_radial_ramp_png_matches_buffer(tmp_path):
    spec = datagen.SynthSpec("radial_ramp", size=64, bit_depth=8, seed=3)
    img = datagen.gen_base(spec)
    path = tmp_path / "radial.png"
    save_image(img, path)
    back = load_image(path)
    assert (back.planes[0] == img.planes[0]).all()
    assert int(back.planes[0].min()) == 0
    assert int(back.planes[0].max()) == 255


def _png_chunk(tag, body):
    crc = zlib.crc32(tag + body) & 0xFFFFFFFF
    return struct.pack(">I", len(body)) + tag + body + struct.pack(">I", crc)


def _filter_row(ftype, row, prev, nch):
    """Reference PNG filter (encoder side), implemented independently."""
    out = bytearray()
    for i, cur in enumerate(row):
        left = row[i - nch] if i >= nch else 0
        above = prev[i]
        upleft = prev[i - nch] if i >= nch else 0
        if ftype == 0:
            out.append(cur)
        elif ftype == 1:
            out.append((cur - left) & 0xFF)
        elif ftype == 2:
            out.append((cur - above) & 0xFF)
        elif ftype == 3:
            out.append((cur - ((left + above) >> 1)) & 0xFF)
        else:
            p = left + above - upleft
            pa, pb, pc = abs(p - left), abs(p - above), abs(p - upleft)
            pred = left if pa <= pb and pa <= pc else (above if pb <= pc else upleft)
            out.append((cur - pred) & 0xFF)
    return bytes(out)


def _encode_png(pixels, ftypes, idat_chunks=1):
    """PNG of 8-bit gray (h, w) or RGB (h, w, 3) pixels, row r filtered ftypes[r]."""
    h, w = pixels.shape[:2]
    nch = 1 if pixels.ndim == 2 else 3
    rows = pixels.reshape(h, w * nch)
    raw = bytearray()
    prev = bytes(w * nch)
    for r in range(h):
        row = rows[r].tobytes()
        raw.append(ftypes[r])
        raw += _filter_row(ftypes[r], row, prev, nch)
        prev = row
    return _png_blob(w, h, 0 if nch == 1 else 2, zlib.compress(bytes(raw)), idat_chunks)


def _png_blob(w, h, color_type, stream, idat_chunks=1, ihdr=None):
    if ihdr is None:
        ihdr = struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 0)
    step = -(-len(stream) // idat_chunks)
    return (
        b"\x89PNG\r\n\x1a\n"
        + _png_chunk(b"IHDR", ihdr)
        + b"".join(
            _png_chunk(b"IDAT", stream[i : i + step])
            for i in range(0, len(stream), step)
        )
        + _png_chunk(b"IEND", b"")
    )


@pytest.mark.parametrize("nch", [1, 3])
def test_png_all_filter_types_decode(nch, rng):
    h, w = 7, 5
    pixels = rng.integers(0, 256, size=(h, w * nch), dtype=np.uint8)
    want = pixels.reshape(h, w) if nch == 1 else pixels.reshape(h, w, 3)
    blob = _encode_png(want, [r % 5 for r in range(h)])
    assert (_png_decode(blob) == want).all()


@st.composite
def _png_cases(draw):
    """(pixels, row filter types): gray or RGB, any size from 1x1 up.

    Pixels are coarsened by a drawn shift so that the Paeth distances tie
    often, which is where a predictor's tie-breaking order shows.
    """
    h = draw(st.integers(1, 24))
    w = draw(st.integers(1, 24))
    nch = draw(st.sampled_from([1, 3]))
    data = draw(st.binary(min_size=h * w * nch, max_size=h * w * nch))
    shift = draw(st.integers(0, 7))
    pixels = (np.frombuffer(data, dtype=np.uint8) >> shift) << shift
    pixels = pixels.astype(np.uint8).reshape((h, w) if nch == 1 else (h, w, 3))
    ftypes = draw(st.lists(st.integers(0, 4), min_size=h, max_size=h))
    return pixels, ftypes


_RAMP = np.arange(0, 240, 16, dtype=np.uint8)


@given(_png_cases())
@example((_RAMP.reshape(-1, 1), [3] * 15))  # 1 pixel wide
@example((_RAMP.reshape(1, -1), [4]))  # 1 row, Paeth against a zero row
@example((np.stack([_RAMP.reshape(3, 5)] * 3, axis=-1), [2, 4, 3]))
@example((np.full((1, 1), 255, dtype=np.uint8), [3]))
@settings(max_examples=150, deadline=None)
def test_png_filter_round_trip(case):
    pixels, ftypes = case
    got = _png_decode(_encode_png(pixels, ftypes, idat_chunks=1 + len(ftypes) % 3))
    assert got.shape == pixels.shape
    assert (got == pixels).all()


def _fuzz_source():
    pixels = np.random.default_rng(5).integers(0, 256, size=(6, 5, 3), dtype=np.uint8)
    return pixels, _encode_png(pixels, [0, 1, 2, 3, 4, 4], idat_chunks=2)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_png_truncated_anywhere_raises_format_error(data):
    _, blob = _fuzz_source()
    cut = data.draw(st.integers(0, len(blob) - 1))
    with pytest.raises(ImageFormatError):
        _png_decode(blob[:cut])


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_png_bit_flip_raises_only_format_error(data):
    pixels, blob = _fuzz_source()
    bit = data.draw(st.integers(0, 8 * len(blob) - 1))
    flipped = bytearray(blob)
    flipped[bit // 8] ^= 1 << (bit % 8)
    try:
        got = _png_decode(bytes(flipped))
    except ImageFormatError:
        return
    # Only the signature is outside every CRC, and load_image checks it.
    assert bit // 8 < 8
    assert (got == pixels).all()


@pytest.mark.parametrize("cut", [1, 2, 3, 4])
def test_png_cut_final_crc_raises_format_error(tmp_path, cut):
    path = tmp_path / "cut.png"
    path.write_bytes(_fuzz_source()[1][:-cut])
    with pytest.raises(ImageFormatError, match="CRC"):
        load_image(path)
    assert main(["detect", str(path), "--out", str(tmp_path / "map.png")]) == 1


def test_png_ihdr_body_not_13_bytes_rejected():
    ihdr = struct.pack(">IIBBBB", 4, 4, 8, 0, 0, 0)
    blob = _png_blob(4, 4, 0, zlib.compress(bytes(20)), ihdr=ihdr)
    with pytest.raises(ImageFormatError, match="IHDR"):
        _png_decode(blob)


def test_png_unknown_filter_type_rejected_before_unfiltering():
    w, h = 4, 3
    raw = b"".join(bytes([f]) + bytes(w) for f in (4, 3, 5))
    with pytest.raises(ImageFormatError, match="filter type 5 in row 2"):
        _png_decode(_png_blob(w, h, 0, zlib.compress(raw)))


def test_png_pixel_cap_checked_before_inflating():
    side = int(PNG_MAX_PIXELS**0.5)
    blob = _png_blob(side + 1, side, 0, b"not a zlib stream")
    with pytest.raises(ImageFormatError, match="pixels"):
        _png_decode(blob)
    # At the cap, the header passes and the stream is inflated (and fails).
    with pytest.raises(ImageFormatError, match="corrupt"):
        _png_decode(_png_blob(side, side, 0, b"not a zlib stream"))


def test_png_overlong_stream_rejected_without_inflating_it():
    # 4x4 gray needs 20 bytes; the stream holds 8 MiB of zeros.
    blob = _png_blob(4, 4, 0, zlib.compress(bytes(8 << 20), 9))
    tracemalloc.start()
    try:
        with pytest.raises(ImageFormatError, match="longer"):
            _png_decode(blob)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (1 << 20)


def test_png_short_or_unterminated_stream_rejected():
    raw = bytes(5) * 4
    with pytest.raises(ImageFormatError, match="wrong length"):
        _png_decode(_png_blob(4, 4, 0, zlib.compress(raw[:-1])))
    # All 20 bytes present but the stream's end (and checksum) cut off.
    with pytest.raises(ImageFormatError, match="truncated"):
        _png_decode(_png_blob(4, 4, 0, zlib.compress(raw)[:-4]))


def test_png_header_out_of_place_rejected():
    ihdr = _png_chunk(b"IHDR", struct.pack(">IIBBBBB", 2, 2, 8, 0, 0, 0, 0))
    idat = _png_chunk(b"IDAT", zlib.compress(bytes(6)))
    iend = _png_chunk(b"IEND", b"")
    for chunks in (idat + ihdr, ihdr + ihdr + idat, iend):
        with pytest.raises(ImageFormatError, match="IHDR"):
            _png_decode(b"\x89PNG\r\n\x1a\n" + chunks + iend)


def test_png_without_iend_rejected():
    blob = _encode_png(np.zeros((2, 2), dtype=np.uint8), [0, 0])
    with pytest.raises(ImageFormatError, match="IEND"):
        _png_decode(blob[:-12])


def test_load_errors(tmp_path):
    with pytest.raises(ImageFormatError):
        load_image(tmp_path / "missing.png")
    junk = tmp_path / "junk.png"
    junk.write_bytes(b"this is not an image at all")
    with pytest.raises(ImageFormatError):
        load_image(junk)
    zero = tmp_path / "zero.pgm"
    zero.write_bytes(b"P5\n0 0\n255\n")
    with pytest.raises(ImageFormatError):
        load_image(zero)
    img = gray_image(4, w=6, h=6)
    good = tmp_path / "good.png"
    save_image(img, good)
    truncated = tmp_path / "trunc.png"
    truncated.write_bytes(good.read_bytes()[:-7])
    with pytest.raises(ImageFormatError):
        load_image(truncated)


# --- luma --------------------------------------------------------------------


def test_luma_white_red_gray():
    assert float(to_luma(rgb_image(255, 255, 255))[0, 0]) == pytest.approx(1.0)
    assert float(to_luma(rgb_image(255, 0, 0))[0, 0]) == pytest.approx(
        0.299, abs=1e-7
    )
    for g in range(0, 256, 17):
        got = float(to_luma(rgb_image(g, g, g))[0, 0])
        assert got == pytest.approx(g / 255.0, abs=1e-6)


def test_luma_linearity_on_floats(rng):
    base = rng.random((12, 12), dtype=np.float64).astype(np.float32)
    for a in (0.25, 0.5, 0.9):
        img = PlanarImage.from_array(base)
        scaled = PlanarImage.from_array((a * base).astype(np.float32))
        lhs = to_luma(scaled)
        rhs = a * to_luma(img)
        assert np.abs(lhs - rhs).max() < 1e-6


@st.composite
def luma_images(draw):
    """Gray or RGB, uint8 or float32; 1-row and 1-column images, heights of
    several row blocks, and widths past BLOCK_PIXELS (one row per block)."""
    wide = draw(st.booleans())
    w = draw(st.integers(BLOCK_PIXELS + 1, BLOCK_PIXELS + 9) if wide else st.integers(1, 400))
    h = draw(st.integers(1, 3) if wide else st.integers(1, 700))
    nch = draw(st.sampled_from([1, 3]))
    shape = (h, w) if nch == 1 else (h, w, 3)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arr = rng.integers(0, 256, shape, dtype=np.uint8)
    if draw(st.booleans()):
        arr = (arr / 255.0).astype(np.float32)
    return PlanarImage.from_array(arr)


@settings(max_examples=60, deadline=None)
@given(luma_images())
@example(rgb_image(255, 255, 255, w=1, h=1))
@example(PlanarImage.from_array(np.full((BLOCK_PIXELS // 300 * 3 + 7, 300), 1.0, np.float32)))
def test_blocked_luma_is_the_formula_bitwise(img):
    plane = to_luma(img)
    assert type(plane) is np.ndarray and plane.shape == (img.height, img.width)
    assert plane.dtype == np.float32 and not plane.flags.writeable
    assert plane.tobytes() == luma_reference(img).tobytes()


# --- YCbCr 4:2:0 ---------------------------------------------------------------


def test_gray_has_neutral_chroma():
    for g in (0, 64, 128, 255):
        y, cb, cr = rgb_to_ycbcr420(rgb_image(g, g, g, w=8, h=8))
        assert (y.planes[0] == g).all()
        assert (cb.planes[0] == 128).all()
        assert (cr.planes[0] == 128).all()


def test_constant_color_roundtrip_within_one():
    for color in [(200, 30, 90), (12, 250, 3), (77, 77, 200)]:
        img = rgb_image(*color, w=8, h=8)
        back = ycbcr420_to_rgb(*rgb_to_ycbcr420(img))
        for c in range(3):
            diff = back.planes[c].astype(int) - img.planes[c].astype(int)
            assert np.abs(diff).max() <= 1


def test_luma_only_variation_keeps_chroma_flat(rng):
    vals = rng.integers(0, 256, size=(8, 8), dtype=np.uint8)
    arr = np.stack([vals, vals, vals], axis=-1)
    _, cb, cr = rgb_to_ycbcr420(PlanarImage.from_array(arr))
    assert (cb.planes[0] == 128).all()
    assert (cr.planes[0] == 128).all()


def test_roundtrip_error_bounded(rng):
    # Chroma constant per 2x2 subsampling block (what 4:2:0 can represent),
    # luma free: every channel must come back within 3 gray levels.
    for _ in range(10):
        base = rng.integers(20, 230, size=(8, 8), dtype=np.int32)
        chroma = np.repeat(
            np.repeat(rng.integers(-18, 19, size=(4, 4, 2)), 2, axis=0), 2, axis=1
        )
        arr = np.stack(
            [base + chroma[:, :, 0], base, base + chroma[:, :, 1]], axis=-1
        )
        arr = np.clip(arr, 0, 255).astype(np.uint8)
        img = PlanarImage.from_array(arr)
        back = ycbcr420_to_rgb(*rgb_to_ycbcr420(img))
        for c in range(3):
            diff = back.planes[c].astype(int) - img.planes[c].astype(int)
            assert np.abs(diff).max() <= 3


def test_odd_dimensions_rejected():
    with pytest.raises(ValueError):
        rgb_to_ycbcr420(rgb_image(1, 2, 3, w=7, h=8))


# --- tiling --------------------------------------------------------------------


def test_tile_full_hd_grid():
    img = gray_image(0, w=1920, h=1080)
    grid = tile(img, 235)
    assert grid.cols == 8 and grid.rows == 4
    assert len(grid) == 32


def test_tile_single_patch():
    grid = tile(gray_image(0, w=235, h=235), 235)
    assert len(grid) == 1 and grid.origin(0) == (0, 0)


def test_tile_exact_cover():
    grid = tile(gray_image(0, w=64, h=64), 32)
    assert len(grid) == 4
    covered = np.zeros((64, 64), dtype=int)
    for k in range(len(grid)):
        x, y = grid.origin(k)
        covered[y : y + 32, x : x + 32] += 1
    assert (covered == 1).all()


def test_tile_errors():
    with pytest.raises(ValueError):
        tile(gray_image(0, w=16, h=16), 32)
    with pytest.raises(ValueError):
        tile(gray_image(0, w=16, h=16), 4)


def test_tile_disjoint_in_bounds_random_sizes(rng):
    for _ in range(25):
        w = int(rng.integers(17, 200))
        h = int(rng.integers(17, 200))
        n = int(rng.integers(8, min(w, h) + 1))
        grid = tile(gray_image(0, w=w, h=h), n)
        assert len(grid) == grid.cols * grid.rows == (w // n) * (h // n)
        covered = np.zeros((h, w), dtype=int)
        for k in range(len(grid)):
            x, y = grid.origin(k)
            assert type(x) is int and type(y) is int
            covered[y : y + n, x : x + n] += 1
        # Every pixel of the grid's (rows * n, cols * n) corner once, and
        # the right and bottom remainders never.
        want = np.zeros((h, w), dtype=int)
        want[: grid.rows * n, : grid.cols * n] = 1
        assert (covered == want).all()
        assert grid.origin(-1) == grid.origin(len(grid) - 1)
        with pytest.raises(IndexError):
            grid.origin(len(grid))


@pytest.mark.parametrize(
    "cols, rows, width, height",
    [(3, 1, 95, 32), (1, 3, 32, 95), (4, 4, 127, 128), (0, 1, 10, 31)],
)
def test_patch_grid_that_leaves_the_image_rejected(cols, rows, width, height):
    with pytest.raises(ValueError, match="leave the image"):
        PatchGrid(32, cols, rows, width, height)
    PatchGrid(32, cols, rows, 32 * cols, 32 * rows)  # the grid's own size fits


@st.composite
def grids_and_block_sizes(draw):
    """(plane, grid, size): grids with remainders, 1 x k and k x 1 included,
    and block sizes from 1 to one past the patch count."""
    n = draw(st.integers(8, 20))
    cols, rows = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    w = cols * n + draw(st.integers(0, n - 1))
    h = rows * n + draw(st.integers(0, n - 1))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    plane = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random((h, w)).astype(dtype)
    grid = tile(PlanarImage.from_array(plane), n)
    return plane, grid, draw(st.integers(1, len(grid) + 1))


@settings(max_examples=150, deadline=None)
@given(grids_and_block_sizes())
def test_blocks_stream_the_grid_in_raster_order(case):
    plane, grid, size = case
    k = 0
    for start, block in grid.blocks(plane, size):
        assert start == k
        assert block.dtype == np.float64 and block.flags.c_contiguous
        # Runs of `size` tiles may cross grid rows; only the last is shorter.
        assert len(block) == min(size, len(grid) - start)
        for tile_values in block:
            assert np.array_equal(tile_values, extract(grid, plane, k))
            k += 1
    assert k == len(grid)


def test_blocks_reject_an_empty_run():
    plane = np.zeros((16, 16), np.float32)
    with pytest.raises(ValueError, match="block size"):
        next(tile(PlanarImage.from_array(plane), 8).blocks(plane, 0))
