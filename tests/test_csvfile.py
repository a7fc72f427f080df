"""The shared CSV layer: round trips of every table, errors, and the guard
that keeps every reader and writer of the package on it."""

import pathlib
import re
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bandgauge.csvfile import read_keyed, read_rows, write_rows
from bandgauge.datagen import ManifestError, ManifestRow, read_manifest, write_manifest
from bandgauge.imgcore import Label
from bandgauge.subjective import RatingSet, read_ratings_csv, write_mos_csv

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "bandgauge"

# Ids from all of Unicode (no lone surrogates, which UTF-8 cannot hold), with
# the characters CSV has to quote drawn often.
ids = st.text(
    st.sampled_from(',"\n\r éÿ€\U0001f600\ufeff') | st.characters(blacklist_categories=("Cs",)),
    max_size=12,
)
finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


def roundtrip(write, read):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "table.csv"
        write(path)
        return read(path)


# --- round trips through the shared writer and the matching reader ------------------


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(ids, ids, st.floats(0.0, 100.0)), min_size=1, max_size=8))
@example([("café.png", "r1", 50.0), ('a,"b"\nc', "r\r2", 0.0), ("café.png", "", 100.0)])
def test_ratings_roundtrip(rows):
    header = ("image_id", "rater_id", "score")
    fields = [(i, r, repr(s)) for i, r, s in rows]
    got = roundtrip(lambda p: write_rows(p, header, fields), read_ratings_csv)
    want = {}
    for image_id, _, score in rows:
        want.setdefault(image_id, []).append(score)
    assert got == [RatingSet(i, tuple(s)) for i, s in want.items()]


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(ids, st.tuples(finite, st.integers(0, 99), st.integers(0, 99)), max_size=8))
def test_mos_roundtrip_as_eval_reads_it(table):
    results = [(i, v, k, r) for i, (v, k, r) in table.items()]
    got = roundtrip(lambda p: write_mos_csv(results, p), lambda p: read_keyed(p, ("mos",)))
    assert got == {i: float(f"{v:.10g}") for i, v, _, _ in results}


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.builds(
            ManifestRow,
            ids,
            st.integers(0, 4096),
            st.integers(0, 4096),
            st.integers(8, 512),
            st.sampled_from(Label),
            st.sampled_from(("train", "val", "test")),
        ),
        max_size=8,
    )
)
def test_manifest_roundtrip(rows):
    got = roundtrip(lambda p: write_manifest(rows, p), read_manifest)
    assert got == rows


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(ids, st.tuples(finite, st.integers(0, 99)), max_size=8))
def test_score_csv_roundtrip_as_eval_reads_it(table):
    header = ("path", "q", "banded_patch_count", "total_patches")
    rows = [(i, f"{q:.10g}", k, 99) for i, (q, k) in table.items()]
    got = roundtrip(lambda p: write_rows(p, header, rows), lambda p: read_keyed(p, ("score", "q")))
    assert got == {i: float(q) for i, q, _, _ in rows}


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 500), finite, finite, st.floats(0.0, 1.0)), max_size=8))
def test_training_report_roundtrip(history):
    header = ("epoch", "train_loss", "val_loss", "val_acc")
    rows = [(e, f"{a:.8g}", f"{b:.8g}", f"{c:.8g}") for e, a, b, c in history]
    got = roundtrip(lambda p: write_rows(p, header, rows), lambda p: list(read_rows(p, header)))
    assert [row for _, row in got] == [[str(f) for f in r] for r in rows]


# --- format and errors ----------------------------------------------------------------


def test_written_tables_use_lf_and_utf8(tmp_path):
    path = tmp_path / "mos.csv"
    write_mos_csv([("café.png", 50.0, 4, 1)], path)
    assert path.read_bytes() == "image_id,mos,n_kept,n_removed\ncafé.png,50,4,1\n".encode()


def test_line_numbers_count_physical_lines(tmp_path):
    # A quoted id spanning two lines: the next record starts on line 4.
    path = tmp_path / "r.csv"
    path.write_text('image_id,rater_id,score\n"a\nb",r1,1\nc,r2,x\n', encoding="utf-8")
    with pytest.raises(ValueError, match=r"r\.csv:4: bad score 'x'"):
        read_ratings_csv(path)


@pytest.mark.parametrize(
    "content, message",
    [
        (b"", ":1: empty file"),
        (b"image_id,rater\n", ":1: expected header image_id,rater_id,score"),
        (b"image_id,rater_id,score\na,r1,1\nb,r2\n", ":3: expected 3 fields, got 2"),
        (b"image_id,rater_id,score\na,r1,1\n\n", ":3: expected 3 fields, got 0"),
        (b"image_id,rater_id,score\na,r1,1\ncaf\xe9,r2,3\n", ":3: not UTF-8 text"),
    ],
)
def test_errors_name_path_and_line(tmp_path, content, message):
    path = tmp_path / "r.csv"
    path.write_bytes(content)
    with pytest.raises(ValueError, match=re.escape(f"{path}{message}")):
        read_ratings_csv(path)


def test_manifest_errors_stay_manifest_errors(tmp_path):
    path = tmp_path / "m.csv"
    path.write_bytes(b"image_path,patch_x,patch_y,N,label,split\na.png,0,0\n")
    with pytest.raises(ManifestError, match=":2: expected 6 fields, got 3"):
        read_manifest(path)


def test_keyed_reader_errors(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("image_id,other\na,1\n")
    with pytest.raises(ValueError, match=":1: need an id column"):
        read_keyed(path, ("score",))
    path.write_text("image_id,score\na,1\nb,zz\n")
    with pytest.raises(ValueError, match=":3: could not convert"):
        read_keyed(path, ("score",))


# --- one CSV layer --------------------------------------------------------------------


def test_csv_module_is_the_only_csv_layer():
    # Every table goes through bandgauge.csvfile: no other module imports
    # csv, and no file is opened as ASCII.
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        if path.name != "csvfile.py":
            assert not re.search(r"^\s*(import|from)\s+csv\b", text, re.M), path.name
        assert not re.search(r"""encoding\s*=\s*["']ascii["']""", text), path.name
