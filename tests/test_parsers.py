"""Properties shared by every text-input parser: a parser returns only finite
values, or raises a ValueError subclass whose message starts `line N: `.
The columnar YOLO reader accepts and rejects what the row reader
`yolo_rows` does, with the same values, and the CLI reports its failures
with the row reader's errors."""

import dataclasses
import io
import itertools
import math
import random
import re
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deteval import cli
from deteval.annotations import (
    AnnotationError,
    BoundingBox,
    ClassLabel,
    ClassRegistry,
    RegistryError,
    format_yolo_rows,
    read_csv,
    read_yolo,
    split_lines,
    yolo_rows,
)
from deteval.desirability import load_candidates_csv
from deteval.metrics import load_height_records

REGISTRY = ClassRegistry([ClassLabel(0, "wb"), ClassLabel(1, "bb")])

# name: (parse(text), its field separator and number of fields, the header
# row of its CSV format or "", the error types it may raise)
PARSERS = {
    "annotation": (lambda text: yolo_rows(text, 5, REGISTRY), " ", 5, "", (AnnotationError, RegistryError)),
    "annotation, no registry": (lambda text: yolo_rows(text, 5), " ", 5, "", (AnnotationError,)),
    "prediction": (lambda text: yolo_rows(text, 6, REGISTRY), " ", 6, "", (AnnotationError, RegistryError)),
    "registry": (ClassRegistry.from_text, " ", 2, "", (RegistryError,)),
    "height records": (load_height_records, ",", 4, "image_id,stratum,placed,detected", (ValueError,)),
    "candidates": (load_candidates_csv, ",", 3, "label,response,value", (ValueError,)),
    "observations": (
        lambda text: read_csv(text, 2, cli._observation_row), ",", 2, "group,observation", (ValueError,)
    ),
    "image sizes": (
        lambda text: read_csv(text, 3, cli._image_size_row),
        ",", 3, "image_id,width_px,height_px", (ValueError,),
    ),
}

# the breaks of `str.splitlines` that text mode does not end a line at
NOT_LINE_ENDS = ["\f", "\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

# the parsers above that `read_yolo` replaces for many files: fields per row
# and a file that parses
COLUMNAR = {"annotation": (5, b"0 0.5 0.5 0.1 0.1\n"), "prediction": (6, b"0 0.5 0.5 0.1 0.1 0.5\n")}


def read_yolo_columns(files, n_fields):
    """`read_yolo` of `files` as (labels, values as float hex, offsets);
    otherwise the ValueError it raises."""
    columns = read_yolo(files, n_fields, REGISTRY)
    values = tuple(tuple(map(float.hex, row)) for row in columns.values.tolist())
    return tuple(columns.labels.tolist()), values, tuple(columns.offsets.tolist())

fields = st.one_of(
    st.integers(-3, 2000).map(str),
    st.integers(0, 1_000_000).map(lambda k: f"{k / 1e6:.6f}"),
    st.floats().map(repr),
    st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "1e999", "-0.0"]),
    st.sampled_from(["", " ", "top", "middle", "bottom", "wb", "bb", "map50", "m1", "x", '"a,b"']),
    st.sampled_from(NOT_LINE_ENDS),
)
# each row: up to 7 fields, how many of them it has (None: as many as the
# parser reads) and its separator (None: the parser's own)
rows = st.lists(
    st.tuples(
        st.lists(fields, min_size=7, max_size=7),
        st.one_of(st.none(), st.integers(0, 7)),
        st.sampled_from([None, None, None, " ", ",", "\t", " , ", *NOT_LINE_ENDS]),
    ),
    max_size=6,
)


def text_mode_lines(text):
    """The lines of `text` as a file opened in text mode yields them, without their ends."""
    return [line.removesuffix("\n") for line in io.StringIO(text, newline=None)]


def floats_in(value):
    if isinstance(value, float):
        yield value
    elif isinstance(value, ClassRegistry):
        yield from floats_in(value.labels)
    elif dataclasses.is_dataclass(value):
        yield from floats_in(dataclasses.astuple(value))
    elif isinstance(value, dict):
        yield from floats_in(list(value.items()))
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from floats_in(item)


def _row(*values):
    """One row of `rows` whose class id 0 is followed by `values`."""
    return ["0", *values, ""][:7], None, None


@given(rows, st.sampled_from(["\n", "\r\n", "\r"]))
@settings(max_examples=400, deadline=None)
# the edges of `read_yolo`'s range check: no rows, NaN, the infinities, -0.0,
# exact 0 and 1 and values just past them, and a zero width or height
@example([], "\n")
@example([_row("-1e-9", "0.5", "0.1", "0.1", "0.5")], "\n")
@example([_row("0.5", "0.5", "0.1", "0.1", "1.0000001")], "\n")
@example([_row("nan", "0.5", "0.1", "0.1", "0.5")], "\n")
@example([_row("0.5", "0.5", "0.1", "0.1", "nan")], "\n")
@example([_row("0.5", "inf", "0.1", "0.1", "0.5")], "\n")
@example([_row("0.5", "0.5", "0.1", "0.1", "-inf")], "\n")
@example([_row("-0.0", "0.5", "0.1", "0.1", "-0.0")], "\n")
@example([_row("0", "1", "1", "1", "0"), _row("1", "0", "0.5", "0.5", "1")], "\n")
@example([_row("0.5", "0.5", "0", "0.1", "0.5")], "\n")
@example([_row("0.5", "0.5", "0.1", "0", "0.5")], "\n")
# numbers that `int` and `float` read but numpy's reader does not
@example([_row("0.1_0", "0.5", "0.1", "0.1", "0.5")], "\n")
@example([(["1_0", "0.5", "0.5", "0.1", "0.1", "0.5", ""], None, None)], "\n")
@example([_row("0.5", "\u0660.\u0665", "0.1", "0.1", "0.5")], "\n")
@example([(["\u0661", "0.5", "0.5", "0.1", "0.1", "0.5", ""], None, None)], "\n")
# class ids that older numpy cuts to an integer with only a warning
@example([(["1.5", "0.5", "0.5", "0.1", "0.1", "0.5", ""], None, None)], "\n")
@example([(["0.9", "0.5", "0.5", "0.1", "0.1", "0.5", ""], None, None)], "\n")
# lines of whitespace only, and CR and CRLF line ends
@example([_row("0.5", "0.5", "0.1", "0.1", "0.5"), *((list(space * 7), 1, None) for space in "\x1c\x85\u2003"),
          _row("0.25", "0.5", "0.1", "0.1", "0.5")], "\n")
@example([_row("0.5", "0.5", "0.1", "0.1", "0.5"), _row("0.25", "0.5", "0.1", "0.1", "0.5")], "\r")
@example([_row("0.5", "0.5", "0.1", "0.1", "0.5"), _row("0.25", "0.5", "0.1", "0.1", "0.5")], "\r\n")
def test_every_parser_returns_finite_values_or_names_the_line(body, newline):
    for name, (parse, separator, n_fields, header, errors) in PARSERS.items():
        text = newline.join(
            (sep or separator).join(cells[: n_fields if width is None else width])
            for cells, width, sep in body
        )
        for text in {text, header + newline + text}:
            try:
                result = parse(text)
            except ValueError as exc:
                match = re.match(r"line ([1-9][0-9]*): ", str(exc))
                assert match, (name, text, str(exc))
                assert int(match.group(1)) <= max(1, len(text_mode_lines(text))), (name, text, str(exc))
                assert isinstance(exc, errors), (name, text, type(exc))
                if name in COLUMNAR:
                    # the columnar reader only refuses; the CLI names the
                    # second of a good and a bad file as the row reader does
                    n_fields, good = COLUMNAR[name]
                    with pytest.raises(ValueError):
                        read_yolo_columns([good, text.encode()], n_fields)
                    bad_side = (Path("dir"), {"a": good, "b": text.encode()}, n_fields)
                    empty_side = (Path("other"), {}, 11 - n_fields)
                    sides = (bad_side, empty_side) if n_fields == 5 else (empty_side, bad_side)
                    with pytest.raises(cli.CliError) as columnar:
                        cli._evaluation_columns(REGISTRY, ["a", "b"], *sides)
                    assert str(columnar.value) == f"{Path('dir') / 'b.txt'}: {exc}", (name, text)
                    assert type(columnar.value.__cause__) is type(exc), (name, text)
            else:
                assert all(math.isfinite(v) for v in floats_in(result)), (name, text)
                if name in COLUMNAR:
                    labels, values, offsets = read_yolo_columns([b"", text.encode(), b""], COLUMNAR[name][0])
                    assert offsets == (0, 0, len(result), len(result))
                    assert labels == tuple(REGISTRY.ids().index(row[0]) for row in result)
                    assert values == tuple(tuple(map(float.hex, row[1:])) for row in result), (name, text)


coords = st.integers(0, 1_000_000).map(lambda k: k / 1e6)
sizes = st.integers(1, 1_000_000).map(lambda k: k / 1e6)
boxes = st.builds(BoundingBox, cx=coords, cy=coords, w=sizes, h=sizes)


@given(
    st.lists(st.tuples(st.integers(0, 1), boxes, coords), max_size=8),
    st.lists(st.sampled_from(["", "   ", "\t"]), max_size=8),
)
@settings(max_examples=100)
def test_yolo_round_trip_with_registry_and_blank_lines(items, blanks):
    # 6-decimal values round-trip exactly; blank lines anywhere are skipped
    for n_fields in (5, 6):
        values = [(label, box.cx, box.cy, box.w, box.h, conf)[:n_fields] for label, box, conf in items]
        rows = format_yolo_rows(values).splitlines()
        for k, blank in enumerate(blanks):
            rows.insert(k * 2 % (len(rows) + 1), blank)
        assert yolo_rows("\n".join(rows), n_fields, REGISTRY) == values


@given(st.text(st.sampled_from(["a", " ", ",", "\n", "\r", *NOT_LINE_ENDS])))
def test_lines_end_where_text_mode_ends_them(text):
    assert split_lines(text) == text_mode_lines(text)


@pytest.mark.parametrize("separator", NOT_LINE_ENDS)
def test_only_text_mode_line_ends_count_as_lines(separator):
    with pytest.raises(AnnotationError, match="^line 2: expected 5 fields, got 4$"):
        yolo_rows(f"0 0.5 0.5 0.2 0.2{separator}\n0 0.5 0.5 0.2\n", 5)
    row = separator.join(["0", "0.5", "0.5", "0.2", "0.2"])
    assert yolo_rows(row, 5) == [(0, 0.5, 0.5, 0.2, 0.2)]
    assert ClassRegistry.from_text(f"0 wb{separator}\n1 bb\n").labels == REGISTRY.labels


BOM = "\ufeff".encode()

# a file that each parser above reads
FILES = {
    "annotation": b"0 0.5 0.5 0.2 0.2\n1 0.25 0.75 0.1 0.3\n",
    "annotation, no registry": b"7 0.5 0.5 0.2 0.2\n0 0.25 0.75 0.1 0.3\n",
    "prediction": b"1 0.5 0.5 0.2 0.2 0.9\n0 0.25 0.75 0.1 0.3 0.5\n",
    "registry": b"0 wb\n1 bb\n",
    "height records": b"image_id,stratum,placed,detected\nimg01,top,8,5\n",
    "candidates": b"label,response,value\nm1,map50,0.8\n",
    "observations": b"group,observation\ntop,62.5\n",
    "image sizes": b"image_id,width_px,height_px\nfield01,1600,1300\n",
}


@pytest.mark.parametrize("name", PARSERS)
def test_a_byte_order_mark_is_not_part_of_the_text(name):
    def read(data):
        result = cli._parse_file(PARSERS[name][0], Path("f.txt"), data)
        return result.labels if isinstance(result, ClassRegistry) else result

    assert read(BOM + FILES[name]) == read(FILES[name])


@pytest.mark.parametrize("name", COLUMNAR)
def test_read_yolo_reads_past_a_byte_order_mark(name):
    n_fields, good = COLUMNAR[name]
    with_bom = read_yolo([BOM + good, good], n_fields, REGISTRY)
    without = read_yolo([good, good], n_fields, REGISTRY)
    assert [a.tolist() for a in dataclasses.astuple(with_bom)] == [a.tolist() for a in dataclasses.astuple(without)]


@given(st.lists(st.lists(st.tuples(st.integers(0, 1), boxes, coords), max_size=6), max_size=12))
@settings(max_examples=100, deadline=None)
def test_read_yolo_columns_follow_the_files(images):
    # images without boxes are empty files, which own no rows
    for n_fields in (5, 6):
        files = [
            "".join(f"{label} {' '.join(map(repr, [*dataclasses.astuple(box), conf][: n_fields - 1]))}\n"
                    for label, box, conf in rows).encode()
            for rows in images
        ]
        labels, _, offsets = read_yolo_columns(files, n_fields)
        assert offsets == tuple(itertools.accumulate(map(len, images), initial=0))
        assert labels == tuple(label for rows in images for label, _, _ in rows)


def test_read_yolo_reads_the_fixtures_between_empty_files(fixtures_dir):
    for directory, n_fields in (("detection/truth", 5), ("detection/preds", 6), ("tiling", 5)):
        # an empty file before and after each one
        files = [b""] + [part for path in sorted((fixtures_dir / directory).glob("*.txt"))
                         for part in (path.read_bytes(), b"")]
        assert read_yolo_columns(files, n_fields)


ROW = "0 0.5 0.5 0.1 0.1 0.5"

# prediction files that `read_yolo` reads as `yolo_rows` reads each one
READER_CASES = {
    "CR": [f"{ROW}\r{ROW}\r".encode()],
    "CRLF": [f"{ROW}\r\n{ROW}\r\n".encode()],
    "last line without a line end": [f"{ROW}\n{ROW}".encode(), f"{ROW}\r{ROW}".encode(), ROW.encode()],
    "whitespace-only lines": [f"\x1c\n{ROW}\n\x85\n\u2003\n{ROW}\n \t\n".encode(), "\u2003".encode()],
    "all files empty": [b"", b"", b""],
    "all files blank": [b"\n", b"\r\n\r", " \x85".encode()],
}


@pytest.mark.parametrize("files", READER_CASES.values(), ids=READER_CASES)
def test_read_yolo_reads_each_file_as_yolo_rows_does(files):
    rows = [yolo_rows(data.decode(), 6, REGISTRY) for data in files]
    labels, values, offsets = read_yolo_columns(files, 6)
    assert offsets == tuple(itertools.accumulate(map(len, rows), initial=0))
    assert labels == tuple(REGISTRY.ids().index(row[0]) for file in rows for row in file)
    assert values == tuple(tuple(map(float.hex, row[1:])) for file in rows for row in file)


def test_the_largest_class_id_reads_and_one_past_it_is_refused():
    largest = ClassRegistry.from_text(f"{2**63 - 1} x\n")
    assert read_yolo([f"{2**63 - 1} 0.5 0.5 0.1 0.1\n".encode()], 5, largest).labels.tolist() == [0]
    with pytest.raises(ValueError):
        read_yolo([f"{2**63} 0.5 0.5 0.1 0.1\n".encode()], 5, largest)
    with pytest.raises(AnnotationError, match=f"^line 1: class id must be below 2\\*\\*63: {2**63}$"):
        yolo_rows(f"{2**63} 0.5 0.5 0.1 0.1\n", 5, largest)


def test_rows_under_an_empty_registry_are_refused():
    empty = ClassRegistry(())
    assert read_yolo([b"", b"\n"], 5, empty).offsets.tolist() == [0, 0, 0]
    with pytest.raises(RegistryError):
        read_yolo([b"", b"0 0.5 0.5 0.1 0.1\n"], 5, empty)
    with pytest.raises(cli.CliError) as info:
        cli._evaluation_columns(empty, ["a", "b"], (Path("t"), {"b": b"\n0 0.5 0.5 0.1 0.1\n"}, 5), (Path("p"), {}, 6))
    assert str(info.value) == f"{Path('t') / 'b.txt'}: line 2: unknown class id 0"


def test_read_yolo_memory_grows_with_the_columns_not_the_text():
    rng = random.Random(5)
    # prediction files of ten 6-decimal rows, as a detector writes them
    files = [
        "".join(f"{rng.randrange(2)} {' '.join(f'{rng.uniform(0.1, 0.9):.6f}' for _ in range(5))}\n"
                for _ in range(10)).encode()
        for _ in range(2000)
    ]
    read_yolo(files[:1], 6, REGISTRY)  # numpy is imported outside the traced calls

    sizes = []  # (traced peak, bytes of the returned columns) of reading 500 and 2,000 files
    for count in (500, 2000):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            columns = read_yolo(files[:count], 6, REGISTRY)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        sizes.append((peak, sum(array.nbytes for array in dataclasses.astuple(columns))))
    (small_peak, small_bytes), (large_peak, large_bytes) = sizes
    assert large_peak - small_peak < 2 * (large_bytes - small_bytes), sizes
    # One file's tokens are small beside the columns, so a reader that held
    # the columns twice at any point (per-file arrays and their
    # concatenation) would grow beyond them by as much as they grow.
    assert (large_peak - large_bytes) - (small_peak - small_bytes) < (large_bytes - small_bytes) / 2, sizes
