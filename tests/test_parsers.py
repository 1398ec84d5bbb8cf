"""Properties shared by every text-input parser: a parser returns only finite
values, or raises a ValueError subclass whose message starts `line N: `.
The columnar YOLO reader accepts and rejects what the scalar YOLO parsers
do, with the same values and the same errors."""

import dataclasses
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deteval import cli
from deteval.annotations import (
    AnnotationError,
    BoundingBox,
    ClassLabel,
    ClassRegistry,
    Detection,
    GroundTruthObject,
    RegistryError,
    format_yolo_annotation,
    format_yolo_prediction,
    parse_yolo_annotation,
    parse_yolo_prediction,
    read_csv,
    read_yolo,
)
from deteval.desirability import load_candidates_csv
from deteval.metrics import load_height_records

REGISTRY = ClassRegistry([ClassLabel(0, "wb"), ClassLabel(1, "bb")])

# name: (parse(text), its field separator and number of fields, the header
# row of its CSV format or "", the error types it may raise)
PARSERS = {
    "annotation": (
        lambda text: parse_yolo_annotation(text, REGISTRY), " ", 5, "", (AnnotationError, RegistryError)
    ),
    "annotation, no registry": (parse_yolo_annotation, " ", 5, "", (AnnotationError,)),
    "prediction": (
        lambda text: parse_yolo_prediction(text, REGISTRY), " ", 6, "", (AnnotationError, RegistryError)
    ),
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

# the parsers above that `read_yolo` replaces for many files: fields per row
# and a file that parses
COLUMNAR = {"annotation": (5, b"0 0.5 0.5 0.1 0.1\n"), "prediction": (6, b"0 0.5 0.5 0.1 0.1 0.5\n")}

fields = st.one_of(
    st.integers(-3, 2000).map(str),
    st.integers(0, 1_000_000).map(lambda k: f"{k / 1e6:.6f}"),
    st.floats().map(repr),
    st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "1e999", "-0.0"]),
    st.sampled_from(["", " ", "top", "middle", "bottom", "wb", "bb", "map50", "m1", "x", '"a,b"']),
)
# each row: up to 7 fields, how many of them it has (None: as many as the
# parser reads) and its separator (None: the parser's own)
rows = st.lists(
    st.tuples(
        st.lists(fields, min_size=7, max_size=7),
        st.one_of(st.none(), st.integers(0, 7)),
        st.sampled_from([None, None, None, " ", ",", "\t", " , "]),
    ),
    max_size=6,
)


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


@given(rows, st.sampled_from(["\n", "\r\n", "\r"]))
@settings(max_examples=400, deadline=None)
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
                assert int(match.group(1)) <= max(1, len(text.splitlines())), (name, text, str(exc))
                assert isinstance(exc, errors), (name, text, type(exc))
                if name in COLUMNAR:
                    # a good file before the bad one: the error names the second
                    n_fields, good = COLUMNAR[name]
                    with pytest.raises(ValueError) as columnar:
                        read_yolo([good, text.encode()], n_fields, REGISTRY)
                    assert (type(columnar.value), str(columnar.value)) == (type(exc), str(exc)), (name, text)
                    assert columnar.value.file_index == 1
            else:
                assert all(math.isfinite(v) for v in floats_in(result)), (name, text)
                if name in COLUMNAR:
                    columns = read_yolo([b"", text.encode(), b""], COLUMNAR[name][0], REGISTRY)
                    assert columns.offsets.tolist() == [0, 0, len(result), len(result)]
                    assert columns.labels.tolist() == [REGISTRY.ids().index(o.label) for o in result]
                    assert [list(map(float.hex, row)) for row in columns.values.tolist()] == [
                        list(map(float.hex, dataclasses.astuple(o.box) + dataclasses.astuple(o)[2:]))
                        for o in result
                    ], (name, text)


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
    objects = [GroundTruthObject(label, box) for label, box, _ in items]
    detections = [Detection(label, box, conf) for label, box, conf in items]
    for parse, format_, values in (
        (parse_yolo_annotation, format_yolo_annotation, objects),
        (parse_yolo_prediction, format_yolo_prediction, detections),
    ):
        rows = format_(values).splitlines()
        for k, blank in enumerate(blanks):
            rows.insert(k * 2 % (len(rows) + 1), blank)
        assert parse("\n".join(rows), REGISTRY) == values
