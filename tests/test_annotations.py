import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deteval.annotations import (
    AnnotationError,
    BoundingBox,
    ClassLabel,
    ClassRegistry,
    RegistryError,
    format_yolo_rows,
    giou,
    iou,
    yolo_rows,
)

# Coordinates drawn on the 6-decimal grid: the domain the text format produces.
coords = st.integers(0, 1_000_000).map(lambda k: k / 1e6)
sizes = st.integers(1, 1_000_000).map(lambda k: k / 1e6)
boxes = st.builds(BoundingBox, cx=coords, cy=coords, w=sizes, h=sizes)


@pytest.fixture
def registry() -> ClassRegistry:
    return ClassRegistry([ClassLabel(0, "wb"), ClassLabel(1, "bb")])


class TestParsing:
    def test_single_line(self, registry):
        objs = yolo_rows("0 0.5 0.5 0.1 0.2", 5, registry)
        assert len(objs) == 1
        assert objs[0][0] == 0
        assert objs == [(0, 0.5, 0.5, 0.1, 0.2)]

    def test_empty_file(self, registry):
        assert yolo_rows("", 5, registry) == []
        assert yolo_rows("\n\n", 5, registry) == []

    def test_out_of_range_width(self, registry):
        with pytest.raises(AnnotationError, match="line 1"):
            yolo_rows("0 0.5 0.5 1.2 0.2", 5, registry)

    def test_zero_area_rejected(self, registry):
        with pytest.raises(AnnotationError):
            yolo_rows("0 0.5 0.5 0.0 0.2", 5, registry)

    def test_wrong_field_count(self, registry):
        with pytest.raises(AnnotationError, match="expected 5 fields"):
            yolo_rows("0 0.5 0.5 0.1", 5, registry)

    def test_non_numeric(self, registry):
        with pytest.raises(AnnotationError, match="not a number"):
            yolo_rows("0 0.5 x 0.1 0.2", 5, registry)

    def test_line_number_in_error(self, registry):
        with pytest.raises(AnnotationError, match="line 2"):
            yolo_rows("0 0.5 0.5 0.1 0.2\n0 0.5 0.5 0.1 1.5", 5, registry)

    def test_unknown_class(self, registry):
        with pytest.raises(RegistryError, match="unknown class id 7"):
            yolo_rows("7 0.5 0.5 0.1 0.2", 5, registry)

    def test_prediction_line(self, registry):
        dets = yolo_rows("1 0.3 0.3 0.2 0.2 0.91", 6, registry)
        assert dets[0][0] == 1
        assert dets[0][5] == 0.91

    def test_prediction_confidence_range(self, registry):
        with pytest.raises(AnnotationError, match="confidence"):
            yolo_rows("1 0.3 0.3 0.2 0.2 1.5", 6, registry)

    def test_prediction_order_preserved(self, registry):
        text = "1 0.3 0.3 0.2 0.2 0.91\n0 0.6 0.6 0.1 0.1 0.40\n"
        dets = yolo_rows(text, 6, registry)
        assert [d[0] for d in dets] == [1, 0]
        assert [d[5] for d in dets] == [0.91, 0.40]

    @given(st.lists(st.tuples(st.integers(0, 1), boxes), max_size=8))
    @settings(max_examples=50)
    def test_round_trip_preserves_values(self, items):
        # 6-decimal serialization round-trips exactly for 6-decimal inputs
        rows = [(label, box.cx, box.cy, box.w, box.h) for label, box in items]
        assert yolo_rows(format_yolo_rows(rows), 5) == rows

    @given(boxes, st.integers(0, 1_000_000).map(lambda k: k / 1e6))
    @settings(max_examples=50)
    def test_prediction_round_trip(self, box, conf):
        rows = [(1, box.cx, box.cy, box.w, box.h, conf)]
        assert yolo_rows(format_yolo_rows(rows), 6) == rows


class TestRows:
    def test_rows_are_tuples_of_the_class_id_and_the_values(self, registry):
        text = "1 0.3 0.3 0.2 0.2 0.91\n\n0 0.6 0.6 0.1 0.1 0.40\n"
        assert yolo_rows(text, 6, registry) == [(1, 0.3, 0.3, 0.2, 0.2, 0.91), (0, 0.6, 0.6, 0.1, 0.1, 0.4)]
        assert yolo_rows("0 0.5 0.5 0.1 0.2", 5) == [(0, 0.5, 0.5, 0.1, 0.2)]

    @pytest.mark.parametrize("line, error, message", [
        ("x 2 -1 0 0 7", AnnotationError, "class id is not an integer: 'x'"),
        ("7 2 -1 0 0 x", RegistryError, "unknown class id 7"),
        ("-1 2 -1 0 0 x", AnnotationError, "class id must be non-negative: -1"),
        ("0 0.5 x 0 0 x", AnnotationError, "not a number: 'x'"),
        ("0 2 -1 0 0 x", AnnotationError, r"box center out of \[0,1\]: \(2.0, -1.0\)"),
        ("0 0.5 0.5 0 2 x", AnnotationError, r"box size out of \(0,1\]: \(0.0, 2.0\)"),
        ("0 0.5 0.5 0.1 0.1 x", AnnotationError, "not a number: 'x'"),
        ("0 0.5 0.5 0.1 0.1 2", AnnotationError, r"confidence out of \[0,1\]: 2.0"),
        # numbers are ASCII, without the `_` and other digits `int` and `float` take
        ("0 0.1_0 0.5 0.1 0.1 x", AnnotationError, "not a number: '0.1_0'"),
        ("1_0 0.5 0.5 0.1 0.1 x", AnnotationError, "class id is not an integer: '1_0'"),
        ("0 0.5 0.5 0.1 0.1 \u0660.\u0665", AnnotationError, "not a number: '\u0660.\u0665'"),
        ("\u0661 0.5 0.5 0.1 0.1 x", AnnotationError, "class id is not an integer: '\u0661'"),
        # and class ids are integers, not numbers that equal or round to one
        ("1.0 0.5 0.5 0.1 0.1 x", AnnotationError, "class id is not an integer: '1.0'"),
        ("1.5 0.5 0.5 0.1 0.1 x", AnnotationError, "class id is not an integer: '1.5'"),
        ("1e0 0.5 0.5 0.1 0.1 x", AnnotationError, "class id is not an integer: '1e0'"),
    ])
    def test_checks_run_in_field_order(self, registry, line, error, message):
        with pytest.raises(error, match=f"^line 2: {message}$"):
            yolo_rows(f"1 0.5 0.5 0.1 0.1 0.5\n{line}\n", 6, registry)

    def test_negative_class_id_is_refused_without_a_registry(self):
        with pytest.raises(AnnotationError, match="^line 1: class id must be non-negative: -1$"):
            yolo_rows("-1 0.25 0.25 0.1 0.1\n", 5)

    def test_every_value_after_the_class_id_is_written_with_6_decimals(self):
        rows = [(1, 0.3, 1 / 3, 0.2, 1e-7, 0.91), (0, 0.5, 0.5, 1.0, 0.1)]
        assert format_yolo_rows(rows) == (
            "1 0.300000 0.333333 0.200000 0.000000 0.910000\n0 0.500000 0.500000 1.000000 0.100000\n"
        )
        assert format_yolo_rows([]) == ""


class TestRegistry:
    def test_from_text(self):
        reg = ClassRegistry.from_text("0 wb\n1 bb\n")
        assert reg.name_of(0) == "wb"
        assert reg.id_of("bb") == 1
        assert reg.ids() == (0, 1)
        assert 2 not in reg

    def test_duplicate_id(self):
        with pytest.raises(RegistryError, match="duplicate class ids"):
            ClassRegistry([ClassLabel(0, "a"), ClassLabel(0, "b")])

    def test_duplicate_name(self):
        with pytest.raises(RegistryError, match="duplicate class names"):
            ClassRegistry([ClassLabel(0, "a"), ClassLabel(1, "a")])

    def test_bad_line(self):
        with pytest.raises(RegistryError, match="line 1"):
            ClassRegistry.from_text("zero wb\n")

    @pytest.mark.parametrize(
        "text, problem",
        [
            ("0 wb\n-1 bb\n", "line 2: class id must be non-negative: -1"),
            ("0 wb\n9223372036854775808 bb\n", "line 2: class id must be below 2**63: 9223372036854775808"),
            ("0 wb\n\n0 bb\n", "line 3: duplicate class ids: 0"),
            ("0 wb\n1 wb\n", "line 2: duplicate class names: 'wb'"),
            ("0 wb extra\n", "line 1: expected 2 fields, got 3"),
        ],
    )
    def test_error_names_line(self, text, problem):
        with pytest.raises(RegistryError) as info:
            ClassRegistry.from_text(text)
        assert str(info.value).startswith(problem)


class TestIoU:
    def test_identical_boxes(self):
        b = BoundingBox(0.4, 0.6, 0.2, 0.3)
        assert iou(b, b) == 1.0

    def test_disjoint_boxes(self):
        a = BoundingBox(0.2, 0.2, 0.2, 0.2)
        b = BoundingBox(0.8, 0.8, 0.2, 0.2)
        assert iou(a, b) == 0.0

    def test_corner_boxes_one_seventh(self):
        # (0,0)-(2,2) and (1,1)-(3,3) in a 4x4 pixel frame:
        # intersection 1, union 4 + 4 - 1 = 7.
        a = BoundingBox(0.25, 0.25, 0.5, 0.5)
        b = BoundingBox(0.5, 0.5, 0.5, 0.5)
        assert abs(iou(a, b) - 1.0 / 7.0) <= 1e-12

    @given(boxes, boxes)
    @settings(max_examples=200)
    def test_symmetric_and_bounded(self, a, b):
        v = iou(a, b)
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0
        g = giou(a, b)
        assert g == giou(b, a)
        assert -1.0 < g <= 1.0
        assert g <= v + 1e-15

    def test_pixel_rasterization_oracle(self):
        rng = np.random.default_rng(20240811)
        grid = 48
        for _ in range(200):
            x1, y1 = rng.integers(0, grid - 1, size=2)
            x2 = rng.integers(x1 + 1, grid)
            y2 = rng.integers(y1 + 1, grid)
            u1, v1 = rng.integers(0, grid - 1, size=2)
            u2 = rng.integers(u1 + 1, grid)
            v2 = rng.integers(v1 + 1, grid)
            a = BoundingBox.from_corners(x1 / grid, y1 / grid, x2 / grid, y2 / grid)
            b = BoundingBox.from_corners(u1 / grid, v1 / grid, u2 / grid, v2 / grid)
            mask_a = np.zeros((grid, grid), dtype=bool)
            mask_b = np.zeros((grid, grid), dtype=bool)
            mask_a[y1:y2, x1:x2] = True
            mask_b[v1:v2, u1:u2] = True
            union_px = np.count_nonzero(mask_a | mask_b)
            oracle = np.count_nonzero(mask_a & mask_b) / union_px
            assert abs(iou(a, b) - oracle) <= 2.0 / union_px


class TestGIoU:
    def test_identical_boxes(self):
        b = BoundingBox(0.3, 0.3, 0.4, 0.4)
        assert giou(b, b) == 1.0

    def test_separated_boxes_minus_one_third(self):
        # (0,0)-(1,1) and (2,0)-(3,1): union 2, enclosing box 3.
        a = BoundingBox(1.0 / 6.0, 0.5, 1.0 / 3.0, 1.0)
        b = BoundingBox(5.0 / 6.0, 0.5, 1.0 / 3.0, 1.0)
        assert abs(giou(a, b) - (-1.0 / 3.0)) <= 1e-12

    def test_nested_boxes_equal_iou(self):
        outer = BoundingBox(0.5, 0.5, 1.0, 1.0)
        inner = BoundingBox(0.5, 0.5, 0.5, 0.5)
        assert abs(giou(outer, inner) - 0.25) <= 1e-12
        assert giou(outer, inner) == iou(outer, inner)

    @given(boxes, boxes)
    @settings(max_examples=200)
    def test_equals_iou_iff_enclosure_covered(self, a, b):
        iw = max(0.0, min(a.x2, b.x2) - max(a.x1, b.x1))
        ih = max(0.0, min(a.y2, b.y2) - max(a.y1, b.y1))
        union = a.area + b.area - iw * ih
        c_area = (max(a.x2, b.x2) - min(a.x1, b.x1)) * (max(a.y2, b.y2) - min(a.y1, b.y1))
        if c_area <= union + 1e-15:
            assert abs(giou(a, b) - iou(a, b)) <= 1e-12
        else:
            assert giou(a, b) < iou(a, b)


def test_bounding_box_invariants():
    with pytest.raises(ValueError):
        BoundingBox(-0.1, 0.5, 0.2, 0.2)
    with pytest.raises(ValueError):
        BoundingBox(0.5, 0.5, 0.0, 0.2)
    with pytest.raises(ValueError):
        BoundingBox(0.5, 0.5, 0.2, 1.2)


@pytest.mark.parametrize("lookup, key, message", [
    ("name_of", 7, "unknown class id: 7"),
    ("id_of", "gb", "unknown class name: 'gb'"),
], ids=["name_of", "id_of"])
def test_registry_lookup_of_an_unknown_class_is_refused(lookup, key, message):
    registry = ClassRegistry([ClassLabel(0, "wb"), ClassLabel(1, "bb")])
    with pytest.raises(RegistryError) as info:
        getattr(registry, lookup)(key)
    assert str(info.value) == message


@pytest.mark.parametrize("make, message", [
    (lambda: ClassLabel(1.5, "x"), "class id must be an integer: 1.5"),
    (lambda: ClassLabel(True, "x"), "class id must be an integer: True"),
    (lambda: ClassRegistry([ClassLabel(0, "a"), ClassLabel(True, "b")]), "class id must be an integer: True"),
    (lambda: BoundingBox.from_corners(0.5, 0.5, 0.4, 0.6), "degenerate corners: (0.5, 0.5, 0.4, 0.6)"),
], ids=["fraction-class-id", "bool-class-id", "registry-of-a-bool-class-id", "degenerate-corners"])
def test_refusals(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message
