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
    format_yolo_annotation,
    format_yolo_prediction,
    giou,
    iou,
    parse_yolo_annotation,
    parse_yolo_prediction,
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
        objs = parse_yolo_annotation("0 0.5 0.5 0.1 0.2", registry)
        assert len(objs) == 1
        assert objs[0].label == 0
        assert objs[0].box == BoundingBox(0.5, 0.5, 0.1, 0.2)

    def test_empty_file(self, registry):
        assert parse_yolo_annotation("", registry) == []
        assert parse_yolo_annotation("\n\n", registry) == []

    def test_out_of_range_width(self, registry):
        with pytest.raises(AnnotationError, match="line 1"):
            parse_yolo_annotation("0 0.5 0.5 1.2 0.2", registry)

    def test_zero_area_rejected(self, registry):
        with pytest.raises(AnnotationError):
            parse_yolo_annotation("0 0.5 0.5 0.0 0.2", registry)

    def test_wrong_field_count(self, registry):
        with pytest.raises(AnnotationError, match="expected 5 fields"):
            parse_yolo_annotation("0 0.5 0.5 0.1", registry)

    def test_non_numeric(self, registry):
        with pytest.raises(AnnotationError, match="not a number"):
            parse_yolo_annotation("0 0.5 x 0.1 0.2", registry)

    def test_line_number_in_error(self, registry):
        with pytest.raises(AnnotationError, match="line 2"):
            parse_yolo_annotation("0 0.5 0.5 0.1 0.2\n0 0.5 0.5 0.1 1.5", registry)

    def test_unknown_class(self, registry):
        with pytest.raises(RegistryError, match="unknown class id 7"):
            parse_yolo_annotation("7 0.5 0.5 0.1 0.2", registry)

    def test_prediction_line(self, registry):
        dets = parse_yolo_prediction("1 0.3 0.3 0.2 0.2 0.91", registry)
        assert dets[0].label == 1
        assert dets[0].confidence == 0.91

    def test_prediction_confidence_range(self, registry):
        with pytest.raises(AnnotationError, match="confidence"):
            parse_yolo_prediction("1 0.3 0.3 0.2 0.2 1.5", registry)

    def test_prediction_order_preserved(self, registry):
        text = "1 0.3 0.3 0.2 0.2 0.91\n0 0.6 0.6 0.1 0.1 0.40\n"
        dets = parse_yolo_prediction(text, registry)
        assert [d.label for d in dets] == [1, 0]
        assert [d.confidence for d in dets] == [0.91, 0.40]

    @given(st.lists(st.tuples(st.integers(0, 1), boxes), max_size=8))
    @settings(max_examples=50)
    def test_round_trip_preserves_values(self, items):
        # 6-decimal serialization round-trips exactly for 6-decimal inputs
        from deteval.annotations import GroundTruthObject

        objs = [GroundTruthObject(label, box) for label, box in items]
        assert parse_yolo_annotation(format_yolo_annotation(objs)) == objs

    @given(boxes, st.integers(0, 1_000_000).map(lambda k: k / 1e6))
    @settings(max_examples=50)
    def test_prediction_round_trip(self, box, conf):
        from deteval.annotations import Detection

        dets = [Detection(1, box, conf)]
        assert parse_yolo_prediction(format_yolo_prediction(dets)) == dets


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
