import dataclasses
import random
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deteval import prep
from deteval.annotations import BoundingBox
from deteval.prep import (
    MAX_TILES_PER_IMAGE,
    AugmentOp,
    AugmentPipeline,
    SplitRatio,
    TileSpec,
    apportion,
    plan_tiles,
    sample_ids,
    split_dataset,
)


class Labelled(NamedTuple):
    """A ground-truth box as the scalar references below read it: its class and its geometry."""

    label: int
    box: BoundingBox


@dataclasses.dataclass(frozen=True)
class AnnotatedImage:
    """An image's id, pixel size and ground-truth objects: what the scalar
    references below read and make."""

    image_id: str
    width_px: int
    height_px: int
    objects: tuple


def _image(objects, image_id="img", w=1600, h=1300):
    return AnnotatedImage(image_id, w, h, tuple(objects))


def _rows(image):
    return [(o.label, o.box.cx, o.box.cy, o.box.w, o.box.h) for o in image.objects]


def _objects(rows):
    return tuple(Labelled(label, BoundingBox(*box)) for label, *box in rows)


def _retile(image, tiles, spec):
    """`prep.retile_annotations` on the rows of `image`, as images named as `cmd_tile` names tiles."""
    tiled = prep.retile_annotations(_rows(image), image.width_px, image.height_px, tiles, spec)
    return [AnnotatedImage(f"{image.image_id}_{index:03d}", tile.w, tile.h, _objects(rows))
            for index, (tile, rows) in enumerate(zip(tiles, tiled))]


def _augment(image, pipeline, sample_count):
    """`prep.augment` on the rows of `image`, each sample as a copy of `image` with the sample's objects."""
    return [dataclasses.replace(image, objects=_objects(rows))
            for rows in prep.augment(_rows(image), pipeline, sample_count)]


def _reference_written(lo, hi, clipped_lo, clipped_hi):
    """The (centre, size) the references write along one axis of the unit
    frame, given the box's corners and its clipped ones: a side that sticks
    out of [0, 1] by at most one written unit (1e-6, and a margin of 1e-12
    for reading it back) stays unclipped when the row as written, to 6
    decimals, has a size of at most 1 and both sides within one unit of
    [0, 1]; the centre and size are then kept in [0, 1]. Otherwise the
    clipped corners are written."""
    unit = 1e-6 + 1e-12
    kept_lo = lo if -unit <= lo < 0.0 else clipped_lo
    kept_hi = hi if 1.0 < hi <= 1.0 + unit else clipped_hi
    centre, size = float(f"{(kept_lo + kept_hi) / 2.0:.6f}"), float(f"{kept_hi - kept_lo:.6f}")
    unclipped = (kept_lo, kept_hi) != (clipped_lo, clipped_hi)
    if unclipped and size <= 1.0 and -unit <= centre - size / 2.0 and centre + size / 2.0 <= 1.0 + unit:
        return min(max((kept_lo + kept_hi) / 2.0, 0.0), 1.0), min(kept_hi - kept_lo, 1.0)
    return (clipped_lo + clipped_hi) / 2.0, clipped_hi - clipped_lo


def _unwritable(w, h):
    """Whether a w x h box would be written with a side of 0.000000."""
    return "0.000000" in (f"{w:.6f}", f"{h:.6f}")


def _reference_retile(image, tiles, spec):
    """Scalar reference for `retile_annotations`: the clip written out inline,
    reading each box's corners once per tile."""
    out = []
    width = float(image.width_px)
    height = float(image.height_px)
    for index, tile in enumerate(tiles):
        tx1, ty1 = float(tile.x0), float(tile.y0)
        tx2, ty2 = tx1 + tile.w, ty1 + tile.h
        kept = []
        for obj in image.objects:
            bx1 = obj.box.x1 * width
            by1 = obj.box.y1 * height
            bx2 = obj.box.x2 * width
            by2 = obj.box.y2 * height
            ix1, iy1 = max(bx1, tx1), max(by1, ty1)
            ix2, iy2 = min(bx2, tx2), min(by2, ty2)
            if ix2 <= ix1 or iy2 <= iy1:
                continue
            visibility = ((ix2 - ix1) * (iy2 - iy1)) / ((bx2 - bx1) * (by2 - by1))
            if visibility < spec.min_visibility:
                continue
            cx, w = _reference_written((bx1 - tx1) / tile.w, (bx2 - tx1) / tile.w,
                                       (ix1 - tx1) / tile.w, (ix2 - tx1) / tile.w)
            cy, h = _reference_written((by1 - ty1) / tile.h, (by2 - ty1) / tile.h,
                                       (iy1 - ty1) / tile.h, (iy2 - ty1) / tile.h)
            if not _unwritable(w, h):
                kept.append(Labelled(obj.label, BoundingBox(cx, cy, w, h)))
        out.append(AnnotatedImage(f"{image.image_id}_{index:03d}", tile.w, tile.h, tuple(kept)))
    return out


def _reference_clip_unit(lab, x1, y1, x2, y2, min_visibility):
    """Scalar reference for the clip to the unit square that zoom and
    arbitrary-angle rotation use."""
    cx1, cy1 = max(x1, 0.0), max(y1, 0.0)
    cx2, cy2 = min(x2, 1.0), min(y2, 1.0)
    if cx2 <= cx1 or cy2 <= cy1:
        return None
    visibility = ((cx2 - cx1) * (cy2 - cy1)) / ((x2 - x1) * (y2 - y1))
    if visibility < min_visibility or visibility <= 0.0:
        return None
    (cx, w), (cy, h) = _reference_written(x1, x2, cx1, cx2), _reference_written(y1, y2, cy1, cy2)
    return None if _unwritable(w, h) else (lab, cx, cy, w, h)


def _reference_clip(lab, x1, y1, x2, y2, window, min_visibility):
    assert window == (0.0, 0.0, 1.0, 1.0)
    return _reference_clip_unit(lab, x1, y1, x2, y2, min_visibility)


def _bits(objects):
    """Objects as labels and the exact bits of each coordinate (-0.0 is not 0.0)."""
    return [(o.label, *map(float.hex, (o.box.cx, o.box.cy, o.box.w, o.box.h))) for o in objects]


def _expected(reference, image, n_outputs):
    """The objects of each of `n_outputs` images that `reference(image)` makes,
    one object at a time, without an object whose area underflows to 0.0,
    which the toolkit drops and the reference divides by."""
    kept = [[] for _ in range(n_outputs)]
    for obj in image.objects:
        try:
            outputs = reference(dataclasses.replace(image, objects=(obj,)))
        except ZeroDivisionError:
            continue
        for objects, output in zip(kept, outputs):
            objects += output.objects
    return [_bits(objects) for objects in kept]


class TestPlanTiles:
    def test_exact_grid(self):
        tiles = plan_tiles(832, 832, TileSpec(416, 416))
        assert len(tiles) == 4
        assert {(t.x0, t.y0) for t in tiles} == {(0, 0), (416, 0), (0, 416), (416, 416)}

    def test_anchor_to_edge_1600x1300(self):
        tiles = plan_tiles(1600, 1300, TileSpec(416, 416))
        assert len(tiles) == 16
        assert max(t.x0 for t in tiles) == 1184
        assert max(t.y0 for t in tiles) == 884
        # full coverage at pixel granularity
        mask = np.zeros((1300, 1600), dtype=bool)
        for t in tiles:
            mask[t.y0 : t.y0 + t.h, t.x0 : t.x0 + t.w] = True
        assert mask.all()

    def test_single_tile_identity(self):
        tiles = plan_tiles(416, 416, TileSpec(416, 416))
        assert tiles == [plan_tiles(416, 416, TileSpec(416, 416))[0]]
        assert (tiles[0].x0, tiles[0].y0) == (0, 0)

    def test_image_smaller_than_tile(self):
        with pytest.raises(ValueError, match="smaller than tile"):
            plan_tiles(400, 500, TileSpec(416, 416))

    def test_tile_count_is_capped(self):
        spec = TileSpec(416, 416)
        assert len(plan_tiles(256 * 416, 256 * 416, spec)) == MAX_TILES_PER_IMAGE
        # 257 x 256 tiles, and a side of 400 nines, which `math.ceil` of a float quotient overflows on
        for width, height in ((257 * 416, 256 * 416), (1600, int("9" * 400))):
            with pytest.raises(ValueError, match=f"^image needs more than {MAX_TILES_PER_IMAGE} tiles of 416x416$"):
                plan_tiles(width, height, spec)

    def test_side_is_bounded_where_pixel_coordinates_stay_exact(self):
        assert len(plan_tiles(2**53, 1300, TileSpec(2**53, 416))) == 4
        for side in (2**53 + 1, int("9" * 400)):
            for image, spec in (((side, 1300), TileSpec(side, 416)), ((1300, side), TileSpec(416, side))):
                with pytest.raises(ValueError, match=r"^image or tile side above 2\*\*53: "):
                    plan_tiles(*image, spec)

    def test_pad_policy_grid_positions(self):
        tiles = plan_tiles(500, 500, TileSpec(416, 416, edge_policy="pad"))
        assert {(t.x0, t.y0) for t in tiles} == {(0, 0), (416, 0), (0, 416), (416, 416)}

    @given(
        st.integers(1, 7), st.integers(1, 7),
        st.integers(8, 90), st.integers(8, 90),
    )
    @settings(max_examples=60)
    def test_coverage_property(self, tw, th, img_w, img_h):
        tiles = plan_tiles(img_w, img_h, TileSpec(tw, th))
        mask = np.zeros((img_h, img_w), dtype=bool)
        for t in tiles:
            mask[t.y0 : t.y0 + t.h, t.x0 : t.x0 + t.w] = True
        assert mask.all()


class TestRetile:
    def test_box_inside_one_tile_keeps_pixel_geometry(self):
        # 160x130-pixel box centered at (208, 208): entirely in tile (0, 0)
        box = BoundingBox(0.13, 0.16, 0.1, 0.1)
        image = _image([Labelled(0, box)])
        spec = TileSpec(416, 416)
        tiles = plan_tiles(1600, 1300, spec)
        tiled = _retile(image, tiles, spec)
        populated = [t for t in tiled if t.objects]
        assert len(populated) == 1
        out = populated[0].objects[0].box
        assert out.x1 * 416 == pytest.approx(box.x1 * 1600, abs=1e-9)
        assert out.x2 * 416 == pytest.approx(box.x2 * 1600, abs=1e-9)
        assert out.y1 * 416 == pytest.approx(box.y1 * 1300, abs=1e-9)
        assert out.y2 * 416 == pytest.approx(box.y2 * 1300, abs=1e-9)

    def test_straddling_box_kept_only_above_visibility(self):
        # box spans x 272..464 (pixels): 75% in the first column, 25% in the
        # second; with min_visibility 0.5 only the 75% side keeps it
        box = BoundingBox(0.23, 0.1, 0.12, 0.1)
        image = _image([Labelled(0, box)])
        spec = TileSpec(416, 416, min_visibility=0.5)
        tiles = plan_tiles(1600, 1300, spec)
        tiled = _retile(image, tiles, spec)
        populated = [(t, timg) for t, timg in zip(tiles, tiled) if timg.objects]
        assert len(populated) == 1
        assert populated[0][0].x0 == 0

    def test_bag_free_tiles_discardable(self):
        box = BoundingBox(0.13, 0.16, 0.1, 0.1)
        image = _image([Labelled(0, box)])
        spec = TileSpec(416, 416)
        tiled = _retile(image, plan_tiles(1600, 1300, spec), spec)
        empty = [t for t in tiled if not t.objects]
        assert len(empty) == 15  # all but the tile holding the box

    def test_zero_visibility_keeps_every_intersecting_tile(self):
        # box straddles the interior corner at (416, 416)
        box = BoundingBox.from_corners(380 / 1600, 380 / 1300, 450 / 1600, 450 / 1300)
        image = _image([Labelled(0, box)])
        keep_all = TileSpec(416, 416, min_visibility=0.0)
        strict = TileSpec(416, 416, min_visibility=1.0)
        tiles = plan_tiles(1600, 1300, keep_all)
        kept_all = sum(len(t.objects) for t in _retile(image, tiles, keep_all))
        kept_strict = sum(len(t.objects) for t in _retile(image, tiles, strict))
        assert kept_all == 4
        assert kept_all >= kept_strict
        assert kept_strict == 0


def _pipeline(*ops, seed=7, min_visibility=0.3):
    return AugmentPipeline(operations=tuple(ops), rng_seed=seed, min_visibility=min_visibility)


class TestAugment:
    def test_identity_pipeline(self):
        image = _image([Labelled(0, BoundingBox(0.3, 0.4, 0.1, 0.2))])
        pipeline = _pipeline(
            AugmentOp("rotate", 0.0),
            AugmentOp("flip_left_right", 0.0),
            AugmentOp("zoom_random", 0.0, percentage_area=0.8),
        )
        for variant in _augment(image, pipeline, 5):
            assert variant == image

    def test_flip_twice_restores(self):
        # two flips restore 0.25, as 1.0 - (1.0 - 0.25) is 0.25, but would not restore 0.1: 1.0 - (1.0 - 0.1)
        # is 0.09999999999999998
        image = _image([Labelled(0, BoundingBox(0.25, 0.5, 0.125, 0.25))])
        pipeline = _pipeline(AugmentOp("flip_left_right", 1.0), AugmentOp("flip_left_right", 1.0))
        for variant in _augment(image, pipeline, 3):
            assert variant.objects == image.objects

    def test_rotate_90_about_center(self):
        image = _image([Labelled(0, BoundingBox(0.25, 0.5, 0.1, 0.2))])
        pipeline = _pipeline(AugmentOp("rotate", 1.0, angles=(90.0,)))
        variant = _augment(image, pipeline, 1)[0]
        assert variant.objects[0].box == BoundingBox(0.5, 0.25, 0.2, 0.1)

    def test_rotate_envelope_arbitrary_angle(self):
        # 45-degree rotation of a centered square: envelope side = diagonal
        image = _image([Labelled(0, BoundingBox(0.5, 0.5, 0.2, 0.2))])
        pipeline = _pipeline(AugmentOp("rotate", 1.0, angles=(45.0,)))
        box = _augment(image, pipeline, 1)[0].objects[0].box
        assert box.cx == pytest.approx(0.5)
        assert box.w == pytest.approx(0.2 * 2**0.5)

    def test_zoom_centered_crop(self):
        image = _image([Labelled(0, BoundingBox(0.5, 0.5, 0.2, 0.2))])
        pipeline = _pipeline(AugmentOp("zoom_random", 1.0, percentage_area=0.25))
        box = _augment(image, pipeline, 1)[0].objects[0].box
        assert (box.cx, box.cy) == (0.5, 0.5)
        assert box.w == pytest.approx(0.4)
        assert box.h == pytest.approx(0.4)

    def test_zoom_drops_low_visibility_boxes(self):
        edge_box = BoundingBox(0.05, 0.05, 0.1, 0.1)
        image = _image([Labelled(0, edge_box)])
        pipeline = _pipeline(AugmentOp("zoom_random", 1.0, percentage_area=0.25), min_visibility=0.5)
        assert _augment(image, pipeline, 1)[0].objects == ()

    def test_deterministic_per_seed_and_index(self):
        image = _image(
            [
                Labelled(0, BoundingBox(0.3, 0.4, 0.1, 0.2)),
                Labelled(1, BoundingBox(0.7, 0.6, 0.2, 0.1)),
            ]
        )
        pipeline = _pipeline(
            AugmentOp("rotate", 0.7),
            AugmentOp("flip_left_right", 0.4),
            AugmentOp("zoom_random", 0.4, percentage_area=0.8),
            AugmentOp("flip_top_bottom", 0.4),
            seed=1234,
        )
        first = _augment(image, pipeline, 20)
        second = _augment(image, pipeline, 20)
        assert first == second
        # samples vary across indices
        assert len({tuple(v.objects) for v in first}) > 1
        # a different seed diverges
        other = _augment(image, _pipeline(*pipeline.operations, seed=99), 20)
        assert other != first

    def test_each_sample_replays_its_own_stdlib_stream(self):
        # oracle: sample k flips when the first random() of Random(f"{seed}/{k}") is below 0.5
        rows = [(0, 0.25, 0.5, 0.125, 0.25)]
        samples = prep.augment(rows, _pipeline(AugmentOp("flip_left_right", 0.5), seed=11), 20)
        flipped = [sample != rows for sample in samples]
        assert flipped == [random.Random(f"11/{k}").random() < 0.5 for k in range(20)]
        assert 0 < sum(flipped) < 20

    def test_fewer_samples_are_a_prefix_of_more(self):
        rows = [(0, 0.3, 0.4, 0.1, 0.2), (1, 0.7, 0.6, 0.2, 0.1)]
        pipeline = _pipeline(
            AugmentOp("rotate", 0.7, angles=(45.0, 90.0, 180.0, 270.0)),
            AugmentOp("flip_left_right", 0.4),
            AugmentOp("zoom_random", 0.4, percentage_area=0.8),
            AugmentOp("flip_top_bottom", 0.4),
        )
        assert prep.augment(rows, pipeline, 3) == prep.augment(rows, pipeline, 8)[:3]

    def test_validation(self):
        with pytest.raises(ValueError, match="^name must be one of "):
            AugmentOp("sharpen", 0.5)
        with pytest.raises(ValueError, match="percentage_area"):
            AugmentOp("zoom_random", 0.5)
        with pytest.raises(ValueError, match="probability"):
            AugmentOp("rotate", 1.5)


# Tile edges of a 1600x1300 image under 416x416 tiles, both edge policies.
_EDGES_X = (0.0, 416.0, 832.0, 1184.0, 1248.0, 1600.0)
_EDGES_Y = (0.0, 416.0, 832.0, 884.0, 1248.0, 1300.0)


@st.composite
def _span(draw, edges, extent):
    """(center, size) in pixels along one axis: anywhere, or across one of
    `edges` with 0.3, 0.5 or any fraction of it on the low side, or past an
    edge by a sliver; sizes include ones whose squares underflow to 0.0."""
    size = draw(st.one_of(st.sampled_from([1e-4, 1.0, 96.0, 192.0, 3e-197]), st.floats(1e-4, extent)))
    edge = draw(st.sampled_from(edges))
    low = draw(st.one_of(
        st.floats(-size, extent).map(lambda x: (x, 0.0)),
        st.sampled_from([0.0, 0.3, 0.5, 1.0]).map(lambda f: (edge, f)),
        st.floats(0.0, 1.0).map(lambda f: (edge, f)),
        st.sampled_from([1e-4, 1e-5]).map(lambda d: (edge, 1.0 - d / size)),
    ))
    start, fraction = low
    center = min(max(start - fraction * size + size / 2.0, 0.0), extent)
    return center, min(size, extent)


@st.composite
def _objects_about(draw, edges_x, edges_y, width=1.0, height=1.0):
    """One to four objects placed by `_span` in a width x height frame, normalized to it."""
    objects = []
    for label in range(draw(st.integers(1, 4))):
        cx, w = draw(_span(edges_x, width))
        cy, h = draw(_span(edges_y, height))
        objects.append(Labelled(label, BoundingBox(cx / width, cy / height, w / width, h / height)))
    return objects


def _zoom_objects(percentage_area):
    """Boxes about the edges of the window a zoom to `percentage_area` keeps."""
    edges = (0.0, (1.0 - percentage_area**0.5) / 2.0, (1.0 + percentage_area**0.5) / 2.0, 1.0)
    return st.tuples(st.just(percentage_area), _objects_about(edges, edges))


_VISIBILITIES = st.sampled_from([0.0, 0.3, 0.5, 1.0])
_ZOOMS = st.sampled_from([0.04, 0.25, 0.5, 0.8, 1.0]).flatmap(_zoom_objects)


class TestOneClip:
    """Retiling, zoom and arbitrary-angle rotation share one clip; each keeps
    the boxes of its scalar reference bit for bit, except those the reference
    divides by a zero area for."""

    @given(_objects_about(_EDGES_X, _EDGES_Y, 1600.0, 1300.0), st.sampled_from(["anchor-to-edge", "pad"]), _VISIBILITIES)
    @example([Labelled(0, BoundingBox(1e-200, 1e-200, 2e-200, 2e-200))], "anchor-to-edge", 0.3)
    @example([Labelled(0, BoundingBox(0.22375003125, 0.115385, 0.0725000625, 0.076923))], "pad", 0.0)
    # visibility 0.3 exactly as a quotient of areas, though not as 0.3 times the area
    @example([Labelled(0, BoundingBox(0.2995, 0.2, 0.1975, 77 / 1300))], "anchor-to-edge", 0.3)
    @settings(max_examples=200, deadline=None)
    def test_retile_matches_the_reference(self, objects, policy, min_visibility):
        image = _image(objects)
        spec = TileSpec(416, 416, policy, min_visibility)
        tiles = plan_tiles(1600, 1300, spec)
        expected = _expected(lambda one: _reference_retile(one, tiles, spec), image, len(tiles))
        assert [_bits(t.objects) for t in _retile(image, tiles, spec)] == expected

    @given(_ZOOMS, _VISIBILITIES)
    @example((1.0, [Labelled(0, BoundingBox(1e-200, 1e-200, 2e-200, 2e-200))]), 0.3)
    @settings(max_examples=200, deadline=None)
    def test_zoom_matches_the_reference(self, zoom, min_visibility):
        percentage_area, objects = zoom
        self.check_augment(objects, AugmentOp("zoom_random", 1.0, percentage_area=percentage_area), min_visibility)

    @given(_objects_about((0.0, 0.5, 1.0), (0.0, 0.5, 1.0)), _VISIBILITIES)
    @settings(max_examples=200, deadline=None)
    def test_rotate_45_matches_the_reference(self, objects, min_visibility):
        self.check_augment(objects, AugmentOp("rotate", 1.0, angles=(45.0,)), min_visibility)

    @staticmethod
    def check_augment(objects, op, min_visibility):
        image = _image(objects)
        pipeline = _pipeline(op, min_visibility=min_visibility)

        def reference(one):
            with mock.patch.object(prep, "_clip", _reference_clip):
                return _augment(one, pipeline, 1)

        assert [_bits(v.objects) for v in _augment(image, pipeline, 1)] == _expected(reference, image, 1)


# Each flip and quarter turn written out as its own map: the reference for
# `prep._symmetry`, which makes them all.
_REFERENCE_MAPS = {
    "flip_left_right": lambda lab, cx, cy, w, h: (lab, 1.0 - cx, cy, w, h),
    "flip_top_bottom": lambda lab, cx, cy, w, h: (lab, cx, 1.0 - cy, w, h),
    0: lambda lab, cx, cy, w, h: (lab, cx, cy, w, h),
    90: lambda lab, cx, cy, w, h: (lab, 1.0 - cy, cx, h, w),
    180: lambda lab, cx, cy, w, h: (lab, 1.0 - cx, 1.0 - cy, w, h),
    270: lambda lab, cx, cy, w, h: (lab, cy, 1.0 - cx, h, w),
}
_COORDINATES = st.one_of(st.sampled_from([-0.0, 0.0, 1.0, 0.1, 0.25]), st.floats(0.0, 1.0))
_SIZES = st.one_of(st.sampled_from([1.0, 0.1]), st.floats(1e-3, 1.0))


@pytest.mark.parametrize("symmetry", ["flip_left_right", "flip_top_bottom", 0, 90, 180, 270, 360, 450, -90])
@given(st.lists(st.tuples(st.integers(0, 3), _COORDINATES, _COORDINATES, _SIZES, _SIZES), min_size=1, max_size=6))
@example([(0, -0.0, 0.0, 1.0, 0.5), (1, 1.0, -0.0, 0.1, 1.0), (2, 0.1, 0.25, 0.125, 0.3), (3, 0.0, 1.0, 0.2, 0.1)])
@settings(max_examples=100, deadline=None)
def test_flips_and_quarter_turns_match_their_own_maps_bit_for_bit(symmetry, rows):
    """A flip, or a rotation by an angle that is a whole number of quarter turns, at probability 1."""

    def bits(boxes):
        return [(lab, *map(float.hex, values)) for lab, *values in boxes]

    if isinstance(symmetry, str):
        op, reference = AugmentOp(symmetry, 1.0), symmetry
    else:
        op, reference = AugmentOp("rotate", 1.0, angles=(float(symmetry),)), symmetry % 360
    expected = bits(_REFERENCE_MAPS[reference](*row) for row in rows)
    assert [bits(sample) for sample in prep.augment(rows, _pipeline(op), 2)] == [expected] * 2


class TestSplit:
    def test_paper_allocation_for_every_seed(self):
        ids = [f"img{k:04d}" for k in range(141)]
        for seed in range(25):
            result = split_dataset(ids, SplitRatio(15, 3, 2), seed)
            assert (len(result.train), len(result.val), len(result.test)) == (106, 21, 14)

    def test_exact_weights(self):
        result = split_dataset([str(k) for k in range(20)], SplitRatio(15, 3, 2), 0)
        assert (len(result.train), len(result.val), len(result.test)) == (15, 3, 2)

    def test_membership_varies_with_seed(self):
        ids = [str(k) for k in range(141)]
        a = split_dataset(ids, SplitRatio(15, 3, 2), 1)
        b = split_dataset(ids, SplitRatio(15, 3, 2), 2)
        assert a.train != b.train

    def test_apportion_tie_breaks_by_partition_order(self):
        assert apportion(4, (1, 1, 1)) == [2, 1, 1]
        assert apportion(141, (15, 3, 2)) == [106, 21, 14]

    @given(st.integers(3, 400), st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_partition_property(self, n, seed):
        ids = [f"i{k}" for k in range(n)]
        if 0 in apportion(n, (15, 3, 2)):
            with pytest.raises(ValueError, match="partition empty"):
                split_dataset(ids, SplitRatio(15, 3, 2), seed)
            return
        result = split_dataset(ids, SplitRatio(15, 3, 2), seed)
        parts = [set(result.train), set(result.val), set(result.test)]
        assert parts[0] | parts[1] | parts[2] == set(ids)
        assert sum(len(p) for p in (result.train, result.val, result.test)) == n
        assert not (parts[0] & parts[1] or parts[0] & parts[2] or parts[1] & parts[2])
        assert all(parts)

    def test_errors(self):
        with pytest.raises(ValueError, match="empty"):
            split_dataset([], SplitRatio(15, 3, 2), 0)
        with pytest.raises(ValueError, match="2 ids leave the val partition empty"):
            split_dataset(["a", "b"], SplitRatio(15, 3, 2), 0)
        with pytest.raises(ValueError, match="^val must be an integer of at least 1, got 0$"):
            SplitRatio(15, 0, 2)


class TestSampleIds:
    def test_without_replacement(self):
        ids = [str(k) for k in range(50)]
        picked = sample_ids(ids, 10, 3)
        assert len(picked) == len(set(picked)) == 10
        assert sample_ids(ids, 10, 3) == picked

    @pytest.mark.parametrize("seed", range(6))
    def test_repeated_id_is_refused_before_drawing(self, seed):
        ids = ["a", "b", "a", "c", "d", "e", "f"]
        with pytest.raises(ValueError, match="^image id 'a' is listed more than once$"):
            sample_ids(ids, 6, seed)
        with pytest.raises(ValueError, match="^image id 'a' is listed more than once$"):
            split_dataset(ids, SplitRatio(1, 1, 1), seed)

    def test_overdraw_error(self):
        with pytest.raises(ValueError, match="without replacement"):
            sample_ids(["a"], 2, 0)


@pytest.mark.parametrize("make, message", [
    (lambda: TileSpec(0, 416), "tile_w must be an integer of at least 1, got 0"),
    (lambda: TileSpec(416, -1), "tile_h must be an integer of at least 1, got -1"),
    (lambda: TileSpec(416, 416, "crop"), 'edge_policy must be one of "anchor-to-edge", "pad", got "crop"'),
    (lambda: TileSpec(416, 416, min_visibility=1.5), "min_visibility must be a number in [0, 1], got 1.5"),
    (lambda: TileSpec(416.5, 416), "tile_w must be an integer of at least 1, got 416.5"),
    (lambda: plan_tiles(True, 416, TileSpec(416, 416)), "img_w must be an integer of at least 1, got true"),
    (lambda: AugmentOp("rotate", 1.0, angles=(float("nan"),)), "angles[0] must be a finite number, got NaN"),
    (lambda: SplitRatio(1.5, True, 1), "train must be an integer of at least 1, got 1.5"),
    (lambda: _pipeline(min_visibility=-0.1), "min_visibility must be a number in [0, 1], got -0.1"),
    (lambda: prep.augment([(0, 0.5, 0.5, 0.2, 0.2)], _pipeline(), -1), "sample_count must be >= 0: -1"),
    (lambda: sample_ids(["a", "b"], -1, 0), "count must be >= 0: -1"),
], ids=["tile-width", "tile-height", "edge-policy", "tile-min-visibility", "fractional-tile-width", "bool-image-width",
        "nan-angle", "fractional-ratio", "augment-min-visibility", "augment-sample-count", "sample-count"])
def test_refusals(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


@pytest.mark.parametrize("angle", [0.0, 360.0])
def test_rotate_by_a_whole_turn_leaves_the_rows_unchanged(angle):
    rows = [(0, 0.3, 0.4, 0.1, 0.2), (1, 0.7, 0.6, 0.2, 0.1)]
    assert prep.augment(rows, _pipeline(AugmentOp("rotate", 1.0, angles=(angle,))), 3) == [rows] * 3
