import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deteval.annotations import AnnotatedImage, BoundingBox, GroundTruthObject
from deteval.prep import (
    AugmentOp,
    AugmentPipeline,
    SplitRatio,
    TileSpec,
    apportion,
    augment,
    plan_tiles,
    retile_annotations,
    sample_ids,
    split_dataset,
)


def _image(objects, image_id="img", w=1600, h=1300):
    return AnnotatedImage(image_id, w, h, tuple(objects))


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
        image = _image([GroundTruthObject(0, box)])
        spec = TileSpec(416, 416)
        tiles = plan_tiles(1600, 1300, spec)
        tiled = retile_annotations(image, tiles, spec)
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
        image = _image([GroundTruthObject(0, box)])
        spec = TileSpec(416, 416, min_visibility=0.5)
        tiles = plan_tiles(1600, 1300, spec)
        tiled = retile_annotations(image, tiles, spec)
        populated = [(t, timg) for t, timg in zip(tiles, tiled) if timg.objects]
        assert len(populated) == 1
        assert populated[0][0].x0 == 0

    def test_bag_free_tiles_discardable(self):
        box = BoundingBox(0.13, 0.16, 0.1, 0.1)
        image = _image([GroundTruthObject(0, box)])
        spec = TileSpec(416, 416)
        tiled = retile_annotations(image, plan_tiles(1600, 1300, spec), spec)
        empty = [t for t in tiled if not t.objects]
        assert len(empty) == 15  # all but the tile holding the box

    def test_zero_visibility_keeps_every_intersecting_tile(self):
        # box straddles the interior corner at (416, 416)
        box = BoundingBox.from_corners(380 / 1600, 380 / 1300, 450 / 1600, 450 / 1300)
        image = _image([GroundTruthObject(0, box)])
        keep_all = TileSpec(416, 416, min_visibility=0.0)
        strict = TileSpec(416, 416, min_visibility=1.0)
        tiles = plan_tiles(1600, 1300, keep_all)
        kept_all = sum(len(t.objects) for t in retile_annotations(image, tiles, keep_all))
        kept_strict = sum(len(t.objects) for t in retile_annotations(image, tiles, strict))
        assert kept_all == 4
        assert kept_all >= kept_strict
        assert kept_strict == 0


def _pipeline(*ops, seed=7, min_visibility=0.3):
    return AugmentPipeline(operations=tuple(ops), rng_seed=seed, min_visibility=min_visibility)


class TestAugment:
    def test_identity_pipeline(self):
        image = _image([GroundTruthObject(0, BoundingBox(0.3, 0.4, 0.1, 0.2))])
        pipeline = _pipeline(
            AugmentOp("rotate", 0.0),
            AugmentOp("flip_left_right", 0.0),
            AugmentOp("zoom_random", 0.0, percentage_area=0.8),
        )
        for variant in augment(image, pipeline, 5):
            assert variant == image

    def test_flip_twice_restores(self):
        # dyadic coordinates mirror exactly; see the module's flip note
        image = _image([GroundTruthObject(0, BoundingBox(0.25, 0.5, 0.125, 0.25))])
        pipeline = _pipeline(AugmentOp("flip_left_right", 1.0), AugmentOp("flip_left_right", 1.0))
        for variant in augment(image, pipeline, 3):
            assert variant.objects == image.objects

    def test_rotate_90_about_center(self):
        image = _image([GroundTruthObject(0, BoundingBox(0.25, 0.5, 0.1, 0.2))])
        pipeline = _pipeline(AugmentOp("rotate", 1.0, angles=(90.0,)))
        variant = augment(image, pipeline, 1)[0]
        assert variant.objects[0].box == BoundingBox(0.5, 0.25, 0.2, 0.1)

    def test_rotate_envelope_arbitrary_angle(self):
        # 45-degree rotation of a centered square: envelope side = diagonal
        image = _image([GroundTruthObject(0, BoundingBox(0.5, 0.5, 0.2, 0.2))])
        pipeline = _pipeline(AugmentOp("rotate", 1.0, angles=(45.0,)))
        box = augment(image, pipeline, 1)[0].objects[0].box
        assert box.cx == pytest.approx(0.5)
        assert box.w == pytest.approx(0.2 * 2**0.5)

    def test_zoom_centered_crop(self):
        image = _image([GroundTruthObject(0, BoundingBox(0.5, 0.5, 0.2, 0.2))])
        pipeline = _pipeline(AugmentOp("zoom_random", 1.0, percentage_area=0.25))
        box = augment(image, pipeline, 1)[0].objects[0].box
        assert (box.cx, box.cy) == (0.5, 0.5)
        assert box.w == pytest.approx(0.4)
        assert box.h == pytest.approx(0.4)

    def test_zoom_drops_low_visibility_boxes(self):
        edge_box = BoundingBox(0.05, 0.05, 0.1, 0.1)
        image = _image([GroundTruthObject(0, edge_box)])
        pipeline = _pipeline(AugmentOp("zoom_random", 1.0, percentage_area=0.25), min_visibility=0.5)
        assert augment(image, pipeline, 1)[0].objects == ()

    def test_deterministic_per_seed_and_index(self):
        image = _image(
            [
                GroundTruthObject(0, BoundingBox(0.3, 0.4, 0.1, 0.2)),
                GroundTruthObject(1, BoundingBox(0.7, 0.6, 0.2, 0.1)),
            ]
        )
        pipeline = _pipeline(
            AugmentOp("rotate", 0.7),
            AugmentOp("flip_left_right", 0.4),
            AugmentOp("zoom_random", 0.4, percentage_area=0.8),
            AugmentOp("flip_top_bottom", 0.4),
            seed=1234,
        )
        first = augment(image, pipeline, 20)
        second = augment(image, pipeline, 20)
        assert first == second
        # samples vary across indices
        assert len({tuple(v.objects) for v in first}) > 1
        # a different seed diverges
        other = augment(image, _pipeline(*pipeline.operations, seed=99), 20)
        assert other != first

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown augmentation op"):
            AugmentOp("sharpen", 0.5)
        with pytest.raises(ValueError, match="percentage_area"):
            AugmentOp("zoom_random", 0.5)
        with pytest.raises(ValueError, match="probability"):
            AugmentOp("rotate", 1.5)


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
        result = split_dataset(ids, SplitRatio(15, 3, 2), seed)
        parts = [set(result.train), set(result.val), set(result.test)]
        assert parts[0] | parts[1] | parts[2] == set(ids)
        assert sum(len(p) for p in (result.train, result.val, result.test)) == n
        assert not (parts[0] & parts[1] or parts[0] & parts[2] or parts[1] & parts[2])

    def test_errors(self):
        with pytest.raises(ValueError, match="empty"):
            split_dataset([], SplitRatio(15, 3, 2), 0)
        with pytest.raises(ValueError, match="at least 3"):
            split_dataset(["a", "b"], SplitRatio(15, 3, 2), 0)
        with pytest.raises(ValueError, match="positive"):
            SplitRatio(15, 0, 2)


class TestSampleIds:
    def test_without_replacement(self):
        ids = [str(k) for k in range(50)]
        picked = sample_ids(ids, 10, 3)
        assert len(picked) == len(set(picked)) == 10
        assert sample_ids(ids, 10, 3) == picked

    def test_overdraw_error(self):
        with pytest.raises(ValueError, match="without replacement"):
            sample_ids(["a"], 2, 0)
