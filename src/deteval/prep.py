"""Grid tiling with box remapping, box-aware augmentation, and ratio splits."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .annotations import AnnotatedImage, BoundingBox, GroundTruthObject

EDGE_ANCHOR = "anchor-to-edge"
EDGE_PAD = "pad"

OP_ROTATE = "rotate"
OP_FLIP_LR = "flip_left_right"
OP_FLIP_TB = "flip_top_bottom"
OP_ZOOM = "zoom_random"
_KNOWN_OPS = (OP_ROTATE, OP_FLIP_LR, OP_FLIP_TB, OP_ZOOM)


@dataclass(frozen=True)
class TileSpec:
    tile_w: int
    tile_h: int
    edge_policy: str = EDGE_ANCHOR
    min_visibility: float = 0.3

    def __post_init__(self) -> None:
        if self.tile_w <= 0 or self.tile_h <= 0:
            raise ValueError(f"tile size must be positive: {self.tile_w}x{self.tile_h}")
        if self.edge_policy not in (EDGE_ANCHOR, EDGE_PAD):
            raise ValueError(f"unknown edge policy: {self.edge_policy!r}")
        if not (0.0 <= self.min_visibility <= 1.0):
            raise ValueError(f"min_visibility out of [0,1]: {self.min_visibility}")


@dataclass(frozen=True)
class TileRect:
    """Tile placement in source-image pixel coordinates."""

    x0: int
    y0: int
    w: int
    h: int


def plan_tiles(img_w: int, img_h: int, spec: TileSpec) -> list[TileRect]:
    """Lay out a ceil(w/tw) x ceil(h/th) tile grid covering the whole image.

    Under the anchor-to-edge policy the last row/column is shifted back so
    tiles stay inside the image (adjacent tiles may overlap); under the pad
    policy tiles stay on the grid and may extend past the image.
    """
    if img_w < spec.tile_w or img_h < spec.tile_h:
        raise ValueError(
            f"image {img_w}x{img_h} smaller than tile {spec.tile_w}x{spec.tile_h}"
        )
    nx = math.ceil(img_w / spec.tile_w)
    ny = math.ceil(img_h / spec.tile_h)
    xs = [i * spec.tile_w for i in range(nx)]
    ys = [j * spec.tile_h for j in range(ny)]
    if spec.edge_policy == EDGE_ANCHOR:
        xs = [min(x, img_w - spec.tile_w) for x in xs]
        ys = [min(y, img_h - spec.tile_h) for y in ys]
    return [TileRect(x, y, spec.tile_w, spec.tile_h) for y in ys for x in xs]


def retile_annotations(
    image: AnnotatedImage, tiles, spec: TileSpec
) -> list[AnnotatedImage]:
    """Clip each ground-truth box into each intersecting tile.

    A clipped box is kept only when its remaining area fraction is at least
    spec.min_visibility (any positive overlap when min_visibility is 0).
    Tiles without retained objects come back empty; callers treat empty
    tiles as discardable.
    """
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
            box = BoundingBox.from_corners(
                (ix1 - tx1) / tile.w,
                (iy1 - ty1) / tile.h,
                (ix2 - tx1) / tile.w,
                (iy2 - ty1) / tile.h,
            )
            kept.append(GroundTruthObject(obj.label, box))
        out.append(
            AnnotatedImage(
                image_id=f"{image.image_id}_{index:03d}",
                width_px=tile.w,
                height_px=tile.h,
                objects=tuple(kept),
            )
        )
    return out


@dataclass(frozen=True)
class AugmentOp:
    """One pipeline stage: an operation name plus its firing probability."""

    name: str
    probability: float
    angles: tuple[float, ...] = (90.0, 180.0, 270.0)
    percentage_area: float | None = None

    def __post_init__(self) -> None:
        if self.name not in _KNOWN_OPS:
            raise ValueError(f"unknown augmentation op: {self.name!r}")
        if not (0.0 <= self.probability <= 1.0):
            raise ValueError(f"probability out of [0,1]: {self.probability}")
        if self.name == OP_ROTATE and not self.angles:
            raise ValueError("rotate needs a non-empty angle set")
        if self.name == OP_ZOOM:
            if self.percentage_area is None or not (0.0 < self.percentage_area <= 1.0):
                raise ValueError(f"zoom_random needs percentage_area in (0,1]: {self.percentage_area}")


@dataclass(frozen=True)
class AugmentPipeline:
    operations: tuple[AugmentOp, ...]
    rng_seed: int
    min_visibility: float = 0.3

    def __post_init__(self) -> None:
        if not (0.0 <= self.min_visibility <= 1.0):
            raise ValueError(f"min_visibility out of [0,1]: {self.min_visibility}")


# Boxes travel through the ops as (label, cx, cy, w, h) tuples so the
# right-angle transforms stay exact (no corner round trip).
def _flip_lr(boxes):
    return [(lab, 1.0 - cx, cy, w, h) for lab, cx, cy, w, h in boxes]


def _flip_tb(boxes):
    return [(lab, cx, 1.0 - cy, w, h) for lab, cx, cy, w, h in boxes]


def _rotate_right_angle(boxes, quarter_turns: int):
    if quarter_turns == 1:
        return [(lab, 1.0 - cy, cx, h, w) for lab, cx, cy, w, h in boxes]
    if quarter_turns == 2:
        return [(lab, 1.0 - cx, 1.0 - cy, w, h) for lab, cx, cy, w, h in boxes]
    return [(lab, cy, 1.0 - cx, h, w) for lab, cx, cy, w, h in boxes]


def _rotate_envelope(boxes, angle_deg: float, min_visibility: float):
    """Arbitrary-angle rotation: replace each box by the axis-aligned
    envelope of its rotated corners, then clip to the unit square."""
    theta = math.radians(angle_deg)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    out = []
    for lab, cx, cy, w, h in boxes:
        xs, ys = [], []
        for dx, dy in ((-w / 2, -h / 2), (w / 2, -h / 2), (-w / 2, h / 2), (w / 2, h / 2)):
            px, py = cx - 0.5 + dx, cy - 0.5 + dy
            xs.append(0.5 + px * cos_t - py * sin_t)
            ys.append(0.5 + px * sin_t + py * cos_t)
        clipped = _clip_unit(lab, min(xs), min(ys), max(xs), max(ys), min_visibility)
        if clipped is not None:
            out.append(clipped)
    return out


def _zoom(boxes, percentage_area: float, min_visibility: float):
    side = math.sqrt(percentage_area)
    offset = (1.0 - side) / 2.0
    out = []
    for lab, cx, cy, w, h in boxes:
        x1 = (cx - w / 2 - offset) / side
        x2 = (cx + w / 2 - offset) / side
        y1 = (cy - h / 2 - offset) / side
        y2 = (cy + h / 2 - offset) / side
        clipped = _clip_unit(lab, x1, y1, x2, y2, min_visibility)
        if clipped is not None:
            out.append(clipped)
    return out


def _clip_unit(lab, x1, y1, x2, y2, min_visibility):
    cx1, cy1 = max(x1, 0.0), max(y1, 0.0)
    cx2, cy2 = min(x2, 1.0), min(y2, 1.0)
    if cx2 <= cx1 or cy2 <= cy1:
        return None
    visibility = ((cx2 - cx1) * (cy2 - cy1)) / ((x2 - x1) * (y2 - y1))
    if visibility < min_visibility or visibility <= 0.0:
        return None
    return (lab, (cx1 + cx2) / 2.0, (cy1 + cy2) / 2.0, cx2 - cx1, cy2 - cy1)


def augment(image: AnnotatedImage, pipeline: AugmentPipeline, sample_count: int) -> list[AnnotatedImage]:
    """Generate sample_count augmented variants of an annotated image.

    Each sample draws its RNG stream from (rng_seed, sample index), so any
    sample can be regenerated independently and concurrent generation is
    bit-identical to sequential.
    """
    if sample_count < 0:
        raise ValueError(f"sample_count must be >= 0: {sample_count}")
    samples = []
    for k in range(sample_count):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=pipeline.rng_seed, spawn_key=(k,))
        )
        boxes = [(o.label, o.box.cx, o.box.cy, o.box.w, o.box.h) for o in image.objects]
        for op in pipeline.operations:
            if rng.random() >= op.probability:
                continue
            if op.name == OP_FLIP_LR:
                boxes = _flip_lr(boxes)
            elif op.name == OP_FLIP_TB:
                boxes = _flip_tb(boxes)
            elif op.name == OP_ROTATE:
                angle = float(op.angles[int(rng.integers(len(op.angles)))]) % 360.0
                if angle == 0.0:
                    continue
                if angle in (90.0, 180.0, 270.0):
                    boxes = _rotate_right_angle(boxes, int(angle // 90))
                else:
                    boxes = _rotate_envelope(boxes, angle, pipeline.min_visibility)
            elif op.name == OP_ZOOM:
                boxes = _zoom(boxes, op.percentage_area, pipeline.min_visibility)
        samples.append(
            AnnotatedImage(
                image_id=image.image_id,
                width_px=image.width_px,
                height_px=image.height_px,
                objects=tuple(
                    GroundTruthObject(lab, BoundingBox(cx, cy, w, h))
                    for lab, cx, cy, w, h in boxes
                ),
            )
        )
    return samples


@dataclass(frozen=True)
class SplitRatio:
    train: int
    val: int
    test: int

    def __post_init__(self) -> None:
        if min(self.train, self.val, self.test) <= 0:
            raise ValueError(f"ratio weights must be positive: {self.train}:{self.val}:{self.test}")

    @property
    def weights(self) -> tuple[int, int, int]:
        return (self.train, self.val, self.test)


@dataclass(frozen=True)
class SplitResult:
    train: tuple[str, ...]
    val: tuple[str, ...]
    test: tuple[str, ...]


def apportion(total: int, weights) -> list[int]:
    """Largest-remainder allocation of `total` across integer weights.

    Remainder ties go to the earlier partition, which keeps the result
    deterministic for any weight vector.
    """
    weights = list(weights)
    denom = sum(weights)
    quotas = [total * w / denom for w in weights]
    sizes = [math.floor(q) for q in quotas]
    leftover = total - sum(sizes)
    order = sorted(range(len(weights)), key=lambda i: (-(quotas[i] - sizes[i]), i))
    for i in order[:leftover]:
        sizes[i] += 1
    return sizes


def split_dataset(image_ids, ratio: SplitRatio, rng_seed: int) -> SplitResult:
    """Partition ids into train/val/test with largest-remainder sizes.

    Sizes depend only on the count and ratio; membership comes from a
    seeded shuffle.
    """
    ids = list(image_ids)
    if not ids:
        raise ValueError("cannot split an empty id list")
    if len(ids) < 3:
        raise ValueError(f"need at least 3 images for 3 partitions, got {len(ids)}")
    if len(set(ids)) != len(ids):
        raise ValueError("image ids must be unique")
    n_train, n_val, n_test = apportion(len(ids), ratio.weights)
    shuffled = list(ids)
    random.Random(rng_seed).shuffle(shuffled)
    return SplitResult(
        train=tuple(shuffled[:n_train]),
        val=tuple(shuffled[n_train : n_train + n_val]),
        test=tuple(shuffled[n_train + n_val :]),
    )


def sample_ids(image_ids, count: int, rng_seed: int) -> list[str]:
    """Draw `count` distinct ids with a seeded RNG."""
    ids = list(image_ids)
    if count < 0:
        raise ValueError(f"count must be >= 0: {count}")
    if count > len(ids):
        raise ValueError(f"cannot draw {count} of {len(ids)} ids without replacement")
    return random.Random(rng_seed).sample(ids, count)
