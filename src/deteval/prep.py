"""Grid tiling with box remapping, box-aware augmentation, and ratio splits."""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate

EDGE_ANCHOR = "anchor-to-edge"
EDGE_PAD = "pad"

OP_ROTATE = "rotate"
OP_FLIP_LR = "flip_left_right"
OP_FLIP_TB = "flip_top_bottom"
OP_ZOOM = "zoom_random"
_KNOWN_OPS = (OP_ROTATE, OP_FLIP_LR, OP_FLIP_TB, OP_ZOOM)

MAX_TILES_PER_IMAGE = 65_536
# The largest side at which every pixel coordinate is exact as a float
MAX_SIDE = 2**53


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
    """Lay out a ceil(w/tw) x ceil(h/th) tile grid covering the whole image;
    a grid of more than MAX_TILES_PER_IMAGE tiles, or a side above MAX_SIDE,
    is a ValueError.

    Under the anchor-to-edge policy the last row/column is shifted back so
    tiles stay inside the image (adjacent tiles may overlap); under the pad
    policy tiles stay on the grid and may extend past the image.
    """
    if img_w < spec.tile_w or img_h < spec.tile_h:
        raise ValueError(f"image {img_w}x{img_h} smaller than tile {spec.tile_w}x{spec.tile_h}")
    nx, ny = -(-img_w // spec.tile_w), -(-img_h // spec.tile_h)
    if nx * ny > MAX_TILES_PER_IMAGE:
        raise ValueError(f"image needs more than {MAX_TILES_PER_IMAGE} tiles of {spec.tile_w}x{spec.tile_h}")
    if max(img_w, img_h, spec.tile_w, spec.tile_h) > MAX_SIDE:
        raise ValueError(f"image or tile side above 2**53: image {img_w}x{img_h}, tile {spec.tile_w}x{spec.tile_h}")
    xs = [i * spec.tile_w for i in range(nx)]
    ys = [j * spec.tile_h for j in range(ny)]
    if spec.edge_policy == EDGE_ANCHOR:
        xs = [min(x, img_w - spec.tile_w) for x in xs]
        ys = [min(y, img_h - spec.tile_h) for y in ys]
    return [TileRect(x, y, spec.tile_w, spec.tile_h) for y in ys for x in xs]


def retile_annotations(rows, width: int, height: int, tiles, spec: TileSpec) -> list[list[tuple]]:
    """The rows of each tile: each (label, cx, cy, w, h) row of a width x
    height image clipped into each intersecting tile.

    A clipped box is kept when at least spec.min_visibility of its area is
    in the tile (any overlap when min_visibility is 0) and its width and
    height in the tile would not be written as 0.000000.
    Tiles without retained rows come back empty; callers treat empty
    tiles as discardable.
    """
    boxes = [
        (lab, (cx - w / 2.0) * width, (cy - h / 2.0) * height, (cx + w / 2.0) * width, (cy + h / 2.0) * height)
        for lab, cx, cy, w, h in rows
    ]
    out = []
    for tile in tiles:
        tx1, ty1 = float(tile.x0), float(tile.y0)
        window = (tx1, ty1, tx1 + tile.w, ty1 + tile.h)
        out.append(list(filter(None, (_clip(*box, window, spec.min_visibility) for box in boxes))))
    return out


def _clip(lab, x1, y1, x2, y2, window, min_visibility):
    """Box (x1, y1, x2, y2) clipped to `window` (wx1, wy1, wx2, wy2), both in
    the box's frame, as (lab, cx, cy, w, h) in the window's unit frame, each
    v as (v - w1) / (w2 - w1); None when less than `min_visibility` of the
    box's area is left (no overlap when it is 0), the box has no area, or a
    side left would be written as 0.000000 by `format_yolo_rows`."""
    wx1, wy1, wx2, wy2 = window
    cx1, cy1 = max(x1, wx1), max(y1, wy1)
    cx2, cy2 = min(x2, wx2), min(y2, wy2)
    if cx2 <= cx1 or cy2 <= cy1:
        return None
    ux1, ux2 = (cx1 - wx1) / (wx2 - wx1), (cx2 - wx1) / (wx2 - wx1)
    uy1, uy2 = (cy1 - wy1) / (wy2 - wy1), (cy2 - wy1) / (wy2 - wy1)
    area = (x2 - x1) * (y2 - y1)
    if area == 0.0 or not _writable(ux2 - ux1, uy2 - uy1):
        return None
    if (cx2 - cx1) * (cy2 - cy1) / area < min_visibility:
        return None
    return (lab, (ux1 + ux2) / 2.0, (uy1 + uy2) / 2.0, ux2 - ux1, uy2 - uy1)


def _writable(w: float, h: float) -> bool:
    """Whether `format_yolo_rows` writes neither side of a w x h unit box as 0.000000."""
    return round(w, 6) != 0.0 and round(h, 6) != 0.0


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

    @classmethod
    def from_config(cls, entry: dict) -> AugmentOp:
        """The op of one `augment.operations` config entry: "op" names it, the other keys are its fields."""
        fields = {name: tuple(value) if name == "angles" else value for name, value in entry.items() if name != "op"}
        return cls(entry["op"], **fields)


@dataclass(frozen=True)
class AugmentPipeline:
    operations: tuple[AugmentOp, ...]
    rng_seed: int
    min_visibility: float = 0.3

    def __post_init__(self) -> None:
        if not (0.0 <= self.min_visibility <= 1.0):
            raise ValueError(f"min_visibility out of [0,1]: {self.min_visibility}")


# Boxes travel through the ops as (label, cx, cy, w, h) tuples so the
# right-angle transforms stay exact (no corner round trip). Zoom and
# arbitrary-angle rotation map the corners, then clip them to the unit square.
_UNIT = (0.0, 0.0, 1.0, 1.0)


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
        out.append(_clip(lab, min(xs), min(ys), max(xs), max(ys), _UNIT, min_visibility))
    return list(filter(None, out))


def _zoom(boxes, percentage_area: float, min_visibility: float):
    side = math.sqrt(percentage_area)
    offset = (1.0 - side) / 2.0
    corners = (
        (lab, (cx - w / 2 - offset) / side, (cy - h / 2 - offset) / side,
         (cx + w / 2 - offset) / side, (cy + h / 2 - offset) / side)
        for lab, cx, cy, w, h in boxes
    )
    return list(filter(None, (_clip(*box, _UNIT, min_visibility) for box in corners)))


def augment(rows, pipeline: AugmentPipeline, sample_count: int) -> list[list[tuple]]:
    """The rows of sample_count augmented variants of an image's sequence of
    (label, cx, cy, w, h) rows.

    Sample k draws from its own stdlib stream, `random.Random(f"{rng_seed}/{k}")`,
    so it depends only on (rng_seed, k) and can be regenerated alone. Every
    draw is a `random()` call, whose sequence Python keeps across versions.
    """
    if sample_count < 0:
        raise ValueError(f"sample_count must be >= 0: {sample_count}")
    samples = []
    for k in range(sample_count):
        rng = random.Random(f"{pipeline.rng_seed}/{k}")
        boxes = rows
        for op in pipeline.operations:
            if rng.random() >= op.probability:
                continue
            if op.name == OP_FLIP_LR:
                boxes = _flip_lr(boxes)
            elif op.name == OP_FLIP_TB:
                boxes = _flip_tb(boxes)
            elif op.name == OP_ROTATE:
                angle = float(op.angles[int(rng.random() * len(op.angles))]) % 360.0
                if angle == 0.0:
                    continue
                if angle in (90.0, 180.0, 270.0):
                    boxes = _rotate_right_angle(boxes, int(angle // 90))
                else:
                    boxes = _rotate_envelope(boxes, angle, pipeline.min_visibility)
            elif op.name == OP_ZOOM:
                boxes = _zoom(boxes, op.percentage_area, pipeline.min_visibility)
        samples.append([box for box in boxes if _writable(box[3], box[4])])  # ops that do not clip keep any size
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


def _distinct(image_ids) -> list[str]:
    """The ids as a list; an id listed more than once is a ValueError naming it."""
    ids = list(image_ids)
    if len(set(ids)) != len(ids):
        repeated = next(image_id for image_id, n in Counter(ids).items() if n > 1)
        raise ValueError(f"image id {repeated!r} is listed more than once")
    return ids


def split_dataset(image_ids, ratio: SplitRatio, rng_seed: int) -> SplitResult:
    """Partition distinct ids into train/val/test with largest-remainder
    sizes, each at least 1. Sizes depend only on the count and ratio;
    membership comes from a seeded shuffle.
    """
    ids = _distinct(image_ids)
    sizes = apportion(len(ids), ratio.weights)
    if 0 in sizes:
        empty = ("train", "val", "test")[sizes.index(0)]
        raise ValueError(f"{len(ids)} ids leave the {empty} partition empty; each partition needs at least 1")
    random.Random(rng_seed).shuffle(ids)
    return SplitResult(*(tuple(ids[end - size : end]) for size, end in zip(sizes, accumulate(sizes))))


def sample_ids(image_ids, count: int, rng_seed: int) -> list[str]:
    """Draw `count` of the distinct ids with a seeded RNG."""
    ids = _distinct(image_ids)
    if count < 0:
        raise ValueError(f"count must be >= 0: {count}")
    if count > len(ids):
        raise ValueError(f"cannot draw {count} of {len(ids)} ids without replacement")
    return random.Random(rng_seed).sample(ids, count)
