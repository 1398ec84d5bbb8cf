"""Grid tiling with box remapping, box-aware augmentation, and ratio splits."""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate

# A setting the CLI takes too is checked by its config key's kind, or a count or seed by the wider COUNT or
# INTEGER; the ConfigError names the field.
from .config import _OPERATION, COUNT, EDGE_ANCHOR, EDGE_PAD, EDGE_POLICY, FRACTION, INTEGER, POSITIVE
from .config import OP_FLIP_LR, OP_FLIP_TB, OP_ROTATE, OP_ZOOM

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
        POSITIVE(self.tile_w, "tile_w")
        POSITIVE(self.tile_h, "tile_h")
        EDGE_POLICY(self.edge_policy, "edge_policy")
        FRACTION(self.min_visibility, "min_visibility")


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
    is a ValueError, as is a side that is not an integer of at least 1.

    Under the anchor-to-edge policy the last row/column is shifted back so
    tiles stay inside the image (adjacent tiles may overlap); under the pad
    policy tiles stay on the grid and may extend past the image.
    """
    POSITIVE(img_w, "img_w")
    POSITIVE(img_h, "img_h")
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
    the box's frame, as (lab, cx, cy, w, h) in the window's unit frame (see
    `_span`); None when less than `min_visibility` of the box's area is left
    (no overlap when it is 0), the box has no area, or a side would be
    written as 0.000000 by `format_yolo_rows`."""
    wx1, wy1, wx2, wy2 = window
    cx1, cy1 = max(x1, wx1), max(y1, wy1)
    cx2, cy2 = min(x2, wx2), min(y2, wy2)
    if cx2 <= cx1 or cy2 <= cy1:
        return None
    area = (x2 - x1) * (y2 - y1)
    if area == 0.0 or (cx2 - cx1) * (cy2 - cy1) / area < min_visibility:
        return None
    cx, w = _span(x1, x2, cx1, cx2, wx1, wx2)
    cy, h = _span(y1, y2, cy1, cy2, wy1, wy2)
    return (lab, cx, cy, w, h) if _writable(w, h) else None


# One unit of the 6 decimals `format_yolo_rows` writes, and a margin far
# below it for the rounding error of reading a written side back.
_WRITTEN_UNIT = 1e-6 + 1e-12


def _span(v1, v2, c1, c2, w1, w2):
    """(centre, size) of the box side v1..v2, clipped to c1..c2, in the unit
    frame of the window w1..w2: each v as (v - w1) / (w2 - w1).

    A side that sticks out of the window by at most one written unit stays
    unclipped, as long as the row `format_yolo_rows` writes has a size of at
    most 1 and both sides within one unit of the window. A written box has
    its centre and size rounded apart, which can leave a side up to half a
    unit out of its tile; so a tile tiled again at its own size is written
    back as it was read."""
    extent = w2 - w1
    lo, hi = (c1 - w1) / extent, (c2 - w1) / extent
    out_lo, out_hi = (v1 - w1) / extent, (v2 - w1) / extent
    out_lo = out_lo if -_WRITTEN_UNIT <= out_lo < lo else lo
    out_hi = out_hi if hi < out_hi <= 1.0 + _WRITTEN_UNIT else hi
    if (out_lo, out_hi) != (lo, hi):
        centre, size = round((out_lo + out_hi) / 2.0, 6), round(out_hi - out_lo, 6)
        if size <= 1.0 and -_WRITTEN_UNIT <= centre - size / 2.0 and centre + size / 2.0 <= 1.0 + _WRITTEN_UNIT:
            # the clamps move neither value off what is written
            return min(max((out_lo + out_hi) / 2.0, 0.0), 1.0), min(out_hi - out_lo, 1.0)
    return (lo + hi) / 2.0, hi - lo


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
        _OPERATION["op"](self.name, "name")
        _OPERATION["probability"](self.probability, "probability")
        _OPERATION["angles"](self.angles, "angles")
        if self.percentage_area is not None:
            _OPERATION["percentage_area"](self.percentage_area, "percentage_area")
        if self.name == OP_ROTATE and not self.angles:
            raise ValueError("rotate needs a non-empty angle set")
        if self.name == OP_ZOOM and self.percentage_area is None:
            raise ValueError("zoom_random needs percentage_area in (0,1]: None")

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
        INTEGER(self.rng_seed, "rng_seed")
        FRACTION(self.min_visibility, "min_visibility")


# Boxes travel through the ops as (label, cx, cy, w, h) tuples so the
# flips and quarter turns stay exact (no corner round trip). Zoom and
# arbitrary-angle rotation map the corners, then clip them to the unit square.
_UNIT = (0.0, 0.0, 1.0, 1.0)


def _symmetry(boxes, swap: bool, mirror_x: bool, mirror_y: bool):
    """Boxes under a symmetry of the unit square: cx with cy and w with h swapped if `swap`, then
    each mirrored centre c as 1.0 - c, once (1.0 - (1.0 - c) need not be c: 0.1 gives 0.09999999999999998)."""
    if swap:
        boxes = [(lab, cy, cx, h, w) for lab, cx, cy, w, h in boxes]
    return [(lab, 1.0 - cx if mirror_x else cx, 1.0 - cy if mirror_y else cy, w, h) for lab, cx, cy, w, h in boxes]


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
    COUNT(sample_count, "sample_count")
    samples = []
    for k in range(sample_count):
        rng = random.Random(f"{pipeline.rng_seed}/{k}")
        boxes = rows
        for op in pipeline.operations:
            if rng.random() >= op.probability:
                continue
            if op.name == OP_FLIP_LR:
                boxes = _symmetry(boxes, False, True, False)
            elif op.name == OP_FLIP_TB:
                boxes = _symmetry(boxes, False, False, True)
            elif op.name == OP_ROTATE:
                angle = float(op.angles[int(rng.random() * len(op.angles))]) % 360.0
                if angle in (0.0, 90.0, 180.0, 270.0):  # a whole number of quarter turns
                    boxes = _symmetry(boxes, angle in (90.0, 270.0), angle in (90.0, 180.0), angle in (180.0, 270.0))
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
        for name in ("train", "val", "test"):
            POSITIVE(getattr(self, name), name)

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
    INTEGER(rng_seed, "rng_seed")
    ids = _distinct(image_ids)
    sizes = apportion(len(ids), ratio.weights)
    if 0 in sizes:
        empty = ("train", "val", "test")[sizes.index(0)]
        raise ValueError(f"{len(ids)} ids leave the {empty} partition empty; each partition needs at least 1")
    random.Random(rng_seed).shuffle(ids)
    return SplitResult(*(tuple(ids[end - size : end]) for size, end in zip(sizes, accumulate(sizes))))


def sample_ids(image_ids, count: int, rng_seed: int) -> list[str]:
    """Draw `count` of the distinct ids with a seeded RNG."""
    COUNT(count, "count")
    INTEGER(rng_seed, "rng_seed")
    ids = _distinct(image_ids)
    if count > len(ids):
        raise ValueError(f"cannot draw {count} of {len(ids)} ids without replacement")
    return random.Random(rng_seed).sample(ids, count)
