"""Annotation data model, YOLO-format text I/O, and bounding-box geometry."""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

COORD_DECIMALS = 6


class AnnotationError(ValueError):
    """Malformed annotation or prediction text."""


class RegistryError(ValueError):
    """Unknown class id or conflicting registry entries."""


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box in normalized center/size coordinates.

    cx, cy are fractions of image width/height in [0, 1]; w, h are
    fractions in (0, 1]. A box may extend past the unit square (e.g.
    cx=0.95, w=0.2) until a clipping operation trims it.
    """

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.cx <= 1.0 and 0.0 <= self.cy <= 1.0):
            raise ValueError(f"box center out of [0,1]: ({self.cx}, {self.cy})")
        if not (0.0 < self.w <= 1.0 and 0.0 < self.h <= 1.0):
            raise ValueError(f"box size out of (0,1]: ({self.w}, {self.h})")

    @property
    def x1(self) -> float:
        return self.cx - self.w / 2.0

    @property
    def y1(self) -> float:
        return self.cy - self.h / 2.0

    @property
    def x2(self) -> float:
        return self.cx + self.w / 2.0

    @property
    def y2(self) -> float:
        return self.cy + self.h / 2.0

    @property
    def area(self) -> float:
        return self.w * self.h

    @classmethod
    def from_corners(cls, x1: float, y1: float, x2: float, y2: float) -> BoundingBox:
        if x2 <= x1 or y2 <= y1:
            raise ValueError(f"degenerate corners: ({x1}, {y1}, {x2}, {y2})")
        return cls((x1 + x2) / 2.0, (y1 + y2) / 2.0, x2 - x1, y2 - y1)


@dataclass(frozen=True)
class ClassLabel:
    id: int
    name: str

    def __post_init__(self) -> None:
        if self.id < 0:
            raise ValueError(f"class id must be non-negative: {self.id}")
        if not self.name or any(c.isspace() for c in self.name):
            raise ValueError(f"class name must be non-empty and whitespace-free: {self.name!r}")


class ClassRegistry:
    """Immutable id <-> name table for annotation classes."""

    def __init__(self, labels):
        self._by_id: dict[int, ClassLabel] = {}
        self._by_name: dict[str, ClassLabel] = {}
        for lab in labels:
            self._add(lab)

    def _add(self, lab: ClassLabel) -> None:
        if lab.id in self._by_id:
            raise RegistryError(f"duplicate class ids: {lab.id} is listed twice")
        if lab.name in self._by_name:
            raise RegistryError(f"duplicate class names: {lab.name!r} is listed twice")
        self._by_id[lab.id] = self._by_name[lab.name] = lab

    @classmethod
    def from_text(cls, text: str) -> ClassRegistry:
        """Parse `<id> <name>` lines into a registry; a repeated id or name is
        reported on the line that repeats it."""
        registry, rows = cls(()), map(str.split, text.splitlines())
        read_rows(rows, 2, lambda i, name: registry._add(ClassLabel(_class_id(i), name)), RegistryError)
        return registry

    def to_text(self) -> str:
        return "".join(f"{lab.id} {lab.name}\n" for lab in self._by_id.values())

    @property
    def labels(self) -> tuple[ClassLabel, ...]:
        return tuple(self._by_id.values())

    def ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._by_id))

    def name_of(self, class_id: int) -> str:
        try:
            return self._by_id[class_id].name
        except KeyError:
            raise RegistryError(f"unknown class id: {class_id}") from None

    def id_of(self, name: str) -> int:
        try:
            return self._by_name[name].id
        except KeyError:
            raise RegistryError(f"unknown class name: {name!r}") from None

    def __contains__(self, class_id: int) -> bool:
        return class_id in self._by_id

    def __len__(self) -> int:
        return len(self._by_id)


@dataclass(frozen=True)
class GroundTruthObject:
    label: int
    box: BoundingBox


@dataclass(frozen=True)
class Detection:
    label: int
    box: BoundingBox
    confidence: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.confidence <= 1.0):
            raise ValueError(f"confidence out of [0,1]: {self.confidence}")


@dataclass(frozen=True)
class AnnotatedImage:
    image_id: str
    width_px: int
    height_px: int
    objects: tuple[GroundTruthObject, ...]

    def __post_init__(self) -> None:
        if self.width_px <= 0 or self.height_px <= 0:
            raise ValueError(f"image size must be positive: {self.width_px}x{self.height_px}")


def read_rows(rows, n_fields: int, convert, error: type[ValueError] = ValueError, start: int = 1) -> list:
    """`convert(*fields)` for each row of `rows`, an iterable of field lists
    numbered from `start`, skipping rows whose fields are all empty. A row
    without `n_fields` fields, or a ValueError from `convert`, raises `error`
    (or the converter's own ValueError subclass) with `line N: ` in front."""
    converted = []
    for lineno, fields in enumerate(rows, start):
        if not any(fields):
            continue
        try:
            if len(fields) != n_fields:
                raise ValueError(f"expected {n_fields} fields, got {len(fields)}")
            converted.append(convert(*fields))
        except ValueError as exc:
            raise (error if type(exc) is ValueError else type(exc))(f"line {lineno}: {exc}") from None
    return converted


def read_csv(text: str, n_fields: int, convert, header: tuple[str, ...] | None = None) -> tuple:
    """The header of CSV text and `read_rows` over the rows below it, with
    cells stripped. The header must have `n_fields` cells, equal to `header`
    up to case when it is given."""
    rows = ([cell.strip() for cell in row] for row in csv.reader(text.splitlines()))
    first = next(rows, None)
    if first is None or len(first) != n_fields or (header and [c.lower() for c in first] != list(header)):
        expected = ",".join(header) if header else f"of {n_fields} fields"
        raise ValueError(f"line 1: expected header {expected}, got {first}")
    return first, read_rows(rows, n_fields, convert, start=2)


def number(raw: str) -> float:
    """`float(raw)`; a ValueError unless that is a finite number."""
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {raw!r}")
    return value


def _class_id(raw: str, registry: ClassRegistry | None = None) -> int:
    try:
        class_id = int(raw)
    except ValueError:
        raise ValueError(f"class id is not an integer: {raw!r}") from None
    if registry is not None and class_id not in registry:
        raise RegistryError(f"unknown class id {class_id}")
    return class_id


def _yolo_row(registry, class_id, cx, cy, w, h, *confidence):
    label = _class_id(class_id, registry)
    box = BoundingBox(number(cx), number(cy), number(w), number(h))
    return Detection(label, box, number(*confidence)) if confidence else GroundTruthObject(label, box)


def parse_yolo_annotation(text: str, registry: ClassRegistry | None = None) -> list[GroundTruthObject]:
    """Parse `class_id cx cy w h` lines; values are kept exactly as parsed."""
    return read_rows(map(str.split, text.splitlines()), 5, partial(_yolo_row, registry), AnnotationError)


def parse_yolo_prediction(text: str, registry: ClassRegistry | None = None) -> list[Detection]:
    """Parse `class_id cx cy w h confidence` lines."""
    return read_rows(map(str.split, text.splitlines()), 6, partial(_yolo_row, registry), AnnotationError)


def decode_text(data: bytes) -> str:
    """The text of a UTF-8 file's bytes with CRLF and CR line ends turned
    into LF, as reading the file in text mode gives it."""
    return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")


@dataclass(frozen=True)
class BoxColumns:
    """The boxes of a sequence of images as columns. Row k has class
    `labels[k]`, a position in the caller's list of class ids, and `values[k]`
    = (cx, cy, w, h) for ground truth or (cx, cy, w, h, confidence) for
    detections; image m owns rows `offsets[m]:offsets[m + 1]`."""

    labels: np.ndarray
    values: np.ndarray
    offsets: np.ndarray


def read_yolo(files, n_fields: int, registry: ClassRegistry) -> BoxColumns:
    """YOLO annotation (`n_fields` 5) or prediction (6) files, each given as
    its bytes, as one `BoxColumns` with labels as positions in
    `registry.ids()`. Values convert with `int` and `float` as the scalar
    parsers convert them and are checked all at once. When any file fails a
    check, the scalar parser's `line N:` error for the first failing file is
    raised, with that file's position in `files` as its `file_index`."""
    files = list(files)
    try:
        return _yolo_columns(files, n_fields, registry)
    except (ValueError, KeyError):
        pass
    parse = parse_yolo_annotation if n_fields == 5 else parse_yolo_prediction
    for index, data in enumerate(files):
        try:
            parse(decode_text(data), registry)
        except ValueError as exc:
            exc.file_index = index
            raise
    raise AssertionError("read_yolo rejected files that the scalar parser accepts")


def _yolo_columns(files, n_fields: int, registry: ClassRegistry) -> BoxColumns:
    """`read_yolo` on files that pass every check; any other file raises a
    ValueError or KeyError that says nothing of where."""
    position = {class_id: k for k, class_id in enumerate(registry.ids())}
    rows, counts = [], [0]
    for data in files:
        lines = [fields for fields in map(str.split, decode_text(data).splitlines()) if fields]
        rows += lines
        counts.append(len(lines))
    if not set(map(len, rows)) <= {n_fields}:
        raise ValueError("wrong field count")
    tokens = list(itertools.chain.from_iterable(rows))
    labels = np.array([position[int(raw)] for raw in tokens[::n_fields]], dtype=np.intp)
    del tokens[::n_fields]
    values = np.array(list(map(float, tokens)), dtype=np.float64).reshape(-1, n_fields - 1)
    # cx, cy and the confidence in [0, 1], w and h in (0, 1]; NaN fails both
    if not (np.all((values >= 0.0) & (values <= 1.0)) and np.all(values[:, 2:4] > 0.0)):
        raise ValueError("value out of range")
    return BoxColumns(labels, values, np.cumsum(counts))


def format_yolo_annotation(objects) -> str:
    """Serialize ground-truth objects, one per line, 6-decimal coordinates."""
    lines = []
    for obj in objects:
        b = obj.box
        lines.append(f"{obj.label} {b.cx:.6f} {b.cy:.6f} {b.w:.6f} {b.h:.6f}\n")
    return "".join(lines)


def format_yolo_prediction(detections) -> str:
    lines = []
    for det in detections:
        b = det.box
        lines.append(
            f"{det.label} {b.cx:.6f} {b.cy:.6f} {b.w:.6f} {b.h:.6f} {det.confidence:.6f}\n"
        )
    return "".join(lines)


def _inter_union(a: BoundingBox, b: BoundingBox) -> tuple[float, float]:
    """Intersection and union areas, 0 intersection when disjoint. Areas are
    taken from the same corners as the intersection, which keeps the
    intersection at or below either area (min/max and subtraction are
    monotone)."""
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    inter = iw * ih if (iw > 0.0 and ih > 0.0) else 0.0
    return inter, (a.x2 - a.x1) * (a.y2 - a.y1) + (b.x2 - b.x1) * (b.y2 - b.y1) - inter


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection-over-union of two boxes, in [0, 1]; 0 when disjoint."""
    inter, union = _inter_union(a, b)
    return inter / union if union > 0.0 else 0.0


def giou(a: BoundingBox, b: BoundingBox) -> float:
    """Generalized IoU: IoU minus the enclosing-box area not covered by the union.

    Ranges over (-1, 1]; equals IoU when the enclosing box is fully covered,
    and goes negative for well-separated boxes.
    """
    inter, union = _inter_union(a, b)
    c_area = (max(a.x2, b.x2) - min(a.x1, b.x1)) * (max(a.y2, b.y2) - min(a.y1, b.y1))
    base = inter / union if union > 0.0 else 0.0
    if c_area <= 0.0:
        return base
    # rounding can put c_area an ulp under the union; clamp so giou <= iou
    # holds exactly
    return base - max(0.0, (c_area - union) / c_area)
