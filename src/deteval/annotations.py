"""Annotation data model, YOLO-format text I/O, and bounding-box geometry."""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from functools import partial

BACKGROUND = "background"  # the confusion matrix's row and column of unmatched boxes; ClassLabel refuses it


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
        _box(self.cx, self.cy, self.w, self.h)

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
        # names become parts of file names (pr_curve_<name>.csv)
        if not self.name or any(c.isspace() or c in "/\\\0" for c in self.name):
            raise ValueError(f"class name must be non-empty, without whitespace, '/', '\\' or NUL: {self.name!r}")
        size = len(self.name.encode("utf-8"))
        if size > 242:  # pr_curve_<name>.csv is then longer than a 255-byte file name
            raise ValueError(f"class name must be at most 242 UTF-8 bytes, got {size}")
        if self.name == BACKGROUND:
            raise ValueError(f"class name {BACKGROUND!r} is reserved for the confusion matrix")


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
        registry, rows = cls(()), map(str.split, split_lines(text))
        read_rows(rows, 2, lambda i, name: registry._add(ClassLabel(_class_id(i), name)), RegistryError)
        return registry

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
        _confidence(self.confidence)


def _box(cx: float, cy: float, w: float, h: float) -> tuple[float, float, float, float]:
    """(cx, cy, w, h) if the center is in [0, 1] and the size in (0, 1]; a ValueError otherwise."""
    if not (0.0 <= cx <= 1.0 and 0.0 <= cy <= 1.0):
        raise ValueError(f"box center out of [0,1]: ({cx}, {cy})")
    if not (0.0 < w <= 1.0 and 0.0 < h <= 1.0):
        raise ValueError(f"box size out of (0,1]: ({w}, {h})")
    return cx, cy, w, h


def _confidence(confidence: float) -> float:
    if not (0.0 <= confidence <= 1.0):
        raise ValueError(f"confidence out of [0,1]: {confidence}")
    return confidence


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
    rows = ([cell.strip() for cell in row] for row in csv.reader(split_lines(text)))
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
    row = (_class_id(class_id, registry), *_box(number(cx), number(cy), number(w), number(h)))
    return (*row, _confidence(number(*confidence))) if confidence else row


def yolo_rows(text: str, n_fields: int, registry: ClassRegistry | None = None) -> list[tuple]:
    """The rows of YOLO annotation (`n_fields` 5: `class_id cx cy w h`) or
    prediction (6: `... confidence`) text as tuples of an int class id and
    floats, kept exactly as parsed."""
    return read_rows(map(str.split, split_lines(text)), n_fields, partial(_yolo_row, registry), AnnotationError)


def parse_yolo_annotation(text: str, registry: ClassRegistry | None = None) -> list[GroundTruthObject]:
    return [GroundTruthObject(label, BoundingBox(*box)) for label, *box in yolo_rows(text, 5, registry)]


def parse_yolo_prediction(text: str, registry: ClassRegistry | None = None) -> list[Detection]:
    return [Detection(label, BoundingBox(*box), conf) for label, *box, conf in yolo_rows(text, 6, registry)]


def decode_text(data: bytes) -> str:
    """The text of a UTF-8 file's bytes as text mode reads it with the `utf-8-sig`
    encoding: without a leading byte-order mark, CRLF and CR line ends as LF."""
    return data.decode("utf-8").removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")


def split_lines(text: str) -> list[str]:
    """The lines of `text`, ended by LF, CRLF or CR only, as text mode reads them (`str.splitlines` ends more)."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return lines if lines[-1] else lines[:-1]


@dataclass(frozen=True)
class BoxColumns:
    """The boxes of a sequence of images as columns. Row k has class
    `labels[k]`, a position in the caller's list of class ids, and `values[k]`
    = (cx, cy, w, h) for ground truth or (cx, cy, w, h, confidence) for
    detections; image m owns rows `offsets[m]:offsets[m + 1]`."""

    labels: np.ndarray
    values: np.ndarray
    offsets: np.ndarray


_BLOCK_BYTES = 1 << 18  # input bytes `read_yolo` tokenises before it converts them and drops the tokens


def read_yolo(files, n_fields: int, registry: ClassRegistry) -> BoxColumns:
    """YOLO annotation (`n_fields` 5) or prediction (6) files, each given as
    its bytes, as one `BoxColumns` with labels as positions in
    `registry.ids()`. Files are tokenised in blocks of at most `_BLOCK_BYTES`
    (a larger file is a block of its own), and each block's values convert
    with `int` and `float` as `yolo_rows` converts them and are checked all
    at once: all files convert, or a ValueError or KeyError says nothing of
    where. `yolo_rows` accepts and rejects the same files and names the line."""
    import numpy as np

    position = {class_id: k for k, class_id in enumerate(registry.ids())}
    labels, values, counts, rows, size = [], [], [0], [], 0

    def convert():
        if not set(map(len, rows)) <= {n_fields}:
            raise ValueError("wrong field count")
        tokens = list(itertools.chain.from_iterable(rows))
        rows.clear()
        labels.append(np.array([position[int(raw)] for raw in tokens[::n_fields]], dtype=np.intp))
        del tokens[::n_fields]
        values.append(np.array(list(map(float, tokens)), dtype=np.float64).reshape(-1, n_fields - 1))

    for data in files:
        if size + len(data) > _BLOCK_BYTES:
            convert()
            size = 0
        lines = [fields for fields in map(str.split, split_lines(decode_text(data))) if fields]
        rows += lines
        counts.append(len(lines))
        size += len(data)
    convert()
    values = np.concatenate(values)
    # cx, cy and the confidence in [0, 1], w and h in (0, 1]; NaN fails both
    if not (np.all((values >= 0.0) & (values <= 1.0)) and np.all(values[:, 2:4] > 0.0)):
        raise ValueError("value out of range")
    return BoxColumns(np.concatenate(labels), values, np.cumsum(counts))


def format_yolo_rows(rows) -> str:
    """YOLO text of `yolo_rows` rows, one line each, every value after the class id with 6 decimals."""
    return "".join(f"{label} {' '.join(map('{:.6f}'.format, values))}\n" for label, *values in rows)


def format_yolo_annotation(objects) -> str:
    return format_yolo_rows((o.label, o.box.cx, o.box.cy, o.box.w, o.box.h) for o in objects)


def format_yolo_prediction(detections) -> str:
    return format_yolo_rows((d.label, d.box.cx, d.box.cy, d.box.w, d.box.h, d.confidence) for d in detections)


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
