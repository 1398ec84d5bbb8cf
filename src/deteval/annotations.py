"""Annotation data model, YOLO-format text I/O, and bounding-box geometry."""

from __future__ import annotations

import csv
import itertools
import math
import operator
import re
import warnings
from dataclasses import dataclass
from functools import partial, reduce

BACKGROUND = "background"  # the confusion matrix's row and column of unmatched boxes; ClassLabel refuses it
_LINE_END = re.compile("\r\n?")  # CRLF or CR, each of which text mode reads as LF


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
        _class_id_in_range(self.id)
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


def _ascii_token(convert, raw: str, problem: str):
    """`convert(raw)` of a token in ASCII without `_`, as numpy's reader in `read_yolo` takes; else `problem`."""
    try:
        if "_" in raw or not raw.isascii():
            raise ValueError
        return convert(raw)
    except ValueError:
        raise ValueError(f"{problem}: {raw!r}") from None


def integer(raw: str) -> int:
    """`int(raw)` of an `_ascii_token`: every integer read from text, a CSV cell or a flag."""
    return _ascii_token(int, raw, "not an integer")


def number(raw: str) -> float:
    """`float(raw)` of an `_ascii_token`; a ValueError unless that is a finite number."""
    value = _ascii_token(float, raw, "not a number")
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {raw!r}")
    return value


def left_sum(terms) -> float:
    """0.0 plus each term in turn, as builtin `sum` adds floats before Python 3.12 (later ones compensate)."""
    return reduce(operator.add, terms, 0.0)


def _class_id_in_range(class_id: int) -> None:
    """A ValueError unless `class_id` is an int (not a bool) in [0, 2**63); `read_yolo` reads class ids as int64."""
    if type(class_id) is not int:
        raise ValueError(f"class id must be an integer: {class_id!r}")
    if class_id < 0:
        raise ValueError(f"class id must be non-negative: {class_id}")
    if class_id >= 2**63:
        raise ValueError(f"class id must be below 2**63: {class_id}")


def _class_id(raw: str, registry: ClassRegistry | None = None) -> int:
    """`int(raw)` of an `_ascii_token` in `_class_id_in_range`, and in `registry` when one is given."""
    class_id = _ascii_token(int, raw, "class id is not an integer")
    _class_id_in_range(class_id)
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


def decode_text(data: bytes) -> str:
    """The text of a UTF-8 file's bytes as text mode reads it with the `utf-8-sig`
    encoding: without a leading byte-order mark, CRLF and CR line ends as LF."""
    return _LINE_END.sub("\n", data.decode("utf-8").removeprefix("\ufeff"))


def split_lines(text: str) -> list[str]:
    """The lines of `text`, ended by LF, CRLF or CR only, as text mode reads them (`str.splitlines` ends more)."""
    lines = _LINE_END.sub("\n", text).split("\n")
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


def read_yolo(files, n_fields: int, registry: ClassRegistry) -> BoxColumns:
    """YOLO annotation (`n_fields` 5) or prediction (6) files, each given as
    its bytes, as one `BoxColumns` with labels as positions in
    `registry.ids()`. numpy's reader converts the lines of every file, one
    after another, into one array of (label, values) rows, of which labels
    and values are views; it reads the ASCII number forms `number` and
    `_class_id` read. All are checked at once: all files convert, or a
    ValueError (a RegistryError for an unknown class id) says nothing of
    where. `yolo_rows` does the same and names the line."""
    import numpy as np

    counts = [0]

    def lines(data: bytes) -> list[str]:
        text = decode_text(data).split("\n")
        counts.append(sum(1 for line in text if line.strip()))
        return text

    dtype = [("label", np.int64), ("values", np.float64, (n_fields - 1,))]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # there may be no rows
        # older numpy (1.23 to 1.26 at least) reads a class id such as 1.5 as a
        # float, cuts it to 1 and only warns; as an error, it fails as
        # `_class_id` does
        warnings.simplefilter("error", DeprecationWarning)
        table = np.loadtxt(itertools.chain.from_iterable(map(lines, files)), dtype=dtype, comments=None, ndmin=1)
    if sum(counts) != len(table):
        raise ValueError("row count")
    labels, values = table["label"], table["values"]
    ids = np.array(registry.ids(), dtype=np.int64)
    positions = np.searchsorted(ids, labels)
    if len(labels) and not (len(ids) and np.array_equal(ids.take(positions, mode="clip"), labels)):
        raise RegistryError("unknown class id")
    labels[:] = positions
    # cx, cy and the confidence in [0, 1], w and h in (0, 1]; min and max
    # carry a NaN through, which fails every comparison
    if not (values.min(initial=0.0) >= 0.0 and values.max(initial=0.0) <= 1.0
            and values[:, 2:4].min(initial=1.0) > 0.0):
        raise ValueError("value out of range")
    return BoxColumns(labels, values, np.cumsum(counts))


def format_yolo_rows(rows) -> str:
    """YOLO text of `yolo_rows` rows, one line each, every value after the class id with 6 decimals."""
    return "".join(f"{label} {' '.join(map('{:.6f}'.format, values))}\n" for label, *values in rows)


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
