"""Detection matching, precision/recall metrics, AP/mAP, confusion matrix,
and per-stratum bag-detection accuracy."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .annotations import BACKGROUND, BoxColumns, ClassRegistry, RegistryError, _box, _class_id_in_range
from .annotations import _confidence, integer, left_sum, read_csv
from .config import AP_11_POINT, AP_ALL_POINT, AP_INTERPOLATION, COUNT, SHARE, _one_of

STRATA = ("top", "middle", "bottom")
_STRATUM = _one_of(*STRATA)


class MetricValue(float):
    """A float metric that remembers whether its denominator was empty.

    Division by an empty tally is defined as 0 and flagged degenerate so
    reports can distinguish "measured zero" from "nothing to measure".
    """

    degenerate: bool

    def __new__(cls, value: float, degenerate: bool = False):
        obj = super().__new__(cls, value)
        obj.degenerate = degenerate
        return obj


@dataclass(frozen=True)
class ClassTally:
    tp: int = 0
    fp: int = 0
    fn: int = 0


@dataclass(frozen=True)
class EvalSample:
    """Detections and ground truth for one image, in one coordinate frame, as
    the rows `yolo_rows` reads: (class_id, cx, cy, w, h, confidence) and
    (class_id, cx, cy, w, h). A row of another length, a class id that
    `annotations._class_id_in_range` refuses, a box outside `BoundingBox`'s
    ranges or a confidence outside [0, 1] is a ValueError."""

    image_id: str
    detections: tuple[tuple, ...]
    truths: tuple[tuple, ...]

    def __post_init__(self) -> None:
        for rows, n_fields in ((self.detections, 6), (self.truths, 5)):
            for row in rows:
                if len(row) != n_fields:
                    raise ValueError(f"expected a row of {n_fields} fields, got {row!r}")
                _class_id_in_range(row[0])
                _box(*row[1:5])
        for row in self.detections:
            _confidence(row[5])


@dataclass(frozen=True)
class EvalColumns:
    """Ground truth and detections of a sequence of images as columns (see
    `BoxColumns`); image m of `truths` is image m of `detections`, and the
    images fold in this order."""

    truths: BoxColumns
    detections: BoxColumns

    @classmethod
    def from_samples(cls, samples, positions: dict[int, int]) -> EvalColumns:
        """Columns of a list of EvalSamples, class ids mapped to `positions` (a RegistryError for one it lacks)."""

        def columns(images, n_fields):
            rows = [row for image in images for row in image]
            if unknown := [row[0] for row in rows if row[0] not in positions]:
                raise RegistryError(f"unknown class id {unknown[0]}")
            return BoxColumns(
                np.array([positions[row[0]] for row in rows], dtype=np.intp),
                np.array(rows, dtype=np.float64).reshape(-1, n_fields)[:, 1:],
                np.cumsum([0] + [len(image) for image in images]),
            )

        return cls(columns([s.truths for s in samples], 5), columns([s.detections for s in samples], 6))


# Consecutive detection rows, across images, go into one IoU block until it
# holds this many pairs; a row alone may exceed it. This bounds the working
# set however crowded an image is.
_BLOCK_PAIRS = 1 << 12


def _corners(values):
    """Rows x1, y1, x2, y2 and area (a 5 x N array) of boxes, with the
    operation order of `annotations.iou`: corners are c -/+ size/2.0 and
    areas come from the corners."""
    boxes = values[:, :4].T
    half = boxes[2:] / 2.0
    lo = boxes[:2] - half
    hi = boxes[:2] + half
    side = hi - lo
    return np.concatenate((lo, hi, (side[0] * side[1])[None]))


def _candidates(columns: EvalColumns, iou_threshold: float):
    """(detection rows, truth rows, IoUs) of every pair within one image whose
    IoU is at or above the threshold, in greedy order: -confidence, row, -IoU, col.

    Each IoU is bit-identical to `annotations.iou` of the two boxes. Negative
    overlaps are clipped to 0, which leaves every positive intersection
    unchanged and sends every other pair below the (positive) threshold, as
    the scalar early return does."""
    SHARE(iou_threshold, "iou_threshold")
    dets, truths = columns.detections, columns.truths
    # each detection row pairs with the truth rows of its image
    n_pairs = np.repeat(np.diff(truths.offsets), np.diff(dets.offsets))
    pairs_end = np.cumsum(n_pairs)
    found = [(np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0))]
    start, n_dets = 0, len(n_pairs)
    # 0/0 arises only between boxes too thin to have area; NaN fails the test
    with np.errstate(divide="ignore", invalid="ignore"):
        while start < n_dets:
            limit = pairs_end[start] - n_pairs[start] + _BLOCK_PAIRS
            stop = max(start + 1, int(np.searchsorted(pairs_end, limit, "right")))
            counts = n_pairs[start:stop]
            # first[k]: the first truth row of row start + k's image; the rows
            # span consecutive images, so their truth rows are the run lo:hi
            first = truths.offsets[np.searchsorted(dets.offsets, np.arange(start, stop), "right") - 1]
            lo, hi = first[0], first[-1] + counts[-1]
            rows = np.repeat(np.arange(start, stop), counts)
            cols = np.repeat(first - np.cumsum(counts) + counts, counts) + np.arange(len(rows))
            d = np.repeat(_corners(dets.values[start:stop]), counts, axis=1)
            t = _corners(truths.values[lo:hi]).take(cols - lo, axis=1)
            overlap = np.minimum(d[2:4], t[2:4])
            overlap -= np.maximum(d[:2], t[:2])
            np.maximum(overlap, 0.0, out=overlap)
            inter = overlap[0] * overlap[1]
            union = d[4] + t[4]
            union -= inter
            value = np.divide(inter, union, out=union)
            hit = value >= iou_threshold
            found.append((rows[hit], cols[hit], value[hit]))
            start = stop
    rows, cols, ious = (np.concatenate(column) for column in zip(*found))
    order = np.lexsort((cols, -ious, rows, -dets.values[rows, 4]))
    return rows[order], cols[order], ious[order]


def _greedy(rows, cols, ious):
    """(detection rows, truth rows, IoUs) of the pairs a greedy one-to-one
    assignment makes of candidates in `_candidates`' order, in the order it
    makes them: detections in descending-confidence order (row order breaks
    ties) each claim the untaken truth of highest IoU among their candidates;
    the first truth wins an IoU tie. Images share no truths, so one pass over
    all their candidates pairs each image as a pass of its own would. A pair
    whose detection and truth are in no other candidate pair is made wherever
    it falls in that order and blocks no other pair, so all such pairs are
    settled at once and only the contested rest is walked in order."""
    made = (np.bincount(rows)[rows] == 1) & (np.bincount(cols)[cols] == 1)
    contested = np.flatnonzero(~made)
    det_taken, truth_taken = set(), set()
    for k, i, j in zip(contested.tolist(), rows[contested].tolist(), cols[contested].tolist()):
        if i not in det_taken and j not in truth_taken:
            det_taken.add(i)
            truth_taken.add(j)
            made[k] = True
    return rows[made], cols[made], ious[made]


def _rates(t: ClassTally) -> tuple[MetricValue, MetricValue, MetricValue, MetricValue]:
    """Precision, recall, F1 and accuracy of one tally. Accuracy is
    (TP+TN)/(TP+TN+FP+FN) with TN fixed at 0: open-scene detection has no
    countable true negatives, so it reduces to TP/(TP+FP+FN)."""

    def ratio(denom: int) -> MetricValue:
        return MetricValue(t.tp / denom) if denom else MetricValue(0.0, degenerate=True)

    p, r = ratio(t.tp + t.fp), ratio(t.tp + t.fn)
    if p + r == 0.0:
        f = MetricValue(0.0, degenerate=True)
    else:
        f = MetricValue(2.0 * p * r / (p + r), degenerate=p.degenerate or r.degenerate)
    return p, r, f, ratio(t.tp + t.fp + t.fn)


@dataclass(frozen=True, eq=False)
class PRCurve:
    """A class's PR sweep as float64 columns, one entry per distinct
    confidence, highest first. A curve is read through its columns."""

    class_id: int
    npos: int
    threshold: np.ndarray
    precision: np.ndarray
    recall: np.ndarray


def _sweep(confidence, is_tp, npos: int, class_id: int) -> PRCurve:
    """PR points of one class's detections, one per distinct confidence,
    highest first: detections tied on confidence enter in one step, and the
    step's threshold is the confidence of its first detection in fold order."""
    if not len(confidence):
        return PRCurve(class_id, npos, np.empty(0), np.empty(0), np.empty(0))
    order = np.argsort(-confidence, kind="stable")
    confidence = confidence[order]
    step_end = np.flatnonzero(np.append(confidence[1:] != confidence[:-1], True))
    threshold = confidence[np.append(0, step_end[:-1] + 1)]
    tp = np.cumsum(is_tp[order])[step_end]
    recall = tp / npos if npos > 0 else np.zeros(len(tp))
    return PRCurve(class_id, npos, threshold, tp / (step_end + 1), recall)


def _class_curve(columns: EvalColumns, is_tp, position: int, class_id: int) -> PRCurve:
    """The sweep of the detections of the class at `position`."""
    dets = columns.detections
    mine = dets.labels == position
    npos = int(np.count_nonzero(columns.truths.labels == position))
    return _sweep(dets.values[mine, 4], is_tp[mine], npos, class_id)


def _true_positives(columns: EvalColumns, candidates) -> np.ndarray:
    """Whether each detection is matched by the greedy pass over the same-class candidates."""
    same = columns.detections.labels[candidates[0]] == columns.truths.labels[candidates[1]]
    is_tp = np.zeros(len(columns.detections.labels), dtype=bool)
    is_tp[_greedy(*(column[same] for column in candidates))[0]] = True
    return is_tp


def pr_curve(samples, class_id: int, iou_threshold: float) -> PRCurve:
    """Precision/recall sweep over every distinct confidence value.

    Tallies accumulate in descending-confidence order; tied confidences are
    folded into a single sweep step so the curve is independent of input
    ordering."""
    _class_id_in_range(class_id)
    samples = list(samples)
    labels = {row[0] for s in samples for row in (*s.detections, *s.truths)} | {class_id}
    positions = {c: k for k, c in enumerate(sorted(labels))}
    columns = EvalColumns.from_samples(samples, positions)
    is_tp = _true_positives(columns, _candidates(columns, iou_threshold))
    return _class_curve(columns, is_tp, positions[class_id], class_id)


def average_precision(curve: PRCurve, interpolation: str = AP_ALL_POINT) -> MetricValue:
    """Interpolated AP over a PR sweep.

    "all-point" (default) adds up, in point order, recall increments times
    the monotone precision envelope (the largest precision at any recall at
    or beyond the increment); "11-point" averages that envelope at recalls
    0.0, 0.1, ..., 1.0, added in that order."""
    AP_INTERPOLATION(interpolation, "interpolation")
    if not len(curve.recall) or curve.npos == 0:
        return MetricValue(0.0, degenerate=True)
    # the largest precision at or after each point, never below 0.0
    envelope = np.maximum.accumulate(np.maximum(curve.precision, 0.0)[::-1])[::-1]
    if interpolation == AP_11_POINT:
        # the envelope at the first point whose recall reaches each level, 0.0 past the last
        first = np.searchsorted(np.maximum.accumulate(curve.recall), np.arange(11) / 10.0)
        return MetricValue(left_sum(np.append(envelope, 0.0)[first].tolist()) / 11.0)
    return MetricValue(left_sum((np.diff(curve.recall, prepend=0.0) * envelope).tolist()))


def mean_average_precision(aps) -> float:
    """Arithmetic mean of per-class AP values."""
    values = list(aps.values()) if hasattr(aps, "values") else list(aps)
    if not values:
        raise ValueError("mean_average_precision needs at least one class AP")
    return left_sum(values) / len(values)


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts over predicted class (rows) vs true class (columns), each side
    extended with a background pseudo-class for unmatched entries."""

    class_names: tuple[str, ...]
    matrix: tuple[tuple[int, ...], ...]

    def total(self) -> int:
        return sum(sum(row) for row in self.matrix)


def _confusion(det_labels, truth_labels, pairs, registry: ClassRegistry) -> ConfusionMatrix:
    """Predicted (rows) vs true (columns) class counts of cross-class pairs
    (detection rows, truth rows); an unmatched detection counts against the
    background column and an unmatched truth against the background row.
    Labels are positions in `registry.ids()`, which is also the row order."""
    rows, cols = pairs
    side = len(registry) + 1
    unmatched_dets = np.delete(det_labels, rows)
    unmatched_truths = np.delete(truth_labels, cols)
    cells = np.concatenate((
        det_labels[rows] * side + truth_labels[cols],
        unmatched_dets * side + side - 1,
        (side - 1) * side + unmatched_truths,
    ))
    counts = np.bincount(cells, minlength=side * side).reshape(side, side)
    names = tuple(registry.name_of(class_id) for class_id in registry.ids()) + (BACKGROUND,)
    return ConfusionMatrix(names, tuple(map(tuple, counts.tolist())))


@dataclass(frozen=True)
class HeightRecord:
    """Placed vs detected bag counts for one image at one height stratum."""

    image_id: str
    stratum: str
    placed: int
    detected: int

    def __post_init__(self) -> None:
        _STRATUM(self.stratum, "stratum")
        COUNT(self.placed, "placed")
        COUNT(self.detected, "detected")
        if self.detected > self.placed:
            raise ValueError(f"need 0 <= detected <= placed, got {self.detected}/{self.placed}")


def load_height_records(text: str) -> list[HeightRecord]:
    """Parse `image_id,stratum,placed,detected` CSV rows into records."""
    def record(image_id, stratum, placed, detected):
        return HeightRecord(image_id, stratum, integer(placed), integer(detected))

    return read_csv(text, 4, record, ("image_id", "stratum", "placed", "detected"))[1]


@dataclass(frozen=True)
class StratumAccuracy:
    stratum: str
    image_ids: tuple[str, ...]
    percentages: tuple[float, ...]
    mean: float
    sd: float | None


def bag_based_accuracy(records, stratum: str) -> StratumAccuracy:
    """Per-image detected/placed percentages for one stratum, with the
    across-image mean and sample (n-1) standard deviation."""
    _STRATUM(stratum, "stratum")
    ids, pcts = [], []
    for rec in records:
        if rec.stratum != stratum:
            continue
        if rec.placed == 0:
            warnings.warn(
                f"image {rec.image_id!r}: no bags placed at {stratum}; excluded",
                stacklevel=2,
            )
            continue
        ids.append(rec.image_id)
        pcts.append(100.0 * rec.detected / rec.placed)
    if not pcts:
        raise ValueError(f"no usable records for stratum {stratum!r}")
    from .stats import describe

    summary = describe(pcts)
    return StratumAccuracy(stratum, tuple(ids), tuple(pcts), summary.mean, summary.sd)


@dataclass(frozen=True)
class ClassEvaluation:
    class_id: int
    name: str
    tally: ClassTally
    precision: MetricValue
    recall: MetricValue
    f1: MetricValue
    accuracy: MetricValue
    ap: MetricValue
    curve: PRCurve


@dataclass(frozen=True)
class EvaluationReport:
    iou_threshold: float
    per_class: tuple[ClassEvaluation, ...]
    map50: float
    confusion: ConfusionMatrix
    degenerate_flags: tuple[str, ...] = field(default=())


def evaluate_detections(
    samples,
    registry: ClassRegistry,
    iou_threshold: float,
    interpolation: str = AP_ALL_POINT,
) -> EvaluationReport:
    """Full per-class evaluation over a test set, given as EvalSamples (in
    any order; they fold in image-id order) or as `EvalColumns` with labels
    as positions in `registry.ids()` (they fold in column order).

    Per-class tallies and the PR sweep come from same-class greedy matching
    in each image; the confusion matrix comes from a cross-class pass over
    the same IoU candidates. Classes never compete for a truth, so one
    label-filtered pass pairs exactly as separate per-class passes would.
    """
    class_ids = registry.ids()
    columns = samples
    if not isinstance(samples, EvalColumns):
        positions = {class_id: k for k, class_id in enumerate(class_ids)}
        columns = EvalColumns.from_samples(sorted(samples, key=lambda s: s.image_id), positions)
    candidates = _candidates(columns, iou_threshold)
    is_tp = _true_positives(columns, candidates)
    det_labels, truth_labels = columns.detections.labels, columns.truths.labels
    n = len(class_ids)
    dets, npos = np.bincount(det_labels, minlength=n), np.bincount(truth_labels, minlength=n)
    tps = np.bincount(det_labels[is_tp], minlength=n)

    per_class = []
    flags = []
    for position, class_id in enumerate(class_ids):
        name = registry.name_of(class_id)
        tp = int(tps[position])
        tally = ClassTally(tp, int(dets[position]) - tp, int(npos[position]) - tp)
        curve = _class_curve(columns, is_tp, position, class_id)
        ap = average_precision(curve, interpolation)
        p, r, f, acc = _rates(tally)
        for metric_name, value in (
            ("ap", ap), ("precision", p), ("recall", r), ("f1", f), ("accuracy", acc),
        ):
            if value.degenerate:
                flags.append(f"{metric_name}[{name}]")
        per_class.append(ClassEvaluation(class_id, name, tally, p, r, f, acc, ap, curve))
    return EvaluationReport(
        iou_threshold=iou_threshold,
        per_class=tuple(per_class),
        map50=mean_average_precision(c.ap for c in per_class),
        confusion=_confusion(det_labels, truth_labels, _greedy(*candidates)[:2], registry),
        degenerate_flags=tuple(flags),
    )
