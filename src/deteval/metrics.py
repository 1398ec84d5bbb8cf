"""Detection matching, precision/recall metrics, AP/mAP, confusion matrix,
and per-stratum bag-detection accuracy."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .annotations import BoxColumns, ClassRegistry, Detection, GroundTruthObject, read_csv

BACKGROUND = "background"

STRATA = ("top", "middle", "bottom")


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
class MatchedPair:
    det_index: int
    truth_index: int
    iou: float


@dataclass(frozen=True)
class ClassTally:
    tp: int = 0
    fp: int = 0
    fn: int = 0


@dataclass(frozen=True)
class MatchReport:
    """One-to-one detection/truth matching outcome at a fixed IoU threshold."""

    detections: tuple[Detection, ...]
    truths: tuple[GroundTruthObject, ...]
    pairs: tuple[MatchedPair, ...]
    iou_threshold: float
    cross_class: bool = False

    def tallies(self) -> dict[int, ClassTally]:
        """Per-class TP/FP/FN counts. Cross-class pairs count as FP for the
        predicted class and FN for the true class."""
        classes = {d.label for d in self.detections} | {t.label for t in self.truths}
        same_class_pairs = [
            p for p in self.pairs
            if self.detections[p.det_index].label == self.truths[p.truth_index].label
        ]
        tp_dets = {p.det_index for p in same_class_pairs}
        tp_truths = {p.truth_index for p in same_class_pairs}
        out = {}
        for c in sorted(classes):
            tp = sum(1 for p in same_class_pairs if self.detections[p.det_index].label == c)
            fp = sum(1 for i, d in enumerate(self.detections) if d.label == c and i not in tp_dets)
            fn = sum(1 for j, t in enumerate(self.truths) if t.label == c and j not in tp_truths)
            out[c] = ClassTally(tp, fp, fn)
        return out

    def matched_det_indices(self) -> set[int]:
        return {p.det_index for p in self.pairs}

    def matched_truth_indices(self) -> set[int]:
        return {p.truth_index for p in self.pairs}


@dataclass(frozen=True)
class EvalSample:
    """Detections and ground truth for one image, in one coordinate frame."""

    image_id: str
    detections: tuple[Detection, ...]
    truths: tuple[GroundTruthObject, ...]


@dataclass(frozen=True)
class EvalColumns:
    """Ground truth and detections of a sequence of images as columns (see
    `BoxColumns`); image m of `truths` is image m of `detections`, and the
    images fold in this order."""

    truths: BoxColumns
    detections: BoxColumns

    @classmethod
    def from_samples(cls, samples, positions: dict[int, int]) -> EvalColumns:
        """Columns of EvalSamples, class ids mapped to `positions`."""
        samples = list(samples)

        def columns(images, fields, width):
            objects = [o for image in images for o in image]
            return BoxColumns(
                np.array([positions[o.label] for o in objects], dtype=np.intp),
                np.array([fields(o) for o in objects], dtype=np.float64).reshape(-1, width),
                np.cumsum([0] + [len(image) for image in images]),
            )

        return cls(
            columns([s.truths for s in samples], lambda t: (t.box.cx, t.box.cy, t.box.w, t.box.h), 4),
            columns(
                [s.detections for s in samples],
                lambda d: (d.box.cx, d.box.cy, d.box.w, d.box.h, d.confidence),
                5,
            ),
        )


def _positions(*groups) -> dict[int, int]:
    """Positions of the sorted class ids of the objects in `groups`."""
    return {c: k for k, c in enumerate(sorted({o.label for group in groups for o in group}))}


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
    IoU is at or above the threshold, detection-major.

    Each IoU is bit-identical to `annotations.iou` of the two boxes. Negative
    overlaps are clipped to 0, which leaves every positive intersection
    unchanged and sends every other pair below the (positive) threshold, as
    the scalar early return does."""
    if not (0.0 < iou_threshold <= 1.0):
        raise ValueError(f"iou_threshold out of (0,1]: {iou_threshold}")
    dets, truths = columns.detections, columns.truths
    per_image = np.diff(dets.offsets)
    # Pairs are numbered detection row by detection row; each row pairs with
    # the truth rows of its image, and its pair p is with truth row
    # p + shift[row].
    n_pairs = np.repeat(np.diff(truths.offsets), per_image)
    pairs_end = np.cumsum(n_pairs)
    pairs_start = pairs_end - n_pairs
    shift = np.repeat(truths.offsets[:-1], per_image) - pairs_start
    d_box, t_box = _corners(dets.values), _corners(truths.values)
    found = [(np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0))]
    start, n_dets = 0, len(n_pairs)
    # 0/0 arises only between boxes too thin to have area; NaN fails the test
    with np.errstate(divide="ignore", invalid="ignore"):
        while start < n_dets:
            limit = pairs_start[start] + _BLOCK_PAIRS
            stop = max(start + 1, int(np.searchsorted(pairs_end, limit, "right")))
            counts = n_pairs[start:stop]
            rows = np.repeat(np.arange(start, stop), counts)
            cols = np.arange(pairs_start[start], pairs_end[stop - 1]) + np.repeat(shift[start:stop], counts)
            d = np.repeat(d_box[:, start:stop], counts, axis=1)
            t = t_box.take(cols, axis=1)
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
    return tuple(np.concatenate(column) for column in zip(*found))


def _greedy(columns: EvalColumns, candidates, cross_class: bool):
    """(detection rows, truth rows, IoUs) of the pairs a greedy one-to-one
    assignment makes, in the order it makes them: detections in
    descending-confidence order (row order breaks ties) each claim the
    untaken truth of highest IoU among their candidates; the first truth
    wins an IoU tie. Without cross_class only same-class pairs are eligible.
    Images share no truths, so one pass over all their candidates, sorted
    once, pairs each image as a pass of its own would."""
    rows, cols, ious = candidates
    if not cross_class:
        same = columns.detections.labels[rows] == columns.truths.labels[cols]
        rows, cols, ious = rows[same], cols[same], ious[same]
    order = np.lexsort((cols, -ious, rows, -columns.detections.values[rows, 4]))
    det_taken, truth_taken, made = set(), set(), []
    for k, i, j in zip(order.tolist(), rows[order].tolist(), cols[order].tolist()):
        if i not in det_taken and j not in truth_taken:
            det_taken.add(i)
            truth_taken.add(j)
            made.append(k)
    return rows[made], cols[made], ious[made]


def match(
    detections,
    truths,
    iou_threshold: float,
    cross_class: bool = False,
) -> MatchReport:
    """Greedy one-to-one matching: detections in descending-confidence order
    (input order breaks ties) each claim the unmatched truth of highest IoU
    at or above the threshold. With cross_class=False only same-class truths
    are eligible; with cross_class=True any truth is, which is the mode the
    confusion matrix needs."""
    detections = tuple(detections)
    truths = tuple(truths)
    sample = EvalSample("", detections, truths)
    columns = EvalColumns.from_samples([sample], _positions(detections, truths))
    pairs = _greedy(columns, _candidates(columns, iou_threshold), cross_class)
    made = tuple(map(MatchedPair, *(column.tolist() for column in pairs)))
    return MatchReport(detections, truths, made, iou_threshold, cross_class)


def _sum_tallies(report: MatchReport, label: int | None) -> ClassTally:
    tallies = report.tallies()
    if label is not None:
        return tallies.get(label, ClassTally())
    return ClassTally(
        tp=sum(t.tp for t in tallies.values()),
        fp=sum(t.fp for t in tallies.values()),
        fn=sum(t.fn for t in tallies.values()),
    )


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


def precision(report: MatchReport, label: int | None = None) -> MetricValue:
    return _rates(_sum_tallies(report, label))[0]


def recall(report: MatchReport, label: int | None = None) -> MetricValue:
    return _rates(_sum_tallies(report, label))[1]


def f1(report: MatchReport, label: int | None = None) -> MetricValue:
    return _rates(_sum_tallies(report, label))[2]


def detection_accuracy(report: MatchReport, label: int | None = None) -> MetricValue:
    """TP/(TP+FP+FN): true negatives are counted as 0 (see `_rates`)."""
    return _rates(_sum_tallies(report, label))[3]


@dataclass(frozen=True)
class PRPoint:
    threshold: float
    precision: float
    recall: float


@dataclass(frozen=True)
class PRCurve:
    class_id: int
    npos: int
    points: tuple[PRPoint, ...]


def _sweep(confidence, is_tp, npos: int, class_id: int) -> PRCurve:
    """PR points of one class's detections, one per distinct confidence,
    highest first: detections tied on confidence enter in one step, and the
    step's threshold is the confidence of its first detection in fold order."""
    if not len(confidence):
        return PRCurve(class_id=class_id, npos=npos, points=())
    order = np.argsort(-confidence, kind="stable")
    confidence = confidence[order]
    step_end = np.flatnonzero(np.append(confidence[1:] != confidence[:-1], True))
    threshold = confidence[np.append(0, step_end[:-1] + 1)]
    tp = np.cumsum(is_tp[order])[step_end]
    precision = tp / (step_end + 1)
    recall = tp / npos if npos > 0 else np.zeros(len(tp))
    points = map(PRPoint, threshold.tolist(), precision.tolist(), recall.tolist())
    return PRCurve(class_id=class_id, npos=npos, points=tuple(points))


def _class_curve(columns: EvalColumns, is_tp, position: int, class_id: int) -> PRCurve:
    """The sweep of the detections of the class at `position`."""
    dets = columns.detections
    mine = dets.labels == position
    npos = int(np.count_nonzero(columns.truths.labels == position))
    return _sweep(dets.values[mine, 4], is_tp[mine], npos, class_id)


def _true_positives(columns: EvalColumns, candidates) -> np.ndarray:
    """Whether each detection is matched by the same-class greedy pass."""
    is_tp = np.zeros(len(columns.detections.labels), dtype=bool)
    is_tp[_greedy(columns, candidates, cross_class=False)[0]] = True
    return is_tp


def pr_curve(samples, class_id: int, iou_threshold: float) -> PRCurve:
    """Precision/recall sweep over every distinct confidence value.

    Tallies accumulate in descending-confidence order; tied confidences are
    folded into a single sweep step so the curve is independent of input
    ordering."""
    samples = list(samples)
    positions = _positions(*(s.detections for s in samples), *(s.truths for s in samples))
    positions.setdefault(class_id, len(positions))
    columns = EvalColumns.from_samples(samples, positions)
    is_tp = _true_positives(columns, _candidates(columns, iou_threshold))
    return _class_curve(columns, is_tp, positions[class_id], class_id)


AP_ALL_POINT = "all-point"
AP_11_POINT = "11-point"


def average_precision(curve: PRCurve, interpolation: str = AP_ALL_POINT) -> MetricValue:
    """Interpolated AP over a PR sweep.

    "all-point" (default) sums recall increments times the monotone precision
    envelope (the largest precision at any recall at or beyond the
    increment); "11-point" averages that envelope at recalls 0.0, 0.1, ...,
    1.0."""
    if interpolation not in (AP_ALL_POINT, AP_11_POINT):
        raise ValueError(f"unknown AP interpolation: {interpolation!r}")
    if not curve.points or curve.npos == 0:
        return MetricValue(0.0, degenerate=True)
    envelope = [0.0] * len(curve.points)
    running = 0.0
    for i in range(len(curve.points) - 1, -1, -1):
        running = max(running, curve.points[i].precision)
        envelope[i] = running
    if interpolation == AP_11_POINT:
        total = 0.0
        for step in range(11):
            level = step / 10.0
            total += next(
                (env for point, env in zip(curve.points, envelope) if point.recall >= level),
                0.0,
            )
        return MetricValue(total / 11.0)
    ap = 0.0
    prev_recall = 0.0
    for point, env in zip(curve.points, envelope):
        ap += (point.recall - prev_recall) * env
        prev_recall = point.recall
    return MetricValue(ap)


def mean_average_precision(aps) -> float:
    """Arithmetic mean of per-class AP values."""
    values = list(aps.values()) if hasattr(aps, "values") else list(aps)
    if not values:
        raise ValueError("mean_average_precision needs at least one class AP")
    return float(sum(values) / len(values))


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


def confusion_matrix(reports, registry: ClassRegistry) -> ConfusionMatrix:
    """Fold cross-class match reports into an (N+1)x(N+1) confusion matrix."""
    reports = list(reports)
    for report in reports:
        if not report.cross_class:
            raise ValueError("confusion_matrix needs reports built with cross_class=True")
    position = {class_id: k for k, class_id in enumerate(registry.ids())}
    det_labels, truth_labels, rows, cols = [], [], [], []
    for report in reports:
        rows += [len(det_labels) + p.det_index for p in report.pairs]
        cols += [len(truth_labels) + p.truth_index for p in report.pairs]
        det_labels += [position[d.label] for d in report.detections]
        truth_labels += [position[t.label] for t in report.truths]
    pairs = (np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp))
    return _confusion(
        np.array(det_labels, dtype=np.intp), np.array(truth_labels, dtype=np.intp), pairs, registry
    )


@dataclass(frozen=True)
class HeightRecord:
    """Placed vs detected bag counts for one image at one height stratum."""

    image_id: str
    stratum: str
    placed: int
    detected: int

    def __post_init__(self) -> None:
        if self.stratum not in STRATA:
            raise ValueError(f"stratum must be one of {STRATA}: {self.stratum!r}")
        if self.placed < 0 or not (0 <= self.detected <= max(self.placed, 0)):
            raise ValueError(
                f"need 0 <= detected <= placed, got {self.detected}/{self.placed}"
            )


def load_height_records(text: str) -> list[HeightRecord]:
    """Parse `image_id,stratum,placed,detected` CSV rows into records."""
    def record(image_id, stratum, placed, detected):
        return HeightRecord(image_id, stratum, int(placed), int(detected))

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
    if stratum not in STRATA:
        raise ValueError(f"stratum must be one of {STRATA}: {stratum!r}")
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
    mean = sum(pcts) / len(pcts)
    sd = None
    if len(pcts) >= 2:
        sd = (sum((p - mean) ** 2 for p in pcts) / (len(pcts) - 1)) ** 0.5
    return StratumAccuracy(stratum, tuple(ids), tuple(pcts), mean, sd)


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
    cross = _greedy(columns, candidates, cross_class=True)
    return EvaluationReport(
        iou_threshold=iou_threshold,
        per_class=tuple(per_class),
        map50=mean_average_precision(c.ap for c in per_class),
        confusion=_confusion(det_labels, truth_labels, cross[:2], registry),
        degenerate_flags=tuple(flags),
    )
