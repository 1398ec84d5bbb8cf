"""Detection matching, precision/recall metrics, AP/mAP, confusion matrix,
and per-stratum bag-detection accuracy."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .annotations import ClassRegistry, Detection, GroundTruthObject, read_csv

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


# Detection rows per IoU block are chosen so that a block holds at most this
# many pairs, which bounds the working set however crowded an image is.
_BLOCK_PAIRS = 1 << 15


def _box_columns(objects):
    """Lower corners and upper corners (each 2 x N, x then y) and areas, with
    the operation order of `annotations.iou`: corners are c -/+ size/2.0
    and areas come from the corners."""
    boxes = np.array(
        [(o.box.cx, o.box.cy, o.box.w, o.box.h) for o in objects], dtype=np.float64
    ).T
    half = boxes[2:] / 2.0
    lo = boxes[:2] - half
    hi = boxes[:2] + half
    side = hi - lo
    return lo, hi, side[0] * side[1]


def _candidates(detections, truths, iou_threshold: float) -> list[tuple[int, int, float]]:
    """(i, j, iou) for every detection/truth pair whose IoU is at or above the
    threshold, in row-major order.

    One vectorised pass over blocks of detection rows; each IoU is
    bit-identical to `annotations.iou(detections[i].box, truths[j].box)`.
    Negative overlaps are clipped to 0, which leaves every positive
    intersection unchanged and sends every other pair below the (positive)
    threshold, as the scalar early return does."""
    if not (0.0 < iou_threshold <= 1.0):
        raise ValueError(f"iou_threshold out of (0,1]: {iou_threshold}")
    if not detections or not truths:
        return []
    n_dets = len(detections)
    lo, hi, area = _box_columns((*detections, *truths))
    d_lo, d_hi, d_area = lo[:, :n_dets, None], hi[:, :n_dets, None], area[:n_dets, None]
    t_lo, t_hi, t_area = lo[:, None, n_dets:], hi[:, None, n_dets:], area[n_dets:]
    rows = max(1, _BLOCK_PAIRS // len(truths))
    overlap_buf = np.empty((2, min(rows, n_dets), len(truths)))
    spare_buf = np.empty_like(overlap_buf)
    found = []
    # 0/0 arises only between boxes too thin to have area; NaN fails the test
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, n_dets, rows):
            block = slice(start, start + rows)
            n = min(rows, n_dets - start)
            overlap, tmp = overlap_buf[:, :n], spare_buf[:, :n]
            np.minimum(d_hi[:, block], t_hi, out=overlap)
            overlap -= np.maximum(d_lo[:, block], t_lo, out=tmp)
            np.maximum(overlap, 0.0, out=overlap)
            inter = np.multiply(overlap[0], overlap[1], out=tmp[0])
            union = np.add(d_area[block], t_area, out=tmp[1])
            union -= inter
            value = np.divide(inter, union, out=overlap[0])
            hit = value >= iou_threshold
            i, j = np.nonzero(hit)
            found.extend(zip((i + start).tolist(), j.tolist(), value[hit].tolist()))
    return found


def _greedy(detections, truths, candidates, cross_class: bool) -> tuple[MatchedPair, ...]:
    """Greedy one-to-one assignment over IoU candidates: detections in
    descending-confidence order (input order breaks ties) each claim the
    untaken truth of highest IoU; the first truth wins an IoU tie."""
    options: dict[int, list[tuple[int, float]]] = {}
    for i, j, value in candidates:
        if cross_class or detections[i].label == truths[j].label:
            options.setdefault(i, []).append((j, value))
    taken = set()
    pairs = []
    for i in sorted(options, key=lambda i: (-detections[i].confidence, i)):
        best_j, best_iou = -1, 0.0
        for j, value in options[i]:
            if value > best_iou and j not in taken:
                best_j, best_iou = j, value
        if best_j >= 0:
            taken.add(best_j)
            pairs.append(MatchedPair(i, best_j, best_iou))
    return tuple(pairs)


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
    candidates = _candidates(detections, truths, iou_threshold)
    pairs = _greedy(detections, truths, candidates, cross_class)
    return MatchReport(detections, truths, pairs, iou_threshold, cross_class)


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


@dataclass(frozen=True)
class EvalSample:
    """Detections and ground truth for one image, in one coordinate frame."""

    image_id: str
    detections: tuple[Detection, ...]
    truths: tuple[GroundTruthObject, ...]


def _class_events(report: MatchReport, class_ids):
    """Per class: (confidence, is_tp) per detection of the class, the
    positive count and the TP/FP/FN tally of one image's same-class report.

    Matching runs independently per image, so the outcome does not depend on
    image order; ties in confidence are resolved inside each image by input
    order, exactly as `match` does.
    """
    tp_dets = report.matched_det_indices()
    tallies = report.tallies()
    summaries = {}
    for class_id in class_ids:
        events = [
            (det.confidence, i in tp_dets)
            for i, det in enumerate(report.detections)
            if det.label == class_id
        ]
        npos = sum(1 for truth in report.truths if truth.label == class_id)
        summaries[class_id] = (events, npos, tallies.get(class_id, ClassTally()))
    return summaries


def _sweep(events, npos: int, class_id: int) -> PRCurve:
    events = sorted(events, key=lambda e: -e[0])
    points = []
    tp = fp = 0
    idx = 0
    while idx < len(events):
        threshold = events[idx][0]
        while idx < len(events) and events[idx][0] == threshold:
            if events[idx][1]:
                tp += 1
            else:
                fp += 1
            idx += 1
        points.append(
            PRPoint(
                threshold=threshold,
                precision=tp / (tp + fp),
                recall=tp / npos if npos > 0 else 0.0,
            )
        )
    return PRCurve(class_id=class_id, npos=npos, points=tuple(points))


def _fold(image_summaries, class_id: int):
    """One class's sweep events, positive count and tally over all images,
    from the per-image summaries of `_class_events`."""
    events, npos, tp, fp, fn = [], 0, 0, 0, 0
    for summaries in image_summaries:
        image_events, image_npos, tally = summaries[class_id]
        events.extend(image_events)
        npos += image_npos
        tp, fp, fn = tp + tally.tp, fp + tally.fp, fn + tally.fn
    return events, npos, ClassTally(tp, fp, fn)


def pr_curve(samples, class_id: int, iou_threshold: float) -> PRCurve:
    """Precision/recall sweep over every distinct confidence value.

    Tallies accumulate in descending-confidence order; tied confidences are
    folded into a single sweep step so the curve is independent of input
    ordering."""
    reports = (match(s.detections, s.truths, iou_threshold) for s in samples)
    events, npos, _ = _fold((_class_events(r, (class_id,)) for r in reports), class_id)
    return _sweep(events, npos, class_id)


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


def confusion_matrix(reports, registry: ClassRegistry) -> ConfusionMatrix:
    """Fold cross-class match reports into an (N+1)x(N+1) confusion matrix."""
    reports = list(reports)
    for report in reports:
        if not report.cross_class:
            raise ValueError("confusion_matrix needs reports built with cross_class=True")
    ids = registry.ids()
    index = {class_id: k for k, class_id in enumerate(ids)}
    bg = len(ids)
    counts = [[0] * (len(ids) + 1) for _ in range(len(ids) + 1)]
    for report in reports:
        for pair in report.pairs:
            det = report.detections[pair.det_index]
            truth = report.truths[pair.truth_index]
            counts[index[det.label]][index[truth.label]] += 1
        matched_dets = report.matched_det_indices()
        matched_truths = report.matched_truth_indices()
        for i, det in enumerate(report.detections):
            if i not in matched_dets:
                counts[index[det.label]][bg] += 1
        for j, truth in enumerate(report.truths):
            if j not in matched_truths:
                counts[bg][index[truth.label]] += 1
    names = tuple(registry.name_of(class_id) for class_id in ids) + (BACKGROUND,)
    return ConfusionMatrix(names, tuple(tuple(row) for row in counts))


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


def _image_summary(sample: EvalSample, class_ids, iou_threshold: float):
    """Everything the aggregate needs from one image: per-class sweep events,
    positive counts and tallies, plus the cross-class report for the
    confusion matrix. Both passes read one candidate set: classes never
    compete for a truth, so one label-filtered pass pairs exactly as
    separate per-class passes would."""
    dets, truths = sample.detections, sample.truths
    candidates = _candidates(dets, truths, iou_threshold)
    same = _greedy(dets, truths, candidates, cross_class=False)
    cross = _greedy(dets, truths, candidates, cross_class=True)
    return (
        _class_events(MatchReport(dets, truths, same, iou_threshold), class_ids),
        MatchReport(dets, truths, cross, iou_threshold, cross_class=True),
    )


def evaluate_detections(
    samples,
    registry: ClassRegistry,
    iou_threshold: float,
    interpolation: str = AP_ALL_POINT,
) -> EvaluationReport:
    """Full per-class evaluation over a test set.

    Per-class tallies and the PR sweep come from per-image same-class
    matching; the confusion matrix comes from a cross-class pass over the
    same IoU candidates. Each image is matched independently and the
    results fold in image order.
    """
    samples = sorted(samples, key=lambda s: s.image_id)
    class_ids = registry.ids()
    summaries = [_image_summary(s, class_ids, iou_threshold) for s in samples]

    per_class = []
    flags = []
    for class_id in class_ids:
        name = registry.name_of(class_id)
        events, npos, tally = _fold((classes for classes, _ in summaries), class_id)
        curve = _sweep(events, npos, class_id)
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
        confusion=confusion_matrix([cross for _, cross in summaries], registry),
        degenerate_flags=tuple(flags),
    )
