import random
import warnings
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deteval import cli, metrics
from deteval.annotations import (
    BoundingBox,
    ClassLabel,
    ClassRegistry,
    RegistryError,
    iou,
    yolo_rows,
)
from deteval.metrics import (
    ClassTally,
    EvalSample,
    HeightRecord,
    PRCurve,
    average_precision,
    bag_based_accuracy,
    evaluate_detections,
    load_height_records,
    mean_average_precision,
    pr_curve,
)

REGISTRY = ClassRegistry([ClassLabel(0, "wb"), ClassLabel(1, "bb")])

UNIT = (0.5, 0.5, 0.2, 0.2)


def _row(label, box, *confidence) -> tuple:
    """The `yolo_rows` row of a (cx, cy, w, h) box: a truth's, or a detection's with its confidence."""
    return (label, *box, *confidence)


def _slot_box(k: int) -> tuple:
    """Disjoint unit slots on a 10x10 grid; slot k and slot j never overlap."""
    row, col = divmod(k, 10)
    return (0.05 + 0.1 * col, 0.05 + 0.1 * row, 0.08, 0.08)


def _sample_from_pattern(confidences, tp_flags, npos, image_id="img"):
    """Build boxes realizing a (confidence, is_tp) pattern: TP detections sit
    exactly on distinct truths, FPs in empty slots."""
    truths = [_row(0, _slot_box(k)) for k in range(npos)]
    dets = []
    next_truth = 0
    next_empty = npos
    for conf, is_tp in zip(confidences, tp_flags):
        if is_tp:
            dets.append(_row(0, _slot_box(next_truth), conf))
            next_truth += 1
        else:
            dets.append(_row(0, _slot_box(next_empty), conf))
            next_empty += 1
    return EvalSample(image_id, tuple(dets), tuple(truths))


def matched_pairs(detections, truths, iou_threshold, cross_class=False):
    """(det_index, truth_index, iou) of the pairs the columnar core makes in
    one image of classes 0-2, in the order it makes them."""
    columns = metrics.EvalColumns.from_samples([EvalSample("img", detections, truths)], {0: 0, 1: 1, 2: 2})
    rows, cols, ious = metrics._candidates(columns, iou_threshold)
    if not cross_class:
        same = columns.detections.labels[rows] == columns.truths.labels[cols]
        rows, cols, ious = rows[same], cols[same], ious[same]
    return list(zip(*(column.tolist() for column in metrics._greedy(rows, cols, ious))))


def _evaluate(detections, truths, iou_threshold=0.5):
    return evaluate_detections([EvalSample("img", tuple(detections), tuple(truths))], REGISTRY, iou_threshold)


def brute_force_ap(confidences, tp_flags, npos) -> float:
    """Independent AP oracle: enumerate every distinct confidence cut point,
    compute (recall, precision) there by re-counting from scratch, and
    integrate the staircase with an explicit max-scan for the envelope."""
    if npos == 0 or not confidences:
        return 0.0
    cuts = sorted(set(confidences), reverse=True)
    rp = []
    for cut in cuts:
        tp = sum(1 for c, flag in zip(confidences, tp_flags) if c >= cut and flag)
        fp = sum(1 for c, flag in zip(confidences, tp_flags) if c >= cut and not flag)
        rp.append((tp / npos, tp / (tp + fp)))
    ap = 0.0
    prev_recall = 0.0
    for k, (rec, _) in enumerate(rp):
        best = max(p for r, p in rp if r >= rec) if rec > prev_recall else 0.0
        ap += (rec - prev_recall) * best
        prev_recall = rec
    return ap


def scalar_average_precision(points, npos, interpolation="all-point"):
    """Reference AP as sequential Python loops over (threshold, precision,
    recall) points: the precision envelope by a running maximum from the last
    point back, then recall increments times the envelope added in point
    order, or the envelope at the first point reaching each 11-point recall
    level added in level order."""
    if not points or npos == 0:
        return metrics.MetricValue(0.0, degenerate=True)
    envelope = [0.0] * len(points)
    running = 0.0
    for i in range(len(points) - 1, -1, -1):
        running = max(running, points[i][1])
        envelope[i] = running
    if interpolation == "11-point":
        total = 0.0
        for step in range(11):
            level = step / 10.0
            total += next((env for point, env in zip(points, envelope) if point[2] >= level), 0.0)
        return metrics.MetricValue(total / 11.0)
    ap = 0.0
    prev_recall = 0.0
    for point, env in zip(points, envelope):
        ap += (point[2] - prev_recall) * env
        prev_recall = point[2]
    return metrics.MetricValue(ap)


# PR-curve values: both zeros, the 11-point levels, a level just missed by
# rounding, and anything in [0, 1]
_CURVE_VALUE = st.one_of(
    st.sampled_from((0.0, -0.0, 1.0, 0.30000000000000004, *(k / 10.0 for k in range(11)))),
    st.floats(0.0, 1.0),
)


class TestMatch:
    def test_perfect_match(self):
        report = _evaluate([_row(0, UNIT, 0.9)], [_row(0, UNIT)])
        assert report.per_class[0].tally == ClassTally(1, 0, 0)

    def test_detection_without_truth(self):
        report = _evaluate([_row(0, UNIT, 0.9)], [])
        assert report.per_class[0].tally == ClassTally(0, 1, 0)

    def test_two_detections_one_truth(self):
        dets = [_row(0, UNIT, 0.9), _row(0, (0.52, 0.5, 0.2, 0.2), 0.8)]
        truths = [_row(0, UNIT)]
        assert _evaluate(dets, truths).per_class[0].tally == ClassTally(1, 1, 0)
        assert matched_pairs(dets, truths, 0.5)[0][0] == 0  # the higher-confidence one wins

    def test_class_mismatch_is_not_matched(self):
        report = _evaluate([_row(1, UNIT, 0.9)], [_row(0, UNIT)])
        assert report.per_class[1].tally.fp == 1
        assert report.per_class[0].tally.fn == 1

    def test_cross_class_matching(self):
        dets, truths = [_row(1, UNIT, 0.9)], [_row(0, UNIT)]
        assert len(matched_pairs(dets, truths, 0.5, cross_class=True)) == 1
        report = _evaluate(dets, truths)
        assert report.per_class[1].tally.fp == 1  # still an FP for its own class
        assert report.per_class[0].tally.fn == 1

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            matched_pairs([], [], 0.0)

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 1),
                st.integers(0, 24),
                st.floats(0.0, 1.0, allow_nan=False),
            ),
            max_size=12,
        ),
        st.lists(st.tuples(st.integers(0, 1), st.integers(0, 24)), max_size=12),
    )
    @settings(max_examples=100)
    def test_one_to_one(self, det_spec, truth_spec):
        dets = [_row(lab, _slot_box(slot), conf) for lab, slot, conf in det_spec]
        truths = [_row(lab, _slot_box(slot)) for lab, slot in truth_spec]
        pairs = matched_pairs(dets, truths, 0.5)
        assert len({i for i, _, _ in pairs}) == len(pairs)
        assert len({j for _, j, _ in pairs}) == len(pairs)
        total_tp = sum(c.tally.tp for c in _evaluate(dets, truths).per_class)
        assert total_tp <= min(len(dets), len(truths))


def scalar_match(detections, truths, iou_threshold, cross_class=False):
    """Reference matcher: the scalar loop over every detection/truth pair
    that the columnar core replaced with one vectorised IoU pass. Returns
    the pairs as (det_index, truth_index, iou) in the order they were made."""
    taken = [False] * len(truths)
    order = sorted(range(len(detections)), key=lambda i: (-detections[i][5], i))
    truth_boxes = [(truth[0], BoundingBox(*truth[1:5])) for truth in truths]
    pairs = []
    for i in order:
        label, box = detections[i][0], BoundingBox(*detections[i][1:5])
        best_j = -1
        best_iou = 0.0
        for j, (truth_label, truth_box) in enumerate(truth_boxes):
            if taken[j]:
                continue
            if not cross_class and truth_label != label:
                continue
            value = iou(box, truth_box)
            if value >= iou_threshold and value > best_iou:
                best_j, best_iou = j, value
        if best_j >= 0:
            taken[best_j] = True
            pairs.append((i, best_j, best_iou))
    return pairs


def scalar_image_summary(sample, class_ids, iou_threshold):
    """Reference for one image's part of an evaluation: an independent
    same-class scalar match per class, and a cross-class one over the whole
    image."""
    per_class = {}
    for class_id in class_ids:
        det_index = [i for i, d in enumerate(sample.detections) if d[0] == class_id]
        truths = [t for t in sample.truths if t[0] == class_id]
        dets = [sample.detections[i] for i in det_index]
        pairs = scalar_match(dets, truths, iou_threshold)
        tp = {i for i, _, _ in pairs}
        events = [(d[5], k in tp) for k, d in enumerate(dets)]
        tally = (len(pairs), len(dets) - len(pairs), len(truths) - len(pairs))
        per_class[class_id] = (events, len(truths), tally)
    cross = scalar_match(sample.detections, sample.truths, iou_threshold, cross_class=True)
    return per_class, cross


def scalar_sweep(events, npos):
    """Reference PR points (threshold, precision, recall) of (confidence,
    is_tp) events in fold order: a stable sort by descending confidence, one
    point per run of equal confidences, whose threshold is the run's first."""
    events = sorted(events, key=lambda e: -e[0])
    points, tp, fp, idx = [], 0, 0, 0
    while idx < len(events):
        threshold = events[idx][0]
        while idx < len(events) and events[idx][0] == threshold:
            tp, fp = (tp + 1, fp) if events[idx][1] else (tp, fp + 1)
            idx += 1
        points.append((threshold, tp / (tp + fp), tp / npos if npos > 0 else 0.0))
    return points


def columnar_image_summaries(samples, class_ids, iou_threshold):
    """Per image, what `scalar_image_summary` gives, read off one run of the
    columnar core over all the images at once."""
    columns = metrics.EvalColumns.from_samples(samples, {c: k for k, c in enumerate(class_ids)})
    candidates = metrics._candidates(columns, iou_threshold)
    is_tp = metrics._true_positives(columns, candidates).tolist()
    cross = list(zip(*(c.tolist() for c in metrics._greedy(*candidates))))
    d_off, t_off = columns.detections.offsets.tolist(), columns.truths.offsets.tolist()
    summaries = []
    for m, sample in enumerate(samples):
        per_class = {}
        for class_id in class_ids:
            events = [
                (d[5], is_tp[d_off[m] + i])
                for i, d in enumerate(sample.detections) if d[0] == class_id
            ]
            npos = sum(1 for t in sample.truths if t[0] == class_id)
            tp = sum(1 for _, flag in events if flag)
            per_class[class_id] = (events, npos, (tp, len(events) - tp, npos - tp))
        pairs = [(i - d_off[m], j - t_off[m], v) for i, j, v in cross if d_off[m] <= i < d_off[m + 1]]
        summaries.append((per_class, pairs))
    return summaries


# Few distinct coordinates make duplicate boxes, and so IoU ties, common;
# arbitrary floats cover the rest of the box space.
_COORD = st.one_of(st.sampled_from((0.3, 0.35, 0.4, 0.5)), st.floats(0.0, 1.0))
_SIZE = st.one_of(
    st.sampled_from((0.1, 0.2, 0.3)), st.floats(0.0, 1.0, exclude_min=True)
)
_BOX = st.tuples(_COORD, _COORD, _SIZE, _SIZE)
_CONFIDENCE = st.one_of(st.sampled_from((0.0, 0.5, 1.0)), st.floats(0.0, 1.0))
_THRESHOLD = st.one_of(
    st.sampled_from((0.5, 1.0, 1 / 3)), st.floats(0.0, 1.0, exclude_min=True)
)
_DETECTIONS = st.lists(st.builds(_row, st.integers(0, 2), _BOX, _CONFIDENCE), max_size=25)
_TRUTHS = st.lists(st.builds(_row, st.integers(0, 2), _BOX), max_size=25)


REGISTRY3 = ClassRegistry([ClassLabel(0, "wb"), ClassLabel(1, "bb"), ClassLabel(2, "xb")])

# Images whose boxes and confidences repeat within and across images, with
# -0.0 and 0.0 both among the confidences; each keeps both files, or only
# its ground truth ("truth") or only its predictions ("preds").
_TIED_BOX = st.tuples(*[st.sampled_from(values) for values in ((0.3, 0.5), (0.3, 0.5), (0.2, 0.3), (0.2, 0.3))])
_IMAGE_BOX = st.one_of(_TIED_BOX, _BOX)
_IMAGES = st.lists(
    st.tuples(
        st.lists(st.builds(_row, st.integers(0, 2), _IMAGE_BOX, st.one_of(
            st.sampled_from((-0.0, 0.0, 0.5, 1.0)), _CONFIDENCE)), max_size=14),
        st.lists(st.builds(_row, st.integers(0, 2), _IMAGE_BOX), max_size=12),
        st.sampled_from(("both", "both", "truth", "preds")),
    ),
    max_size=8,
)

# image 0 has detections, images 1-3 none (two of them with truths), images 4
# and 5 have detections again, image 5 no truths
_EMPTY_RUN = [
    ([_row(0, (0.3, 0.3, 0.2, 0.2), 0.9), _row(1, (0.5, 0.5, 0.2, 0.2), 0.8)], [_row(0, (0.3, 0.3, 0.2, 0.2))], "both"),
    ([], [_row(0, (0.3, 0.3, 0.2, 0.2))], "both"),
    ([], [], "both"),
    ([], [_row(1, (0.5, 0.5, 0.2, 0.2))], "truth"),
    ([_row(0, (0.3, 0.3, 0.2, 0.2), 0.7)], [_row(1, (0.3, 0.3, 0.2, 0.2)), _row(0, (0.3, 0.35, 0.2, 0.2))], "both"),
    ([_row(1, (0.5, 0.5, 0.2, 0.2), 0.6)], [], "preds"),
]


def _yolo_text(rows) -> str:
    """YOLO text whose values parse back exactly."""
    return "".join(" ".join(map(repr, row)) + "\n" for row in rows)


def _bits(points):
    """PR points as the hex of each float, so -0.0 and 0.0 differ."""
    return [tuple(float.hex(float(v)) for v in point) for point in points]


def _columns(curve):
    """A curve's class id, positives and columns as lists."""
    return curve.class_id, curve.npos, curve.threshold.tolist(), curve.precision.tolist(), curve.recall.tolist()


def _random_image(rng, n_truths, n_dets):
    def box():
        return (rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9), rng.uniform(0.02, 0.3), rng.uniform(0.02, 0.3))

    truths = [_row(rng.randrange(2), box()) for _ in range(n_truths)]
    dets = [_row(rng.randrange(2), box(), rng.choice((0.25, 0.5, rng.random())))
            for _ in range(n_dets)]
    # duplicates of earlier truths tie on IoU with them
    truths += truths[: n_truths // 10]
    return tuple(dets), tuple(truths)


class TestMatcherOracle:
    """The vectorised matcher against the scalar reference: same pairs in
    the same order, and IoU values equal bit for bit."""

    @given(_DETECTIONS, _TRUTHS, _THRESHOLD, st.booleans(), st.sampled_from((1, 7, 1 << 15)))
    @settings(max_examples=200, deadline=None)
    # boxes that touch along x (no overlap there), then one that overlaps the detection
    @example([_row(0, (0.25, 0.5, 0.5, 0.2), 0.9)],
             [_row(0, (0.75, 0.5, 0.5, 0.2)), _row(0, (0.3, 0.5, 0.5, 0.2))], 0.5, False, 1)
    # boxes that overlap along x and touch along y
    @example([_row(0, (0.5, 0.25, 0.2, 0.5), 0.9)], [_row(0, (0.55, 0.75, 0.2, 0.5))], 0.5, True, 1 << 15)
    # an IoU equal to the threshold
    @example([_row(0, (0.5, 0.5, 0.5, 0.5), 0.9)],
             [_row(1, (0.75, 0.5, 0.5, 0.5))],
             iou(BoundingBox(0.5, 0.5, 0.5, 0.5), BoundingBox(0.75, 0.5, 0.5, 0.5)), True, 7)
    def test_match_equals_scalar_loop(self, dets, truths, threshold, cross_class, block):
        with mock.patch.object(metrics, "_BLOCK_PAIRS", block):
            got = matched_pairs(dets, truths, threshold, cross_class=cross_class)
        assert got == scalar_match(dets, truths, threshold, cross_class)

    @given(_DETECTIONS, _TRUTHS, _THRESHOLD, st.sampled_from((1, 7, 1 << 15)))
    @settings(max_examples=100, deadline=None)
    def test_image_summary_equals_per_class_scalar_passes(self, dets, truths, threshold, block):
        sample = EvalSample("img", tuple(dets), tuple(truths))
        with mock.patch.object(metrics, "_BLOCK_PAIRS", block):
            [summary] = columnar_image_summaries([sample], (0, 1, 2), threshold)
        assert summary == scalar_image_summary(sample, (0, 1, 2), threshold)

    @given(_IMAGES, _THRESHOLD, st.sampled_from((1, 7, 50, 1 << 15)))
    @settings(max_examples=100, deadline=None)
    # a block that starts inside a run of images without detections, some
    # with truths (block 1), and one block whose run of truth rows spans
    # those images (block 50)
    @example(_EMPTY_RUN, 0.5, 1)
    @example(_EMPTY_RUN, 0.5, 50)
    def test_columnar_evaluation_equals_fold_of_scalar_image_summaries(self, images, threshold, block):
        # Files go through the columnar reader as `evaluate` reads them; the
        # oracle parses each file on its own, takes a missing file for an
        # empty image and folds per-image scalar summaries in image order.
        ids = [f"img{k}" for k in range(len(images))]
        truth_files = {i: _yolo_text(t).encode() for i, (_, t, kept) in zip(ids, images) if kept != "preds"}
        pred_files = {i: _yolo_text(d).encode() for i, (d, _, kept) in zip(ids, images) if kept != "truth"}
        columns = cli._evaluation_columns(
            REGISTRY3, ids, (Path("truth"), truth_files, 5), (Path("preds"), pred_files, 6)
        )
        with mock.patch.object(metrics, "_BLOCK_PAIRS", block):
            report = evaluate_detections(columns, REGISTRY3, threshold)

        samples = [
            EvalSample(
                i,
                tuple(yolo_rows(pred_files.get(i, b"").decode(), 6)),
                tuple(yolo_rows(truth_files.get(i, b"").decode(), 5)),
            )
            for i in ids
        ]
        summaries = [scalar_image_summary(s, REGISTRY3.ids(), threshold) for s in samples]
        for class_id, entry in zip(REGISTRY3.ids(), report.per_class):
            events = [e for per_class, _ in summaries for e in per_class[class_id][0]]
            npos = sum(per_class[class_id][1] for per_class, _ in summaries)
            tally = tuple(sum(per_class[class_id][2][k] for per_class, _ in summaries) for k in range(3))
            points = scalar_sweep(events, npos)
            assert (entry.tally.tp, entry.tally.fp, entry.tally.fn) == tally
            assert _bits(zip(*_columns(entry.curve)[2:])) == _bits(points)
            ap = average_precision(PRCurve(class_id, npos, *np.array(points, dtype=float).reshape(-1, 3).T))
            assert (entry.ap.hex(), entry.ap.degenerate) == (ap.hex(), ap.degenerate)

        confusion = [[0] * 4 for _ in range(4)]
        for sample, (_, cross) in zip(samples, summaries):
            for i, j, _ in cross:
                confusion[sample.detections[i][0]][sample.truths[j][0]] += 1
            for i in set(range(len(sample.detections))) - {i for i, _, _ in cross}:
                confusion[sample.detections[i][0]][3] += 1
            for j in set(range(len(sample.truths))) - {j for _, j, _ in cross}:
                confusion[3][sample.truths[j][0]] += 1
        assert report.confusion.matrix == tuple(map(tuple, confusion))

    def test_images_spanning_several_row_blocks(self):
        rng = random.Random(20261018)
        for n_truths, n_dets in ((120, 700), (2, 40000)):
            dets, truths = _random_image(rng, n_truths, n_dets)
            assert len(dets) * len(truths) > 2 * metrics._BLOCK_PAIRS
            for threshold in (0.1, 0.5):
                for cross_class in (False, True):
                    got = matched_pairs(dets, truths, threshold, cross_class=cross_class)
                    assert got == scalar_match(dets, truths, threshold, cross_class)

    def test_uncontested_pairs_settle_around_contested_chains(self):
        # Detection 2 (0.9) overlaps truths 0 and 1 and takes 1; detection 0
        # (0.5) overlaps only truth 1 and loses it; detection 4 (0.4)
        # overlaps only truth 0 and gets it. Detections 1 (0.7, between 2
        # and 0) and 3 (0.1) each overlap a truth no other one does;
        # detection 5 (0.95) does too, but only across classes.
        def box(cx, cy):
            return (cx, cy, 0.1, 0.1)

        truths = [
            _row(0, box(0.2, 0.5)), _row(0, box(0.25, 0.5)), _row(0, box(0.5, 0.2)), _row(1, box(0.8, 0.8)),
            _row(0, box(0.5, 0.8)),
        ]
        dets = [
            _row(0, box(0.29, 0.5), 0.5), _row(0, box(0.51, 0.21), 0.7), _row(0, box(0.23, 0.5), 0.9),
            _row(1, box(0.8, 0.81), 0.1), _row(0, box(0.16, 0.5), 0.4), _row(1, box(0.5, 0.79), 0.95),
        ]
        expected = {
            False: [(2, 1), (1, 2), (4, 0), (3, 3)],
            True: [(5, 4), (2, 1), (1, 2), (4, 0), (3, 3)],
        }
        for cross_class in (False, True):
            candidates = [
                (i, j) for i, d in enumerate(dets) for j, t in enumerate(truths)
                if (cross_class or d[0] == t[0]) and iou(BoundingBox(*d[1:5]), BoundingBox(*t[1:5])) >= 0.3
            ]
            per_det = Counter(i for i, _ in candidates)
            per_truth = Counter(j for _, j in candidates)
            uncontested = [(i, j) for i, j in candidates if per_det[i] == per_truth[j] == 1]
            assert len(uncontested) == 2 + cross_class and len(candidates) == len(uncontested) + 4
            got = [(i, j, v.hex()) for i, j, v in matched_pairs(dets, truths, 0.3, cross_class=cross_class)]
            assert got == [(i, j, v.hex()) for i, j, v in scalar_match(dets, truths, 0.3, cross_class)]
            assert [(i, j) for i, j, _ in got] == expected[cross_class]

    def test_threshold_one_matches_only_identical_boxes(self):
        other = (0.5, 0.5, 0.2, 0.1999)
        dets = [_row(0, other, 0.9), _row(0, UNIT, 0.9), _row(0, UNIT, 0.9)]
        truths = [_row(0, other), _row(0, UNIT)]
        assert matched_pairs(dets, truths, 1.0) == [(0, 0, 1.0), (1, 1, 1.0)]


class TestScalarMetrics:
    def test_precision_arithmetic(self):
        report = _evaluate(
            [_row(0, _slot_box(k), 0.9) for k in range(10)],
            [_row(0, _slot_box(k)) for k in range(9)],
        )
        assert report.per_class[0].precision == pytest.approx(0.9)

    def test_empty_report_degenerate(self):
        entry = _evaluate([], []).per_class[0]
        p = entry.precision
        assert p == 0.0 and p.degenerate
        assert entry.recall.degenerate
        assert entry.f1.degenerate
        assert entry.accuracy.degenerate

    def test_f1_fixed_point(self):
        # P = R = 0.8: 8 TPs, 2 FPs, 2 FNs
        dets = [_row(0, _slot_box(k), 0.9) for k in range(10)]
        truths = [_row(0, _slot_box(k)) for k in range(8)] + [
            _row(0, _slot_box(k)) for k in range(20, 22)
        ]
        entry = _evaluate(dets, truths).per_class[0]
        assert entry.precision == pytest.approx(0.8)
        assert entry.recall == pytest.approx(0.8)
        assert entry.f1 == pytest.approx(0.8)

    def test_accuracy_examples(self):
        report = _evaluate(
            [_row(0, _slot_box(k), 0.9) for k in range(10)],
            [_row(0, _slot_box(k)) for k in range(9)],
        )
        assert report.per_class[0].accuracy == pytest.approx(0.9)
        report = _evaluate([], [_row(0, _slot_box(k)) for k in range(5)])
        assert report.per_class[0].accuracy == 0.0
        # tp=8, fp=1, fn=1
        dets = [_row(0, _slot_box(k), 0.9) for k in range(9)]
        truths = [_row(0, _slot_box(k)) for k in range(8)] + [
            _row(0, _slot_box(30))
        ]
        assert _evaluate(dets, truths).per_class[0].accuracy == pytest.approx(0.8)


class TestPRCurveAndAP:
    def test_single_correct_detection(self):
        sample = _sample_from_pattern([0.7], [True], 1)
        curve = pr_curve([sample], 0, 0.5)
        assert _columns(curve)[2:] == ([0.7], [1.0], [1.0])
        assert average_precision(curve) == 1.0

    def test_no_detections(self):
        sample = EvalSample("img", (), (_row(0, UNIT),))
        curve = pr_curve([sample], 0, 0.5)
        assert _columns(curve)[2:] == ([], [], [])
        ap = average_precision(curve)
        assert ap == 0.0 and ap.degenerate

    def test_three_detection_sweep(self):
        # confidences 0.9 (TP), 0.8 (FP), 0.7 (TP); two truths
        sample = _sample_from_pattern([0.9, 0.8, 0.7], [True, False, True], 2)
        curve = pr_curve([sample], 0, 0.5)
        assert curve.threshold.tolist() == [0.9, 0.8, 0.7]
        assert curve.precision.tolist() == pytest.approx([1.0, 0.5, 2 / 3])
        assert curve.recall.tolist() == pytest.approx([0.5, 0.5, 1.0])
        assert average_precision(curve) == pytest.approx(5 / 6, abs=1e-12)
        assert average_precision(curve) == pytest.approx(
            brute_force_ap([0.9, 0.8, 0.7], [True, False, True], 2), abs=1e-12
        )

    def test_tied_confidences_single_step(self):
        sample = _sample_from_pattern([0.5, 0.5, 0.5], [True, True, False], 3)
        curve = pr_curve([sample], 0, 0.5)
        assert len(curve.threshold) == len(curve.precision) == len(curve.recall) == 1
        assert curve.precision[0] == pytest.approx(2 / 3)

    def test_recall_monotone_along_sweep(self):
        sample = _sample_from_pattern(
            [0.9, 0.85, 0.8, 0.7, 0.6, 0.5], [True, False, True, False, True, True], 5
        )
        curve = pr_curve([sample], 0, 0.5)
        thresholds = curve.threshold.tolist()
        recalls = curve.recall.tolist()
        assert thresholds == sorted(thresholds, reverse=True)
        assert recalls == sorted(recalls)

    def test_ap_invariant_under_monotone_confidence_transform(self):
        confs = [0.9, 0.8, 0.62, 0.5, 0.31]
        flags = [True, False, True, True, False]
        base = average_precision(pr_curve([_sample_from_pattern(confs, flags, 4)], 0, 0.5))
        squashed = [0.2 + 0.6 * c**2 for c in confs]
        transformed = average_precision(
            pr_curve([_sample_from_pattern(squashed, flags, 4)], 0, 0.5)
        )
        assert base == pytest.approx(transformed, abs=1e-12)

    def test_image_order_does_not_matter(self):
        samples = [
            _sample_from_pattern([0.9, 0.6], [True, False], 2, "a"),
            _sample_from_pattern([0.8], [True], 1, "b"),
            _sample_from_pattern([0.7, 0.5], [False, True], 2, "c"),
        ]
        forward = pr_curve(samples, 0, 0.5)
        backward = pr_curve(list(reversed(samples)), 0, 0.5)
        assert _columns(forward) == _columns(backward)

    def test_eleven_point_variant(self):
        sample = _sample_from_pattern([0.9, 0.8, 0.7], [True, False, True], 2)
        curve = pr_curve([sample], 0, 0.5)
        # envelope: 1.0 for recall <= 0.5, 2/3 beyond
        expected = (6 * 1.0 + 5 * (2 / 3)) / 11
        assert average_precision(curve, "11-point") == pytest.approx(expected, abs=1e-12)

    @given(
        st.lists(st.tuples(_CURVE_VALUE, _CURVE_VALUE, _CURVE_VALUE), max_size=40),
        st.sampled_from((0, 1, 7)),
        st.booleans(),
        st.sampled_from(("all-point", "11-point")),
    )
    @settings(max_examples=200, deadline=None)
    def test_ap_equals_scalar_loops_bit_for_bit(self, points, npos, recall_sorted, interpolation):
        # a library caller can build any curve: repeated, falling or sorted recall
        if recall_sorted:
            points = [(t, p, r) for (t, p, _), r in zip(points, sorted(r for _, _, r in points))]
        curve = PRCurve(0, npos, *np.array(points, dtype=np.float64).reshape(-1, 3).T)
        ours = average_precision(curve, interpolation)
        oracle = scalar_average_precision(points, npos, interpolation)
        assert (ours.hex(), ours.degenerate) == (oracle.hex(), oracle.degenerate)


class TestMeanAP:
    def test_paper_aggregation(self):
        assert mean_average_precision({"wb": 0.9053, "bb": 0.8484}) == pytest.approx(
            0.87685, abs=5e-5
        )

    def test_identity_and_midpoint(self):
        assert mean_average_precision([0.42]) == 0.42
        assert mean_average_precision([1.0, 0.0]) == 0.5

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            mean_average_precision([])


class TestConfusionMatrix:
    def test_perfect_single_class(self):
        cm = _evaluate([_row(0, UNIT, 0.9)], [_row(0, UNIT)]).confusion
        assert cm.class_names == ("wb", "bb", "background")
        assert cm.matrix[0][0] == 1
        assert cm.total() == 1

    def test_unmatched_detection_goes_to_background_column(self):
        cm = _evaluate([_row(0, UNIT, 0.9)], []).confusion
        assert cm.matrix[0][2] == 1

    def test_cross_class_off_diagonal(self):
        cm = _evaluate([_row(1, UNIT, 0.9)], [_row(0, UNIT)]).confusion
        assert cm.matrix[1][0] == 1  # row bb (predicted), column wb (truth)

    @given(
        st.lists(
            st.tuples(
                st.lists(
                    st.tuples(st.integers(0, 1), st.integers(0, 24), st.floats(0.0, 1.0, allow_nan=False)),
                    max_size=6,
                ),
                st.lists(st.tuples(st.integers(0, 1), st.integers(0, 24)), max_size=6),
            ),
            max_size=4,
        )
    )
    @settings(max_examples=60)
    def test_total_entries_invariant(self, images):
        samples = []
        n_dets = 0
        n_unmatched_truths = 0
        for m, (det_spec, truth_spec) in enumerate(images):
            dets = tuple(_row(lab, _slot_box(s), c) for lab, s, c in det_spec)
            truths = tuple(_row(lab, _slot_box(s)) for lab, s in truth_spec)
            samples.append(EvalSample(f"img{m}", dets, truths))
            n_dets += len(dets)
            n_unmatched_truths += len(truths) - len(matched_pairs(dets, truths, 0.5, cross_class=True))
        cm = evaluate_detections(samples, REGISTRY, 0.5).confusion
        assert cm.total() == n_dets + n_unmatched_truths


class TestBagBasedAccuracy:
    def test_table_fixture_statistics(self, fixtures_dir):
        records = load_height_records(
            (fixtures_dir / "height_records.csv").read_text()
        )
        top = bag_based_accuracy(records, "top")
        middle = bag_based_accuracy(records, "middle")
        bottom = bag_based_accuracy(records, "bottom")
        assert top.mean == pytest.approx(94.25, abs=0.01)
        assert top.sd == pytest.approx(12.80, abs=0.01)
        assert middle.mean == pytest.approx(49.58, abs=0.01)
        assert middle.sd == pytest.approx(46.17, abs=0.01)
        assert bottom.mean == pytest.approx(5.0, abs=0.01)
        assert bottom.sd == pytest.approx(15.81, abs=0.01)
        assert len(top.percentages) == 10

    @pytest.mark.parametrize("row", ["b,top,nan,1", "b,top,4,inf", "b,top,4", "b,side,4,1"])
    def test_bad_height_record_names_line(self, row):
        text = f"image_id,stratum,placed,detected\na,top,4,2\n{row}\n"
        with pytest.raises(ValueError, match="^line 3: "):
            load_height_records(text)

    @pytest.mark.parametrize("row, cell", [("b,top,1_0,1", "1_0"), ("b,top,4,\u0663", "\u0663")])
    def test_count_outside_the_ascii_grammar_names_line(self, row, cell):
        text = f"image_id,stratum,placed,detected\na,top,4,2\n{row}\n"
        with pytest.raises(ValueError) as info:
            load_height_records(text)
        assert str(info.value) == f"line 3: not an integer: {cell!r}"

    def test_zero_placed_excluded_with_warning(self):
        records = [
            HeightRecord("a", "top", 4, 2),
            HeightRecord("b", "top", 0, 0),
        ]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = bag_based_accuracy(records, "top")
        assert result.image_ids == ("a",)
        assert any("no bags placed" in str(w.message) for w in caught)

    def test_a_stratum_without_placed_bags_is_refused(self):
        with pytest.warns(UserWarning, match="no bags placed"), pytest.raises(ValueError) as info:
            bag_based_accuracy([HeightRecord("i", "top", 0, 0)], "top")
        assert str(info.value) == "no usable records for stratum 'top'"

    def test_invalid_stratum(self):
        with pytest.raises(ValueError):
            bag_based_accuracy([], "sideways")
        with pytest.raises(ValueError):
            HeightRecord("a", "top", 3, 4)


class TestEvaluateDetections:
    def _samples(self, fixtures_dir):
        samples = []
        for image_id in ("img1", "img2"):
            truths = yolo_rows((fixtures_dir / "detection" / "truth" / f"{image_id}.txt").read_text(), 5, REGISTRY)
            dets = yolo_rows((fixtures_dir / "detection" / "preds" / f"{image_id}.txt").read_text(), 6, REGISTRY)
            samples.append(EvalSample(image_id, tuple(dets), tuple(truths)))
        return samples

    def test_fixture_metrics(self, fixtures_dir):
        report = evaluate_detections(self._samples(fixtures_dir), REGISTRY, 0.5)
        by_name = {c.name: c for c in report.per_class}
        assert by_name["wb"].ap == pytest.approx(11 / 12, abs=1e-12)
        assert by_name["bb"].ap == pytest.approx(0.5, abs=1e-12)
        assert report.map50 == pytest.approx(17 / 24, abs=1e-12)
        assert (by_name["wb"].tally.tp, by_name["wb"].tally.fp, by_name["wb"].tally.fn) == (3, 1, 0)
        assert (by_name["bb"].tally.tp, by_name["bb"].tally.fp, by_name["bb"].tally.fn) == (1, 1, 1)
        cm = report.confusion
        assert cm.matrix[0][0] == 3 and cm.matrix[1][1] == 1
        assert cm.matrix[0][2] == 1 and cm.matrix[1][2] == 1 and cm.matrix[2][1] == 1
        assert cm.total() == 7


@pytest.mark.parametrize("make, message", [
    (lambda: EvalSample("img", ((0, *UNIT),), ()), "expected a row of 6 fields, got (0, 0.5, 0.5, 0.2, 0.2)"),
    (lambda: EvalSample("img", (), ((0, *UNIT, 0.9),)), "expected a row of 5 fields, got (0, 0.5, 0.5, 0.2, 0.2, 0.9)"),
    (lambda: EvalSample("img", (), ((0, 1.5, 0.5, 0.2, 0.2),)), "box center out of [0,1]: (1.5, 0.5)"),
    (lambda: EvalSample("img", ((0, 0.5, 0.5, 0.0, 0.2, 0.9),), ()), "box size out of (0,1]: (0.0, 0.2)"),
    (lambda: EvalSample("img", ((0, *UNIT, 1.5),), ()), "confidence out of [0,1]: 1.5"),
    (lambda: EvalSample("img", ((0, *UNIT, float("nan")),), ()), "confidence out of [0,1]: nan"),
    (lambda: EvalSample("img", ((-1, *UNIT, 0.9),), ()), "class id must be non-negative: -1"),
    (lambda: EvalSample("img", (), ((2**63, *UNIT),)), "class id must be below 2**63: 9223372036854775808"),
    (lambda: EvalSample("img", (), ((2**1024, *UNIT),)), f"class id must be below 2**63: {2**1024}"),
    (lambda: EvalSample("img", ((True, *UNIT, 0.9),), ()), "class id must be an integer: True"),
    (lambda: EvalSample("img", (), ((1.5, *UNIT),)), "class id must be an integer: 1.5"),
    (lambda: average_precision(PRCurve(0, 1, np.ones(1), np.ones(1), np.ones(1)), "5-point"),
     'interpolation must be one of "all-point", "11-point", got "5-point"'),
    # pr_curve's class id takes what EvalSample's rows take, so none of these is a curve of npos 0
    (lambda: pr_curve([EvalSample("img", ((0, *UNIT, 0.9),), ((0, *UNIT),))], -1, 0.5),
     "class id must be non-negative: -1"),
    (lambda: pr_curve([EvalSample("img", ((0, *UNIT, 0.9),), ((0, *UNIT),))], True, 0.5),
     "class id must be an integer: True"),
    (lambda: pr_curve([EvalSample("img", ((0, *UNIT, 0.9),), ((0, *UNIT),))], 1.5, 0.5),
     "class id must be an integer: 1.5"),
    (lambda: pr_curve([EvalSample("img", ((0, *UNIT, 0.9),), ((0, *UNIT),))], 2**63, 0.5),
     "class id must be below 2**63: 9223372036854775808"),
], ids=["detection-length", "truth-length", "center", "size", "confidence", "nan-confidence",
        "negative-class-id", "class-id-2-to-the-63", "class-id-2-to-the-1024", "bool-class-id", "fraction-class-id",
        "interpolation", "pr-curve-negative-class-id", "pr-curve-bool-class-id", "pr-curve-fraction-class-id",
        "pr-curve-class-id-2-to-the-63"])
def test_refusals(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


@pytest.mark.parametrize("detections, truths", [
    (((7, *UNIT, 0.9),), ()),
    ((), ((7, *UNIT),)),
], ids=["detection", "truth"])
def test_a_class_id_outside_the_registry_is_a_registry_error(detections, truths):
    with pytest.raises(RegistryError) as info:
        evaluate_detections([EvalSample("img", detections, truths)], REGISTRY, 0.5)
    assert str(info.value) == "unknown class id 7"
