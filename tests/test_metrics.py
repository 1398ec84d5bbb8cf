import itertools
import random
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deteval import cli, metrics
from deteval.annotations import (
    BoundingBox,
    ClassLabel,
    ClassRegistry,
    Detection,
    GroundTruthObject,
    iou,
    parse_yolo_annotation,
    parse_yolo_prediction,
)
from deteval.metrics import (
    EvalSample,
    HeightRecord,
    PRCurve,
    PRPoint,
    average_precision,
    bag_based_accuracy,
    confusion_matrix,
    detection_accuracy,
    evaluate_detections,
    f1,
    load_height_records,
    match,
    mean_average_precision,
    pr_curve,
    precision,
    recall,
)

REGISTRY = ClassRegistry([ClassLabel(0, "wb"), ClassLabel(1, "bb")])

UNIT = BoundingBox(0.5, 0.5, 0.2, 0.2)


def _slot_box(k: int) -> BoundingBox:
    """Disjoint unit slots on a 10x10 grid; slot k and slot j never overlap."""
    row, col = divmod(k, 10)
    return BoundingBox(0.05 + 0.1 * col, 0.05 + 0.1 * row, 0.08, 0.08)


def _sample_from_pattern(confidences, tp_flags, npos, image_id="img"):
    """Build boxes realizing a (confidence, is_tp) pattern: TP detections sit
    exactly on distinct truths, FPs in empty slots."""
    truths = [GroundTruthObject(0, _slot_box(k)) for k in range(npos)]
    dets = []
    next_truth = 0
    next_empty = npos
    for conf, is_tp in zip(confidences, tp_flags):
        if is_tp:
            dets.append(Detection(0, _slot_box(next_truth), conf))
            next_truth += 1
        else:
            dets.append(Detection(0, _slot_box(next_empty), conf))
            next_empty += 1
    return EvalSample(image_id, tuple(dets), tuple(truths))


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


class TestMatch:
    def test_perfect_match(self):
        rep = match([Detection(0, UNIT, 0.9)], [GroundTruthObject(0, UNIT)], 0.5)
        t = rep.tallies()[0]
        assert (t.tp, t.fp, t.fn) == (1, 0, 0)

    def test_detection_without_truth(self):
        rep = match([Detection(0, UNIT, 0.9)], [], 0.5)
        t = rep.tallies()[0]
        assert (t.tp, t.fp, t.fn) == (0, 1, 0)

    def test_two_detections_one_truth(self):
        dets = [Detection(0, UNIT, 0.9), Detection(0, BoundingBox(0.52, 0.5, 0.2, 0.2), 0.8)]
        rep = match(dets, [GroundTruthObject(0, UNIT)], 0.5)
        t = rep.tallies()[0]
        assert (t.tp, t.fp, t.fn) == (1, 1, 0)
        assert rep.pairs[0].det_index == 0  # the higher-confidence one wins

    def test_class_mismatch_is_not_matched(self):
        rep = match([Detection(1, UNIT, 0.9)], [GroundTruthObject(0, UNIT)], 0.5)
        tallies = rep.tallies()
        assert tallies[1].fp == 1
        assert tallies[0].fn == 1

    def test_cross_class_matching(self):
        rep = match([Detection(1, UNIT, 0.9)], [GroundTruthObject(0, UNIT)], 0.5, cross_class=True)
        assert len(rep.pairs) == 1
        tallies = rep.tallies()
        assert tallies[1].fp == 1  # still an FP for its own class
        assert tallies[0].fn == 1

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            match([], [], 0.0)

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
        dets = [Detection(lab, _slot_box(slot), conf) for lab, slot, conf in det_spec]
        truths = [GroundTruthObject(lab, _slot_box(slot)) for lab, slot in truth_spec]
        rep = match(dets, truths, 0.5)
        assert len(rep.matched_det_indices()) == len(rep.pairs)
        assert len(rep.matched_truth_indices()) == len(rep.pairs)
        total_tp = sum(t.tp for t in rep.tallies().values())
        assert total_tp <= min(len(dets), len(truths))


def scalar_match(detections, truths, iou_threshold, cross_class=False):
    """Reference matcher: the scalar loop over every detection/truth pair
    that `match` replaced with one vectorised IoU pass. Returns the pairs as
    (det_index, truth_index, iou) in the order they were made."""
    taken = [False] * len(truths)
    order = sorted(range(len(detections)), key=lambda i: (-detections[i].confidence, i))
    pairs = []
    for i in order:
        det = detections[i]
        best_j = -1
        best_iou = 0.0
        for j, truth in enumerate(truths):
            if taken[j]:
                continue
            if not cross_class and truth.label != det.label:
                continue
            value = iou(det.box, truth.box)
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
        det_index = [i for i, d in enumerate(sample.detections) if d.label == class_id]
        truths = [t for t in sample.truths if t.label == class_id]
        dets = [sample.detections[i] for i in det_index]
        pairs = scalar_match(dets, truths, iou_threshold)
        tp = {i for i, _, _ in pairs}
        events = [(d.confidence, k in tp) for k, d in enumerate(dets)]
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
    cross = list(zip(*(c.tolist() for c in metrics._greedy(columns, candidates, cross_class=True))))
    d_off, t_off = columns.detections.offsets.tolist(), columns.truths.offsets.tolist()
    summaries = []
    for m, sample in enumerate(samples):
        per_class = {}
        for class_id in class_ids:
            events = [
                (d.confidence, is_tp[d_off[m] + i])
                for i, d in enumerate(sample.detections) if d.label == class_id
            ]
            npos = sum(1 for t in sample.truths if t.label == class_id)
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
_BOX = st.builds(BoundingBox, _COORD, _COORD, _SIZE, _SIZE)
_CONFIDENCE = st.one_of(st.sampled_from((0.0, 0.5, 1.0)), st.floats(0.0, 1.0))
_THRESHOLD = st.one_of(
    st.sampled_from((0.5, 1.0, 1 / 3)), st.floats(0.0, 1.0, exclude_min=True)
)
_DETECTIONS = st.lists(st.builds(Detection, st.integers(0, 2), _BOX, _CONFIDENCE), max_size=25)
_TRUTHS = st.lists(st.builds(GroundTruthObject, st.integers(0, 2), _BOX), max_size=25)


REGISTRY3 = ClassRegistry([ClassLabel(0, "wb"), ClassLabel(1, "bb"), ClassLabel(2, "xb")])

# Images whose boxes and confidences repeat within and across images, with
# -0.0 and 0.0 both among the confidences; each keeps both files, or only
# its ground truth ("truth") or only its predictions ("preds").
_TIED_BOX = st.builds(
    BoundingBox, *[st.sampled_from(values) for values in ((0.3, 0.5), (0.3, 0.5), (0.2, 0.3), (0.2, 0.3))]
)
_IMAGE_BOX = st.one_of(_TIED_BOX, _BOX)
_IMAGES = st.lists(
    st.tuples(
        st.lists(st.builds(Detection, st.integers(0, 2), _IMAGE_BOX, st.one_of(
            st.sampled_from((-0.0, 0.0, 0.5, 1.0)), _CONFIDENCE)), max_size=14),
        st.lists(st.builds(GroundTruthObject, st.integers(0, 2), _IMAGE_BOX), max_size=12),
        st.sampled_from(("both", "both", "truth", "preds")),
    ),
    max_size=8,
)


def _yolo_text(objects) -> str:
    """YOLO text whose values parse back exactly."""
    return "".join(
        " ".join(map(repr, (o.label, o.box.cx, o.box.cy, o.box.w, o.box.h)
                     + ((o.confidence,) if isinstance(o, Detection) else ()))) + "\n"
        for o in objects
    )


def _bits(points):
    """PR points as the hex of each float, so -0.0 and 0.0 differ."""
    return [tuple(float.hex(float(v)) for v in point) for point in
            ((p.threshold, p.precision, p.recall) if isinstance(p, PRPoint) else p for p in points)]


def _random_image(rng, n_truths, n_dets):
    def box():
        return BoundingBox(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9),
                           rng.uniform(0.02, 0.3), rng.uniform(0.02, 0.3))

    truths = [GroundTruthObject(rng.randrange(2), box()) for _ in range(n_truths)]
    dets = [Detection(rng.randrange(2), box(), rng.choice((0.25, 0.5, rng.random())))
            for _ in range(n_dets)]
    # duplicates of earlier truths tie on IoU with them
    truths += truths[: n_truths // 10]
    return tuple(dets), tuple(truths)


class TestMatcherOracle:
    """The vectorised matcher against the scalar reference: same pairs in
    the same order, and IoU values equal bit for bit."""

    @given(_DETECTIONS, _TRUTHS, _THRESHOLD, st.booleans(), st.sampled_from((1, 7, 1 << 15)))
    @settings(max_examples=200, deadline=None)
    def test_match_equals_scalar_loop(self, dets, truths, threshold, cross_class, block):
        with mock.patch.object(metrics, "_BLOCK_PAIRS", block):
            rep = match(dets, truths, threshold, cross_class=cross_class)
        got = [(p.det_index, p.truth_index, p.iou) for p in rep.pairs]
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
                tuple(parse_yolo_prediction(pred_files[i].decode())) if i in pred_files else (),
                tuple(parse_yolo_annotation(truth_files[i].decode())) if i in truth_files else (),
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
            assert _bits(entry.curve.points) == _bits(points)
            ap = average_precision(PRCurve(class_id, npos, tuple(PRPoint(*p) for p in points)))
            assert (entry.ap.hex(), entry.ap.degenerate) == (ap.hex(), ap.degenerate)

        confusion = [[0] * 4 for _ in range(4)]
        for sample, (_, cross) in zip(samples, summaries):
            for i, j, _ in cross:
                confusion[sample.detections[i].label][sample.truths[j].label] += 1
            for i in set(range(len(sample.detections))) - {i for i, _, _ in cross}:
                confusion[sample.detections[i].label][3] += 1
            for j in set(range(len(sample.truths))) - {j for _, j, _ in cross}:
                confusion[3][sample.truths[j].label] += 1
        assert report.confusion.matrix == tuple(map(tuple, confusion))

    def test_images_spanning_several_row_blocks(self):
        rng = random.Random(20261018)
        for n_truths, n_dets in ((120, 700), (2, 40000)):
            dets, truths = _random_image(rng, n_truths, n_dets)
            assert len(dets) * len(truths) > 2 * metrics._BLOCK_PAIRS
            for threshold in (0.1, 0.5):
                for cross_class in (False, True):
                    rep = match(dets, truths, threshold, cross_class=cross_class)
                    got = [(p.det_index, p.truth_index, p.iou) for p in rep.pairs]
                    assert got == scalar_match(dets, truths, threshold, cross_class)

    def test_threshold_one_matches_only_identical_boxes(self):
        other = BoundingBox(0.5, 0.5, 0.2, 0.1999)
        dets = [Detection(0, other, 0.9), Detection(0, UNIT, 0.9), Detection(0, UNIT, 0.9)]
        truths = [GroundTruthObject(0, other), GroundTruthObject(0, UNIT)]
        rep = match(dets, truths, 1.0)
        assert [(p.det_index, p.truth_index, p.iou) for p in rep.pairs] == [
            (0, 0, 1.0), (1, 1, 1.0)
        ]


class TestScalarMetrics:
    def test_precision_arithmetic(self):
        rep = match(
            [Detection(0, _slot_box(k), 0.9) for k in range(10)],
            [GroundTruthObject(0, _slot_box(k)) for k in range(9)],
            0.5,
        )
        assert precision(rep) == pytest.approx(0.9)

    def test_empty_report_degenerate(self):
        rep = match([], [], 0.5)
        p = precision(rep)
        assert p == 0.0 and p.degenerate
        assert recall(rep).degenerate
        assert f1(rep).degenerate
        assert detection_accuracy(rep).degenerate

    def test_f1_fixed_point(self):
        # P = R = 0.8: 8 TPs, 2 FPs, 2 FNs
        dets = [Detection(0, _slot_box(k), 0.9) for k in range(10)]
        truths = [GroundTruthObject(0, _slot_box(k)) for k in range(8)] + [
            GroundTruthObject(0, _slot_box(k)) for k in range(20, 22)
        ]
        rep = match(dets, truths, 0.5)
        assert precision(rep) == pytest.approx(0.8)
        assert recall(rep) == pytest.approx(0.8)
        assert f1(rep) == pytest.approx(0.8)

    def test_accuracy_examples(self):
        rep = match(
            [Detection(0, _slot_box(k), 0.9) for k in range(10)],
            [GroundTruthObject(0, _slot_box(k)) for k in range(9)],
            0.5,
        )
        assert detection_accuracy(rep) == pytest.approx(0.9)
        rep = match([], [GroundTruthObject(0, _slot_box(k)) for k in range(5)], 0.5)
        assert detection_accuracy(rep) == 0.0
        # tp=8, fp=1, fn=1
        dets = [Detection(0, _slot_box(k), 0.9) for k in range(9)]
        truths = [GroundTruthObject(0, _slot_box(k)) for k in range(8)] + [
            GroundTruthObject(0, _slot_box(30))
        ]
        assert detection_accuracy(match(dets, truths, 0.5)) == pytest.approx(0.8)


class TestPRCurveAndAP:
    def test_single_correct_detection(self):
        sample = _sample_from_pattern([0.7], [True], 1)
        curve = pr_curve([sample], 0, 0.5)
        assert curve.points == (PRPoint(0.7, 1.0, 1.0),)
        assert average_precision(curve) == 1.0

    def test_no_detections(self):
        sample = EvalSample("img", (), (GroundTruthObject(0, UNIT),))
        curve = pr_curve([sample], 0, 0.5)
        assert curve.points == ()
        ap = average_precision(curve)
        assert ap == 0.0 and ap.degenerate

    def test_three_detection_sweep(self):
        # confidences 0.9 (TP), 0.8 (FP), 0.7 (TP); two truths
        sample = _sample_from_pattern([0.9, 0.8, 0.7], [True, False, True], 2)
        curve = pr_curve([sample], 0, 0.5)
        assert [
            (pt.threshold, pytest.approx(pt.precision), pytest.approx(pt.recall))
            for pt in curve.points
        ] == [(0.9, 1.0, 0.5), (0.8, 0.5, 0.5), (0.7, 2 / 3, 1.0)]
        assert average_precision(curve) == pytest.approx(5 / 6, abs=1e-12)
        assert average_precision(curve) == pytest.approx(
            brute_force_ap([0.9, 0.8, 0.7], [True, False, True], 2), abs=1e-12
        )

    def test_tied_confidences_single_step(self):
        sample = _sample_from_pattern([0.5, 0.5, 0.5], [True, True, False], 3)
        curve = pr_curve([sample], 0, 0.5)
        assert len(curve.points) == 1
        assert curve.points[0].precision == pytest.approx(2 / 3)

    def test_recall_monotone_along_sweep(self):
        sample = _sample_from_pattern(
            [0.9, 0.85, 0.8, 0.7, 0.6, 0.5], [True, False, True, False, True, True], 5
        )
        curve = pr_curve([sample], 0, 0.5)
        thresholds = [pt.threshold for pt in curve.points]
        recalls = [pt.recall for pt in curve.points]
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
        assert forward == backward

    def test_eleven_point_variant(self):
        sample = _sample_from_pattern([0.9, 0.8, 0.7], [True, False, True], 2)
        curve = pr_curve([sample], 0, 0.5)
        # envelope: 1.0 for recall <= 0.5, 2/3 beyond
        expected = (6 * 1.0 + 5 * (2 / 3)) / 11
        assert average_precision(curve, "11-point") == pytest.approx(expected, abs=1e-12)

    def test_small_exhaustive_against_oracle(self):
        grid = [0.25, 0.5, 0.75, 1.0]
        for n_det in range(0, 4):
            for confs in itertools.combinations_with_replacement(grid, n_det):
                for flags in itertools.product([False, True], repeat=n_det):
                    for npos in range(0, 3):
                        if sum(flags) > npos:
                            continue
                        sample = _sample_from_pattern(confs, flags, npos)
                        ours = average_precision(pr_curve([sample], 0, 0.5))
                        oracle = brute_force_ap(list(confs), list(flags), npos)
                        assert abs(ours - oracle) <= 1e-12


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
        reports = [
            match([Detection(0, UNIT, 0.9)], [GroundTruthObject(0, UNIT)], 0.5, cross_class=True)
        ]
        cm = confusion_matrix(reports, REGISTRY)
        assert cm.class_names == ("wb", "bb", "background")
        assert cm.matrix[0][0] == 1
        assert cm.total() == 1

    def test_unmatched_detection_goes_to_background_column(self):
        reports = [match([Detection(0, UNIT, 0.9)], [], 0.5, cross_class=True)]
        cm = confusion_matrix(reports, REGISTRY)
        assert cm.matrix[0][2] == 1

    def test_cross_class_off_diagonal(self):
        reports = [
            match([Detection(1, UNIT, 0.9)], [GroundTruthObject(0, UNIT)], 0.5, cross_class=True)
        ]
        cm = confusion_matrix(reports, REGISTRY)
        assert cm.matrix[1][0] == 1  # row bb (predicted), column wb (truth)

    def test_requires_cross_class_reports(self):
        rep = match([], [], 0.5)
        with pytest.raises(ValueError, match="cross_class"):
            confusion_matrix([rep], REGISTRY)

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
        reports = []
        n_dets = 0
        n_unmatched_truths = 0
        for det_spec, truth_spec in images:
            dets = [Detection(lab, _slot_box(s), c) for lab, s, c in det_spec]
            truths = [GroundTruthObject(lab, _slot_box(s)) for lab, s in truth_spec]
            rep = match(dets, truths, 0.5, cross_class=True)
            reports.append(rep)
            n_dets += len(dets)
            n_unmatched_truths += len(truths) - len(rep.pairs)
        cm = confusion_matrix(reports, REGISTRY)
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

    def test_invalid_stratum(self):
        with pytest.raises(ValueError):
            bag_based_accuracy([], "sideways")
        with pytest.raises(ValueError):
            HeightRecord("a", "top", 3, 4)


class TestEvaluateDetections:
    def _samples(self, fixtures_dir):
        from deteval.annotations import parse_yolo_annotation, parse_yolo_prediction

        samples = []
        for image_id in ("img1", "img2"):
            truths = parse_yolo_annotation(
                (fixtures_dir / "detection" / "truth" / f"{image_id}.txt").read_text(), REGISTRY
            )
            dets = parse_yolo_prediction(
                (fixtures_dir / "detection" / "preds" / f"{image_id}.txt").read_text(), REGISTRY
            )
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
