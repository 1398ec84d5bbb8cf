import json
import math
from pathlib import Path

import pytest

from deteval.annotations import BoundingBox
from deteval.config import ConfigError
from deteval.losses import (
    CellPrediction,
    CellTarget,
    LossConfig,
    classification_loss,
    giou_loss,
    hard_swish,
    load_loss_records,
    objectness_loss,
    swish,
)

CFG = LossConfig(lambda_coord=1.0, lambda_noobj=1.0, grid_size=4, anchors_per_scale=3)


def _pred(cell, anchor, box, objectness=1.0, scores=(1.0, 0.0)):
    return CellPrediction(cell, anchor, box, objectness, tuple(scores))


def _target(cell, anchor, obj, box=None, objectness=0.0, probs=(0.0, 0.0)):
    return CellTarget(cell, anchor, obj, box, objectness, tuple(probs))


BOX = BoundingBox(0.5, 0.5, 0.2, 0.2)


class TestActivations:
    def test_zero(self):
        assert swish(0.0) == 0.0
        assert hard_swish(0.0) == 0.0

    def test_hard_swish_saturation_endpoints(self):
        assert hard_swish(3.0) == 3.0
        assert hard_swish(-3.0) == 0.0

    def test_hard_swish_identity_above_three(self):
        for x in (3.0, 3.5, 10.0, 1e6):
            assert hard_swish(x) == x

    def test_hard_swish_zero_below_minus_three(self):
        for x in (-3.0, -5.0, -1e6):
            assert hard_swish(x) == 0.0

    def test_agreement_envelope(self):
        # The piecewise-linear stand-in tracks the sigmoid within 0.07, so
        # the x-scaled activations stay within 0.07 * |x| of each other
        # (worst case 3 * (1 - sigmoid(3)) ~ 0.1423 at x = 3).
        x = -6.0
        worst_sigmoid = 0.0
        worst_scaled = 0.0
        while x <= 6.0:
            hard_sigmoid = min(max(x + 3.0, 0.0), 6.0) / 6.0
            sigmoid = swish(x) / x if x != 0.0 else 0.5
            worst_sigmoid = max(worst_sigmoid, abs(sigmoid - hard_sigmoid))
            worst_scaled = max(worst_scaled, abs(swish(x) - hard_swish(x)))
            x += 0.01
        assert worst_sigmoid <= 0.07
        assert worst_scaled <= 0.07 * 6.0
        assert worst_scaled == pytest.approx(3.0 * (1.0 - 1.0 / (1.0 + math.exp(-3.0))), abs=1e-3)

    def test_swish_is_stable_at_extremes(self):
        assert swish(-1000.0) == 0.0
        assert swish(1000.0) == 1000.0


class TestGiouLoss:
    def test_perfect_predictions(self, fixtures_dir):
        preds, targets = load_loss_records((fixtures_dir / "losses" / "perfect.json").read_text())
        assert giou_loss(preds, targets, CFG) == 0.0

    def test_single_cell_separated_boxes(self):
        # GIoU of these boxes is -1/3, so the loss term is 1 - (-1/3) = 4/3
        pred_box = BoundingBox(1 / 6, 0.5, 1 / 3, 1.0)
        truth_box = BoundingBox(5 / 6, 0.5, 1 / 3, 1.0)
        preds = [_pred(0, 0, pred_box)]
        targets = [_target(0, 0, True, truth_box, objectness=1.0, probs=(1.0, 0.0))]
        assert giou_loss(preds, targets, CFG) == pytest.approx(4 / 3, abs=1e-12)

    def test_no_object_cells(self):
        preds = [_pred(0, 0, BOX)]
        targets = [_target(0, 0, False)]
        assert giou_loss(preds, targets, CFG) == 0.0

    def test_scales_linearly_in_lambda_coord(self):
        pred_box = BoundingBox(0.3, 0.5, 0.2, 0.2)
        truth_box = BoundingBox(0.6, 0.5, 0.2, 0.2)
        preds = [_pred(0, 0, pred_box)]
        targets = [_target(0, 0, True, truth_box)]
        base = giou_loss(preds, targets, LossConfig(1.0, 1.0, 4, 3))
        assert giou_loss(preds, targets, LossConfig(2.5, 1.0, 4, 3)) == pytest.approx(2.5 * base)

    def test_obj_without_truth_box_rejected(self):
        with pytest.raises(ValueError, match="without a truth box"):
            _target(0, 0, True, None)


class TestObjectnessLoss:
    def test_exact_confidence(self):
        preds = [_pred(0, 0, BOX, objectness=0.7)]
        targets = [_target(0, 0, True, BOX, objectness=0.7)]
        assert objectness_loss(preds, targets, CFG) == 0.0

    def test_single_noobj_cell(self):
        preds = [_pred(0, 0, BOX, objectness=0.5)]
        targets = [_target(0, 0, False, objectness=0.0)]
        cfg = LossConfig(1.0, 0.5, 4, 3)
        assert objectness_loss(preds, targets, cfg) == pytest.approx(0.125, abs=1e-12)

    def test_obj_plus_noobj_terms(self):
        preds = [_pred(0, 0, BOX, objectness=0.8), _pred(1, 0, BOX, objectness=0.1)]
        targets = [
            _target(0, 0, True, BOX, objectness=1.0),
            _target(1, 0, False, objectness=0.0),
        ]
        cfg = LossConfig(1.0, 1.0, 4, 3)
        expected = (0.8 - 1.0) ** 2 + (0.1 - 0.0) ** 2
        assert objectness_loss(preds, targets, cfg) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.05)

    def test_noobj_term_scales_with_lambda(self):
        preds = [_pred(0, 0, BOX, objectness=0.5)]
        targets = [_target(0, 0, False, objectness=0.0)]
        one = objectness_loss(preds, targets, LossConfig(1.0, 1.0, 4, 3))
        three = objectness_loss(preds, targets, LossConfig(1.0, 3.0, 4, 3))
        assert three == pytest.approx(3.0 * one)


class TestClassificationLoss:
    def test_exact_scores(self):
        preds = [_pred(0, 0, BOX, scores=(0.3, 0.7))]
        targets = [_target(0, 0, True, BOX, probs=(0.3, 0.7))]
        assert classification_loss(preds, targets, CFG) == 0.0

    def test_two_class_squared_error(self):
        preds = [_pred(0, 0, BOX, scores=(0.7, 0.3))]
        targets = [_target(0, 0, True, BOX, probs=(1.0, 0.0))]
        assert classification_loss(preds, targets, CFG) == pytest.approx(0.18, abs=1e-12)

    def test_noobj_cells_contribute_nothing(self):
        preds = [_pred(0, 0, BOX, scores=(0.9, 0.1))]
        targets = [_target(0, 0, False, probs=(0.0, 1.0))]
        assert classification_loss(preds, targets, CFG) == 0.0

    def test_dimension_mismatch(self):
        preds = [_pred(0, 0, BOX, scores=(0.9, 0.1))]
        targets = [_target(0, 0, True, BOX, probs=(1.0,))]
        with pytest.raises(ValueError, match="dimensionality"):
            classification_loss(preds, targets, CFG)


class TestAlignmentAndAdditivity:
    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            giou_loss([_pred(0, 0, BOX)], [], CFG)

    def test_index_mismatch(self):
        preds = [_pred(0, 0, BOX)]
        targets = [_target(1, 0, False)]
        with pytest.raises(ValueError, match="misaligned"):
            objectness_loss(preds, targets, CFG)

    def test_index_bounds(self):
        with pytest.raises(ValueError, match="cell index"):
            giou_loss([_pred(99, 0, BOX)], [_target(99, 0, False)], CFG)
        with pytest.raises(ValueError, match="anchor index"):
            giou_loss([_pred(0, 9, BOX)], [_target(0, 9, False)], CFG)

    def test_losses_additive_over_disjoint_cells(self):
        boxes = [
            (BoundingBox(0.2, 0.2, 0.2, 0.2), BoundingBox(0.3, 0.2, 0.2, 0.2)),
            (BoundingBox(0.7, 0.7, 0.2, 0.2), BoundingBox(0.7, 0.6, 0.2, 0.2)),
            (BoundingBox(0.5, 0.5, 0.4, 0.4), BoundingBox(0.5, 0.5, 0.2, 0.2)),
        ]
        preds, targets = [], []
        for k, (pbox, tbox) in enumerate(boxes):
            preds.append(_pred(k, 0, pbox, objectness=0.5 + 0.1 * k, scores=(0.6, 0.4)))
            targets.append(_target(k, 0, True, tbox, objectness=1.0, probs=(1.0, 0.0)))
        for loss in (giou_loss, objectness_loss, classification_loss):
            whole = loss(preds, targets, CFG)
            split = loss(preds[:1], targets[:1], CFG) + loss(preds[1:], targets[1:], CFG)
            assert whole == pytest.approx(split, abs=1e-15)

    def test_zero_iff_exact_on_gated_terms(self, fixtures_dir):
        preds, targets = load_loss_records((fixtures_dir / "losses" / "perfect.json").read_text())
        assert objectness_loss(preds, targets, CFG) == 0.0
        assert classification_loss(preds, targets, CFG) == 0.0
        nudged = [
            CellPrediction(p.cell, p.anchor, p.box, abs(p.objectness - 0.1), p.class_scores)
            if t.obj
            else p
            for p, t in zip(preds, targets)
        ]
        assert objectness_loss(nudged, targets, CFG) > 0.0


def test_record_loader_validation():
    with pytest.raises(ConfigError) as info:
        load_loss_records('{"cell": 0}')
    assert str(info.value) == 'records must be an array, got {"cell": 0}'


PERFECT = (Path(__file__).resolve().parent.parent / "fixtures" / "losses" / "perfect.json").read_text()


def _records_with(key, value) -> str:
    """The perfect-fit fixture with `key` of its record 1 set to `value`."""
    records = json.loads(PERFECT)
    records[1][key] = value
    return json.dumps(records)


RECORD = ('an object of "cell", "anchor", "obj", "pred_box", "C", "C_hat", "p", "p_hat" and optionally '
          '"truth_box"')


@pytest.mark.parametrize("make, message", [
    (lambda: LossConfig(lambda_coord=-1.0), "lambda_coord must be a finite number of at least 0, got -1.0"),
    (lambda: LossConfig(lambda_coord=math.nan), "lambda_coord must be a finite number of at least 0, got NaN"),
    (lambda: LossConfig(lambda_noobj=-0.5), "lambda_noobj must be a finite number of at least 0, got -0.5"),
    (lambda: LossConfig(lambda_noobj=10**400), f"lambda_noobj must be a finite number of at least 0, got {10**400}"),
    (lambda: LossConfig(grid_size=0), "grid_size must be an integer of at least 1, got 0"),
    (lambda: LossConfig(grid_size=1.5), "grid_size must be an integer of at least 1, got 1.5"),
    (lambda: LossConfig(anchors_per_scale=0), "anchors_per_scale must be an integer of at least 1, got 0"),
    (lambda: _pred(0, 0, BOX, objectness=1.5), "objectness must be a number in [0, 1], got 1.5"),
    (lambda: _pred(0, 0, BOX, objectness=True), "objectness must be a number in [0, 1], got true"),
    (lambda: _pred(0, 0, BOX, scores=(0.5, -0.1)), "class_scores[1] must be a number in [0, 1], got -0.1"),
    # a loss record's numbers are finite JSON numbers; true, false and strings are not
    (lambda: load_loss_records(_records_with("C", True)), "records[1].C must be a number in [0, 1], got true"),
    (lambda: load_loss_records(_records_with("C_hat", "1")), 'records[1].C_hat must be a finite number, got "1"'),
    (lambda: load_loss_records(_records_with("p", [0.0, False])),
     "records[1].p[1] must be a number in [0, 1], got false"),
    (lambda: load_loss_records(_records_with("p_hat", ["0", 1.0])),
     'records[1].p_hat[0] must be a finite number, got "0"'),
    (lambda: load_loss_records(_records_with("pred_box", [True, 0.5, 0.3, 0.4])),
     "records[1].pred_box[0] must be a finite number, got true"),
    (lambda: load_loss_records(_records_with("truth_box", [0.75, 0.5, 0.3, "0.4"])),
     'records[1].truth_box[3] must be a finite number, got "0.4"'),
    # a record is an object of the loader's keys: none missing, none unknown
    (lambda: load_loss_records("[{}]"), f"records[0] must be {RECORD}, got {{}}"),
    (lambda: load_loss_records("[3]"), f"records[0] must be {RECORD}, got 3"),
    (lambda: load_loss_records(_records_with("c_hat", 1.0)),
     f"records[1] must be {RECORD}, got {json.dumps(json.loads(_records_with('c_hat', 1.0))[1])}"),
], ids=["lambda_coord", "nan-lambda_coord", "lambda_noobj", "huge-lambda_noobj", "grid_size", "fractional-grid_size",
        "anchors_per_scale", "objectness", "bool-objectness", "class_scores",
        "C", "C_hat", "p", "p_hat", "pred_box", "truth_box", "empty-record", "record-not-an-object",
        "record-unknown-key"])
def test_refusals(make, message):
    with pytest.raises(ConfigError) as info:
        make()
    assert str(info.value) == message
