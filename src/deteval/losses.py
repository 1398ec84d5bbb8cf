"""Reference activation functions and detector loss terms, evaluated over
explicit grid-cell/anchor assignments."""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

from .annotations import BoundingBox, giou, left_sum
from .config import BOOLEAN, COUNT, FRACTION, NUMBER, POSITIVE, _array, _number, _object

_PENALTY = _number("a finite number of at least 0", lambda value: 0 <= value <= sys.float_info.max)
_SCORES = _array(FRACTION)


def swish(x: float) -> float:
    """x * sigmoid(x), evaluated in a form that never overflows."""
    if x >= 0.0:
        return x / (1.0 + math.exp(-x))
    z = math.exp(x)
    return x * z / (1.0 + z)


def hard_swish(x: float) -> float:
    """x * relu6(x + 3) / 6: the piecewise-linear swish stand-in.

    Identically 0 for x <= -3 and identically x for x >= 3.
    """
    return x * min(max(x + 3.0, 0.0), 6.0) / 6.0


@dataclass(frozen=True)
class LossConfig:
    """Penalty weights and the grid/anchor layout the assignments index into."""

    lambda_coord: float = 1.0
    lambda_noobj: float = 1.0
    grid_size: int = 1
    anchors_per_scale: int = 3

    def __post_init__(self) -> None:
        _PENALTY(self.lambda_coord, "lambda_coord")
        _PENALTY(self.lambda_noobj, "lambda_noobj")
        POSITIVE(self.grid_size, "grid_size")
        POSITIVE(self.anchors_per_scale, "anchors_per_scale")

    @property
    def cell_count(self) -> int:
        return self.grid_size * self.grid_size


@dataclass(frozen=True)
class CellPrediction:
    cell: int
    anchor: int
    box: BoundingBox
    objectness: float
    class_scores: tuple[float, ...]

    def __post_init__(self) -> None:
        FRACTION(self.objectness, "objectness")
        _SCORES(self.class_scores, "class_scores")


@dataclass(frozen=True)
class CellTarget:
    cell: int
    anchor: int
    obj: bool
    box: BoundingBox | None
    objectness: float
    class_probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.obj and self.box is None:
            raise ValueError(f"target at cell {self.cell} flagged obj without a truth box")


def _check_aligned(predictions, targets, cfg: LossConfig):
    predictions = tuple(predictions)
    targets = tuple(targets)
    if len(predictions) != len(targets):
        raise ValueError(
            f"prediction/target length mismatch: {len(predictions)} vs {len(targets)}"
        )
    for pred, tgt in zip(predictions, targets):
        if (pred.cell, pred.anchor) != (tgt.cell, tgt.anchor):
            raise ValueError(
                f"misaligned assignment: prediction at ({pred.cell},{pred.anchor}) "
                f"vs target at ({tgt.cell},{tgt.anchor})"
            )
        if not (0 <= pred.cell < cfg.cell_count):
            raise ValueError(f"cell index out of range: {pred.cell}")
        if not (0 <= pred.anchor < cfg.anchors_per_scale):
            raise ValueError(f"anchor index out of range: {pred.anchor}")
    return predictions, targets


def giou_loss(predictions, targets, cfg: LossConfig) -> float:
    """lambda_coord * sum over object cells of (1 - GIoU(pred box, truth box))."""
    predictions, targets = _check_aligned(predictions, targets, cfg)
    total = 0.0
    for pred, tgt in zip(predictions, targets):
        if not tgt.obj:
            continue
        total += 1.0 - giou(pred.box, tgt.box)
    return cfg.lambda_coord * total


def objectness_loss(predictions, targets, cfg: LossConfig) -> float:
    """Squared objectness error over object cells plus the no-object term
    weighted by lambda_noobj."""
    predictions, targets = _check_aligned(predictions, targets, cfg)
    obj_term = 0.0
    noobj_term = 0.0
    for pred, tgt in zip(predictions, targets):
        err = (pred.objectness - tgt.objectness) ** 2
        if tgt.obj:
            obj_term += err
        else:
            noobj_term += err
    return obj_term + cfg.lambda_noobj * noobj_term


def classification_loss(predictions, targets, cfg: LossConfig) -> float:
    """Squared class-score error summed over object cells only."""
    predictions, targets = _check_aligned(predictions, targets, cfg)
    total = 0.0
    for pred, tgt in zip(predictions, targets):
        if not tgt.obj:
            continue
        if len(pred.class_scores) != len(tgt.class_probs):
            raise ValueError(
                f"class dimensionality mismatch at cell {pred.cell}: "
                f"{len(pred.class_scores)} vs {len(tgt.class_probs)}"
            )
        total += left_sum((s - p) ** 2 for s, p in zip(pred.class_scores, tgt.class_probs))
    return total


def _pair(record: dict) -> tuple[CellPrediction, CellTarget]:
    truth_box = record.get("truth_box")
    return (
        CellPrediction(record["cell"], record["anchor"], BoundingBox(*record["pred_box"]), record["C"],
                       tuple(record["p"])),
        CellTarget(record["cell"], record["anchor"], record["obj"], truth_box and BoundingBox(*truth_box),
                   record["C_hat"], tuple(record["p_hat"])),
    )


_BOX = _array(NUMBER, 4)
# A loss record: a prediction and its target at one cell and anchor; `truth_box` is null or absent without an object
_RECORDS = _array(_object({
    "cell": COUNT, "anchor": COUNT, "obj": BOOLEAN, "pred_box": _BOX,
    "truth_box": lambda value, name: value if value is None else _BOX(value, name),
    "C": FRACTION, "C_hat": NUMBER, "p": _SCORES, "p_hat": _array(NUMBER),
}, ("cell", "anchor", "obj", "pred_box", "C", "C_hat", "p", "p_hat"), _pair))


def load_loss_records(text: str) -> tuple[list[CellPrediction], list[CellTarget]]:
    """Load aligned prediction/target pairs from the JSON fixture format, an array of records
    {cell, anchor, obj, pred_box, truth_box, C, C_hat, p, p_hat}. Each field is read by its kind in
    `_RECORDS`, so a missing or unknown key or a value of the wrong kind is a ConfigError naming it."""
    pairs = _RECORDS(json.loads(text), "records")
    return [prediction for prediction, _ in pairs], [target for _, target in pairs]
