"""Reference activation functions and detector loss terms, evaluated over
explicit grid-cell/anchor assignments."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .annotations import BoundingBox, giou, left_sum


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
        if self.lambda_coord < 0.0 or self.lambda_noobj < 0.0:
            raise ValueError("penalty coefficients must be >= 0")
        if self.grid_size < 1 or self.anchors_per_scale < 1:
            raise ValueError("grid_size and anchors_per_scale must be >= 1")

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
        if not (0.0 <= self.objectness <= 1.0):
            raise ValueError(f"objectness out of [0,1]: {self.objectness}")
        if any(not (0.0 <= s <= 1.0) for s in self.class_scores):
            raise ValueError(f"class scores out of [0,1]: {self.class_scores}")


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


def load_loss_records(text: str) -> tuple[list[CellPrediction], list[CellTarget]]:
    """Load aligned prediction/target pairs from the JSON fixture format:
    a list of {cell, anchor, obj, pred_box, truth_box, C, C_hat, p, p_hat}."""
    records = json.loads(text)
    if not isinstance(records, list):
        raise ValueError("loss fixture must be a JSON list of records")
    predictions, targets = [], []
    for rec in records:
        pred_box = BoundingBox(*rec["pred_box"])
        truth_box = BoundingBox(*rec["truth_box"]) if rec.get("truth_box") else None
        predictions.append(
            CellPrediction(
                cell=rec["cell"],
                anchor=rec["anchor"],
                box=pred_box,
                objectness=rec["C"],
                class_scores=tuple(rec["p"]),
            )
        )
        targets.append(
            CellTarget(
                cell=rec["cell"],
                anchor=rec["anchor"],
                obj=bool(rec["obj"]),
                box=truth_box,
                objectness=rec["C_hat"],
                class_probs=tuple(rec["p_hat"]),
            )
        )
    return predictions, targets
