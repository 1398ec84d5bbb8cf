"""Per-response desirability transforms, geometric-mean combination, and
candidate ranking."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .annotations import left_sum, number, read_csv
from .config import NUMBER

LARGER_IS_BETTER = "larger-is-better"
SMALLER_IS_BETTER = "smaller-is-better"
TARGET_IS_BEST = "target-is-best"
_DIRECTIONS = (LARGER_IS_BETTER, SMALLER_IS_BETTER, TARGET_IS_BEST)


@dataclass(frozen=True)
class ResponseGoal:
    """Breakpoints mapping a raw response to desirability.

    One-sided goals interpolate linearly through (low, 0), (middle, 0.5),
    (high, 1) and clamp outside; for smaller-is-better the breakpoint values
    run downward. A target-is-best goal peaks at 1 on the middle value and
    falls to 0 at both ends.
    """

    name: str
    direction: str
    low: float
    middle: float
    high: float
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(f"goal name must be a non-empty string, got {self.name!r}")
        for key in ("low", "middle", "high", "weight"):
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be a finite number, got {getattr(self, key)}")
        if self.direction not in _DIRECTIONS:
            raise ValueError(f"unknown direction {self.direction!r}; expected one of {_DIRECTIONS}")
        if self.weight <= 0.0:
            raise ValueError(f"goal weight must be positive: {self.weight}")
        ordered = (
            self.low > self.middle > self.high
            if self.direction == SMALLER_IS_BETTER
            else self.low < self.middle < self.high
        )
        if not ordered:
            raise ValueError(
                f"goal {self.name!r}: breakpoints {self.low}, {self.middle}, {self.high} "
                f"are not ordered for {self.direction}"
            )


def _interp(value: float, x0: float, d0: float, x1: float, d1: float) -> float:
    return d0 + (d1 - d0) * (value - x0) / (x1 - x0)


def desirability_of(value: float, goal: ResponseGoal) -> float:
    """Map one response value into [0, 1] through the goal's breakpoints."""
    if not math.isfinite(value):
        raise ValueError(f"response value must be finite: {value}")
    if goal.direction == TARGET_IS_BEST:
        if value <= min(goal.low, goal.high) or value >= max(goal.low, goal.high):
            return 0.0
        if value <= goal.middle:
            return _interp(value, goal.low, 0.0, goal.middle, 1.0)
        return _interp(value, goal.middle, 1.0, goal.high, 0.0)
    if goal.direction == SMALLER_IS_BETTER:
        if value >= goal.low:
            return 0.0
        if value <= goal.high:
            return 1.0
    else:
        if value <= goal.low:
            return 0.0
        if value >= goal.high:
            return 1.0
    if (value <= goal.middle) == (goal.direction == LARGER_IS_BETTER):
        return _interp(value, goal.low, 0.0, goal.middle, 0.5)
    return _interp(value, goal.middle, 0.5, goal.high, 1.0)


@dataclass(frozen=True)
class Candidate:
    label: str
    responses: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class DesirabilityProfile:
    goals: tuple[ResponseGoal, ...]

    def __post_init__(self) -> None:
        if not self.goals:
            raise ValueError("profile needs at least one goal")
        names = [g.name for g in self.goals]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate goal names: {names}")

    @classmethod
    def from_json(cls, text: str) -> DesirabilityProfile:
        data = json.loads(text)
        entries = data.get("goals", []) if isinstance(data, dict) else data
        if not isinstance(entries, list):
            raise ValueError(f"expected a list of goals, got {entries!r}")
        goals = []
        for index, g in enumerate(entries):
            try:
                if not isinstance(g, dict):
                    raise ValueError(f"expected an object, got {g!r}")
                goals.append(
                    ResponseGoal(
                        name=g["name"],
                        direction=g["direction"],
                        low=NUMBER(g["low"], "low"),
                        middle=NUMBER(g["middle"], "middle"),
                        high=NUMBER(g["high"], "high"),
                        weight=NUMBER(g.get("weight", 1.0), "weight"),
                    )
                )
            except (KeyError, ValueError) as exc:
                problem = f"missing key {exc.args[0]!r}" if isinstance(exc, KeyError) else exc
                raise ValueError(f"goal {index}: {problem}") from None
        return cls(goals=tuple(goals))


def component_desirabilities(candidate: Candidate, profile: DesirabilityProfile) -> dict[str, float]:
    components = {}
    for goal in profile.goals:
        if goal.name not in candidate.responses:
            raise ValueError(f"candidate {candidate.label!r} is missing response {goal.name!r}")
        components[goal.name] = desirability_of(candidate.responses[goal.name], goal)
    return components


def overall_desirability(candidate: Candidate, profile: DesirabilityProfile) -> float:
    """Weighted geometric mean of the per-goal desirabilities; any zero
    component annihilates the whole score. Weights are relative: each is
    scaled by the largest, which keeps the products and their total finite."""
    components = component_desirabilities(candidate, profile)
    top = max(g.weight for g in profile.goals)
    total_weight = left_sum(g.weight / top for g in profile.goals)
    log_sum = 0.0
    for goal in profile.goals:
        d = components[goal.name]
        if d == 0.0:
            return 0.0
        log_sum += goal.weight / top * math.log(d)
    return math.exp(log_sum / total_weight)


@dataclass(frozen=True)
class RankedCandidate:
    rank: int
    label: str
    overall: float
    components: dict[str, float]
    tied: bool = False


def select_best(candidates, profile: DesirabilityProfile) -> list[RankedCandidate]:
    """Rank candidates by overall desirability, best first.

    A finite candidate set makes exhaustive evaluation exact, so ranking by
    argmax replaces any iterative maximization. Equal scores fall back to
    label order and are flagged as ties.
    """
    candidates = list(candidates)
    if not candidates:
        raise ValueError("select_best needs at least one candidate")
    scored = [
        (overall_desirability(c, profile), c.label, component_desirabilities(c, profile))
        for c in candidates
    ]
    scored.sort(key=lambda item: (-item[0], item[1]))
    counts: dict[float, int] = {}
    for overall, _, _ in scored:
        counts[overall] = counts.get(overall, 0) + 1
    return [
        RankedCandidate(
            rank=i + 1,
            label=label,
            overall=overall,
            components=components,
            tied=counts[overall] > 1,
        )
        for i, (overall, label, components) in enumerate(scored)
    ]


def load_candidates_csv(text: str) -> list[Candidate]:
    """Read long-format `label,response,value` rows into candidates,
    preserving first-seen label order."""
    responses: dict[str, dict[str, float]] = {}

    def add(label, response, raw):
        values = responses.setdefault(label, {})
        if response in values:
            raise ValueError(f"duplicate response {response!r} for candidate {label!r}")
        values[response] = number(raw)

    read_csv(text, 3, add, ("label", "response", "value"))
    return [Candidate(label, resp) for label, resp in responses.items()]
