"""Per-response desirability transforms, geometric-mean combination, and
candidate ranking."""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from dataclasses import dataclass, field

from .annotations import left_sum, number, read_csv
from .config import NUMBER, _array, _kind, _number, _object, _one_of

LARGER_IS_BETTER = "larger-is-better"
SMALLER_IS_BETTER = "smaller-is-better"
TARGET_IS_BEST = "target-is-best"
# The kind of each field of a goal, named as `ResponseGoal` names it
_GOAL = {
    "name": _kind("a non-empty string", lambda value: isinstance(value, str) and value != ""),
    "direction": _one_of(LARGER_IS_BETTER, SMALLER_IS_BETTER, TARGET_IS_BEST),
    "low": NUMBER,
    "middle": NUMBER,
    "high": NUMBER,
    "weight": _number("a positive finite number", lambda value: 0 < value <= sys.float_info.max),
}
# A profile as JSON: an object whose one key "goals" holds an array of goals, each made a `ResponseGoal`
_PROFILE = _object({"goals": _array(_object(_GOAL, ("name", "direction", "low", "middle", "high"),
                                            lambda goal: ResponseGoal(**goal)))}, ("goals",))


@dataclass(frozen=True)
class ResponseGoal:
    """Breakpoints mapping a raw response to desirability.

    One-sided goals interpolate linearly through (low, 0), (middle, 0.5),
    (high, 1) and clamp outside; for smaller-is-better the breakpoint values
    run downward. A target-is-best goal peaks at 1 on the middle value and
    falls to 0 at both ends. The span `high - low` must be a finite float.
    """

    name: str
    direction: str
    low: float
    middle: float
    high: float
    weight: float = 1.0

    def __post_init__(self) -> None:
        for key, kind in _GOAL.items():
            kind(getattr(self, key), key)
        low, middle, high = _upward(self, self.low, self.middle, self.high)
        points = f"goal {self.name!r}: breakpoints {self.low}, {self.middle}, {self.high}"
        if not low < middle < high:
            raise ValueError(f"{points} are not ordered for {self.direction}")
        if not math.isfinite(high - low):
            raise ValueError(f"{points} span more than the largest float")


def _upward(goal: ResponseGoal, *values: float) -> tuple[float, ...]:
    """`values` as a larger-is-better goal reads them: negated for smaller-is-better, which is exact."""
    return tuple(-v for v in values) if goal.direction == SMALLER_IS_BETTER else values


def desirability_of(value: float, goal: ResponseGoal) -> float:
    """Map one response value into [0, 1] through the goal's breakpoints:
    one piecewise-linear map through (low, 0), (middle, 0.5), (high, 1), or
    (middle, 1), (high, 0) for target-is-best, taken on the negated value and
    breakpoints for smaller-is-better."""
    if not math.isfinite(value):
        raise ValueError(f"response value must be finite: {value}")
    value, low, middle, high = _upward(goal, value, goal.low, goal.middle, goal.high)
    d_middle, d_high = (1.0, 0.0) if goal.direction == TARGET_IS_BEST else (0.5, 1.0)
    if value <= low:
        return 0.0
    if value >= high:
        return d_high
    # the upper segment starts at the middle, where it gives d_middle exactly
    x0, d0, x1, d1 = (low, 0.0, middle, d_middle) if value < middle else (middle, d_middle, high, d_high)
    return d0 + (d1 - d0) * (value - x0) / (x1 - x0)


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
        """The profile of a JSON array of goals, or of an object whose one key "goals" holds that array."""
        data = json.loads(text)
        return cls(tuple(_PROFILE({"goals": data} if isinstance(data, list) else data, "profile")["goals"]))


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
    return _geometric_mean(component_desirabilities(candidate, profile), profile)


def _geometric_mean(components: dict[str, float], profile: DesirabilityProfile) -> float:
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
    scored = []
    for c in candidates:
        components = component_desirabilities(c, profile)
        scored.append((_geometric_mean(components, profile), c.label, components))
    scored.sort(key=lambda item: (-item[0], item[1]))
    counts = Counter(overall for overall, _, _ in scored)
    return [
        RankedCandidate(i + 1, label, overall, components, tied=counts[overall] > 1)
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
