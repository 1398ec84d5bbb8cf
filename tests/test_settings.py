"""Each run setting that the library takes as well as the CLI is checked by
the kind of its config key: the library's check and `load_config` accept and
refuse the same values, in the same words but for the name. So is each field
of a desirability goal, by `ResponseGoal` and by the profile reader."""

import json
import math

import numpy as np
import pytest

from deteval.annotations import ClassRegistry
from deteval.config import ConfigError, load_config
from deteval.desirability import DesirabilityProfile, ResponseGoal
from deteval.metrics import PRCurve, average_precision, evaluate_detections
from deteval.prep import AugmentOp, AugmentPipeline, SplitRatio, TileSpec, plan_tiles

NAMES = ("anchor-to-edge", "pad", "rotate", "flip_left_right", "flip_top_bottom", "zoom_random", "all-point",
         "11-point", "larger-is-better")
VALUES = (True, 0, -1, 1, 416, 416.5, 0.0, 0.5, 1.5, math.nan, math.inf, "", "x", *NAMES)

REGISTRY = ClassRegistry.from_text("0 a\n")
CURVE = PRCurve(0, 1, np.ones(1), np.ones(1), np.ones(1))


def _operation(**entry):
    return {"augment": {"operations": [entry]}}


# (config key as its ConfigError names it, library field as its error names
# it, the library call of a value, the config overrides of a value)
SETTINGS = [
    ("tile.width", "tile_w", lambda v: TileSpec(v, 416), lambda v: {"tile": {"width": v}}),
    ("tile.height", "tile_h", lambda v: TileSpec(416, v), lambda v: {"tile": {"height": v}}),
    ("tile.edge_policy", "edge_policy", lambda v: TileSpec(416, 416, v), lambda v: {"tile": {"edge_policy": v}}),
    ("tile.min_visibility", "min_visibility", lambda v: TileSpec(416, 416, min_visibility=v),
     lambda v: {"tile": {"min_visibility": v}}),
    ("tile.image_width", "img_w", lambda v: plan_tiles(v, 1, TileSpec(1, 1)), lambda v: {"tile": {"image_width": v}}),
    ("tile.image_height", "img_h", lambda v: plan_tiles(1, v, TileSpec(1, 1)),
     lambda v: {"tile": {"image_height": v}}),
    ("augment.operations[0].op", "name", lambda v: AugmentOp(v, 1, percentage_area=0.5),
     lambda v: _operation(op=v, probability=1, percentage_area=0.5)),
    ("augment.operations[0].probability", "probability", lambda v: AugmentOp("flip_left_right", v),
     lambda v: _operation(op="flip_left_right", probability=v)),
    ("augment.operations[0].angles[0]", "angles[0]", lambda v: AugmentOp("rotate", 1, angles=(v,)),
     lambda v: _operation(op="rotate", probability=1, angles=[v])),
    ("augment.operations[0].percentage_area", "percentage_area",
     lambda v: AugmentOp("zoom_random", 1, percentage_area=v),
     lambda v: _operation(op="zoom_random", probability=1, percentage_area=v)),
    ("augment.min_visibility", "min_visibility", lambda v: AugmentPipeline((), 0, v),
     lambda v: {"augment": {"min_visibility": v}}),
    ("split.ratio[0]", "train", lambda v: SplitRatio(v, 1, 1), lambda v: {"split": {"ratio": [v, 1, 1]}}),
    ("split.ratio[1]", "val", lambda v: SplitRatio(1, v, 1), lambda v: {"split": {"ratio": [1, v, 1]}}),
    ("split.ratio[2]", "test", lambda v: SplitRatio(1, 1, v), lambda v: {"split": {"ratio": [1, 1, v]}}),
    ("iou_threshold", "iou_threshold", lambda v: evaluate_detections([], REGISTRY, v), lambda v: {"iou_threshold": v}),
    ("ap_interpolation", "interpolation", lambda v: average_precision(CURVE, v), lambda v: {"ap_interpolation": v}),
]


def _refusal(make, value) -> str | None:
    """The message of the ConfigError `make(value)` raises, or None if it returns."""
    try:
        make(value)
    except ConfigError as exc:
        return str(exc)
    return None


def _same_refusals(field, library, name, reader):
    """`library` and `reader` accept and refuse the same VALUES, in the same words after the names `field` and
    `name`; each refuses some and accepts some."""
    by_reader = [_refusal(reader, value) for value in VALUES]
    by_library = [_refusal(library, value) for value in VALUES]
    assert [message is None for message in by_library] == [message is None for message in by_reader]
    assert any(by_library) and not all(by_library)
    for in_reader, in_library in zip(by_reader, by_library):
        if in_reader:
            assert in_library.startswith(f"{field} must be ")
            assert in_library.removeprefix(field) == in_reader.removeprefix(name)


@pytest.mark.parametrize("key, field, library, overrides", SETTINGS, ids=[case[0] for case in SETTINGS])
def test_library_and_config_refuse_the_same_values_in_the_same_words(key, field, library, overrides):
    _same_refusals(field, library, f"config key {key}", lambda v: load_config(None, overrides(v)))


# A goal, and the breakpoints around a value of `low` or `high` that keep each number of VALUES in order
GOAL = {"name": "g", "direction": "larger-is-better", "low": -1e300, "middle": 0.0, "high": 1e300}
AROUND = {"low": {"middle": 1e300, "high": 1e301}, "high": {"low": -1e301, "middle": -1e300}}


@pytest.mark.parametrize("field", ["name", "direction", "low", "middle", "high", "weight"])
def test_a_goal_and_the_profile_reader_refuse_the_same_values_in_the_same_words(field):
    def goal(value):
        return {**GOAL, **AROUND.get(field, {}), field: value}

    _same_refusals(field, lambda v: ResponseGoal(**goal(v)), f"profile.goals[0].{field}",
                   lambda v: DesirabilityProfile.from_json(json.dumps([goal(v)])))


def test_a_value_json_cannot_encode_is_shown_by_repr():
    width = np.int64(416)
    with pytest.raises(ConfigError) as info:
        TileSpec(width, 416)
    assert str(info.value) == f"tile_w must be an integer of at least 1, got {width!r}"
    with pytest.raises(ConfigError) as info:
        load_config(None, {"seed": width})
    assert str(info.value) == f"config key seed must be an integer in [0, 2**64 - 1], got {width!r}"
    policies = np.array(["pad", "pad"])
    with pytest.raises(ConfigError) as info:
        TileSpec(416, 416, policies)
    assert str(info.value) == f'edge_policy must be one of "anchor-to-edge", "pad", got {policies!r}'


def test_a_float_subclass_is_a_number():
    assert evaluate_detections([], REGISTRY, np.float64(0.5)).iou_threshold == 0.5
    assert AugmentOp("zoom_random", np.float64(0.5), percentage_area=np.float64(0.8)).probability == 0.5
