import json
import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from deteval import desirability
from deteval.config import ConfigError
from deteval.desirability import (
    Candidate,
    DesirabilityProfile,
    ResponseGoal,
    desirability_of,
    load_candidates_csv,
    overall_desirability,
    select_best,
)

MAP_GOAL = ResponseGoal("map50", "larger-is-better", 0.8, 0.85, 1.0)
GOAL_OBJECT = 'an object of "name", "direction", "low", "middle", "high" and optionally "weight"'


class TestDesirabilityOf:
    def test_high_breakpoint_is_one(self):
        assert desirability_of(1.0, MAP_GOAL) == 1.0
        assert desirability_of(1.2, MAP_GOAL) == 1.0

    def test_low_breakpoint_clamps_to_zero(self):
        assert desirability_of(0.8, MAP_GOAL) == 0.0
        assert desirability_of(0.1, MAP_GOAL) == 0.0

    def test_middle_maps_to_half(self):
        assert desirability_of(0.85, MAP_GOAL) == pytest.approx(0.5)

    def test_upper_segment_interpolation(self):
        assert desirability_of(0.925, MAP_GOAL) == pytest.approx(0.75, abs=1e-12)

    def test_lower_segment_interpolation(self):
        assert desirability_of(0.825, MAP_GOAL) == pytest.approx(0.25, abs=1e-12)

    def test_smaller_is_better(self):
        goal = ResponseGoal("latency", "smaller-is-better", 200.0, 50.0, 10.0)
        assert desirability_of(250.0, goal) == 0.0
        assert desirability_of(10.0, goal) == 1.0
        assert desirability_of(50.0, goal) == pytest.approx(0.5)
        assert desirability_of(30.0, goal) == pytest.approx(0.75)

    def test_target_is_best_tent(self):
        goal = ResponseGoal("ph", "target-is-best", 6.0, 7.0, 8.0)
        assert desirability_of(7.0, goal) == 1.0
        assert desirability_of(6.0, goal) == 0.0
        assert desirability_of(8.0, goal) == 0.0
        assert desirability_of(6.5, goal) == pytest.approx(0.5)
        assert desirability_of(7.5, goal) == pytest.approx(0.5)

    def test_breakpoint_ordering_enforced(self):
        with pytest.raises(ValueError, match="not ordered"):
            ResponseGoal("x", "larger-is-better", 1.0, 0.85, 0.8)
        with pytest.raises(ValueError, match="not ordered"):
            ResponseGoal("x", "smaller-is-better", 10.0, 50.0, 200.0)

    def test_non_finite_value_rejected(self):
        with pytest.raises(ValueError):
            desirability_of(float("nan"), MAP_GOAL)

    def test_piecewise_linear_two_slopes(self):
        # successive differences on a dense grid show at most 2 distinct
        # nonzero slopes for a one-sided goal
        values = [0.75 + k * 0.001 for k in range(300)]
        ds = [desirability_of(v, MAP_GOAL) for v in values]
        slopes = {
            round((d1 - d0) / 0.001, 6)
            for d0, d1 in zip(ds, ds[1:])
            if abs(d1 - d0) > 1e-12
        }
        assert len(slopes) <= 2

    @given(st.floats(0.0, 1.2, allow_nan=False))
    @settings(max_examples=100)
    def test_monotone_for_one_sided_goal(self, value):
        d = desirability_of(value, MAP_GOAL)
        assert 0.0 <= d <= 1.0
        assert desirability_of(value + 0.01, MAP_GOAL) >= d


def _three_branch_map(value, goal):
    """The map as it was once written, one branch set per direction: the reference for `desirability_of`."""
    def interp(x0, d0, x1, d1):
        return d0 + (d1 - d0) * (value - x0) / (x1 - x0)

    if goal.direction == "target-is-best":
        if value <= min(goal.low, goal.high) or value >= max(goal.low, goal.high):
            return 0.0
        if value <= goal.middle:
            return interp(goal.low, 0.0, goal.middle, 1.0)
        return interp(goal.middle, 1.0, goal.high, 0.0)
    if goal.direction == "smaller-is-better":
        if value >= goal.low:
            return 0.0
        if value <= goal.high:
            return 1.0
    else:
        if value <= goal.low:
            return 0.0
        if value >= goal.high:
            return 1.0
    if (value <= goal.middle) == (goal.direction == "larger-is-better"):
        return interp(goal.low, 0.0, goal.middle, 0.5)
    return interp(goal.middle, 0.5, goal.high, 1.0)


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def goals(draw):
    low, middle, high = sorted(draw(st.lists(finite, min_size=3, max_size=3, unique=True)))
    assume(math.isfinite(high - low))
    direction = draw(st.sampled_from(["larger-is-better", "smaller-is-better", "target-is-best"]))
    if direction == "smaller-is-better":
        low, high = high, low
    return ResponseGoal("g", direction, low, middle, high)


class TestOneMap:
    @given(goals(), st.lists(finite, max_size=4))
    @settings(max_examples=600)
    @example(ResponseGoal("g", "larger-is-better", 0.0, 5e-324, 1.0), [])
    @example(ResponseGoal("g", "smaller-is-better", 1.0, 5e-324, 0.0), [])
    @example(ResponseGoal("g", "target-is-best", -7e307, 5e307, 1e308), [-6e307, 7e307])
    @example(ResponseGoal("g", "larger-is-better", -3.666167959379102e-308, 0.0, 0.1), [])
    def test_matches_the_three_branch_map_bit_for_bit(self, goal, drawn):
        breakpoints = (goal.low, goal.middle, goal.high)
        neighbours = [math.nextafter(x, to) for x in breakpoints for to in (-math.inf, math.inf)]
        for value in (*breakpoints, *neighbours, -0.0, 0.0, *drawn):
            if not math.isfinite(value):
                continue
            d = desirability_of(value, goal)
            assert 0.0 <= d <= 1.0
            if value == goal.middle:
                # declared: the middle breakpoint gives its own desirability, where the old map could miss it
                assert d == (1.0 if goal.direction == "target-is-best" else 0.5)
                if goal.direction == "larger-is-better":
                    continue
            assert d.hex() == _three_branch_map(value, goal).hex(), (value, goal)

    @pytest.mark.parametrize("low, middle, high", [
        (0.0, 5e-324, 1.0),  # the old map gave 0.0
        (-3.666167959379102e-308, 0.0, 0.1),  # the old map gave 0.5000000000000001
    ])
    def test_the_middle_breakpoint_is_one_half_however_close_to_low(self, low, middle, high):
        assert desirability_of(middle, ResponseGoal("g", "larger-is-better", low, middle, high)) == 0.5

    def test_select_best_scores_each_candidate_once(self, fixtures_dir, monkeypatch):
        profile = DesirabilityProfile.from_json((fixtures_dir / "desirability" / "profile.json").read_text())
        candidates = load_candidates_csv((fixtures_dir / "desirability" / "candidates.csv").read_text())
        calls = []

        def counting(value, goal):
            calls.append(goal.name)
            return desirability_of(value, goal)

        monkeypatch.setattr(desirability, "desirability_of", counting)
        assert len(candidates) == len(profile.goals) == 4
        select_best(candidates, profile)
        assert len(calls) == 16


def _profile(weights=(1.0, 1.0)):
    return DesirabilityProfile(
        goals=(
            ResponseGoal("a", "larger-is-better", 0.0, 0.5, 1.0, weight=weights[0]),
            ResponseGoal("b", "larger-is-better", 0.0, 0.5, 1.0, weight=weights[1]),
        )
    )


class TestOverallDesirability:
    def test_all_ones(self):
        candidate = Candidate("c", {"a": 1.0, "b": 1.0})
        assert overall_desirability(candidate, _profile()) == 1.0

    def test_zero_annihilates(self):
        candidate = Candidate("c", {"a": 0.0, "b": 1.0})
        assert overall_desirability(candidate, _profile()) == 0.0

    def test_geometric_mean(self):
        # component desirabilities (0.25, 1.0) -> sqrt(0.25) = 0.5
        candidate = Candidate("c", {"a": 0.25, "b": 1.0})
        profile = DesirabilityProfile(
            goals=(
                ResponseGoal("a", "larger-is-better", 0.0, 0.5, 1.0),
                ResponseGoal("b", "larger-is-better", 0.0, 0.5, 1.0),
            )
        )
        # responses map through the identity breakpoints: d_a = 0.25, d_b = 1
        assert overall_desirability(candidate, profile) == pytest.approx(0.5, abs=1e-12)

    def test_equal_components_return_exactly_that_value(self):
        for c in (0.1, 0.3, 0.77):
            candidate = Candidate("c", {"a": c, "b": c})
            assert overall_desirability(candidate, _profile()) == pytest.approx(c, abs=1e-12)

    def test_weights_shift_the_mean(self):
        candidate = Candidate("c", {"a": 0.25, "b": 1.0})
        heavy_b = overall_desirability(candidate, _profile(weights=(1.0, 3.0)))
        assert heavy_b == pytest.approx((0.25 * 1.0**3) ** 0.25, abs=1e-12)

    def test_weights_whose_total_overflows_rank_as_equal_weights(self):
        # two weights of 1e308 already sum past the largest float
        def profile(weight):
            return DesirabilityProfile(
                tuple(ResponseGoal(name, "larger-is-better", 0.0, 0.5, 1.0, weight=weight) for name in "abc")
            )

        candidates = [Candidate("m1", {"a": 0.01, "b": 0.9, "c": 0.9}), Candidate("m2", {"a": 0.6, "b": 0.9, "c": 0.9})]
        ranking = select_best(candidates, profile(1e308))
        assert ranking == select_best(candidates, profile(1.0))
        assert [entry.label for entry in ranking] == ["m2", "m1"]
        assert all(0.0 < entry.overall < 1.0 for entry in ranking)

    @pytest.mark.parametrize("weight", [1.0, 1e308])
    def test_a_single_goal_of_any_weight_gives_its_desirability(self, weight):
        profile = DesirabilityProfile((ResponseGoal("a", "larger-is-better", 0.0, 0.5, 1.0, weight=weight),))
        assert overall_desirability(Candidate("c", {"a": 0.1}), profile) == pytest.approx(0.1, abs=1e-12)

    def test_missing_response_error(self):
        with pytest.raises(ValueError, match="missing response 'b'"):
            overall_desirability(Candidate("c", {"a": 1.0}), _profile())


class TestSelectBest:
    def test_single_candidate(self):
        ranking = select_best([Candidate("only", {"a": 0.7, "b": 0.7})], _profile())
        assert ranking[0].rank == 1 and ranking[0].label == "only"

    def test_dominating_candidate_ranks_first(self):
        ranking = select_best(
            [
                Candidate("weak", {"a": 0.6, "b": 0.55}),
                Candidate("strong", {"a": 0.9, "b": 0.8}),
            ],
            _profile(),
        )
        assert ranking[0].label == "strong"

    def test_four_variant_fixture(self, fixtures_dir):
        profile = DesirabilityProfile.from_json(
            (fixtures_dir / "desirability" / "profile.json").read_text()
        )
        candidates = load_candidates_csv(
            (fixtures_dir / "desirability" / "candidates.csv").read_text()
        )
        ranking = select_best(candidates, profile)
        assert ranking[0].label == "yolov5m"
        assert 0.90 <= ranking[0].overall <= 1.0
        assert ranking[-1].overall == 0.0  # a response at/below its low breakpoint

    def test_ties_flagged_and_label_ordered(self):
        ranking = select_best(
            [
                Candidate("zeta", {"a": 0.7, "b": 0.7}),
                Candidate("alpha", {"a": 0.7, "b": 0.7}),
            ],
            _profile(),
        )
        assert [r.label for r in ranking] == ["alpha", "zeta"]
        assert all(r.tied for r in ranking)

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            select_best([], _profile())

    @given(st.floats(0.05, 0.95), st.floats(0.0, 0.04))
    @settings(max_examples=50)
    def test_improving_a_response_never_lowers_rank(self, base, bump):
        fixed = Candidate("fixed", {"a": 0.5, "b": 0.5})
        worse = Candidate("moved", {"a": base, "b": 0.5})
        better = Candidate("moved", {"a": base + bump, "b": 0.5})
        profile = _profile()
        rank_of = lambda cands: next(
            r.rank for r in select_best(cands, profile) if r.label == "moved"
        )
        assert rank_of([fixed, better]) <= rank_of([fixed, worse])


class TestParsing:
    def test_profile_round_trip(self, fixtures_dir):
        profile = DesirabilityProfile.from_json(
            (fixtures_dir / "desirability" / "profile.json").read_text()
        )
        assert [g.name for g in profile.goals] == [
            "map50", "accuracy_wb", "accuracy_bb", "speed_fps",
        ]
        assert profile.goals[3].high == 142.0

    def test_candidates_header_enforced(self):
        with pytest.raises(ValueError, match="label,response,value"):
            load_candidates_csv("a,b\n1,2\n")

    def test_duplicate_goal_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate goal names"):
            DesirabilityProfile(goals=(MAP_GOAL, MAP_GOAL))

    @pytest.mark.parametrize("key", ["name", "direction", "low", "middle", "high"])
    def test_goal_missing_key_names_goal_and_key(self, key):
        goals = [
            {"name": "a", "direction": "larger-is-better", "low": 0.1, "middle": 0.5, "high": 0.9},
            {"name": "b", "direction": "larger-is-better", "low": 0.1, "middle": 0.5, "high": 0.9},
        ]
        del goals[1][key]
        with pytest.raises(ConfigError) as info:
            DesirabilityProfile.from_json(json.dumps({"goals": goals}))
        assert str(info.value) == f"profile.goals[1] must be {GOAL_OBJECT}, got {json.dumps(goals[1])}"

    def test_profile_without_goals_rejected(self):
        with pytest.raises(ConfigError) as info:
            DesirabilityProfile.from_json('{"goal": []}')
        assert str(info.value) == 'profile must be an object of "goals", got {"goal": []}'
        with pytest.raises(ValueError, match="^profile needs at least one goal$"):
            DesirabilityProfile.from_json('{"goals": []}')

    @pytest.mark.parametrize(
        "text, problem",
        [
            ('{"goals": ["map50"]}', f'profile.goals[0] must be {GOAL_OBJECT}, got "map50"'),
            ("7", 'profile must be an object of "goals", got 7'),
            ('{"goals": 5}', "profile.goals must be an array, got 5"),
            (
                '[{"name": "a", "direction": "larger-is-better", "low": null, "middle": 0.5, "high": 0.9}]',
                "profile.goals[0].low must be a finite number, got null",
            ),
        ],
        ids=["goal-not-an-object", "a-number", "goals-a-number", "null-low"],
    )
    def test_entries_of_the_wrong_type_rejected(self, text, problem):
        with pytest.raises(ConfigError) as info:
            DesirabilityProfile.from_json(text)
        assert str(info.value) == problem

    def test_duplicate_candidate_row_rejected(self):
        text = "label,response,value\nm1,map50,0.5\nm2,map50,0.7\nm1,map50,0.9\n"
        with pytest.raises(ValueError, match="^line 4: duplicate response 'map50' for candidate 'm1'$"):
            load_candidates_csv(text)


@pytest.mark.parametrize("make, message", [
    (lambda: ResponseGoal("map50", "larger-is-better", 0.8, math.inf, 1.0),
     "middle must be a finite number, got Infinity"),
    (lambda: ResponseGoal("map50", "larger-is-better", math.nan, 0.85, 1.0), "low must be a finite number, got NaN"),
    (lambda: ResponseGoal("map50", "sideways", 0.8, 0.85, 1.0),
     'direction must be one of "larger-is-better", "smaller-is-better", "target-is-best", got "sideways"'),
    (lambda: ResponseGoal("map50", "larger-is-better", 0.8, 0.85, 1.0, weight=0.0),
     "weight must be a positive finite number, got 0.0"),
    (lambda: ResponseGoal("map50", "larger-is-better", 0.8, 0.85, 1.0, weight=-2.0),
     "weight must be a positive finite number, got -2.0"),
    (lambda: ResponseGoal("map50", "larger-is-better", 0.8, 0.85, 1.0, weight=True),
     "weight must be a positive finite number, got true"),
    (lambda: ResponseGoal("m", "larger-is-better", -1e308, 1e308, 1.5e308),
     "goal 'm': breakpoints -1e+308, 1e+308, 1.5e+308 span more than the largest float"),
    (lambda: ResponseGoal("m", "smaller-is-better", 1.5e308, 1e308, -1e308),
     "goal 'm': breakpoints 1.5e+308, 1e+308, -1e+308 span more than the largest float"),
    (lambda: ResponseGoal("m", "target-is-best", -1e308, 0.0, 1e308),
     "goal 'm': breakpoints -1e+308, 0.0, 1e+308 span more than the largest float"),
], ids=["infinite", "nan", "direction", "zero-weight", "negative-weight", "bool-weight",
        "larger-span", "smaller-span", "target-span"])
def test_goal_refusals(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message
