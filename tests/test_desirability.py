import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        with pytest.raises(ValueError, match=f"^goal 1: missing key '{key}'$"):
            DesirabilityProfile.from_json(json.dumps({"goals": goals}))

    def test_profile_without_goals_rejected(self):
        with pytest.raises(ValueError, match="at least one goal"):
            DesirabilityProfile.from_json('{"goal": []}')

    @pytest.mark.parametrize(
        "text, problem",
        [
            ('{"goals": ["map50"]}', "goal 0: expected an object, got 'map50'"),
            ("7", "expected a list of goals, got 7"),
            ('{"goals": 5}', "expected a list of goals, got 5"),
            (
                '[{"name": "a", "direction": "larger-is-better", "low": null, "middle": 0.5, "high": 0.9}]',
                "goal 0: float() argument must be",
            ),
        ],
    )
    def test_entries_of_the_wrong_type_rejected(self, text, problem):
        with pytest.raises(ValueError) as info:
            DesirabilityProfile.from_json(text)
        assert str(info.value).startswith(problem)

    def test_duplicate_candidate_row_rejected(self):
        text = "label,response,value\nm1,map50,0.5\nm2,map50,0.7\nm1,map50,0.9\n"
        with pytest.raises(ValueError, match="^line 4: duplicate response 'map50' for candidate 'm1'$"):
            load_candidates_csv(text)
