"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured values (visible under `pytest -s` or in the verbose log)."""

import itertools
import json
import time

import numpy as np
import pytest

from deteval.annotations import BoundingBox, giou, iou
from deteval.cli import main
from deteval.desirability import DesirabilityProfile, load_candidates_csv, select_best
from deteval.losses import (
    CellPrediction,
    CellTarget,
    LossConfig,
    classification_loss,
    giou_loss,
    hard_swish,
    load_loss_records,
    objectness_loss,
)
from deteval.metrics import (
    average_precision,
    bag_based_accuracy,
    load_height_records,
    mean_average_precision,
    pr_curve,
)
from deteval.prep import SplitRatio, apportion, split_dataset
from deteval.stats import ObservationTable, anova_oneway, describe, f_sf, reg_inc_beta, t_test_pairwise

from test_metrics import _sample_from_pattern, brute_force_ap


class _Clock:
    def __init__(self, limit_s: float):
        self.limit = limit_s
        self.start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def check(self):
        elapsed = self.elapsed()
        assert elapsed < self.limit, f"runtime {elapsed:.2f}s exceeds {self.limit}s budget"
        return elapsed


def _report(number: int, detail: str):
    print(f"ACCEPTANCE {number:02d} PASS - {detail}")


def test_criterion_01_height_table_descriptive_statistics(fixtures_dir):
    clock = _Clock(1.0)
    records = load_height_records((fixtures_dir / "height_records.csv").read_text())
    expected = {"top": (94.25, 12.80), "middle": (49.58, 46.17), "bottom": (5.00, 15.81)}
    observed = {}
    for stratum, (mean, sd) in expected.items():
        stats = describe(bag_based_accuracy(records, stratum).percentages)
        assert stats.mean == pytest.approx(mean, abs=0.01)
        assert stats.sd == pytest.approx(sd, abs=0.01)
        observed[stratum] = (stats.mean, stats.sd)
    elapsed = clock.check()
    _report(1, f"means/SDs {observed} within +/-0.01 in {elapsed:.3f}s")


def test_criterion_02_height_effect_anova(fixtures_dir):
    clock = _Clock(1.0)
    records = load_height_records((fixtures_dir / "height_records.csv").read_text())
    groups = tuple(
        (stratum, bag_based_accuracy(records, stratum).percentages)
        for stratum in ("top", "middle", "bottom")
    )
    result = anova_oneway(ObservationTable("bag_accuracy", groups))
    assert result.df == (2, 27)

    # independent oracle: plain sum-of-squares arithmetic on the same data
    all_values = [v for _, obs in groups for v in obs]
    grand = sum(all_values) / len(all_values)
    ss_between = sum(len(obs) * (sum(obs) / len(obs) - grand) ** 2 for _, obs in groups)
    ss_within = sum((v - sum(obs) / len(obs)) ** 2 for _, obs in groups for v in obs)
    f_oracle = (ss_between / 2.0) / (ss_within / 27.0)
    assert abs(result.f_ratio - f_oracle) <= 1e-9 * f_oracle
    assert result.f_ratio == pytest.approx(23.47, abs=0.01)
    assert result.p_value < 1e-4
    elapsed = clock.check()
    _report(2, f"df={result.df}, F={result.f_ratio:.4f} (oracle {f_oracle:.4f}), "
               f"p={result.p_value:.2e} in {elapsed:.3f}s")


def test_criterion_03_map_aggregation(fixtures_dir):
    clock = _Clock(1.0)
    aps = json.loads((fixtures_dir / "per_class_ap.json").read_text())
    assert aps == {"wb": 0.9053, "bb": 0.8484}
    value = mean_average_precision(aps)
    assert value == pytest.approx(0.87685, abs=5e-5)
    elapsed = clock.check()
    _report(3, f"mean of {aps} = {value:.5f} in {elapsed:.3f}s")


def test_criterion_04_split_allocation():
    clock = _Clock(1.0)
    ids = [f"img{k:04d}" for k in range(141)]
    ratio = SplitRatio(15, 3, 2)
    # sizes come from seed-independent apportionment...
    assert apportion(141, ratio.weights) == [106, 21, 14]
    # ...and hold for a wide sweep of seeds, including 64-bit extremes
    seeds = [0, 1, 2**32, 2**63, 2**64 - 1] + list(range(2, 300))
    for seed in seeds:
        result = split_dataset(ids, ratio, seed)
        assert (len(result.train), len(result.val), len(result.test)) == (106, 21, 14)
    elapsed = clock.check()
    _report(4, f"141 @ 15:3:2 -> (106, 21, 14) across {len(seeds)} seeds in {elapsed:.3f}s")


def test_criterion_05_desirability_selection(fixtures_dir):
    clock = _Clock(1.0)
    profile = DesirabilityProfile.from_json(
        (fixtures_dir / "desirability" / "profile.json").read_text()
    )
    goals = {g.name: (g.low, g.middle, g.high) for g in profile.goals}
    assert goals["map50"] == (0.8, 0.85, 1.0)
    assert goals["accuracy_wb"] == (0.8, 0.85, 1.0)
    assert goals["accuracy_bb"] == (0.8, 0.85, 1.0)
    candidates = load_candidates_csv(
        (fixtures_dir / "desirability" / "candidates.csv").read_text()
    )
    ranking = select_best(candidates, profile)
    assert ranking[0].label == "yolov5m"
    assert 0.90 <= ranking[0].overall <= 1.0
    elapsed = clock.check()
    _report(5, f"yolov5m first with D={ranking[0].overall:.4f} in {elapsed:.3f}s")


def test_criterion_06_ap_oracle_equivalence():
    clock = _Clock(30.0)
    grid = (0.25, 0.5, 0.75, 1.0)
    checked = 0
    worst = 0.0
    for npos in range(0, 5):
        for n_det in range(0, 7):
            for confs in itertools.combinations_with_replacement(grid, n_det):
                for flags in itertools.product((False, True), repeat=n_det):
                    if sum(flags) > npos:
                        continue
                    sample = _sample_from_pattern(list(confs), list(flags), npos)
                    ours = average_precision(pr_curve([sample], 0, 0.5))
                    oracle = brute_force_ap(list(confs), list(flags), npos)
                    diff = abs(ours - oracle)
                    worst = max(worst, diff)
                    assert diff <= 1e-12, (confs, flags, npos, ours, oracle)
                    checked += 1
    elapsed = clock.check()
    _report(6, f"{checked} exhaustive configurations, worst |AP - oracle| = {worst:.2e} "
               f"in {elapsed:.2f}s")


def test_criterion_07_anova_t_identity():
    clock = _Clock(5.0)
    rng = np.random.default_rng(20250811)
    checked = 0
    for _ in range(1000):
        n1 = int(rng.integers(2, 12))
        n2 = int(rng.integers(2, 12))
        table = ObservationTable(
            "r",
            (
                ("a", tuple(float(v) for v in rng.normal(0.0, 1.0, n1))),
                ("b", tuple(float(v) for v in rng.normal(0.4, 1.3, n2))),
            ),
        )
        anova = anova_oneway(table)
        ttest = t_test_pairwise(table)[0]
        assert not anova.degenerate and not ttest.degenerate
        assert abs(anova.f_ratio - ttest.statistic**2) <= 1e-9 * max(anova.f_ratio, 1e-300)
        assert abs(anova.p_value - ttest.p_value) <= 1e-9 * max(anova.p_value, 1e-300)
        checked += 1
    elapsed = clock.check()
    _report(7, f"F = t^2 and p-values agree (rel 1e-9) on {checked} tables in {elapsed:.2f}s")


def test_criterion_08_special_function_correctness():
    clock = _Clock(5.0)
    rng = np.random.default_rng(31415)
    worst = 0.0
    for _ in range(10000):
        x = float(rng.uniform(0.0, 1.0))
        a = float(rng.uniform(0.05, 80.0))
        b = float(rng.uniform(0.05, 80.0))
        residual = abs(reg_inc_beta(x, a, b) + reg_inc_beta(1.0 - x, b, a) - 1.0)
        worst = max(worst, residual)
        assert residual <= 1e-12
    for d in range(1, 51):
        assert abs(f_sf(1.0, float(d), float(d)) - 0.5) <= 1e-10
    elapsed = clock.check()
    _report(8, f"symmetry residual <= {worst:.2e} on 10000 triples; "
               f"f_sf(1,d,d)=0.5 for d in 1..50 in {elapsed:.2f}s")


def test_criterion_09_geometry_suite():
    clock = _Clock(5.0)
    rng = np.random.default_rng(271828)

    def random_box():
        cx = float(rng.uniform(0.0, 1.0))
        cy = float(rng.uniform(0.0, 1.0))
        w = float(rng.uniform(1e-6, 1.0))
        h = float(rng.uniform(1e-6, 1.0))
        return BoundingBox(cx, cy, w, h)

    for _ in range(10000):
        a, b = random_box(), random_box()
        v = iou(a, b)
        g = giou(a, b)
        assert v == iou(b, a)
        assert g == giou(b, a)
        assert 0.0 <= v <= 1.0
        assert -1.0 < g <= 1.0
        assert g <= v

    corner_a = BoundingBox(0.25, 0.25, 0.5, 0.5)
    corner_b = BoundingBox(0.5, 0.5, 0.5, 0.5)
    assert abs(iou(corner_a, corner_b) - 1.0 / 7.0) <= 1e-12
    sep_a = BoundingBox(1.0 / 6.0, 0.5, 1.0 / 3.0, 1.0)
    sep_b = BoundingBox(5.0 / 6.0, 0.5, 1.0 / 3.0, 1.0)
    assert abs(giou(sep_a, sep_b) - (-1.0 / 3.0)) <= 1e-12
    outer = BoundingBox(0.5, 0.5, 1.0, 1.0)
    inner = BoundingBox(0.5, 0.5, 0.5, 0.5)
    assert abs(giou(outer, inner) - 0.25) <= 1e-12
    elapsed = clock.check()
    _report(9, f"10000 random pairs symmetric/bounded/ordered; "
               f"1/7, -1/3, 0.25 exact to 1e-12 in {elapsed:.2f}s")


def test_criterion_10_cli_determinism(fixtures_dir, tmp_path):
    clock = _Clock(10.0)
    artifacts = {}
    for jobs in (1, 8):
        out = tmp_path / f"jobs{jobs}"
        code = main([
            "--output-dir", str(out), "--jobs", str(jobs), "evaluate",
            "--ground-truth-dir", str(fixtures_dir / "detection" / "truth"),
            "--predictions-dir", str(fixtures_dir / "detection" / "preds"),
            "--class-registry", str(fixtures_dir / "detection" / "classes.txt"),
        ])
        assert code == 0
        code = main([
            "--output-dir", str(out), "--jobs", str(jobs), "stats",
            "--inputs", str(fixtures_dir / "stats" / "height_accuracy.csv"),
        ])
        assert code == 0
        artifacts[jobs] = {
            name: (out / name).read_bytes()
            for name in (
                "evaluation.json", "pr_curve_wb.csv", "pr_curve_bb.csv",
                "stats.json", "stats.csv",
            )
        }
    assert artifacts[1] == artifacts[8]
    elapsed = clock.check()
    _report(10, f"evaluate+stats artifacts byte-identical for --jobs 1 vs 8 in {elapsed:.2f}s")


def test_criterion_11_reference_losses(fixtures_dir):
    clock = _Clock(1.0)
    cfg = LossConfig(lambda_coord=1.0, lambda_noobj=1.0, grid_size=4, anchors_per_scale=3)
    preds, targets = load_loss_records((fixtures_dir / "losses" / "perfect.json").read_text())
    assert giou_loss(preds, targets, cfg) == 0.0
    assert objectness_loss(preds, targets, cfg) == 0.0
    assert classification_loss(preds, targets, cfg) == 0.0

    # derived single-cell case 1: box regression over GIoU = -1/3 -> 4/3
    box_pred = BoundingBox(1.0 / 6.0, 0.5, 1.0 / 3.0, 1.0)
    box_truth = BoundingBox(5.0 / 6.0, 0.5, 1.0 / 3.0, 1.0)
    loss = giou_loss(
        [CellPrediction(0, 0, box_pred, 1.0, (1.0, 0.0))],
        [CellTarget(0, 0, True, box_truth, 1.0, (1.0, 0.0))],
        cfg,
    )
    assert abs(loss - 4.0 / 3.0) <= 1e-12

    # derived single-cell case 2: lone no-object cell, C=0.5 vs 0, lambda=0.5
    loss = objectness_loss(
        [CellPrediction(0, 0, box_pred, 0.5, (1.0, 0.0))],
        [CellTarget(0, 0, False, None, 0.0, (0.0, 0.0))],
        LossConfig(1.0, 0.5, 4, 3),
    )
    assert abs(loss - 0.125) <= 1e-12

    # derived single-cell case 3: class scores (0.7, 0.3) vs (1, 0) -> 0.18
    loss = classification_loss(
        [CellPrediction(0, 0, box_pred, 1.0, (0.7, 0.3))],
        [CellTarget(0, 0, True, box_truth, 1.0, (1.0, 0.0))],
        cfg,
    )
    assert abs(loss - 0.18) <= 1e-12

    assert hard_swish(3.0) == 3.0
    assert hard_swish(-3.0) == 0.0
    assert hard_swish(0.0) == 0.0
    elapsed = clock.check()
    _report(11, f"perfect fixtures at 0, three single-cell oracles within 1e-12, "
                f"hard_swish endpoints exact in {elapsed:.3f}s")
