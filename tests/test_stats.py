import csv
import math
import operator
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special
from scipy import stats as scipy_stats

from deteval.metrics import bag_based_accuracy, load_height_records
from deteval.stats import (
    ObservationTable,
    anova_oneway,
    describe,
    f_sf,
    reg_inc_beta,
    shapiro_wilk,
    t_test_pairwise,
)


def _table(*groups, response="y"):
    return ObservationTable(
        response=response,
        groups=tuple((f"g{i}", tuple(float(v) for v in obs)) for i, obs in enumerate(groups)),
    )


class TestRegIncBeta:
    def test_uniform_cdf(self):
        assert reg_inc_beta(0.5, 1.0, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_endpoints(self):
        assert reg_inc_beta(0.0, 2.3, 4.5) == 0.0
        assert reg_inc_beta(1.0, 2.3, 4.5) == 1.0

    def test_closed_form_a2_b2(self):
        # I_x(2,2) = 3x^2 - 2x^3
        for x in (0.1, 0.25, 0.5, 0.8):
            assert reg_inc_beta(x, 2.0, 2.0) == pytest.approx(3 * x**2 - 2 * x**3, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            reg_inc_beta(1.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            reg_inc_beta(0.5, -1.0, 1.0)

    def test_symmetry_identity(self):
        rng = np.random.default_rng(99)
        for _ in range(2000):
            x = float(rng.uniform(0.0, 1.0))
            a = float(rng.uniform(0.05, 60.0))
            b = float(rng.uniform(0.05, 60.0))
            assert abs(reg_inc_beta(x, a, b) + reg_inc_beta(1.0 - x, b, a) - 1.0) <= 1e-12

    def test_against_scipy(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            x = float(rng.uniform(0.0, 1.0))
            a = float(rng.uniform(0.1, 40.0))
            b = float(rng.uniform(0.1, 40.0))
            assert reg_inc_beta(x, a, b) == pytest.approx(
                float(special.betainc(a, b, x)), abs=1e-12
            )


class TestFSurvival:
    def test_zero_statistic(self):
        assert f_sf(0.0, 3.0, 17.0) == 1.0

    def test_equal_df_symmetry_point(self):
        for d in range(1, 51):
            assert f_sf(1.0, float(d), float(d)) == pytest.approx(0.5, abs=1e-10)

    def test_table_anchor_value(self):
        # F(2, 27) upper tail at 23.47 is far below 1e-4
        p = f_sf(23.47, 2.0, 27.0)
        assert p < 1e-4
        assert p == pytest.approx(float(scipy_stats.f.sf(23.47, 2, 27)), rel=1e-9)

    def test_quadrature_oracle(self):
        for f, d1, d2 in ((2.5, 3.0, 12.0), (0.7, 5.0, 5.0), (23.47, 2.0, 27.0)):
            oracle, err = integrate.quad(
                lambda u: scipy_stats.f.pdf(u, d1, d2), f, np.inf, epsabs=1e-13, epsrel=1e-12
            )
            assert f_sf(f, d1, d2) == pytest.approx(oracle, abs=max(1e-10, 10 * err))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            f_sf(-1.0, 2.0, 2.0)
        with pytest.raises(ValueError):
            f_sf(1.0, 0.0, 2.0)


class TestAnova:
    def test_identical_groups(self):
        result = anova_oneway(_table([3.0, 4.0, 5.0], [3.0, 4.0, 5.0]))
        assert result.f_ratio == pytest.approx(0.0, abs=1e-14)
        assert result.p_value == pytest.approx(1.0, abs=1e-12)

    def test_height_fixture_matches_sum_of_squares_oracle(self, fixtures_dir):
        records = load_height_records(
            (fixtures_dir / "height_records.csv").read_text()
        )
        groups = {
            stratum: bag_based_accuracy(records, stratum).percentages
            for stratum in ("top", "middle", "bottom")
        }
        table = ObservationTable("bag_accuracy", tuple(groups.items()))
        result = anova_oneway(table)
        assert result.df == (2, 27)

        # independent hand oracle: plain sums of squares
        all_values = [v for obs in groups.values() for v in obs]
        grand = sum(all_values) / len(all_values)
        ss_between = sum(
            len(obs) * (sum(obs) / len(obs) - grand) ** 2 for obs in groups.values()
        )
        ss_within = sum(
            (v - sum(obs) / len(obs)) ** 2 for obs in groups.values() for v in obs
        )
        f_oracle = (ss_between / 2) / (ss_within / 27)
        assert result.f_ratio == pytest.approx(f_oracle, rel=1e-9)
        assert result.f_ratio == pytest.approx(23.47, abs=0.01)
        assert result.p_value < 1e-4

    def test_sum_of_squares_adds_left_to_right_on_every_python(self):
        # builtin `sum` from Python 3.12 compensates, and gives 0x1.bd4aaaaaaaaaap+11 here
        result = anova_oneway(_table([16, 29], [81, 81], [75, 8]))
        assert result.ss_between.hex() == "0x1.bd4aaaaaaaaabp+11"

    def test_every_statistic_folds_left_to_right(self, fixtures_dir):
        # a pairwise sum or a BLAS dot product rounds these 10 terms in another order, and a dot
        # product's order follows the CPU; a left fold has one order everywhere
        def fold(terms):
            return reduce(operator.add, terms, 0.0)

        def mean(values):
            return fold(values) / len(values)

        def squares(values):
            m = mean(values)
            return fold((v - m) * (v - m) for v in values)

        from deteval.stats import _sw_weights

        with open(fixtures_dir / "stats" / "height_accuracy.csv", newline="") as f:
            table = ObservationTable.from_rows("accuracy", list(csv.reader(f))[1:])
        groups = [obs for _, obs in table.groups]
        assert [len(obs) for obs in groups] == [10, 10, 10]

        ss_within = fold(squares(obs) for obs in groups)
        assert anova_oneway(table).ss_within.hex() == ss_within.hex()
        for result, (a, b) in zip(t_test_pairwise(table), [(0, 1), (0, 2), (1, 2)]):
            pooled = (squares(groups[a]) + squares(groups[b])) / 18
            t = (mean(groups[a]) - mean(groups[b])) / math.sqrt(pooled * (1.0 / 10 + 1.0 / 10))
            assert result.statistic.hex() == t.hex()
        for obs in groups:
            assert describe(obs).sd.hex() == math.sqrt(squares(obs) / 9).hex()
            x = sorted(obs)
            m = mean(x)
            numerator = fold(c * (v - m) for c, v in zip(_sw_weights(10), x))
            w = numerator * numerator / squares(x)
            assert shapiro_wilk(obs).statistic.hex() == min(w, 1.0).hex()

    def test_degenerate_zero_within_variance(self):
        result = anova_oneway(_table([0.0, 0.0], [1.0, 1.0]))
        assert result.degenerate
        assert math.isinf(result.f_ratio)
        assert result.p_value == 0.0

    def test_requires_replicates(self):
        with pytest.raises(ValueError, match=">= 2 observations"):
            anova_oneway(_table([1.0], [2.0, 3.0]))
        with pytest.raises(ValueError, match=">= 2 groups"):
            ObservationTable("y", (("only", (1.0, 2.0)),))

    @pytest.mark.filterwarnings("error")
    def test_sum_of_squares_that_overflows_rejected(self):
        with pytest.raises(ValueError, match="sum of squares is not finite"):
            anova_oneway(_table([1e308, -1e308, 1e308], [1e308, -1e308, -1e308]))

    @given(
        st.lists(
            st.lists(st.floats(-50, 50, allow_nan=False), min_size=2, max_size=8),
            min_size=2,
            max_size=5,
        )
    )
    @settings(max_examples=80)
    def test_decomposition_and_effect_identities(self, groups):
        table = _table(*groups)
        result = anova_oneway(table)
        all_values = [v for obs in groups for v in obs]
        ss_total = sum((v - result.grand_mean) ** 2 for v in all_values)
        assert result.ss_between + result.ss_within == pytest.approx(
            ss_total, rel=1e-9, abs=1e-9
        )
        weighted = sum(len(obs) * e for obs, e in zip(groups, result.effects))
        assert abs(weighted) <= 1e-10 * max(1.0, abs(result.grand_mean) * len(all_values))
        for obs_res in result.residuals:
            assert abs(sum(obs_res)) <= 1e-10 * max(1.0, max(abs(r) for r in obs_res) if obs_res else 1.0)

    def test_shift_and_scale_invariance(self):
        rng = np.random.default_rng(11)
        groups = [list(rng.normal(10, 2, size=6)) for _ in range(3)]
        base = anova_oneway(_table(*groups))
        shifted = anova_oneway(_table(*[[v + 100.0 for v in g] for g in groups]))
        scaled = anova_oneway(_table(*[[v * 7.5 for v in g] for g in groups]))
        assert shifted.f_ratio == pytest.approx(base.f_ratio, rel=1e-9)
        assert shifted.p_value == pytest.approx(base.p_value, rel=1e-9)
        assert scaled.f_ratio == pytest.approx(base.f_ratio, rel=1e-9)

    def test_two_group_f_equals_t_squared(self):
        rng = np.random.default_rng(20240811)
        for _ in range(1000):
            n1 = int(rng.integers(2, 10))
            n2 = int(rng.integers(2, 10))
            a = rng.normal(0, 1, n1)
            b = rng.normal(0.5, 1.2, n2)
            table = _table(list(a), list(b))
            anova = anova_oneway(table)
            ttest = t_test_pairwise(table)[0]
            if anova.degenerate or ttest.degenerate:
                continue
            assert anova.f_ratio == pytest.approx(ttest.statistic**2, rel=1e-9)
            assert anova.p_value == pytest.approx(ttest.p_value, rel=1e-9)


class TestTTest:
    def test_identical_groups(self):
        result = t_test_pairwise(_table([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]))[0]
        assert result.statistic == 0.0
        assert result.p_value == pytest.approx(1.0, abs=1e-12)

    def test_hand_pooled_variance_case(self):
        result = t_test_pairwise(_table([1.0, 2.0, 3.0], [4.0, 5.0, 6.0]))[0]
        assert result.statistic == pytest.approx(-3.674234614174767, abs=1e-12)
        assert result.df == 4
        assert result.p_value == pytest.approx(
            float(scipy_stats.ttest_ind([1, 2, 3], [4, 5, 6]).pvalue), rel=1e-9
        )

    def test_all_pairs_produced(self):
        results = t_test_pairwise(_table([1.0, 2.0], [3.0, 4.0], [5.0, 6.0]))
        assert {(r.group_a, r.group_b) for r in results} == {
            ("g0", "g1"), ("g0", "g2"), ("g1", "g2"),
        }

    def test_degenerate_variance_flagged(self):
        same = t_test_pairwise(_table([2.0, 2.0], [2.0, 2.0]))[0]
        assert same.degenerate and same.statistic == 0.0 and same.p_value == 1.0
        apart = t_test_pairwise(_table([2.0, 2.0], [3.0, 3.0]))[0]
        assert apart.degenerate and math.isinf(apart.statistic) and apart.p_value == 0.0

    def test_standard_error_that_underflows_is_degenerate(self):
        # the pooled variance is the smallest subnormal, and times 1/5 + 1/5 it rounds to zero
        table = _table([0.0, 0.0, 0.0, 0.0, 6.309573444801943e-162], [1.0] * 5)
        result = t_test_pairwise(table)[0]
        assert result.degenerate and result.statistic == -math.inf and result.p_value == 0.0


class TestDescribe:
    def test_height_fixture_columns(self, fixtures_dir):
        records = load_height_records(
            (fixtures_dir / "height_records.csv").read_text()
        )
        expected = {"top": (94.25, 12.80), "middle": (49.58, 46.17), "bottom": (5.00, 15.81)}
        for stratum, (mean, sd) in expected.items():
            stats = describe(bag_based_accuracy(records, stratum).percentages)
            assert stats.mean == pytest.approx(mean, abs=0.01)
            assert stats.sd == pytest.approx(sd, abs=0.01)

    def test_constant_sample(self):
        stats = describe([4.0, 4.0, 4.0])
        assert stats.mean == 4.0 and stats.sd == 0.0

    def test_single_value_sd_unavailable(self):
        stats = describe([4.0])
        assert stats.sd is None

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            describe([])


class TestShapiroWilk:
    def test_normal_quantiles_score_high(self):
        sample = [scipy_stats.norm.ppf((i - 0.375) / 20.25) for i in range(1, 21)]
        result = shapiro_wilk(sample)
        assert result.statistic > 0.98
        assert result.statistic <= 1.0

    def test_constant_sample_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            shapiro_wilk([1.0, 1.0, 1.0, 1.0])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sample", [
        [1e-300, 2e-300, 4e-300],  # the squares underflow: W is 0/0
        [-1e308, 1e308, 1e308],  # the squares overflow: W is inf/inf
    ])
    def test_non_finite_w_rejected(self, sample):
        with pytest.raises(ValueError, match="W is not finite"):
            shapiro_wilk(sample)

    @pytest.mark.parametrize("n", range(4, 30))
    def test_sample_on_its_own_weights_has_w_1_and_p_1(self, n):
        # W rounds to 1 for 19 of these sizes; the rest land a few ulps below
        from deteval.stats import _sw_weights

        result = shapiro_wilk(_sw_weights(n))
        assert result.statistic == pytest.approx(1.0, abs=1e-15)
        assert result.p_value == 1.0

    def test_size_limits(self):
        with pytest.raises(ValueError):
            shapiro_wilk([1.0, 2.0])
        with pytest.raises(ValueError):
            shapiro_wilk(list(range(5001)))

    def test_published_reference_sample(self):
        # frozen from the reference AS R94 implementation (scipy.stats.shapiro):
        # W = 0.7888146948631716, p = 0.006703814061898823
        sample = [148, 154, 158, 160, 161, 162, 166, 170, 182, 195, 236]
        result = shapiro_wilk(sample)
        assert result.statistic == pytest.approx(0.7888146949, abs=1e-3)
        assert result.p_value == pytest.approx(0.0067038141, abs=1e-4)

    def test_against_scipy_across_sizes(self):
        rng = np.random.default_rng(7)
        for n in (3, 4, 5, 6, 11, 12, 25, 80, 400):
            sample = rng.normal(3.0, 2.0, size=n)
            ours = shapiro_wilk(sample)
            ref = scipy_stats.shapiro(sample)
            assert ours.statistic == pytest.approx(float(ref.statistic), abs=1e-6)
            assert ours.p_value == pytest.approx(float(ref.pvalue), abs=1e-6)

    def test_outlier_lowers_w(self):
        base = [scipy_stats.norm.ppf((i - 0.375) / 20.25) for i in range(1, 21)]
        clean = shapiro_wilk(base).statistic
        polluted = shapiro_wilk(base[:-1] + [25.0]).statistic
        assert polluted < clean
