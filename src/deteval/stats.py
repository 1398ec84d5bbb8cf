"""Fixed-effect model machinery: regularized incomplete beta, F survival
probabilities, one-way ANOVA, Shapiro-Wilk normality, and pairwise t-tests."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from statistics import NormalDist

from .annotations import left_sum

_LENTZ_TOL = 1e-14
_LENTZ_MAX_ITER = 300
_FPMIN = 1e-300


class ConvergenceError(ArithmeticError):
    """Continued-fraction evaluation failed to converge."""


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, via Lentz's method."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _LENTZ_MAX_ITER + 1):
        m2 = 2 * m
        for coef in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                     -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + coef * d
            if abs(d) < _FPMIN:
                d = _FPMIN
            c = 1.0 + coef / c
            if abs(c) < _FPMIN:
                c = _FPMIN
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _LENTZ_TOL:
            return h
    raise ConvergenceError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta I_x(a, b).

    Evaluated by continued fraction, switching to the symmetry transform
    I_x(a,b) = 1 - I_{1-x}(b,a) when x is past (a+1)/(a+b+2) so the fraction
    converges fast on either side.
    """
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"shape parameters must be positive: a={a}, b={b}")
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"x out of [0,1]: {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def f_sf(f: float, d1: float, d2: float) -> float:
    """Upper-tail probability Prob(F > f) for an F(d1, d2) variate."""
    if f < 0.0:
        raise ValueError(f"f must be >= 0: {f}")
    if d1 <= 0.0 or d2 <= 0.0:
        raise ValueError(f"degrees of freedom must be positive: ({d1}, {d2})")
    if math.isinf(f):
        return 0.0
    return reg_inc_beta(d2 / (d2 + d1 * f), d2 / 2.0, d1 / 2.0)


# Every sum below is a `left_sum` fold of Python floats: one rounding order on every CPU and Python.
# Squares are `d * d`, which overflows to inf (`** 2` raises); the finiteness checks reject inf and NaN.
def _mean(values) -> float:
    return left_sum(values) / len(values)


def _squares(deviations) -> float:
    return left_sum(d * d for d in deviations)


@dataclass(frozen=True)
class ObservationTable:
    """Grouped response observations: the substrate of every effect test."""

    response: str
    groups: tuple[tuple[str, tuple[float, ...]], ...]

    def __post_init__(self) -> None:
        if len(self.groups) < 2:
            raise ValueError(f"need >= 2 groups, got {len(self.groups)}")
        labels = [label for label, _ in self.groups]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate group labels: {labels}")
        for label, obs in self.groups:
            if len(obs) < 1:
                raise ValueError(f"group {label!r} has no observations")

    @classmethod
    def from_rows(cls, response: str, rows) -> ObservationTable:
        """Build from (group, observation) rows, preserving first-seen group order."""
        grouped: dict[str, list[float]] = {}
        for group, value in rows:
            grouped.setdefault(str(group), []).append(float(value))
        return cls(response=response, groups=tuple((g, tuple(v)) for g, v in grouped.items()))

    def require_replicates(self) -> None:
        for label, obs in self.groups:
            if len(obs) < 2:
                raise ValueError(
                    f"group {label!r} needs >= 2 observations for variance-based tests"
                )


@dataclass(frozen=True)
class AnovaResult:
    response: str
    group_labels: tuple[str, ...]
    grand_mean: float
    effects: tuple[float, ...]
    residuals: tuple[tuple[float, ...], ...]
    ss_between: float
    ss_within: float
    df: tuple[int, int]
    ms_between: float
    ms_within: float
    f_ratio: float
    p_value: float
    degenerate: bool = False


def anova_oneway(table: ObservationTable) -> AnovaResult:
    """One-way fixed-effects ANOVA by least squares.

    Effects are group means minus the grand (overall) mean, so the
    size-weighted effects sum to zero. A table whose groups all have zero
    internal variance cannot support an F ratio; the result is flagged
    degenerate with F reported as inf (or 0 when there is no between-group
    variation either).
    """
    table.require_replicates()
    groups = [tuple(map(float, obs)) for _, obs in table.groups]
    labels = tuple(label for label, _ in table.groups)
    all_obs = [v for g in groups for v in g]
    grand_mean = _mean(all_obs)
    group_means = [_mean(g) for g in groups]
    effects = tuple(m - grand_mean for m in group_means)
    residuals = tuple(tuple(v - m for v in g) for g, m in zip(groups, group_means))
    ss_between = left_sum(len(g) * e * e for g, e in zip(groups, effects))
    ss_within = left_sum(_squares(r) for r in residuals)
    if not (math.isfinite(ss_between) and math.isfinite(ss_within)):
        raise ValueError("a sum of squares is not finite: the observations are too large")
    df = (len(groups) - 1, len(all_obs) - len(groups))
    ms_between = ss_between / df[0]
    ms_within = ss_within / df[1]
    if ms_within == 0.0:
        f_ratio = math.inf if ms_between > 0.0 else 0.0
        p_value = 0.0 if ms_between > 0.0 else 1.0
        degenerate = True
    else:
        f_ratio = ms_between / ms_within
        p_value = f_sf(f_ratio, df[0], df[1])
        degenerate = False
    return AnovaResult(
        response=table.response,
        group_labels=labels,
        grand_mean=grand_mean,
        effects=effects,
        residuals=residuals,
        ss_between=ss_between,
        ss_within=ss_within,
        df=df,
        ms_between=ms_between,
        ms_within=ms_within,
        f_ratio=f_ratio,
        p_value=p_value,
        degenerate=degenerate,
    )


@dataclass(frozen=True)
class TTestResult:
    group_a: str
    group_b: str
    statistic: float
    df: int
    p_value: float
    degenerate: bool = False


def t_test_pairwise(table: ObservationTable) -> list[TTestResult]:
    """Pooled-variance two-sample t for every unordered group pair,
    two-sided p-values. A pair whose standard error is (or underflows to)
    zero is flagged degenerate, with t = +-inf, or 0 for equal means."""
    table.require_replicates()
    results = []
    for (label_a, obs_a), (label_b, obs_b) in combinations(table.groups, 2):
        a, b = tuple(map(float, obs_a)), tuple(map(float, obs_b))
        n1, n2 = len(a), len(b)
        df = n1 + n2 - 2
        mean_a, mean_b = _mean(a), _mean(b)
        pooled = (_squares(v - mean_a for v in a) + _squares(v - mean_b for v in b)) / df
        diff = mean_a - mean_b
        se = math.sqrt(pooled * (1.0 / n1 + 1.0 / n2))
        if se == 0.0:
            t = 0.0 if diff == 0.0 else math.copysign(math.inf, diff)
            p = 1.0 if diff == 0.0 else 0.0
            results.append(TTestResult(label_a, label_b, t, df, p, degenerate=True))
            continue
        t = diff / se
        results.append(TTestResult(label_a, label_b, t, df, f_sf(t * t, 1, df)))
    return results


@dataclass(frozen=True)
class SampleStats:
    n: int
    mean: float
    sd: float | None


def describe(sample) -> SampleStats:
    """Mean and sample (n-1 denominator) standard deviation; sd is None when
    a single observation leaves it undefined."""
    values = [float(v) for v in sample]
    if not values:
        raise ValueError("cannot describe an empty sample")
    mean = _mean(values)
    sd = math.sqrt(_squares(v - mean for v in values) / (len(values) - 1)) if len(values) >= 2 else None
    return SampleStats(n=len(values), mean=mean, sd=sd)


@dataclass(frozen=True)
class SWResult:
    statistic: float
    p_value: float
    n: int


# Royston's AS R94 polynomial coefficients (ascending order).
_SW_C1 = (0.0, 0.221157, -0.147981, -2.071190, 4.434685, -2.706056)
_SW_C2 = (0.0, 0.042981, -0.293762, -1.752461, 5.682633, -3.582633)
_SW_C3 = (0.5440, -0.39978, 0.025054, -6.714e-4)
_SW_C4 = (1.3822, -0.77857, 0.062767, -2.0322e-3)
_SW_C5 = (-1.5861, -0.31082, -0.083751, 3.8915e-3)
_SW_C6 = (-0.4803, -0.082676, 3.0302e-3)
_SW_G = (-2.273, 0.459)
_SW_PI6 = 6.0 / math.pi
_SW_STQR = math.pi / 3.0


def _poly(coeffs, x: float) -> float:
    result = 0.0
    for c in reversed(coeffs):
        result = result * x + c
    return result


def _sw_weights(n: int) -> tuple[float, ...]:
    """Weights of a sorted sample of n >= 3: -a, a zero for odd n, reversed +a. a comes from the normal
    order-statistic medians Phi^-1((i - 3/8)/(n + 1/4)), with Royston's corrections to the extremes."""
    n2 = n // 2
    if n == 3:
        a = [math.sqrt(0.5)]
    else:
        nd = NormalDist()
        m = [nd.inv_cdf((i - 0.375) / (n + 0.25)) for i in range(1, n2 + 1)]
        summ2 = 2.0 * _squares(m)
        ssumm2 = math.sqrt(summ2)
        rsn = 1.0 / math.sqrt(n)
        a1 = _poly(_SW_C1, rsn) - m[0] / ssumm2
        if n > 5:
            a2 = -m[1] / ssumm2 + _poly(_SW_C2, rsn)
            fac = math.sqrt((summ2 - 2.0 * m[0] * m[0] - 2.0 * m[1] * m[1])
                            / (1.0 - 2.0 * a1 * a1 - 2.0 * a2 * a2))
            a = [a1, a2, *(-v / fac for v in m[2:])]
        else:
            fac = math.sqrt((summ2 - 2.0 * m[0] * m[0]) / (1.0 - 2.0 * a1 * a1))
            a = [a1, *(-v / fac for v in m[1:])]
    return (*(-v for v in a), *([0.0] * (n % 2)), *reversed(a))


def shapiro_wilk(sample) -> SWResult:
    """Shapiro-Wilk W and its p-value via Royston's AS R94 approximation.

    Valid for 3 <= n <= 5000. The p-value uses Royston's normalizing
    transforms of log(1 - W).
    """
    x = sorted(float(v) for v in sample)
    n = len(x)
    if n < 3:
        raise ValueError(f"need at least 3 observations, got {n}")
    if n > 5000:
        raise ValueError(f"approximation not validated past n=5000, got {n}")
    if x[-1] == x[0]:
        raise ValueError("W is undefined for a constant sample")

    # The weights sum to zero, so centering x only stabilizes the numerator.
    mean = _mean(x)
    centered = [v - mean for v in x]
    numerator = left_sum(c * v for c, v in zip(_sw_weights(n), centered))
    denominator = _squares(centered)
    w = numerator * numerator / denominator if denominator != 0.0 else math.nan
    if not math.isfinite(w):
        raise ValueError("W is not finite: the spread of the sample overflows or underflows")
    if w >= 1.0:  # the limit of Royston's transforms, where log(1 - W) is undefined
        return SWResult(statistic=1.0, p_value=1.0, n=n)

    if n == 3:
        pw = _SW_PI6 * (math.asin(math.sqrt(w)) - _SW_STQR)
        pw = min(max(pw, 0.0), 1.0)
        return SWResult(statistic=w, p_value=pw, n=n)

    y = math.log1p(-w)
    if n <= 11:
        gamma = _poly(_SW_G, float(n))
        if y >= gamma:
            return SWResult(statistic=w, p_value=0.0, n=n)
        y = -math.log(gamma - y)
        mu = _poly(_SW_C3, float(n))
        sigma = math.exp(_poly(_SW_C4, float(n)))
    else:
        log_n = math.log(n)
        mu = _poly(_SW_C5, log_n)
        sigma = math.exp(_poly(_SW_C6, log_n))
    pw = 1.0 - NormalDist().cdf((y - mu) / sigma)
    return SWResult(statistic=w, p_value=min(max(pw, 0.0), 1.0), n=n)
