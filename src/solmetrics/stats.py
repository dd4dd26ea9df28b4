"""Nonparametric and t-based statistics used by the analysis pipeline.

Everything runs on Python floats and ints; the package needs no numerics
library. Spearman rho is defined as the Pearson correlation of average
ranks, which reduces to the classic 1 - 6*sum(d^2)/(n*(n^2-1)) closed form
on tie-free data. Ranks are kept doubled and centred, 2r - (n + 1), which
are integers, so every rank sum of products is exact and rho does not
depend on summation order. Means and variances sum with ``math.fsum``,
which does not depend on the platform either. Two-sided p-values and
confidence intervals come from the Student-t distribution, evaluated here
through the regularized incomplete beta function: its continued fraction
(DiDonato & Morris, ACM TOMS 708, 1992) gives each tail to about 2e-13
relative for every df from 2e-3 and every tail above 1e-300, and the
quantile is found by Newton steps on that CDF.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from functools import cached_property, lru_cache
from itertools import chain, repeat
from operator import mul, sub
from typing import NamedTuple

from .config import DEFAULT_CI_LEVEL
from .config import DEFAULT_SIGNIFICANCE as SIGNIFICANCE_DEFAULT
from .errors import DegenerateInputError, InputError

STRENGTH_WEAK = "weak"
STRENGTH_MEDIUM = "medium"
STRENGTH_STRONG = "strong"


class RankedVector(NamedTuple):
    values: tuple[float, ...]
    ranks: tuple[float, ...]
    n: int


class SpearmanResult(NamedTuple):
    rho: float
    p_value: float
    n: int
    strength: str
    significant: bool


class TTestResult(NamedTuple):
    t_statistic: float
    degrees_of_freedom: float
    p_value: float
    mean_difference: float
    kind: str  # paired | welch
    zero_variance: bool = False


class ConfidenceInterval(NamedTuple):
    mean: float
    lower: float
    upper: float
    level: float
    n: int


class CorrelationMatrix(NamedTuple):
    metric_ids: tuple[str, ...]
    entries: tuple[tuple[SpearmanResult | None, ...], ...]

    def entry(self, a: str, b: str) -> SpearmanResult | None:
        i = self.metric_ids.index(a)
        j = self.metric_ids.index(b)
        return self.entries[i][j]


class Sample:
    """Numbers with the summaries the statistics read: ``total``, ``moments``
    and ``ranks``, each computed on its first read and kept. Each checks what
    it reads and raises :class:`InputError` under ``name``. Analyses that read
    one column share its Sample, so it is checked, summed and ranked once.
    """

    def __init__(self, values, name: str = "values"):
        self.values = tuple(values)
        self.name = name

    @classmethod
    def of(cls, values, name: str = "values") -> Sample:
        """``values`` if it is a Sample already, else a new Sample of them."""
        return values if isinstance(values, cls) else cls(values, name)

    @cached_property
    def total(self) -> float:
        """The fsum of the values; :class:`InputError` if there are none, if one
        is a NaN or an infinity, or if they sum past the float range."""
        if not self.values:
            raise InputError(f"{self.name} must be non-empty")
        try:
            total = math.fsum(self.values)
        except (OverflowError, ValueError):  # a sum or an int past the float range; inf - inf
            total = math.nan
        if math.isfinite(total):
            return total
        raise InputError(f"{self.name} contains a non-finite value or sums past the float range")

    @cached_property
    def moments(self) -> tuple[float, float, float]:
        """The mean, the n - 1 variance of the values times ``scale`` squared,
        and ``scale``, for at least two values.

        The standard deviation is sqrt(variance)/scale. As in Blue's scaled
        norm (ACM TOMS 1978), a widest deviation between 2^-200 and 2^200
        goes unscaled: its square, and a Welch df's square of a variance,
        stay in the float range. Any other is scaled by the power of two that
        takes it into [1/2, 1) before squaring, so no square that counts
        underflows. A sample of variance 0 gets the largest scale, so a scale
        shared with another sample is that one's.

        total/n rounds twice, which would leave a constant sample such as
        three 0.1 with a mean one rounding off its value and a variance
        above 0. So fsum also gives the drift n (true mean - total/n) to one
        rounding; it moves the mean onto the true one wherever that is a
        float, and its square over n is the part of the squared deviations
        from total/n that the true mean does not have (the corrected
        two-pass form).
        """
        xs = self.values
        n = len(xs)
        mean = self.total / n
        drift = math.fsum(chain(xs, repeat(-mean, n)))
        widest = max(max(xs) - mean, mean - min(xs), sys.float_info.min)
        scale = 1.0 if 2.0**-200 <= widest <= 2.0**200 else math.ldexp(1.0, -math.frexp(widest)[1])
        deviations = [(v - mean) * scale for v in xs]
        scaled_drift = drift * scale
        square_sum = math.fsum(map(mul, deviations, deviations)) - scaled_drift * scaled_drift / n
        # a deviation past the float range, as -1.7e308 is from a mean of
        # 5.7e307, squares to inf; inf - inf is NaN, which max() would read as 0
        if not math.isfinite(square_sum):
            raise InputError(f"{self.name} deviates from its mean past the float range")
        variance = max(0.0, square_sum) / (n - 1)
        return mean + drift / n, variance, scale if variance else 2.0**1021

    @cached_property
    def ranks(self) -> tuple[list[float], int]:
        """The doubled centred average rank 2r - (n + 1) of each value, as a
        float (which math.dist reads fastest), and their sum of squares: 0 for
        a constant sample. A tie group of c values ending at 1-based position
        e has mean rank e - (c - 1)/2, so its doubled centred rank 2e - c - n
        is an integer. Only the distinct values need the finiteness check: a
        NaN or an infinity is one of them."""
        xs = self.values
        if not xs:
            raise InputError(f"{self.name} must be non-empty")
        counts = Counter(xs)
        try:
            finite = all(map(math.isfinite, counts))
        except OverflowError:  # an int past the float range
            finite = False
        if not finite:
            raise InputError(f"{self.name} contains a non-finite value")
        n = len(xs)
        doubled = {}
        sum_sq = end = 0
        for v in sorted(counts):
            c = counts[v]
            end += c
            r = 2 * end - c - n
            doubled[v] = float(r)
            sum_sq += c * r * r
        return list(map(doubled.__getitem__, xs)), sum_sq


def rank(values) -> RankedVector:
    """Average ranks (1-based); tied values share the mean of their positions."""
    sample = Sample.of(values)
    doubled, _ = sample.ranks
    n = len(doubled)
    ranks = tuple((r + n + 1) / 2 for r in doubled)
    return RankedVector(tuple(map(float, sample.values)), ranks, n)


_LOG_SQRT_PI = 0.5 * math.log(math.pi)
_FRACTION_EPS = 2.0**-52
# Near the mean of the beta distribution the fraction takes at most about 165
# terms, whatever df is; far from it, a few.
_FRACTION_TERMS = 1000
_QUANTILE_STEPS = 200
_QUANTILE_TOL = 2.0**-50
# The analyses reach df >= 1: paired n - 1, Spearman n - 2 and Welch at
# least min(nx, ny) - 1. Down to this floor the fraction alone keeps both
# masses within 1.3e-13 relative; below it the centre mass, 1/2 minus a
# tail within about (df/2)|ln x| of 1/2, loses its digits to cancellation.
MIN_DF = 2e-3


def _log_gamma_ratio(a: float) -> float:
    """log(Gamma(a + 1/2) / Gamma(a)), without subtracting two large lgamma values."""
    if a < 10.0:
        return math.log(math.gamma(a + 0.5) / math.gamma(a))
    # Stirling series of the difference; it needs no a + 1/2, which rounds for
    # fractional a. The next term is below 6e-17 at a = 10.
    r = 1.0 / (a * a)
    series = 691 / 180224 - r * 5461 / 425984
    for c in (-31 / 18432, 17 / 14336, -1 / 640, 1 / 192, -1 / 8):
        series = c + r * series
    return 0.5 * math.log(a) + series / a


def _beta_fraction(a: float, b: float, x: float, y: float) -> float:
    """x^a y^b / (B(a, b) I_x(a, b)) for y = 1 - x, with x at most the mean a/(a + b).

    The continued fraction b0 + a1/(b1 + a2/(b2 + ...)) of DiDonato & Morris,
    with every a - (a + b)x written as a*y - b*x so that no term cancels. The
    modified Lentz recurrence finds where it converges; the terms are then
    summed from the last one back, which loses less to rounding than the
    running product.
    """
    lam = a * y - b * x + 1.0
    b0 = a * lam / (a + 1.0)
    c, d = b0, 0.0
    terms = []
    for m in range(1, _FRACTION_TERMS + 1):
        k = a + 2 * m - 1
        am = (a + m - 1) / k * ((a + b + m - 1) / k) * m * (b - m) * x * x
        bm = m + m * (b - m) * x / k + (a + m) * (lam + m * (1.0 + y)) / (k + 2)
        terms.append((am, bm))
        d = bm + am * d
        d = 1.0 / (d if d != 0.0 else 1e-300)
        c = bm + am / c
        if c == 0.0:
            c = 1e-300
        if abs(c * d - 1.0) <= _FRACTION_EPS:
            break
    rest = 0.0
    for am, bm in reversed(terms):
        rest = am / (bm + rest)
    return b0 + rest


def _t_masses(t: float, df: float) -> tuple[float, float, float]:
    """(P(T < -|t|), P(0 < T < |t|), |t| f(t)) for Student's t with density f.

    The tail is I_x(df/2, 1/2) / 2 with x = df/(df + t^2). Its complement
    y = t^2/(df + t^2) is passed alongside, never formed as 1 - x, and the
    fraction runs on whichever of I_x(df/2, 1/2) and I_y(1/2, df/2) has its
    argument below the mean, so that mass is accurate to the last few bits
    and the other is 1/2 minus it. Both share the prefactor
    x^(df/2) y^(1/2) / B(df/2, 1/2), which equals |t| f(t).
    """
    a = 0.5 * df
    t2 = t * t
    u = t2 / df
    if u < math.inf:
        x, y, log1p_u = df / (df + t2), t2 / (df + t2), math.log1p(u)
    else:  # t^2/df above 1.8e308
        x, y, log1p_u = df / abs(t) / abs(t), 1.0, 2.0 * math.log(abs(t)) - math.log(df)
    front = math.exp(_log_gamma_ratio(a) - _LOG_SQRT_PI - a * log1p_u) * math.sqrt(y)
    if x * (a + 0.5) <= a:
        tail = 0.5 * front / _beta_fraction(a, 0.5, x, y)
        return tail, 0.5 - tail, front
    centre = 0.5 * front / _beta_fraction(0.5, a, y, x)
    return 0.5 - centre, centre, front


def _check_df(df: float) -> None:
    """Refuse a df at or below 0, or below :data:`MIN_DF`; a NaN df passes."""
    if df <= 0:
        raise InputError("degrees of freedom must be positive")
    if df < MIN_DF:
        raise InputError(f"degrees of freedom must be at least MIN_DF = {MIN_DF}")


def student_t_cdf(t: float, df: float) -> float:
    """Student-t CDF via the regularized incomplete beta function."""
    _check_df(df)
    if math.isnan(t):
        return math.nan
    if math.isinf(t):
        return 0.0 if t < 0 else 1.0
    if not math.isfinite(df):
        return math.nan
    tail, centre, _ = _t_masses(t, df)
    return tail if t < 0 else 0.5 + centre


# rq4 asks for the same (level, df) quantile once per metric and group
@lru_cache(maxsize=64)
def student_t_quantile(p: float, df: float) -> float:
    """Inverse of :func:`student_t_cdf`."""
    _check_df(df)
    if not 0.0 < p < 1.0:
        raise InputError("probability must lie strictly between 0 and 1")
    if p == 0.5:
        return 0.0
    if not math.isfinite(df):
        return math.nan
    # Solve for |t| on the smaller of the two masses: the tail beyond |t|, or
    # the centre between 0 and |t|. Both targets are exact: 1 - p for p >= 1/2,
    # and 1/2 - beyond for beyond >= 1/4.
    beyond = min(p, 1.0 - p)
    on_tail = beyond < 0.25
    target = beyond if on_tail else 0.5 - beyond
    # a tail beyond the largest float that still holds more than the target
    # puts |t| past the float range, where it rounds to infinity. A centre
    # target (at most 1/4) never does: the centre up to that float holds 0.38
    # at MIN_DF, and more at any larger df
    if on_tail and _t_masses(sys.float_info.max, df)[0] > target:
        return math.copysign(math.inf, p - 0.5)
    lo, hi, t = 0.0, math.inf, 1.0
    for _ in range(_QUANTILE_STEPS):
        tail, centre, slope = _t_masses(t, df)
        mass = tail if on_tail else centre
        if (mass > target) == on_tail:
            lo = t
        else:
            hi = t
        if mass == target or hi - lo <= _QUANTILE_TOL * lo:
            break
        # Newton step on log(mass / target) against log t, where a power-law
        # tail and the near-linear centre are both straight lines; the slope
        # of mass against log t is |t| f(t)
        new = math.nan
        if mass > 0.0 and slope > 0.0:
            step = math.log(mass / target) * mass / slope
            if abs(step) < 700.0:
                new = t * math.exp(step if on_tail else -step)
        if abs(new - t) <= _QUANTILE_TOL * t:
            t = new
            break
        if not lo < new < hi:  # double the bracket, or bisect it
            if hi == math.inf:
                new = 2.0 * lo
            else:
                new = math.sqrt(lo) * math.sqrt(hi) if lo > 0.0 else 0.5 * hi
        t = new
    return -t if p < 0.5 else t


def _two_sided_p(t: float, df: float) -> float:
    if math.isinf(t):
        return 0.0
    return min(1.0, 2.0 * student_t_cdf(-abs(t), df))


# math.dist is accurate to a couple of ulps, so below this sum of squares its
# square lies within 0.2 of the integer |rx - ry|^2 <= 2 (sxx + syy).
_DIST_EXACT = 2**47


def _strength(rho: float) -> str:
    a = abs(rho)
    if a < 0.3:
        return STRENGTH_WEAK
    if a <= 0.5:
        return STRENGTH_MEDIUM
    return STRENGTH_STRONG


def _rank_correlation(
    x: tuple[list[float], int], y: tuple[list[float], int], alpha: float
) -> SpearmanResult:
    """Spearman result for two non-constant :attr:`Sample.ranks` of one length n >= 3.

    The rank sums of products are exact integers, and the doubling cancels
    exactly in rho.
    """
    (rx, sxx), (ry, syy) = x, y
    n = len(rx)
    if sxx + syy <= _DIST_EXACT:
        # |rx - ry|^2 = sxx + syy - 2 rx.ry is an integer that math.dist
        # gives to within 0.2 here, so rounding recovers it
        dot = (sxx + syy - round(math.dist(rx, ry) ** 2)) // 2
    else:  # products below 2^53 are exact, and fsum rounds their sum once
        dot = math.fsum(map(mul, rx, ry))
    rho = dot / math.sqrt(sxx * syy)
    rho = max(-1.0, min(1.0, rho))
    if abs(rho) >= 1.0:
        p = 0.0
    else:
        t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
        p = _two_sided_p(t, n - 2)
    return SpearmanResult(rho, p, n, _strength(rho), p <= alpha)


def spearman(x, y, alpha: float = SIGNIFICANCE_DEFAULT) -> SpearmanResult:
    """Tie-aware Spearman rank correlation with a Student-t significance test."""
    x, y = Sample.of(x, "x"), Sample.of(y, "y")
    rx, ry = x.ranks, y.ranks
    if len(x.values) != len(y.values):
        raise InputError("x and y must have the same length")
    if len(x.values) < 3:
        raise InputError("need at least 3 observations")
    if not (rx[1] and ry[1]):
        raise DegenerateInputError("constant input vector: rho undefined")
    return _rank_correlation(rx, ry, alpha)


def paired_t_test(x, y) -> TTestResult:
    """Paired (dependent) two-sided t-test on index-matched samples."""
    x, y = Sample.of(x, "x"), Sample.of(y, "y")
    x.total, y.total  # both finite before any length check
    if len(x.values) != len(y.values):
        raise InputError("x and y must have the same length")
    n = len(x.values)
    if n < 2:
        raise InputError("need at least 2 pairs")
    mean_d, var_d, scale = Sample(map(sub, x.values, y.values), "x - y").moments
    df = n - 1
    if var_d == 0.0:
        if mean_d == 0.0:
            return TTestResult(0.0, df, 1.0, 0.0, "paired", zero_variance=True)
        raise DegenerateInputError("all pairwise differences are identical and nonzero")
    t = mean_d * scale / (math.sqrt(var_d) / math.sqrt(n))
    return TTestResult(t, df, _two_sided_p(t, df), mean_d, "paired")


def welch_t_test(x, y) -> TTestResult:
    """Welch's unequal-variance t-test with Welch-Satterthwaite df."""
    x, y = Sample.of(x, "x"), Sample.of(y, "y")
    x.total, y.total  # both finite before any length check
    nx, ny = len(x.values), len(y.values)
    if nx < 2 or ny < 2:
        raise InputError("each group needs at least 2 observations")
    mx, vx, x_scale = x.moments
    my, vy, y_scale = y.moments
    # both variances on the wider group's scale: t and df come out as unscaled
    scale = min(x_scale, y_scale)
    vx *= (scale / x_scale) ** 2
    vy *= (scale / y_scale) ** 2
    mean_diff = mx - my
    if vx == 0.0 and vy == 0.0:
        if mean_diff == 0.0:
            return TTestResult(0.0, float(nx + ny - 2), 1.0, 0.0, "welch", zero_variance=True)
        raise DegenerateInputError("both groups constant with different means")
    ex, ey = vx / nx, vy / ny
    se2 = ex + ey
    t = mean_diff * scale / math.sqrt(se2)
    # squares by multiplication: ``**`` calls the C ``pow``, whose last bit
    # depends on the libm
    df = se2 * se2 / (ex * ex / (nx - 1) + ey * ey / (ny - 1))
    return TTestResult(t, df, _two_sided_p(t, df), mean_diff, "welch")


def mean_confidence_interval(values, level: float = DEFAULT_CI_LEVEL) -> ConfidenceInterval:
    """Student-t confidence interval for the mean."""
    if not 0.0 < level < 1.0:
        raise InputError("level must lie strictly between 0 and 1")
    sample = Sample.of(values)
    sample.total  # finite before the length check
    n = len(sample.values)
    if n < 2:
        raise InputError("need at least 2 observations")
    mean, var, scale = sample.moments
    sd = math.sqrt(var) / scale
    half_width = student_t_quantile(0.5 * (1.0 + level), n - 1) * sd / math.sqrt(n)
    return ConfidenceInterval(mean, mean - half_width, mean + half_width, level, n)


def correlation_matrix(
    columns: list[tuple[str, list[float]]], alpha: float = SIGNIFICANCE_DEFAULT
) -> CorrelationMatrix:
    """All-pairs Spearman over named columns of equal length.

    A column's values may be a :class:`Sample`. Constant columns yield None
    entries ("flagged undefined") instead of failing the whole matrix. The
    result is exactly symmetric with a unit diagonal on defined columns.
    """
    if not columns:
        raise InputError("need at least one column")
    ids = tuple(name for name, _ in columns)
    samples = [Sample.of(vals, name) for name, vals in columns]
    centred = [s.ranks for s in samples]
    n = len(samples[0].values)
    if n < 3:
        raise InputError("need at least 3 observations per column")
    for name, s in zip(ids, samples):
        if len(s.values) != n:
            raise InputError(f"column {name!r} has mismatched length")
    k = len(ids)
    grid: list[list[SpearmanResult | None]] = [[None] * k for _ in range(k)]
    for i in range(k):
        ri = centred[i]
        if not ri[1]:
            continue
        grid[i][i] = SpearmanResult(1.0, 0.0, n, _strength(1.0), True)
        for j in range(i + 1, k):
            rj = centred[j]
            if rj[1]:
                grid[i][j] = grid[j][i] = _rank_correlation(ri, rj, alpha)
    return CorrelationMatrix(ids, tuple(tuple(row) for row in grid))
