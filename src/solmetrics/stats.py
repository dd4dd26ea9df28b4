"""Nonparametric and t-based statistics used by the analysis pipeline.

Spearman rho is defined as the Pearson correlation of average ranks,
which reduces to the classic 1 - 6*sum(d^2)/(n*(n^2-1)) closed form on
tie-free data. Two-sided p-values and confidence intervals come from the
Student-t distribution, evaluated here in pure Python through the
regularized incomplete beta function: its continued fraction (DiDonato &
Morris, ACM TOMS 708, 1992) gives each tail to about 2e-13 relative for
every df and every tail above 1e-300, and the quantile is found by Newton
steps on that CDF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateInputError, InputError

SIGNIFICANCE_DEFAULT = 0.05

STRENGTH_WEAK = "weak"
STRENGTH_MEDIUM = "medium"
STRENGTH_STRONG = "strong"


@dataclass(frozen=True)
class RankedVector:
    values: tuple[float, ...]
    ranks: tuple[float, ...]
    n: int


@dataclass(frozen=True)
class SpearmanResult:
    rho: float
    p_value: float
    n: int
    strength: str
    significant: bool


@dataclass(frozen=True)
class TTestResult:
    t_statistic: float
    degrees_of_freedom: float
    p_value: float
    mean_difference: float
    kind: str  # paired | welch
    zero_variance: bool = False


@dataclass(frozen=True)
class ConfidenceInterval:
    mean: float
    lower: float
    upper: float
    level: float
    n: int


@dataclass(frozen=True)
class CorrelationMatrix:
    metric_ids: tuple[str, ...]
    entries: tuple[tuple[SpearmanResult | None, ...], ...]

    def entry(self, a: str, b: str) -> SpearmanResult | None:
        i = self.metric_ids.index(a)
        j = self.metric_ids.index(b)
        return self.entries[i][j]


def _as_finite_array(values, name: str = "values") -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64).reshape(-1)
    if arr.size == 0:
        raise InputError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{name} contains a non-finite value")
    return arr


def _average_ranks(arr: np.ndarray) -> np.ndarray:
    _, inverse, counts = np.unique(arr, return_inverse=True, return_counts=True)
    # a tie group ending at 1-based position e with c members has mean rank e - (c-1)/2
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def _centred_ranks(arr: np.ndarray) -> np.ndarray:
    r = _average_ranks(arr)
    r -= r.mean()
    return r


def rank(values) -> RankedVector:
    """Average ranks (1-based); tied values share the mean of their positions."""
    arr = _as_finite_array(values)
    ranks = _average_ranks(arr)
    return RankedVector(tuple(arr.tolist()), tuple(ranks.tolist()), int(arr.size))


_LOG_SQRT_PI = 0.5 * math.log(math.pi)
_FRACTION_EPS = 2.0**-52
# Near the mean of the beta distribution the fraction takes at most about 165
# terms, whatever df is; far from it, a few.
_FRACTION_TERMS = 1000
_QUANTILE_STEPS = 200
_QUANTILE_TOL = 2.0**-50


def _log_gamma_ratio(a: float) -> float:
    """log(Gamma(a + 1/2) / Gamma(a)), without subtracting two large lgamma values."""
    if a < 1e-300:  # Gamma(a) overflows; these lgamma values do not cancel
        return math.lgamma(a + 0.5) - math.lgamma(a)
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


def student_t_cdf(t: float, df: float) -> float:
    """Student-t CDF via the regularized incomplete beta function."""
    if df <= 0:
        raise InputError("degrees of freedom must be positive")
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
    if df <= 0:
        raise InputError("degrees of freedom must be positive")
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


def _strength(rho: float) -> str:
    a = abs(rho)
    if a < 0.3:
        return STRENGTH_WEAK
    if a <= 0.5:
        return STRENGTH_MEDIUM
    return STRENGTH_STRONG


def _rank_correlation(rx: np.ndarray, ry: np.ndarray, alpha: float) -> SpearmanResult:
    """Spearman result for two centred rank vectors of one length n >= 3."""
    n = int(rx.size)
    rho = float(np.dot(rx, ry)) / math.sqrt(float(np.dot(rx, rx)) * float(np.dot(ry, ry)))
    rho = max(-1.0, min(1.0, rho))
    if abs(rho) >= 1.0:
        p = 0.0
    else:
        t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
        p = _two_sided_p(t, n - 2)
    return SpearmanResult(rho, p, n, _strength(rho), p <= alpha)


def spearman(x, y, alpha: float = SIGNIFICANCE_DEFAULT) -> SpearmanResult:
    """Tie-aware Spearman rank correlation with a Student-t significance test."""
    ax = _as_finite_array(x, "x")
    ay = _as_finite_array(y, "y")
    if ax.size != ay.size:
        raise InputError("x and y must have the same length")
    if ax.size < 3:
        raise InputError("need at least 3 observations")
    if np.all(ax == ax[0]) or np.all(ay == ay[0]):
        raise DegenerateInputError("constant input vector: rho undefined")
    return _rank_correlation(_centred_ranks(ax), _centred_ranks(ay), alpha)


def paired_t_test(x, y) -> TTestResult:
    """Paired (dependent) two-sided t-test on index-matched samples."""
    ax = _as_finite_array(x, "x")
    ay = _as_finite_array(y, "y")
    if ax.size != ay.size:
        raise InputError("x and y must have the same length")
    n = int(ax.size)
    if n < 2:
        raise InputError("need at least 2 pairs")
    d = ax - ay
    mean_d = float(d.mean())
    sd = float(d.std(ddof=1))
    df = n - 1
    if sd == 0.0:
        if mean_d == 0.0:
            return TTestResult(0.0, df, 1.0, 0.0, "paired", zero_variance=True)
        raise DegenerateInputError("all pairwise differences are identical and nonzero")
    t = mean_d / (sd / math.sqrt(n))
    return TTestResult(t, df, _two_sided_p(t, df), mean_d, "paired")


def welch_t_test(x, y) -> TTestResult:
    """Welch's unequal-variance t-test with Welch-Satterthwaite df."""
    ax = _as_finite_array(x, "x")
    ay = _as_finite_array(y, "y")
    if ax.size < 2 or ay.size < 2:
        raise InputError("each group needs at least 2 observations")
    nx, ny = int(ax.size), int(ay.size)
    vx = float(ax.var(ddof=1))
    vy = float(ay.var(ddof=1))
    mean_diff = float(ax.mean() - ay.mean())
    if vx == 0.0 and vy == 0.0:
        if mean_diff == 0.0:
            return TTestResult(0.0, float(nx + ny - 2), 1.0, 0.0, "welch", zero_variance=True)
        raise DegenerateInputError("both groups constant with different means")
    se2 = vx / nx + vy / ny
    t = mean_diff / math.sqrt(se2)
    df = se2 * se2 / ((vx / nx) ** 2 / (nx - 1) + (vy / ny) ** 2 / (ny - 1))
    return TTestResult(t, df, _two_sided_p(t, df), mean_diff, "welch")


def mean_confidence_interval(values, level: float = 0.95) -> ConfidenceInterval:
    """Student-t confidence interval for the mean."""
    if not 0.0 < level < 1.0:
        raise InputError("level must lie strictly between 0 and 1")
    arr = _as_finite_array(values)
    n = int(arr.size)
    if n < 2:
        raise InputError("need at least 2 observations")
    mean = float(arr.mean())
    sd = float(arr.std(ddof=1))
    half_width = student_t_quantile(0.5 * (1.0 + level), n - 1) * sd / math.sqrt(n)
    return ConfidenceInterval(mean, mean - half_width, mean + half_width, level, n)


def correlation_matrix(
    columns: list[tuple[str, list[float]]] | list[tuple[str, np.ndarray]],
    alpha: float = SIGNIFICANCE_DEFAULT,
) -> CorrelationMatrix:
    """All-pairs Spearman over named columns of equal length.

    Constant columns yield None entries ("flagged undefined") instead of
    failing the whole matrix. The result is exactly symmetric with a unit
    diagonal on defined columns.
    """
    if not columns:
        raise InputError("need at least one column")
    ids = tuple(name for name, _ in columns)
    arrays = [_as_finite_array(vals, name) for name, vals in columns]
    n = arrays[0].size
    if n < 3:
        raise InputError("need at least 3 observations per column")
    for name, arr in zip(ids, arrays):
        if arr.size != n:
            raise InputError(f"column {name!r} has mismatched length")
    centred = [None if np.all(arr == arr[0]) else _centred_ranks(arr) for arr in arrays]
    k = len(arrays)
    grid: list[list[SpearmanResult | None]] = [[None] * k for _ in range(k)]
    for i in range(k):
        ri = centred[i]
        if ri is None:
            continue
        grid[i][i] = SpearmanResult(1.0, 0.0, int(n), _strength(1.0), True)
        for j in range(i + 1, k):
            rj = centred[j]
            if rj is not None:
                grid[i][j] = grid[j][i] = _rank_correlation(ri, rj, alpha)
    return CorrelationMatrix(ids, tuple(tuple(row) for row in grid))
