"""Nonparametric and t-based statistics used by the analysis pipeline.

Spearman rho is defined as the Pearson correlation of average ranks,
which reduces to the classic 1 - 6*sum(d^2)/(n*(n^2-1)) closed form on
tie-free data. Two-sided p-values come from the Student-t distribution
evaluated through the regularized incomplete beta function. ``scipy.special``
is imported at the first t-distribution call, not with this module, so a
command that computes no statistic never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def student_t_cdf(t: float, df: float) -> float:
    """Student-t CDF via the regularized incomplete beta function."""
    if df <= 0:
        raise InputError("degrees of freedom must be positive")
    if math.isnan(t):
        return math.nan
    if math.isinf(t):
        return 0.0 if t < 0 else 1.0
    from scipy.special import betainc

    x = df / (df + t * t)
    tail = 0.5 * float(betainc(0.5 * df, 0.5, x))
    return tail if t < 0 else 1.0 - tail


def student_t_quantile(p: float, df: float) -> float:
    """Inverse of :func:`student_t_cdf`."""
    if df <= 0:
        raise InputError("degrees of freedom must be positive")
    if not 0.0 < p < 1.0:
        raise InputError("probability must lie strictly between 0 and 1")
    if p == 0.5:
        return 0.0
    from scipy.special import betaincinv

    tail = 2.0 * min(p, 1.0 - p)
    x = float(betaincinv(0.5 * df, 0.5, tail))
    magnitude = math.sqrt(df * (1.0 - x) / x) if x > 0 else math.inf
    return -magnitude if p < 0.5 else magnitude


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
