from __future__ import annotations

import math
import random
import statistics
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from solmetrics.errors import DegenerateInputError, InputError
from solmetrics.stats import (
    MIN_DF,
    correlation_matrix,
    mean_confidence_interval,
    paired_t_test,
    rank,
    spearman,
    student_t_cdf,
    student_t_quantile,
    welch_t_test,
)

# ---------------------------------------------------------------------------
# independent oracles


def brute_force_ranks(values):
    """Average ranks by direct counting, independent of any sort."""
    out = []
    for v in values:
        less = sum(1 for w in values if w < v)
        equal = sum(1 for w in values if w == v)
        out.append(less + (equal + 1) / 2)
    return out


def eq1_rho(x, y):
    """Tie-free closed form: 1 - 6*sum(d^2) / (n*(n^2-1))."""
    rx = brute_force_ranks(x)
    ry = brute_force_ranks(y)
    n = len(x)
    d2 = sum((a - b) ** 2 for a, b in zip(rx, ry))
    return 1 - 6 * d2 / (n * (n * n - 1))


def pearson_plain(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    return sxy / math.sqrt(sxx * syy)


def normal_cdf(t):
    return 0.5 * (1.0 + math.erf(t / math.sqrt(2.0)))


# Floats are 0 or between 1e-200 and 1e6 in magnitude. A deviation below
# about 1e-154 squares to an underflow unless the moments scale it first, so
# magnitudes from 1e-200 to 1e-6 are drawn as a range of their own.
_MAGNITUDES = st.floats(1e-6, 1e6) | st.floats(1e-200, 1e-6)
_FLOATS = st.just(0.0) | _MAGNITUDES | _MAGNITUDES.map(lambda v: -v)


def _tied(n_min: int, n_max: int):
    """Lists drawn from a pool of at most six integers or floats, so ties are common."""
    pools = st.lists(st.integers(-50, 50), min_size=1, max_size=6, unique=True) | st.lists(
        _FLOATS, min_size=1, max_size=6, unique=True
    )
    return pools.flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=n_min, max_size=n_max)
    )


# Two samples of one length, for the paired and rank statistics
_PAIRS = st.integers(3, 20).flatmap(lambda n: st.tuples(_tied(n, n), _tied(n, n)))


def sqrt_within(square, lo, hi) -> bool:
    """Whether sqrt(square) lies in [lo, hi], for exact rationals."""
    return (lo <= 0 or lo * lo <= square) and hi >= 0 and square <= hi * hi


def mpq(q):
    """An exact rational (or float) as an mpmath number at the working precision."""
    mp = pytest.importorskip("mpmath")
    q = Fraction(q)
    return mp.mpf(q.numerator) / q.denominator


def mp_two_sided_p(t, df):
    """2 P(T < -|t|) to 40 digits, for an exact t and df."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        n, t2 = mp.mpf(df), mp.mpf(t) ** 2
        return mp.betainc(n / 2, 0.5, 0, n / (n + t2), regularized=True)


def assert_close(value, exact, scale=None):
    """``value`` within 1e-12 of ``exact``, relative to ``scale`` (default |exact|).

    A difference of two rounded means cannot be closer to its exact value
    than the rounding of those means allows, so such a value is measured
    against the size of what was subtracted.
    """
    bound = abs(exact) if scale is None else scale
    assert abs(value - exact) <= 1e-12 * bound, (value, float(exact))


def assert_p_close(value, exact):
    """A two-sided p-value within 1e-12 of ``exact`` where each tail is held
    to that bound, down to 1e-300; below it only as small, since a tail there
    may lie below the smallest float."""
    if exact >= 2e-300:
        assert_close(value, exact)
    else:
        assert value < 2e-300, (value, float(exact))


# ---------------------------------------------------------------------------
# rank


def test_rank_examples():
    assert rank([10, 20, 30]).ranks == (1.0, 2.0, 3.0)
    assert rank([5, 5, 7]).ranks == (1.5, 1.5, 3.0)
    assert rank([3, 1, 2]).ranks == (3.0, 1.0, 2.0)


def test_rank_rejects_non_finite():
    with pytest.raises(InputError):
        rank([1.0, float("nan")])
    with pytest.raises(InputError):
        rank([float("inf")])


@given(st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=60) | _tied(1, 60))
def test_rank_matches_brute_force_and_sums(values):
    r = rank(values)
    n = len(values)
    assert r.ranks == tuple(brute_force_ranks(values))
    assert abs(sum(r.ranks) - n * (n + 1) / 2) <= 1e-9
    for i, a in enumerate(values):
        for j, b in enumerate(values):
            if a == b:
                assert r.ranks[i] == r.ranks[j]


# ---------------------------------------------------------------------------
# spearman


def test_spearman_perfect_reversal():
    assert spearman([1, 2, 3], [3, 2, 1]).rho == -1.0


def test_spearman_eq1_hand_example():
    r = spearman([1, 2, 3, 4, 5], [2, 1, 4, 3, 5])
    assert r.rho == pytest.approx(0.8, abs=1e-15)


def test_spearman_monotone_transform_invariance():
    x = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3]
    y = [2.0, 7.0, 1.0, 8.0, 2.8, 1.8, 2.9]
    base = spearman(x, y).rho
    for transform in (math.exp, lambda v: 2.5 * v + 7, lambda v: v**3):
        assert spearman([transform(v) for v in x], y).rho == base
        assert spearman(x, [transform(v) for v in y]).rho == base


def test_spearman_symmetry_exact():
    x = [1, 5, 2, 4, 4, 3]
    y = [9, 2, 7, 1, 3, 3]
    assert spearman(x, y).rho == spearman(y, x).rho


def test_spearman_errors():
    with pytest.raises(DegenerateInputError):
        spearman([1, 1, 1], [1, 2, 3])
    with pytest.raises(InputError):
        spearman([1, 2, 3], [1, 2])
    with pytest.raises(InputError):
        spearman([1, 2], [2, 1])


def test_spearman_strength_classes():
    rng = random.Random(7)
    n = 400
    x = [rng.random() for _ in range(n)]
    noise = [rng.random() for _ in range(n)]
    weak = spearman(x, noise)
    assert weak.strength == "weak"
    strong = spearman(x, x[1:] + x[:1])  # permuted: near zero
    assert strong.n == n
    identical = spearman(x, [v * 2 for v in x])
    assert identical.strength == "strong" and identical.rho == 1.0


def test_spearman_significance_flag_tracks_alpha():
    x = [1, 2, 3, 4, 5, 6]
    y = [1, 3, 2, 5, 4, 6]
    r5 = spearman(x, y, alpha=0.05)
    r50 = spearman(x, y, alpha=0.5)
    assert r5.significant == (r5.p_value <= 0.05)
    assert r50.significant == (r50.p_value <= 0.5)


@given(
    st.lists(st.integers(min_value=0, max_value=30), min_size=3, max_size=40).filter(
        lambda v: len(set(v)) > 1
    ),
    st.randoms(use_true_random=False),
)
def test_spearman_matches_brute_force_oracle_on_ties(values, rnd):
    y = list(values)
    rnd.shuffle(y)
    if len(set(y)) <= 1:
        return
    ours = spearman(values, y).rho
    oracle = pearson_plain(brute_force_ranks(values), brute_force_ranks(y))
    assert ours == pytest.approx(oracle, abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(_PAIRS)
def test_spearman_within_two_ulps_of_exact_rationals(pair):
    # the rank sums are exact, and the square root and the quotient round
    # once each, which keeps rho within two ulps
    x, y = pair
    assume(len(set(x)) > 1 and len(set(y)) > 1)
    # half-integers, so the float ranks convert exactly
    rx = [Fraction(r) for r in brute_force_ranks(x)]
    ry = [Fraction(r) for r in brute_force_ranks(y)]
    mid = Fraction(len(x) + 1, 2)
    dot = sum((a - mid) * (b - mid) for a, b in zip(rx, ry))
    sxx = sum((a - mid) ** 2 for a in rx)
    syy = sum((b - mid) ** 2 for b in ry)
    rho = spearman(x, y).rho
    ulp = 2 * Fraction(math.ulp(rho))
    lo, hi = Fraction(rho) - ulp, Fraction(rho) + ulp
    if dot < 0:
        lo, hi = -hi, -lo
    assert sqrt_within(dot * dot / (sxx * syy), lo, hi)


def test_spearman_exact_past_the_dist_range():
    # 70,000 distinct values put the rank sums of squares past 2^47, where the
    # rank dot product is summed by fsum instead of read off math.dist
    n = 70_000
    y = list(range(n))
    random.Random(5).shuffle(y)
    # each value is its rank minus one, so its doubled centred rank is 2v - (n - 1)
    ry = [2 * v - (n - 1) for v in y]
    sxx = (n**3 - n) // 3
    dot = sum((2 * i - (n - 1)) * r for i, r in enumerate(ry))
    assert spearman(range(n), y).rho == dot / math.sqrt(sxx * sxx)


# ---------------------------------------------------------------------------
# t-tests and intervals against exact moments
#
# statistics.mean and statistics.variance are exact on Fractions; mpmath
# carries the square roots and the t distribution.


@settings(max_examples=40, deadline=None)
@given(_PAIRS)
def test_paired_t_test_matches_exact_moments(pair):
    mp = pytest.importorskip("mpmath")
    x, y = pair
    # the differences as float arithmetic gives them, which the test takes as its data
    d = [Fraction(a - b) for a, b in zip(x, y)]
    mean, var = statistics.mean(d), statistics.variance(d)
    assume(var > 0)
    n = len(d)
    r = paired_t_test(x, y)
    scale = float(max(abs(v) for v in d))
    assert_close(r.mean_difference, mean, scale)
    with mp.workdps(40):
        se = mp.sqrt(mpq(var) / n)
        assert_close(r.t_statistic, mpq(mean) / se, abs(mpq(mean)) / se + scale / se)
    assert r.degrees_of_freedom == n - 1
    assert_p_close(r.p_value, mp_two_sided_p(r.t_statistic, n - 1))


@settings(max_examples=40, deadline=None)
@given(_tied(2, 20), _tied(2, 20))
def test_welch_t_test_matches_exact_moments(x, y):
    mp = pytest.importorskip("mpmath")
    fx, fy = [Fraction(v) for v in x], [Fraction(v) for v in y]
    vx, vy = statistics.variance(fx) / len(x), statistics.variance(fy) / len(y)
    assume(vx + vy > 0)
    diff = statistics.mean(fx) - statistics.mean(fy)
    df = (vx + vy) ** 2 / (vx**2 / (len(x) - 1) + vy**2 / (len(y) - 1))
    r = welch_t_test(x, y)
    scale = max(abs(v) for v in x + y)
    assert_close(r.mean_difference, diff, scale)
    assert_close(r.degrees_of_freedom, df)
    with mp.workdps(40):
        se = mp.sqrt(mpq(vx + vy))
        assert_close(r.t_statistic, mpq(diff) / se, abs(mpq(diff)) / se + scale / se)
    assert_p_close(r.p_value, mp_two_sided_p(r.t_statistic, r.degrees_of_freedom))


@settings(max_examples=40, deadline=None)
@given(_tied(2, 20), st.sampled_from([0.5, 0.9, 0.95, 0.99]))
def test_mean_confidence_interval_matches_exact_moments(values, level):
    mp = pytest.importorskip("mpmath")
    exact = [Fraction(v) for v in values]
    mean, var = statistics.mean(exact), statistics.variance(exact)
    n = len(values)
    r = mean_confidence_interval(values, level)
    assert_close(r.mean, mean, max(abs(v) for v in values))
    with mp.workdps(40):
        df = mp.mpf(n - 1)

        def upper_tail(t):
            return mp.betainc(df / 2, 0.5, 0, df / (df + t * t), regularized=True) / 2

        # the root is unique, so starting the search from the tested quantile
        # only saves steps; findroot checks the 40-digit residual itself
        start = student_t_quantile(0.5 * (1.0 + level), n - 1)
        q = mp.findroot(lambda t: upper_tail(t) - (1 - mpq(level)) / 2, start)
        half = q * mp.sqrt(mpq(var) / n)
        size = abs(mpq(mean)) + half
        assert_close(r.lower, mpq(mean) - half, size)
        assert_close(r.upper, mpq(mean) + half, size)


# ---------------------------------------------------------------------------
# t-tests


def test_paired_identical_is_zero_variance():
    r = paired_t_test([4, 5, 6], [4, 5, 6])
    assert (r.t_statistic, r.p_value, r.zero_variance) == (0.0, 1.0, True)


def test_paired_textbook_example():
    r = paired_t_test([1, 2, 3, 4], [0, 0, 0, 0])
    assert r.mean_difference == 2.5
    assert r.degrees_of_freedom == 3
    # t = 2.5 / (sqrt(5/3) / 2) = sqrt(15)
    assert r.t_statistic == pytest.approx(math.sqrt(15), abs=1e-12)


def test_paired_antisymmetry():
    x = [1.0, 4.0, 2.0, 8.0, 5.0]
    y = [2.0, 3.0, 3.0, 9.0, 1.0]
    a = paired_t_test(x, y)
    b = paired_t_test(y, x)
    assert a.t_statistic == pytest.approx(-b.t_statistic, abs=1e-12)
    assert a.p_value == b.p_value


def test_paired_degenerate_error():
    with pytest.raises(DegenerateInputError):
        paired_t_test([3, 4, 5], [1, 2, 3])  # every difference exactly 2
    with pytest.raises(DegenerateInputError):
        # fsum([0.1] * 3) / 3 is one rounding above 0.1
        paired_t_test([0.1, 0.1, 0.1], [0, 0, 0])


def test_deviations_past_the_float_range_are_an_input_error():
    # -1.7e308 lies 2.3e308 below the mean 5.7e307: the square sum is NaN,
    # which once read as variance 0 and so as "identical and nonzero"
    wide = [1.7e308, -1.7e308, 1.7e308]
    message = "deviates from its mean past the float range"
    with pytest.raises(InputError, match=f"x - y {message}") as raised:
        paired_t_test(wide, [0, 0, 0])
    assert not isinstance(raised.value, DegenerateInputError)
    with pytest.raises(InputError, match=message):
        welch_t_test(wide, [0, 1])
    with pytest.raises(InputError, match=message):
        mean_confidence_interval(wide)


def test_paired_keeps_differences_whose_squares_underflow():
    # the squared differences lie near 1e-340, below the float range
    r = paired_t_test([1e-170, 2e-170, 4e-170], [0, 0, 0])
    assert r.t_statistic == pytest.approx(math.sqrt(7), rel=1e-15)


def test_welch_identical_groups():
    r = welch_t_test([1, 2, 3], [1, 2, 3])
    assert r.t_statistic == 0.0 and r.p_value == 1.0


def test_welch_shifted_group():
    r = welch_t_test([1, 2, 3], [11, 12, 13])
    assert r.t_statistic < -5
    assert r.p_value < 0.05
    # hand computation: t = -10 / sqrt(1/3 + 1/3), df = 4
    assert r.t_statistic == pytest.approx(-10 / math.sqrt(2 / 3), abs=1e-12)
    assert r.degrees_of_freedom == pytest.approx(4.0, abs=1e-12)


def test_welch_permutation_invariance():
    x = [5.0, 1.0, 3.0, 2.0]
    y = [9.0, 7.0, 8.0]
    base = welch_t_test(x, y)
    shuffled = welch_t_test([3.0, 5.0, 2.0, 1.0], [8.0, 9.0, 7.0])
    assert base.t_statistic == shuffled.t_statistic


def test_welch_keeps_groups_whose_squares_underflow():
    r = welch_t_test([1e-170, 2e-170, 4e-170], [0, 1e-171, 0])
    assert not r.zero_variance and 0.0 < r.p_value < 1.0


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 400),
    st.integers(2, 400),
    st.floats(-150.0, 150.0),
    st.floats(-150.0, 150.0),
    st.integers(0, 2**32),
)
def test_welch_df_lies_between_the_smaller_group_and_both(nx, ny, ex, ey, seed):
    # Welch (1947): min(nx, ny) - 1 <= df <= nx + ny - 2, so no analysis asks
    # the t distribution for a df below 1, let alone below MIN_DF
    rnd = random.Random(seed)
    x = [rnd.uniform(-1.0, 1.0) * 10.0**ex for _ in range(nx)]
    y = [rnd.uniform(-1.0, 1.0) * 10.0**ey for _ in range(ny)]
    df = welch_t_test(x, y).degrees_of_freedom
    assert (min(nx, ny) - 1) * (1 - 1e-12) <= df <= (nx + ny - 2) * (1 + 1e-12)
    assert df > MIN_DF


def test_welch_df_squares_by_multiplication():
    # found by search: with ``(vx / nx) ** 2`` a libm whose ``pow`` is not
    # correctly rounded (glibc 2.36) gives df 2.0761756717245654
    r = welch_t_test([16.4, 79.2, 76.8], [88.2, 82.5])
    assert r.degrees_of_freedom == 2.076175671724565


def test_welch_constant_groups():
    r = welch_t_test([2, 2, 2], [2, 2])
    assert r.zero_variance and r.p_value == 1.0
    assert welch_t_test([0.1] * 3, [0.1] * 5).zero_variance
    with pytest.raises(DegenerateInputError):
        welch_t_test([2, 2, 2], [3, 3])


# ---------------------------------------------------------------------------
# confidence intervals


def test_ci_constant_vector_collapses():
    r = mean_confidence_interval([4, 4, 4, 4])
    assert (r.lower, r.mean, r.upper) == (4.0, 4.0, 4.0)
    r = mean_confidence_interval([0.1, 0.1, 0.1])
    assert (r.lower, r.mean, r.upper) == (0.1, 0.1, 0.1)


def test_ci_keeps_a_spread_whose_square_underflows():
    r = mean_confidence_interval([0.0, 1.8203266035852457e-191])
    assert r.lower < r.mean < r.upper


def test_ci_hand_example():
    r = mean_confidence_interval([1, 2, 3, 4, 5], 0.95)
    assert r.mean == 3.0
    # half-width = 2.776 * (1.5811 / sqrt(5)) per t-table value
    assert r.lower == pytest.approx(1.037, abs=1e-3)
    assert r.upper == pytest.approx(4.963, abs=1e-3)


def test_ci_nesting():
    values = [3.1, 4.7, 2.2, 5.5, 3.3, 4.1, 2.8]
    inner = mean_confidence_interval(values, 0.95)
    outer = mean_confidence_interval(values, 0.99)
    assert outer.lower <= inner.lower <= inner.upper <= outer.upper


def test_ci_width_scales_inverse_sqrt_n():
    values = [float(i % 7) + 0.5 * (i % 3) for i in range(30)]
    one = mean_confidence_interval(values, 0.95)
    four = mean_confidence_interval(values * 4, 0.95)
    ratio = (four.upper - four.lower) / (one.upper - one.lower)
    assert ratio == pytest.approx(0.5, rel=0.10)


def test_ci_errors():
    with pytest.raises(InputError):
        mean_confidence_interval([1.0])
    with pytest.raises(InputError):
        mean_confidence_interval([1.0, 2.0], 1.0)


# ---------------------------------------------------------------------------
# student t


def test_t_cdf_value_unchanged_by_deferred_import():
    assert student_t_cdf(-2.0, 10) == float.fromhex("0x1.2c98ee9420ef5p-5")


def test_t_cdf_center():
    for df in (1, 2, 5, 30, 1000):
        assert student_t_cdf(0.0, df) == 0.5


def test_t_cdf_cauchy_closed_form():
    for t in (-5.0, -1.0, -0.3, 0.7, 1.0, 4.2):
        oracle = 0.5 + math.atan(t) / math.pi
        assert student_t_cdf(t, 1) == pytest.approx(oracle, abs=1e-12)


def test_t_cdf_df2_closed_form():
    for t in (-3.0, -0.5, 0.5, 2.0):
        oracle = 0.5 + t / (2 * math.sqrt(t * t + 2))
        assert student_t_cdf(t, 2) == pytest.approx(oracle, abs=1e-12)


def test_t_cdf_symmetry():
    for df in (1, 3, 10, 250):
        for t in (0.1, 0.9, 2.2, 7.5, 40.0):
            assert student_t_cdf(t, df) + student_t_cdf(-t, df) == pytest.approx(1.0, abs=1e-12)


def test_t_cdf_normal_approximation_for_large_df():
    # true sup-deviation of the two-sided p-value vs normal: 0.0112 at
    # df = 28, falling below 0.005 near df = 64; bounds pinned accordingly
    bounds = {28: 0.012, 64: 0.005, 198: 0.0017, 16_237: 2e-5}
    for df, bound in bounds.items():
        worst = 0.0
        for i in range(-600, 601):
            t = i / 100
            p_t = 2.0 * (1.0 - student_t_cdf(abs(t), df))
            p_n = 2.0 * (1.0 - normal_cdf(abs(t)))
            worst = max(worst, abs(p_t - p_n))
        assert worst < bound


def test_t_cdf_rejects_bad_df():
    with pytest.raises(InputError):
        student_t_cdf(1.0, 0)


def test_t_quantile_inverts_cdf():
    for df in (1, 4, 9, 100):
        for p in (0.005, 0.1, 0.5, 0.9, 0.975, 0.999):
            t = student_t_quantile(p, df)
            assert student_t_cdf(t, df) == pytest.approx(p, abs=1e-10)


def test_t_quantile_hand_value():
    assert student_t_quantile(0.975, 4) == pytest.approx(2.776, abs=1e-3)


# mpmath at 40 digits is the oracle for the t distribution. Its betainc sums
# the hypergeometric series, independent of the continued fraction in stats.

# df from 1 to 1e5 as integers (Spearman, paired), and as fractions from
# the floor MIN_DF up (Welch reaches 1, and the functions take any df from
# the floor)
_DF = st.integers(1, 100_000).map(float) | st.floats(math.log10(MIN_DF), 5.0).map(
    lambda e: max(MIN_DF, 10.0**e)
)


def mp_t_tail(t, df):
    """P(T < -|t|) to 40 digits, or None where it is provably below 1e-300."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        n = mp.mpf(df)
        t2 = mp.mpf(t) ** 2
        a = n / 2
        x, y = n / (n + t2), t2 / (n + t2)
        # DLMF 8.17.8 with 2F1(a + 1/2, 1; a + 1; x) <= 1/(1 - x) bounds I_x(a, 1/2)
        if x**a / (a * mp.beta(a, 0.5) * mp.sqrt(y)) < mp.mpf("1e-300"):
            return None
        return mp.betainc(a, 0.5, 0, x, regularized=True) / 2


def relative_error(value, exact):
    return float(abs((value - exact) / exact))


@settings(max_examples=100, deadline=None)
@given(st.floats(-3.0, 3.0).map(lambda e: 10.0**e), _DF)
def test_t_cdf_matches_mpmath(t, df):
    tail = mp_t_tail(t, df)
    if tail is None:
        return
    assert relative_error(student_t_cdf(-t, df), tail) <= 1e-12
    assert relative_error(student_t_cdf(t, df), 1 - tail) <= 1e-12


def test_t_cdf_keeps_the_complement_of_x():
    # small |t| at large df: forming 1 - x from a rounded x = df/(df + t^2)
    # puts this tail 1.3e-10 relative off
    t, df = 0.0011430803211095767, 2894.656662074284
    assert relative_error(student_t_cdf(-t, df), mp_t_tail(t, df)) <= 1e-12


@pytest.mark.parametrize("df", [1e-3, 1e-10, 1e-50, 1e-300])
@pytest.mark.parametrize("t", [1e-3, 0.5, 1.0, 10.0, 1e3, 1e100])
def test_t_masses_keep_the_centre_at_tiny_df(t, df):
    # Below MIN_DF the centre mass P(0 < T < t), 1/2 minus a tail within
    # about (df/2)|ln x| of 1/2, would lose its digits to cancellation, so
    # neither function returns one: both refuse the df and name the floor.
    with pytest.raises(InputError, match="MIN_DF"):
        student_t_cdf(t, df)
    with pytest.raises(InputError, match="MIN_DF"):
        student_t_quantile(1.0 / (1.0 + t), df)


def test_t_floor_admits_min_df_and_passes_nan():
    assert 0.5 < student_t_cdf(1.0, MIN_DF) < 1.0
    assert student_t_quantile(0.6, MIN_DF) > 0.0
    assert math.isnan(student_t_cdf(1.0, math.nan))
    assert math.isnan(student_t_quantile(0.9, math.nan))
    with pytest.raises(InputError, match="positive"):
        student_t_quantile(0.9, -1.0)


@settings(max_examples=60, deadline=None)
@given(st.floats(1e-6, 1 - 1e-6), _DF)
def test_t_quantile_matches_mpmath(p, df):
    mp = pytest.importorskip("mpmath")
    t = student_t_quantile(p, df)
    if p == 0.5:
        assert t == 0.0
        return
    beyond = min(p, 1 - p)
    if math.isinf(t):  # only a quantile past the float range rounds to infinity
        assert math.copysign(1.0, t) == math.copysign(1.0, p - 0.5)
        assert mp_t_tail(sys.float_info.max, df) > beyond
        return
    with mp.workdps(40):
        n, big_t = mp.mpf(df), mp.mpf(t)
        tail = mp.betainc(n / 2, 0.5, 0, n / (n + big_t**2), regularized=True) / 2
        cdf = tail if t < 0 else 1 - tail
        density = (1 + big_t**2 / n) ** (-(n + 1) / 2) / (mp.sqrt(n) * mp.beta(n / 2, 0.5))
        # to first order, t lies (cdf - p) / density from the exact quantile.
        # Below df = 1 the relative error of the mass solved for is scaled by
        # the quantile's condition number mass / (|t| density), about 1/df.
        mass = beyond if beyond < 0.25 else 0.5 - beyond
        cond = 1.0 if df >= 1 else max(1.0, float(mass / (density * abs(big_t))))
        assert float(abs((cdf - p) / (density * big_t))) <= 1e-13 * cond


def test_t_quantile_past_the_float_range_is_infinite():
    # the exact quantiles lie near -3.2e309 and, at df = 2e-3, far beyond
    assert student_t_quantile(1e-310, 1.0) == -math.inf
    assert student_t_quantile(0.9, MIN_DF) == math.inf
    assert student_t_quantile(1e-300, 1.0) == pytest.approx(-1 / (math.pi * 1e-300), rel=1e-12)


# ---------------------------------------------------------------------------
# correlation matrix


def test_matrix_identical_columns():
    m = correlation_matrix([("a", [1, 2, 3, 4]), ("b", [1, 2, 3, 4])])
    assert m.entry("a", "b").rho == 1.0


def test_matrix_negated_column():
    m = correlation_matrix([("a", [1, 2, 3, 4]), ("b", [-1, -2, -3, -4])])
    assert m.entry("a", "b").rho == -1.0


def test_matrix_matches_pairwise_spearman():
    rng = random.Random(3)
    cols = [(name, [rng.randint(0, 9) for _ in range(25)]) for name in ("x", "y", "z")]
    m = correlation_matrix(cols)
    for i, (ni, vi) in enumerate(cols):
        for j, (nj, vj) in enumerate(cols):
            if i == j:
                assert m.entries[i][j].rho == 1.0
                continue
            expected = spearman(vi, vj)
            assert m.entries[i][j].rho == pytest.approx(expected.rho, abs=1e-12)
            assert m.entries[i][j].p_value == pytest.approx(expected.p_value, abs=1e-12)


def test_matrix_constant_column_flagged_undefined():
    m = correlation_matrix([("a", [1, 2, 3]), ("c", [5, 5, 5])])
    assert m.entry("a", "c") is None
    assert m.entry("c", "c") is None
    assert m.entry("a", "a").rho == 1.0


def test_matrix_symmetric():
    rng = random.Random(11)
    cols = [(f"m{k}", [rng.random() for _ in range(12)]) for k in range(4)]
    m = correlation_matrix(cols)
    for i in range(4):
        for j in range(4):
            assert m.entries[i][j].rho == m.entries[j][i].rho


def test_matrix_length_mismatch():
    with pytest.raises(InputError):
        correlation_matrix([("a", [1, 2, 3]), ("b", [1, 2])])
