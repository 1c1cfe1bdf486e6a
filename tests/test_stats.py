"""Unit and oracle tests for the statistics kernel."""

from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leakaudit.stats import (
    GaussianFit,
    fit_gaussian,
    hypergeom_expected,
    mann_whitney_u,
    wilcoxon_signed_rank,
)


def midranks(values):
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    i = 0
    sv = values[order]
    while i < len(values):
        j = i
        while j + 1 < len(values) and sv[j + 1] == sv[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def wilcoxon_brute_force(samples, alternative="two-sided"):
    """Enumerate all 2^n sign assignments of the observed midranks."""
    diffs = np.asarray(samples, dtype=float)
    diffs = diffs[diffs != 0.0]
    n = diffs.size
    if n == 0:
        return 0.0, 1.0
    ranks = midranks(np.abs(diffs))
    w_obs = float(ranks[diffs > 0].sum())
    n_ge = n_le = 0
    for signs in product((0, 1), repeat=n):
        w = float(sum(r for r, s in zip(ranks, signs) if s))
        n_ge += w >= w_obs
        n_le += w <= w_obs
    total = 2 ** n
    p_greater = n_ge / total
    p_less = n_le / total
    if alternative == "greater":
        p = p_greater
    elif alternative == "less":
        p = p_less
    else:
        p = min(1.0, 2.0 * min(p_greater, p_less))
    return w_obs, p


def mwu_brute_force(a, b, alternative="two-sided"):
    """Enumerate every assignment of pooled values to group A."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    pooled = np.concatenate([a, b])
    n_a = a.size

    def u_stat(idx_a):
        ranks = midranks(pooled)
        return float(ranks[list(idx_a)].sum()) - n_a * (n_a + 1) / 2.0

    u_obs = u_stat(range(n_a))
    n_ge = n_le = n_total = 0
    for combo in combinations(range(pooled.size), n_a):
        u = u_stat(combo)
        n_total += 1
        n_ge += u >= u_obs
        n_le += u <= u_obs
    p_greater = n_ge / n_total
    p_less = n_le / n_total
    if alternative == "greater":
        p = p_greater
    elif alternative == "less":
        p = p_less
    else:
        p = min(1.0, 2.0 * min(p_greater, p_less))
    return u_obs, p


class TestGaussian:
    def test_fit_mean_and_unbiased_variance(self):
        rng = np.random.default_rng(0)
        x = rng.normal(3.0, 2.0, size=200)
        fit = fit_gaussian(x, floor=1e-6)
        assert fit.mean == pytest.approx(float(x.mean()))
        assert fit.variance == pytest.approx(float(x.var(ddof=1)))

    def test_fit_floors_variance(self):
        fit = fit_gaussian([1.0, 1.0, 1.0], floor=1e-6)
        assert fit == GaussianFit(mean=1.0, variance=1e-6)

    def test_fit_single_sample_uses_floor(self):
        assert fit_gaussian([4.2], floor=0.5).variance == 0.5

    def test_fit_empty_raises(self):
        with pytest.raises(ValueError):
            fit_gaussian([], floor=1e-6)


class TestWilcoxon:
    def test_hand_example(self):
        # diffs 1,2,3 all positive: W+ = 6, one-sided p = 1/8
        res = wilcoxon_signed_rank([1.0, 2.0, 3.0], alternative="greater")
        assert res.statistic == 6.0
        assert res.p_value == pytest.approx(1.0 / 8.0)
        assert res.method == "exact"

    def test_all_zero_diffs_degenerate(self):
        res = wilcoxon_signed_rank([0.0, -0.0])
        assert res.p_value == 1.0
        assert res.method == "degenerate"

    def test_rejects_bad_alternative(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([1.0], alternative="sideways")

    @pytest.mark.parametrize("alternative", ["two-sided", "greater", "less"])
    def test_exact_matches_brute_force(self, alternative):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n = int(rng.integers(1, 11))
            # integer-valued samples provoke ties and zero differences
            x = rng.integers(-4, 5, size=n).astype(float)
            res = wilcoxon_signed_rank(x, alternative=alternative)
            w_ref, p_ref = wilcoxon_brute_force(x, alternative=alternative)
            if res.method == "degenerate":
                assert p_ref == 1.0
            else:
                assert res.statistic == w_ref
                assert res.p_value == pytest.approx(p_ref, abs=0.0)

    @pytest.mark.parametrize("alternative", ["two-sided", "greater", "less"])
    def test_normal_path_matches_scipy(self, alternative):
        """Past 20 nonzero values, with zeros and ties: scipy's tie-corrected approximation, continuity-corrected."""
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(13)
        for _ in range(100):
            x = rng.integers(-6, 7, size=int(rng.integers(30, 80))).astype(float)
            res = wilcoxon_signed_rank(x, alternative=alternative)
            assert res.method == "normal"
            ref = stats.wilcoxon(x, zero_method="wilcox", correction=True, method="approx", alternative=alternative)
            assert res.p_value == pytest.approx(ref.pvalue, rel=0.0, abs=1e-12)

    def test_large_n_uses_normal(self):
        x = np.arange(1, 30, dtype=float)
        assert wilcoxon_signed_rank(x).method == "normal"

    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_p_value_in_unit_interval(self, xs):
        res = wilcoxon_signed_rank(np.array(xs, dtype=float))
        assert 0.0 <= res.p_value <= 1.0

    @given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_negation_swaps_one_sided_tails(self, xs):
        x = np.array(xs)
        res_g = wilcoxon_signed_rank(x, alternative="greater")
        res_l = wilcoxon_signed_rank(-x, alternative="less")
        assert res_g.p_value == pytest.approx(res_l.p_value, rel=1e-12)


class TestMannWhitney:
    def test_hand_example(self):
        # a = {3,4}, b = {1,2}: every a beats every b, U_A = 4
        res = mann_whitney_u([3.0, 4.0], [1.0, 2.0], alternative="greater")
        assert res.statistic == 4.0
        assert res.p_value == pytest.approx(1.0 / 6.0)
        assert res.method == "exact"

    def test_empty_sample_raises(self):
        with pytest.raises(ValueError):
            mann_whitney_u([], [1.0])

    def test_nan_raises(self):
        """NaN has no rank: it is refused, not ranked above every number."""
        with pytest.raises(ValueError, match="NaN"):
            mann_whitney_u([1.0, float("nan")], [2.0, 3.0])

    @pytest.mark.parametrize("alternative", ["two-sided", "greater", "less"])
    def test_exact_matches_brute_force(self, alternative):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n_a = int(rng.integers(1, 6))
            n_b = int(rng.integers(1, 7 - (n_a > 4)))
            a = rng.normal(size=n_a)
            b = rng.normal(size=n_b)
            res = mann_whitney_u(a, b, alternative=alternative)
            assert res.method == "exact"
            u_ref, p_ref = mwu_brute_force(a, b, alternative=alternative)
            assert res.statistic == u_ref
            assert res.p_value == pytest.approx(p_ref, abs=0.0)

    def test_ties_fall_back_to_normal(self):
        res = mann_whitney_u([1.0, 2.0, 2.0], [2.0, 3.0])
        assert res.method == "normal"

    def test_statistic_antisymmetry(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=9)
        b = rng.normal(size=5)
        u_a = mann_whitney_u(a, b).statistic
        u_b = mann_whitney_u(b, a).statistic
        assert u_a + u_b == pytest.approx(len(a) * len(b))

    @pytest.mark.parametrize("alternative", ["two-sided", "greater", "less"])
    def test_normal_path_matches_scipy(self, alternative):
        """With ties, or past 12 values in all: scipy's asymptotic test with continuity correction, and its U."""
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(17)
        for i in range(100):
            n_a, n_b = rng.integers(1, 30, size=2)
            if i % 2:  # integer values tie
                a, b = rng.integers(0, 8, n_a).astype(float), rng.integers(0, 8, n_b).astype(float)
            else:
                n_a, n_b = n_a + 7, n_b + 6
                a, b = rng.normal(size=n_a), rng.normal(size=n_b)
            res = mann_whitney_u(a, b, alternative=alternative)
            if res.method == "exact":  # few values that happen not to tie
                continue
            ref = stats.mannwhitneyu(a, b, use_continuity=True, method="asymptotic", alternative=alternative)
            assert res.statistic == ref.statistic
            assert res.p_value == pytest.approx(ref.pvalue, rel=0.0, abs=1e-12)


class TestHypergeometric:
    def test_expected_value(self):
        assert hypergeom_expected(100, 20, 10) == pytest.approx(2.0)

    def test_zero_population(self):
        assert hypergeom_expected(0, 0, 0) == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            hypergeom_expected(10, 11, 5)
        with pytest.raises(ValueError):
            hypergeom_expected(10, 5, -1)

    def test_matches_simulation(self):
        rng = np.random.default_rng(0)
        draws = rng.hypergeometric(ngood=30, nbad=70, nsample=25, size=20000)
        assert hypergeom_expected(100, 30, 25) == pytest.approx(draws.mean(), abs=0.1)
