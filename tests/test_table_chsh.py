"""Exact statistics of n independent pairs: `table_chsh` and its oracles.

The convolution and 4^n enumeration oracles live in conftest.  The
tests here check the oracles against each other and pin `table_chsh`
against them.
"""

import math

import numpy as np
import pytest

from manypairs.binning import (Majority, Parity, TiePolicy,
                               _log_factorial_remainder, sign_vector,
                               table_chsh)
from manypairs.errors import InfeasibleStatisticsError, InvalidArgumentError
from manypairs.pairstats import (SETTING_PAIRS, CorrelatorTable, joint_table,
                                 settings_from_beta, werner_correlators)

from conftest import (brute_force_counts, convolve_counts, counts_correlators,
                      random_feasible_table)

ALL_STRATEGIES = (Majority(TiePolicy.TIE_TO_MINUS),
                  Majority(TiePolicy.TIE_TO_PLUS),
                  Majority(TiePolicy.RANDOMIZED), Parity())


def uniform_correlator_table(e):
    return CorrelatorTable(e, e, e, e)


class TestConvolveCounts:
    """The convolution oracle against enumeration and closed forms."""

    def test_n_one_is_input(self, rng):
        pair = joint_table(random_feasible_table(rng))
        dist = convolve_counts(pair, 1)
        for p, (x, y) in zip(pair, SETTING_PAIRS):
            assert np.allclose(dist[(x, y)], p)

    def test_perfect_correlation_binomial_diagonal(self):
        pair = joint_table(uniform_correlator_table(1.0))
        m = convolve_counts(pair, 3)[(1, 1)]
        for k in range(4):
            assert m[k, k] == pytest.approx(math.comb(3, k) / 8.0, abs=1e-14)
        off = m - np.diag(np.diag(m))
        assert np.all(off == 0.0)

    def test_independent_binomials(self):
        pair = joint_table(uniform_correlator_table(0.0))
        dist = convolve_counts(pair, 2)
        pa = np.array([0.25, 0.5, 0.25])
        assert np.allclose(dist[(2, 1)], np.outer(pa, pa), atol=1e-14)

    def test_brute_force_small_e(self):
        pair = joint_table(uniform_correlator_table(0.9))
        dist = convolve_counts(pair, 3)
        oracle = brute_force_counts(pair, 3)
        for (x, y) in SETTING_PAIRS:
            assert np.allclose(dist[(x, y)], oracle[(x, y)], atol=1e-12)

    def test_brute_force_random_tables(self, rng):
        for n in (1, 2, 3, 4):
            pair = joint_table(random_feasible_table(rng))
            dist = convolve_counts(pair, n)
            oracle = brute_force_counts(pair, n)
            for (x, y) in SETTING_PAIRS:
                assert np.allclose(dist[(x, y)], oracle[(x, y)], atol=1e-12)

    def test_normalization(self, rng):
        pair = joint_table(random_feasible_table(rng))
        for n in (1, 7, 32):
            for m in convolve_counts(pair, n).values():
                assert np.all(m >= 0.0)
                assert abs(m.sum() - 1.0) <= n * 1e-14


class TestMarginals:
    def test_count_marginal_is_binomial(self):
        table = werner_correlators(settings_from_beta(0.4), 0.85)
        n = 12
        dist = convolve_counts(joint_table(table), n)
        expected = np.array([math.comb(n, k) / 2.0 ** n for k in range(n + 1)])
        for m in dist.values():
            assert np.allclose(m.sum(axis=1), expected, atol=1e-12)
            assert np.allclose(m.sum(axis=0), expected, atol=1e-12)


def test_small_log_factorial_table_matches_scipy():
    from scipy.special import gammaln, xlogy

    c = np.arange(16.0)
    expected = gammaln(c + 1.0) - xlogy(c, c) + c
    np.testing.assert_allclose(_log_factorial_remainder(c), expected,
                               rtol=0.0, atol=1e-14)


class TestTableChsh:
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=repr)
    def test_matches_convolution_oracle(self, strategy):
        rng = np.random.default_rng(303)
        worst = 0.0
        for _ in range(10):
            table = random_feasible_table(rng, with_marginals=True)
            pair = joint_table(table)
            for n in range(1, 11):
                expected = counts_correlators(convolve_counts(pair, n), n,
                                              strategy)
                got = table_chsh(table, n, strategy)
                worst = max(worst, float(np.abs(
                    np.array(got.correlators) - expected).max()))
                assert got.n == n
        assert worst <= 1e-12

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=repr)
    def test_deterministic_outcomes(self, strategy):
        # marginals +-1 fix every count: A reads 0 at x = 1 and n at
        # x = 2, B likewise, so p_A is 0 or 1 and q1 or q0 is undefined
        table = CorrelatorTable(e11=1.0, e12=-1.0, e21=-1.0, e22=1.0,
                                marg_a1=1.0, marg_a2=-1.0, marg_b1=1.0,
                                marg_b2=-1.0)
        for n in range(1, 8):
            s = sign_vector(n, strategy)
            lo, hi = s[0], s[n]
            got = table_chsh(table, n, strategy)
            assert got.correlators == (lo * lo, lo * hi, hi * lo, hi * hi)

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=repr)
    def test_deterministic_alice_matches_oracle(self, strategy, rng):
        # Alice's outcome is fixed and Bob's is random: e = margA * margB
        mb1, mb2 = rng.uniform(-0.6, 0.6, size=2)
        table = CorrelatorTable(e11=mb1, e12=mb2, e21=-mb1, e22=-mb2,
                                marg_a1=1.0, marg_a2=-1.0, marg_b1=mb1,
                                marg_b2=mb2)
        pair = joint_table(table)
        for n in (1, 2, 5, 8):
            expected = counts_correlators(convolve_counts(pair, n), n,
                                          strategy)
            got = table_chsh(table, n, strategy).correlators
            assert got == pytest.approx(expected, abs=1e-12)

    def test_n_one_is_raw_chsh(self, rng):
        table = random_feasible_table(rng)
        raw = table.e11 + table.e12 + table.e21 - table.e22
        for strategy in ALL_STRATEGIES:
            assert table_chsh(table, 1, strategy).s == pytest.approx(
                raw, abs=1e-12)

    def test_numpy_integer_n(self, rng):
        table = random_feasible_table(rng)
        assert table_chsh(table, np.int64(6), Parity()) == table_chsh(
            table, 6, Parity())

    @pytest.mark.parametrize("bad_n", [0, -1, 2.5, "3"])
    def test_invalid_n(self, bad_n, rng):
        table = random_feasible_table(rng)
        with pytest.raises(InvalidArgumentError, match="n must be >= 1"):
            table_chsh(table, bad_n, Majority())

    def test_infeasible_table(self):
        table = CorrelatorTable(-1.0, 0.0, 0.0, 0.0, marg_a1=0.5,
                                marg_b1=0.5)
        with pytest.raises(InfeasibleStatisticsError):
            table_chsh(table, 3, Parity())
