import math

import numpy as np
import pytest

from manypairs.binning import (PARITY_BETA_SCALE, PARITY_S_LIMIT, Majority,
                               Parity, TiePolicy, chsh_value,
                               parity_chsh_analytic, sign_vector, table_chsh)
from manypairs.pairstats import (SETTING_PAIRS, CorrelatorTable, joint_table,
                                 settings_from_beta, werner_correlators)

from conftest import (brute_force_counts, counts_correlators,
                      random_feasible_table)


class TestSignVector:
    def test_majority_single_pair_identity(self):
        assert list(sign_vector(1, Majority())) == [-1.0, 1.0]

    def test_tie_to_minus_literal(self):
        assert sign_vector(4, Majority(TiePolicy.TIE_TO_MINUS))[2] == -1.0

    def test_tie_to_plus(self):
        assert sign_vector(4, Majority(TiePolicy.TIE_TO_PLUS))[2] == 1.0

    def test_randomized_tie_is_zero(self):
        # a fair coin contributes 0 to every correlator
        s = sign_vector(4, Majority(TiePolicy.RANDOMIZED))
        assert list(s) == [-1.0, -1.0, 0.0, 1.0, 1.0]

    def test_parity(self):
        s = sign_vector(8, Parity())
        assert s[5] == -1.0
        assert s[4] == 1.0

    def test_odd_n_tie_free(self):
        for n in (1, 3, 5, 7):
            s = sign_vector(n, Majority(TiePolicy.RANDOMIZED))
            assert np.all(s != 0.0)


class TestBinnedCorrelator:
    def test_parity_power_small(self):
        table = CorrelatorTable(0.9, 0.9, 0.9, 0.9)
        assert table_chsh(table, 3, Parity()).correlators[0] == \
            pytest.approx(0.9 ** 3, abs=1e-12)

    def test_majority_perfect_even(self):
        table = CorrelatorTable(1.0, 1.0, 1.0, 1.0)
        assert table_chsh(table, 2, Majority()).correlators[0] == \
            pytest.approx(1.0, abs=1e-12)

    def test_majority_frozen_value(self):
        # brute-force oracle over the 64 outcome strings gives
        # P(agree) = 0.928625 for e = 0.9, n = 3
        table = CorrelatorTable(0.9, 0.9, 0.9, 0.9)
        oracle = brute_force_counts(joint_table(table), 3)[(1, 1)]
        s = sign_vector(3, Majority())
        expected = float(s @ oracle @ s)
        assert expected == pytest.approx(0.85725, abs=1e-12)
        assert table_chsh(table, 3, Majority()).correlators[0] == \
            pytest.approx(expected, abs=1e-12)

    def test_brute_force_all_strategies(self, rng):
        strategies = (Majority(TiePolicy.TIE_TO_MINUS),
                      Majority(TiePolicy.TIE_TO_PLUS),
                      Majority(TiePolicy.RANDOMIZED), Parity())
        for n in (1, 2, 3, 4):
            table = random_feasible_table(rng)
            oracle = brute_force_counts(joint_table(table), n)
            for strat in strategies:
                expected = counts_correlators(oracle, n, strat)
                assert table_chsh(table, n, strat).correlators == \
                    pytest.approx(expected, abs=1e-12)

    def test_parity_power_identity_to_64(self, rng):
        table = random_feasible_table(rng)
        for n in (8, 33, 64):
            got = table_chsh(table, n, Parity()).correlators
            for (x, y), e in zip(SETTING_PAIRS, got):
                assert e == pytest.approx(table.correlator(x, y) ** n,
                                          abs=1e-10)


class TestChshValue:
    def test_tsirelson_point(self):
        r = 1.0 / math.sqrt(2.0)
        est = chsh_value((r, r, r, -r))
        assert est.s == pytest.approx(2.0 * math.sqrt(2.0))
        assert est.violation

    def test_local_deterministic_point(self):
        est = chsh_value((1.0, 1.0, 1.0, 1.0))
        assert est.s == 2.0
        assert not est.violation  # strictly greater than 2

    def test_composed_parity_point(self):
        v, beta, n = 0.9, 0.3, 3
        e = (v * math.cos(beta)) ** n
        e22 = (v * math.cos(3 * beta)) ** n
        est = chsh_value((e, e, e, e22))
        assert est.s == pytest.approx(3 * e - e22, abs=1e-12)

    def test_invariant_s_is_sum(self, rng):
        es = rng.uniform(-1, 1, size=4)
        est = chsh_value(es)
        assert est.s == pytest.approx(es[0] + es[1] + es[2] - es[3],
                                      abs=1e-12)
        assert abs(est.s) <= 4.0


class TestParityAnalytic:
    def test_single_pair_tsirelson(self):
        assert parity_chsh_analytic(math.pi / 4, 1.0, 1) == pytest.approx(
            2.0 * math.sqrt(2.0), abs=1e-12)

    def test_large_n_asymptote(self):
        n = 10 ** 6
        s = parity_chsh_analytic(PARITY_BETA_SCALE / math.sqrt(n), 1.0, n)
        assert s == pytest.approx(PARITY_S_LIMIT, abs=1e-3)

    def test_frozen_numeric_point(self):
        assert parity_chsh_analytic(0.15130, 1.0, 12) == pytest.approx(
            2.3359, abs=5e-4)

    def test_matches_table_chsh(self, rng):
        for _ in range(5):
            beta = rng.uniform(0.05, 1.4)
            v = rng.uniform(0.2, 1.0)
            n = int(rng.integers(1, 20))
            table = werner_correlators(settings_from_beta(beta), v)
            assert table_chsh(table, n, Parity()).s == pytest.approx(
                parity_chsh_analytic(beta, v, n), abs=1e-10)


class TestReductionsAndSymmetry:
    def test_n1_reduction_both_strategies(self, rng):
        table = random_feasible_table(rng)
        raw = (table.e11 + table.e12 + table.e21 - table.e22)
        for strat in (Majority(), Parity()):
            assert table_chsh(table, 1, strat).s == pytest.approx(
                raw, abs=1e-12)

    def test_exchange_symmetry(self, rng):
        # swapping parties (transpose counts, swap setting indices)
        # leaves S unchanged
        t = random_feasible_table(rng, with_marginals=False)
        swapped = CorrelatorTable(e11=t.e11, e12=t.e21, e21=t.e12, e22=t.e22)
        for strat in (Majority(), Parity()):
            assert table_chsh(t, 4, strat).s == pytest.approx(
                table_chsh(swapped, 4, strat).s, abs=1e-12)

    def test_constants_full_precision(self):
        assert PARITY_S_LIMIT == 8.0 * 3.0 ** (-9.0 / 8.0)
        assert PARITY_BETA_SCALE == math.sqrt(math.log(3.0)) / 2.0
        assert PARITY_S_LIMIT == pytest.approx(2.3245, abs=1e-4)
        assert PARITY_BETA_SCALE == pytest.approx(0.524, abs=1e-3)
