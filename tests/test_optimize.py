import math

import numpy as np
import pytest

from manypairs import optimize
from manypairs.binning import (PARITY_BETA_SCALE, PARITY_S_LIMIT, Majority,
                               Parity, TiePolicy, binned_correlator,
                               chsh_from_counts, parity_chsh_analytic)
from manypairs.collective import convolve_counts
from manypairs.errors import (FitError, InvalidArgumentError,
                              NoViolationError)
from manypairs.optimize import (EXCEEDS_CAP, SettingsMode,
                                binned_correlator_from_e, binning_comparison,
                                critical_pairs, critical_visibility,
                                family_chsh, fit_vc_curve, max_chsh,
                                parity_vc_approx, scan_critical_visibilities,
                                violation_ratio)
from manypairs.pairstats import (SETTING_PAIRS, joint_table,
                                 settings_from_beta, werner_correlators)

from conftest import critical_visibility_bisect, crossover_bisect


ALL_STRATEGIES = (Majority(TiePolicy.TIE_TO_MINUS),
                  Majority(TiePolicy.TIE_TO_PLUS),
                  Majority(TiePolicy.RANDOMIZED), Parity())

BAD_TOLERANCES = (0.0, -1.0, math.nan, math.inf)


def _no_optimization(*args, **kwargs):
    raise AssertionError("max_chsh called before the arguments were checked")


class TestFastCorrelatorPath:
    """The O(n) response function must agree with the convolution route."""

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=repr)
    def test_weights_match_convolution_grid(self, strategy):
        # f(e) = sum_k W_k e^k against the exact count distribution
        for n in range(1, 11):
            for beta, v in ((0.2, 1.0), (0.7, 0.6), (1.3, 0.95)):
                table = werner_correlators(settings_from_beta(beta), v)
                dist = convolve_counts(joint_table(table), n)
                es = np.array([table.correlator(x, y)
                               for (x, y) in SETTING_PAIRS])
                got = binned_correlator_from_e(es, n, strategy)
                for (x, y), fast in zip(SETTING_PAIRS, got):
                    assert fast == pytest.approx(
                        binned_correlator(dist, x, y, strategy), abs=1e-12)
                assert family_chsh(beta, v, n, strategy) == pytest.approx(
                    chsh_from_counts(dist, strategy).s, abs=1e-12)

    def test_majority_sheppard_limit(self):
        # large-n majority correlator tends to (2/pi) arcsin(e)
        e = np.linspace(-0.99, 0.99, 199)
        got = binned_correlator_from_e(e, 4097, Majority())
        assert np.abs(got - 2.0 / math.pi * np.arcsin(e)).max() <= 1e-3

    def test_array_and_scalar_beta_agree(self):
        betas = np.linspace(0.01, 1.5, 37)
        for strategy in ALL_STRATEGIES:
            vec = family_chsh(betas, 0.97, 6, strategy)
            loop = [family_chsh(float(b), 0.97, 6, strategy) for b in betas]
            assert vec.shape == betas.shape
            np.testing.assert_allclose(vec, loop, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=repr)
    def test_invalid_input_rejected(self, strategy):
        with pytest.raises(InvalidArgumentError):
            family_chsh(0.3, 0.9, 0, strategy)
        with pytest.raises(InvalidArgumentError):
            family_chsh(0.3, 1.5, 3, strategy)
        with pytest.raises(InvalidArgumentError):
            family_chsh(0.3, -0.1, 3, strategy)

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=repr)
    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf,
                                      np.array([0.1, math.nan])],
                             ids=["nan", "inf", "-inf", "array-with-nan"])
    def test_non_finite_beta_rejected(self, strategy, beta):
        with pytest.raises(InvalidArgumentError, match="beta"):
            family_chsh(beta, 0.9, 3, strategy)

    def test_matches_convolution(self, rng):
        strategies = (Majority(TiePolicy.TIE_TO_MINUS),
                      Majority(TiePolicy.TIE_TO_PLUS),
                      Majority(TiePolicy.RANDOMIZED), Parity())
        for _ in range(4):
            beta = rng.uniform(0.05, 1.5)
            v = rng.uniform(0.3, 1.0)
            n = int(rng.integers(1, 9))
            table = werner_correlators(settings_from_beta(beta), v)
            dist = convolve_counts(joint_table(table), n)
            for strat in strategies:
                assert family_chsh(beta, v, n, strat) == pytest.approx(
                    chsh_from_counts(dist, strat).s, abs=1e-10)

    def test_tie_policies_differ_at_even_n(self):
        e = 0.8
        minus = binned_correlator_from_e(e, 4, Majority(TiePolicy.TIE_TO_MINUS))
        rand = binned_correlator_from_e(e, 4, Majority(TiePolicy.RANDOMIZED))
        assert minus != pytest.approx(rand, abs=1e-6)


class TestMaxChsh:
    def test_single_pair_tsirelson(self):
        res = max_chsh(1, 1.0, Parity())
        assert res.s_max == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-9)
        assert res.beta == pytest.approx(math.pi / 4.0, abs=1e-6)

    def test_parity_n12(self):
        res = max_chsh(12, 1.0, Parity())
        assert res.s_max == pytest.approx(2.336, abs=2e-3)
        assert res.beta == pytest.approx(PARITY_BETA_SCALE / math.sqrt(12),
                                         rel=0.05)

    def test_parity_large_n_asymptote(self):
        res = max_chsh(10 ** 4, 1.0, Parity())
        assert res.s_max == pytest.approx(PARITY_S_LIMIT, abs=1e-3)

    def test_full_planar_never_below_family(self):
        for n, v, strat in ((1, 1.0, Parity()), (3, 0.98, Majority()),
                            (5, 1.0, Majority())):
            fam = max_chsh(n, v, strat, SettingsMode.BETA_FAMILY)
            full = max_chsh(n, v, strat, SettingsMode.FULL_PLANAR)
            assert full.s_max >= fam.s_max - 1e-9

    @pytest.mark.parametrize("strategy", [Majority(), Parity()],
                             ids=["majority", "parity"])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_full_planar_settings_reproduce_s(self, n, strategy):
        v = 0.98
        full = max_chsh(n, v, strategy, SettingsMode.FULL_PLANAR)
        assert full.settings.theta_a1 == 0.0
        dist = convolve_counts(
            joint_table(werner_correlators(full.settings, v)), n)
        assert chsh_from_counts(dist, strategy).s == pytest.approx(
            full.s_max, abs=1e-12)
        assert full.s_max >= max_chsh(n, v, strategy).s_max - 1e-9

    def test_monotone_in_visibility(self):
        for strat in (Majority(), Parity()):
            values = [max_chsh(5, v, strat).s_max
                      for v in np.linspace(0.0, 1.0, 20)]
            assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_invalid_args(self):
        with pytest.raises(InvalidArgumentError):
            max_chsh(0, 1.0, Parity())
        with pytest.raises(InvalidArgumentError):
            max_chsh(2, 1.2, Parity())


class TestCriticalVisibility:
    def test_single_pair_threshold(self):
        for strat in (Majority(), Parity()):
            assert critical_visibility(1, strat) == pytest.approx(
                1.0 / math.sqrt(2.0), abs=2e-5)

    def test_majority_21(self):
        assert critical_visibility(21, Majority()) == pytest.approx(
            0.9735, abs=0.003)

    def test_parity_12(self):
        assert critical_visibility(12, Parity()) == pytest.approx(
            0.9871, abs=0.001)

    @pytest.mark.parametrize("width", BAD_TOLERANCES)
    @pytest.mark.parametrize("strategy", [Majority(), Parity()],
                             ids=["majority", "parity"])
    def test_bad_width_rejected(self, monkeypatch, strategy, width):
        monkeypatch.setattr(optimize, "max_chsh", _no_optimization)
        with pytest.raises(InvalidArgumentError, match="width"):
            critical_visibility(5, strategy, width=width)

    def test_parity_shortcut_vs_bisection(self):
        for n in (3, 12):
            shortcut = critical_visibility(n, Parity())
            bisect = critical_visibility_bisect(n, Parity())
            assert shortcut == pytest.approx(bisect, abs=2e-5)

    @pytest.mark.parametrize("policy", list(TiePolicy), ids=str)
    def test_majority_root_vs_bisection(self, policy):
        width = 1e-5
        strategy = Majority(policy)
        for n in (2, 3, 8, 13):
            if policy is TiePolicy.RANDOMIZED and n % 2 == 0:
                # coin-flipped ties lose the family violation at even n
                with pytest.raises(NoViolationError):
                    critical_visibility(n, strategy, width=width)
                continue
            root = critical_visibility(n, strategy, width=width)
            bisect = critical_visibility_bisect(n, strategy, width=width)
            assert abs(root - bisect) <= width


class TestCriticalPairs:
    def test_majority_9912(self):
        # the quoted 99.12% visibility is itself rounded, so allow +-2
        nc = critical_pairs(0.9912, Majority())
        assert 62 <= nc <= 66

    def test_majority_exceeds_cap_at_n4096(self):
        # probes n = 4096, where the response weights stay O(n) to build
        assert critical_pairs(0.9999, Majority()) is EXCEEDS_CAP

    def test_parity_unbounded_at_unit_visibility(self):
        assert critical_pairs(1.0, Parity(), n_max=10 ** 4) is EXCEEDS_CAP

    def test_parity_99(self):
        assert critical_pairs(0.99, Parity()) >= 14

    def test_no_violation(self):
        with pytest.raises(NoViolationError) as err:
            critical_pairs(0.5, Majority())
        assert err.value.s_max <= 2.0


class TestFitVcCurve:
    def test_recovers_generating_model(self):
        ns = range(2, 65)
        pts = [(n, 1.0 - 0.5690 / n + 0.2763 / n ** 2) for n in ns]
        fit = fit_vc_curve(pts)
        assert fit.c1 == pytest.approx(0.5690, abs=1e-10)
        assert fit.c2 == pytest.approx(0.2763, abs=1e-10)

    def test_under_determined(self):
        with pytest.raises(FitError):
            fit_vc_curve([(2, 0.9), (3, 0.92)])
        with pytest.raises(FitError):
            fit_vc_curve([(2, 0.9), (2, 0.91), (2, 0.92)])


class TestParityVcApprox:
    def test_values(self):
        assert parity_vc_approx(1) == pytest.approx(0.86037, abs=1e-4)
        assert parity_vc_approx(4) == pytest.approx(0.9651, abs=1e-4)
        assert parity_vc_approx(14) == pytest.approx(0.99003, abs=1e-5)


class TestViolationRatio:
    def test_reference_point(self):
        # independent evaluation: n_c = 13.96 -> n = 7,
        # S = 0.99^7 (3 cos^7(0.19805) - cos^7(0.59414))
        n = 7
        beta = PARITY_BETA_SCALE / math.sqrt(n)
        num = 0.99 ** n * (3 * math.cos(beta) ** n
                           - math.cos(3 * beta) ** n) - 2.0
        den = 0.99 * (3 * math.cos(PARITY_BETA_SCALE)
                      - math.cos(3 * PARITY_BETA_SCALE)) - 2.0
        assert violation_ratio(0.99) == pytest.approx(num / den, abs=1e-12)
        assert violation_ratio(0.99) == pytest.approx(0.324, abs=2e-3)

    def test_plateau_near_unit_visibility(self):
        values = [violation_ratio(v) for v in (0.996, 0.998, 0.999)]
        spread = max(values) - min(values)
        assert spread < 0.05

    def test_domain_error(self):
        with pytest.raises(InvalidArgumentError):
            violation_ratio(0.5)


class TestScanAndComparison:
    def test_scan_small_parity(self):
        curve = scan_critical_visibilities(range(1, 7), Parity())
        vcs = [vc for _, vc in curve.points]
        assert curve.monotone
        assert all(0.0 < vc <= 1.0 for vc in vcs)
        assert curve.fit is not None

    def test_comparison_n1_tie(self):
        cmp_ = binning_comparison([1.0], [1])
        (v, n, s_maj, s_par), = cmp_.rows
        assert s_maj == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-8)
        assert s_par == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-8)

    def test_majority_wins_below_crossover(self):
        cmp_ = binning_comparison([0.98], range(3, 30, 2))
        assert cmp_.winners[0][1] == "majority"

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidArgumentError):
            binning_comparison([], [2])

    def test_crossover_matches_bisection(self):
        v_values = list(np.linspace(0.988, 0.999, 23))
        n_values = list(range(3, 40, 2))
        cmp_ = binning_comparison(v_values, n_values, crossover_tol=1e-4)
        expected = crossover_bisect(v_values, n_values, crossover_tol=1e-4)
        assert cmp_.crossover is not None and expected is not None
        assert abs(cmp_.crossover - expected) <= 1e-4

    def test_each_maximum_computed_once(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return max_chsh(*args, **kwargs)

        monkeypatch.setattr(optimize, "max_chsh", counting)
        v_values, n_values = [0.97, 0.975, 0.98], [2, 3, 5]
        cmp_ = binning_comparison(v_values, n_values)
        assert cmp_.crossover is None
        assert len(calls) == 2 * len(v_values) * len(n_values)

    @pytest.mark.parametrize("tol", BAD_TOLERANCES)
    def test_bad_crossover_tol_rejected(self, monkeypatch, tol):
        monkeypatch.setattr(optimize, "max_chsh", _no_optimization)
        with pytest.raises(InvalidArgumentError, match="crossover_tol"):
            binning_comparison([0.99, 0.995], [3, 5], crossover_tol=tol)


class TestDecayLaws:
    def test_majority_sqrt_decay(self):
        ns = np.arange(5, 66, 2)
        gaps = np.array([max_chsh(int(n), 1.0, Majority()).s_max - 2.0
                         for n in ns])
        slope = np.polyfit(np.log(ns), np.log(gaps), 1)[0]
        assert -0.6 <= slope <= -0.4

    def test_parity_decay_is_linear_in_n(self):
        # contrast with the ~1/sqrt(n) majority decay: the parity
        # violation at high visibility shrinks linearly with n
        v = 0.999
        nc = critical_pairs(v, Parity(), n_max=512)
        ns = np.arange(10, nc // 2 + 1, 4)
        gaps = np.array([max_chsh(int(n), v, Parity()).s_max - 2.0
                         for n in ns])
        coef = np.polyfit(ns, gaps, 1)
        resid = np.abs(gaps - np.polyval(coef, ns)).max()
        assert coef[0] < 0.0
        assert resid < 0.1 * (gaps[0] - gaps[-1])
