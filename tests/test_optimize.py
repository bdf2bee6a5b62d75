import math

import numpy as np
import pytest

from manypairs import optimize
from manypairs.binning import (PARITY_BETA_SCALE, PARITY_S_LIMIT, Majority,
                               Parity, TiePolicy, table_chsh)
from manypairs.errors import (ConvergenceError, FitError,
                              InvalidArgumentError, NoViolationError)
from manypairs.optimize import (EXCEEDS_CAP, binned_correlator_from_e,
                                binning_comparison, critical_pairs,
                                critical_visibility, family_chsh,
                                fit_vc_curve, max_chsh, parity_vc_approx,
                                scan_critical_visibilities, violation_ratio)
from manypairs.pairstats import (SETTING_PAIRS, settings_from_beta,
                                 werner_correlators)

from conftest import (bfgs_full_planar_maximum, brent_family_maximum,
                      brentq_crossover, critical_pairs_bisect,
                      critical_visibility_bisect, crossover_bisect,
                      direct_binned_correlator, hessian_of_terms,
                      planar_chsh, planar_chsh_gradient, planar_hessian)


ALL_STRATEGIES = (Majority(TiePolicy.TIE_TO_MINUS),
                  Majority(TiePolicy.TIE_TO_PLUS),
                  Majority(TiePolicy.RANDOMIZED), Parity())

BAD_TOLERANCES = (0.0, -1.0, math.nan, math.inf)


def _no_optimization(*args, **kwargs):
    raise AssertionError("max_chsh called before the arguments were checked")


class TestFastCorrelatorPath:
    """The O(n) response function must agree with `table_chsh`."""

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=repr)
    def test_weights_match_table_chsh_grid(self, strategy):
        # f(e) = sum_k W_k e^k against the exact count statistics
        for n in list(range(1, 11)) + [63, 64, 255, 256, 1023, 1024]:
            for beta, v in ((0.2, 1.0), (0.7, 0.6), (1.3, 0.95),
                            (0.03, 0.999)):
                table = werner_correlators(settings_from_beta(beta), v)
                exact = table_chsh(table, n, strategy)
                es = np.array([table.correlator(x, y)
                               for (x, y) in SETTING_PAIRS])
                got = binned_correlator_from_e(es, n, strategy)
                assert got == pytest.approx(exact.correlators, abs=1e-12)
                assert family_chsh(beta, v, n, strategy) == pytest.approx(
                    exact.s, abs=1e-12)

    @pytest.mark.parametrize("n, strategy", [
        (4095, Majority()), (4096, Majority(TiePolicy.TIE_TO_MINUS)),
        (4096, Majority(TiePolicy.RANDOMIZED)), (4096, Parity())], ids=str)
    def test_matches_table_chsh_at_cap(self, n, strategy):
        # n = 4096 is the largest pair count that critical_pairs probes
        beta, v = 0.01, 0.9999
        table = werner_correlators(settings_from_beta(beta), v)
        exact = table_chsh(table, n, strategy).s
        assert abs(exact) > 0.1
        assert family_chsh(beta, v, n, strategy) == pytest.approx(
            exact, abs=1e-12)

    @pytest.mark.parametrize("n, strategy", [
        (4095, Majority()), (4096, Majority(TiePolicy.TIE_TO_MINUS)),
        (4096, Majority(TiePolicy.RANDOMIZED)), (4096, Parity())], ids=str)
    def test_negative_correlator_at_cap(self, n, strategy):
        # cos(3 beta) is near -1, so the (a2, b2) correlator is negative
        # and the odd levels must carry its sign
        beta, v = math.pi / 3.0 - 0.01, 0.9999
        table = werner_correlators(settings_from_beta(beta), v)
        es = np.array([table.correlator(x, y) for (x, y) in SETTING_PAIRS])
        assert es.min() < -0.99
        exact = table_chsh(table, n, strategy)
        got = binned_correlator_from_e(es, n, strategy)
        assert got == pytest.approx(exact.correlators, abs=1e-12)
        assert family_chsh(beta, v, n, strategy) == pytest.approx(
            exact.s, abs=1e-12)

    @pytest.mark.parametrize("strategy, ns", [
        (Majority(), range(1, 1025, 2)),
        (Majority(TiePolicy.RANDOMIZED), range(2, 1025, 2)),
        (Parity(), range(1, 1025))], ids=["majority", "randomized", "parity"])
    def test_exact_sign_symmetry(self, strategy, ns):
        # the odd levels carry the sign, so f(-e) = -f(e) for an odd
        # function and (-1)^n f(e) for parity, bit for bit
        e = np.linspace(0.0, 1.0, 17)
        for n in ns:
            sign = (-1.0) ** n if isinstance(strategy, Parity) else -1.0
            np.testing.assert_array_equal(
                binned_correlator_from_e(-e, n, strategy),
                sign * binned_correlator_from_e(e, n, strategy),
                err_msg=f"n = {n}")

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=repr)
    @pytest.mark.parametrize("n", [64, 65, 1023, 1024, 4095, 4096])
    def test_power_split_matches_full_power_table(self, n, strategy):
        # each |e|^k is taken as |e|^r |e|^q, r a residue and q a block
        # multiple; the oracle takes every power on its own
        e = np.concatenate([np.linspace(-1.0, 1.0, 201),
                            [-1e-300, 1e-300, 0.0, -0.0]])
        np.testing.assert_allclose(
            binned_correlator_from_e(e, n, strategy),
            direct_binned_correlator(e, n, strategy), rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3, 12, 13, 64, 65, 1024, 1025])
    def test_parity_is_one_power(self, n):
        # parity's polynomial has a single row, so e^n is |e|^n with the
        # sign of e for odd n, bit for bit: the matrix product and the
        # one-block sum add no rounding.  numpy rounds |e|^2 one way in
        # an exponent array of one row and another way in the
        # polynomial's longer one, so |e|^n is taken as the polynomial
        # takes it.
        e = np.concatenate([np.linspace(-1.0, 1.0, 2001),
                            [-1e-300, 1e-300, 0.0, -0.0, -0.7, 0.7]])
        polynomial = optimize._response_polynomial(n, Parity())
        assert polynomial.powers[0, 0] == n
        power = np.power(np.abs(e)[None], polynomial.powers)[0]
        want = np.copysign(power, e if n % 2 else 1.0)
        assert np.array_equal(binned_correlator_from_e(e, n, Parity()),
                              want)
        for x, value in zip(e[-6:], want[-6:]):
            assert binned_correlator_from_e(x, n, Parity()) == value

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
                                      np.array([0.1, math.nan]), 1e308,
                                      -1e308, np.array([0.1, 1e308])],
                             ids=["nan", "inf", "-inf", "array-with-nan",
                                  "triple-overflows", "-triple-overflows",
                                  "array-triple-overflows"])
    def test_non_finite_beta_rejected(self, strategy, beta):
        with pytest.raises(InvalidArgumentError, match="beta"):
            family_chsh(beta, 0.9, 3, strategy)

    def test_matches_table_chsh(self, rng):
        strategies = (Majority(TiePolicy.TIE_TO_MINUS),
                      Majority(TiePolicy.TIE_TO_PLUS),
                      Majority(TiePolicy.RANDOMIZED), Parity())
        for _ in range(4):
            beta = rng.uniform(0.05, 1.5)
            v = rng.uniform(0.3, 1.0)
            n = int(rng.integers(1, 9))
            table = werner_correlators(settings_from_beta(beta), v)
            for strat in strategies:
                assert family_chsh(beta, v, n, strat) == pytest.approx(
                    table_chsh(table, n, strat).s, abs=1e-10)

    def test_tie_policies_differ_at_even_n(self):
        e = 0.8
        minus = binned_correlator_from_e(e, 4, Majority(TiePolicy.TIE_TO_MINUS))
        rand = binned_correlator_from_e(e, 4, Majority(TiePolicy.RANDOMIZED))
        assert minus != pytest.approx(rand, abs=1e-6)


class TestResponseDerivatives:
    """f, f' and f'' of the response polynomial, which drive every Newton
    step, the family's beta and the critical visibility, and the planar
    certificate."""

    E = np.array([-0.99, -0.3, 0.0, 0.4, 0.999])
    NS = list(range(1, 9)) + [63, 64, 255, 256, 1023, 1024, 4095, 4096]

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=repr)
    def test_direct_sums(self, strategy):
        # sum_k k!/(k-o)! W_k e^(k-o), term by term at the signed e
        for n in self.NS:
            levels, split = optimize._response_weights(n, strategy)
            weights = split.sum(axis=1)
            got = optimize._response_derivatives(self.E, n, strategy)
            for order in range(3):
                keep = levels >= order
                k = levels[keep]
                coef = weights[keep] * np.prod(
                    [k - j for j in range(order)], axis=0)
                terms = coef * np.power.outer(self.E, k - order)
                np.testing.assert_allclose(
                    got[order], terms.sum(axis=1), rtol=0.0,
                    atol=1e-12 * max(1.0, np.abs(terms).sum(axis=1).max()),
                    err_msg=f"n = {n}, order {order}")

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=repr)
    def test_central_differences(self, strategy):
        def f(e):
            return binned_correlator_from_e(e, n, strategy)

        for n in self.NS:
            # the differences' truncation error grows as (n h)^2, so the
            # step shrinks past n = 1024
            h = 1e-5 * min(1.0, 1024 / n)
            got = optimize._response_derivatives(self.E, n, strategy)
            np.testing.assert_allclose(got[0], f(self.E), rtol=0.0,
                                       atol=1e-14)
            slope = (f(self.E + h) - f(self.E - h)) / (2.0 * h)
            curve = (f(self.E + h) - 2.0 * f(self.E) + f(self.E - h)) / h**2
            for order, fd in ((1, slope), (2, curve)):
                np.testing.assert_allclose(
                    got[order], fd, rtol=0.0,
                    atol=1e-4 * max(1.0, np.abs(fd).max()),
                    err_msg=f"n = {n}, order {order}")

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=repr)
    @pytest.mark.parametrize("n", [2, 3, 5, 64])
    def test_planar_hessian_at_the_family_optimum(self, n, strategy):
        # central differences of S from the Werner correlators of the four
        # angles, a route that shares no code with the closed form; the
        # second differences are Richardson-extrapolated from steps h and
        # h/2, which cancels their h^2 error
        v, h, h2 = 0.97, 1e-6, 4e-4
        family = max_chsh(n, v, strategy)
        theta = np.array(family.settings.as_tuple()[1:])

        def s_of(t):
            return planar_chsh(t, v, n, strategy)

        def second_differences(step):
            e = step * np.eye(3)
            return np.array([[(s_of(theta + a + b) - s_of(theta + a - b)
                               - s_of(theta - a + b) + s_of(theta - a - b))
                              / (4.0 * step ** 2) for b in e] for a in e])

        fd_grad = [(s_of(theta + e) - s_of(theta - e)) / (2.0 * h)
                   for e in h * np.eye(3)]
        np.testing.assert_allclose(fd_grad, 0.0, rtol=0.0, atol=1e-7)
        fd_hess = (4.0 * second_differences(h2 / 2.0)
                   - second_differences(h2)) / 3.0
        np.testing.assert_allclose(
            planar_hessian(family.beta, v, n, strategy), fd_hess,
            rtol=0.0, atol=1e-6)

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=repr)
    def test_family_derivatives(self, strategy):
        # central differences of family_chsh, a route that shares no
        # derivative code with the kernel; the second differences take a
        # wider step, as their rounding error grows as 1/h^2
        v, h, h2 = 0.97, 1e-6, 1e-4
        for n in (3, 8, 64):
            def s_of(b, vis=v):
                return family_chsh(b, vis, n, strategy)

            for beta in (0.05, 0.4, 1.2):
                got = optimize._chsh_derivatives(beta, v, n, strategy)
                assert all(type(x) is float for x in got)
                s, slope, curvature, s_v, slope_v, _ = got
                assert s == pytest.approx(s_of(beta), abs=1e-13)
                assert slope == pytest.approx(
                    (s_of(beta + h) - s_of(beta - h)) / (2.0 * h), abs=1e-7)
                assert s_v == pytest.approx(
                    (s_of(beta, v + h) - s_of(beta, v - h)) / (2.0 * h),
                    abs=1e-7)
                fd_curvature = (s_of(beta + h2) - 2.0 * s_of(beta)
                                + s_of(beta - h2)) / h2 ** 2
                fd_slope_v = (s_of(beta + h2, v + h2) - s_of(beta + h2, v - h2)
                              - s_of(beta - h2, v + h2)
                              + s_of(beta - h2, v - h2)) / (4.0 * h2 ** 2)
                for value, fd in ((curvature, fd_curvature),
                                  (slope_v, fd_slope_v)):
                    assert value == pytest.approx(
                        fd, abs=1e-4 * max(1.0, abs(fd))), (n, beta)

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=repr)
    def test_family_is_planar_s_on_its_line(self, strategy):
        # the family's settings (0, 2b, b, -b) are theta = b (2, 1, -1) of
        # the planar angles, so the family's S and beta-derivatives are
        # the planar ones along that line; the Hessian's a is half its
        # middle entry
        v, line = 0.97, np.array([2.0, 1.0, -1.0])
        for n in (3, 8, 64):
            for beta in (0.05, 0.4, 1.2):
                s, slope, curvature, _, _, a = optimize._chsh_derivatives(
                    beta, v, n, strategy)
                hess = planar_hessian(beta, v, n, strategy)
                for got, planar in (
                        (s, planar_chsh(beta * line, v, n, strategy)),
                        (slope, planar_chsh_gradient(beta * line, v, n,
                                                     strategy) @ line),
                        (curvature, line @ hess @ line),
                        (a, hess[1, 1] / 2.0)):
                    assert got == pytest.approx(planar, abs=1e-12), (n, beta)


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

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=repr)
    @pytest.mark.parametrize("n", [1, 2, 3, 13, 64, 257, 1024])
    def test_newton_refinement_matches_bounded_brent(self, n, strategy):
        for v in (0.9, 0.99, 1.0):
            res = max_chsh(n, v, strategy)
            assert res.s_max == pytest.approx(
                brent_family_maximum(n, v, strategy), abs=1e-12), v
            assert res.converged
            assert res.evaluations <= (optimize._GRID_POINTS
                                       + optimize._NEWTON_STEPS)

    def test_newton_stops_on_a_grid_optimum(self):
        # majority n = 3 peaks at beta = pi/4, which is a grid point, so
        # the first step is below tolerance
        for v in (0.9, 1.0):
            res = max_chsh(3, v, Majority())
            assert res.beta == pytest.approx(math.pi / 4.0, abs=1e-12)
            assert res.evaluations == optimize._GRID_POINTS + 1

    @pytest.mark.parametrize("strategy", [Majority(), Parity()],
                             ids=["majority", "parity"])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_settings_reproduce_s(self, n, strategy):
        v = 0.98
        res = max_chsh(n, v, strategy)
        assert res.settings.theta_a1 == 0.0
        assert res.converged
        table = werner_correlators(res.settings, v)
        assert table_chsh(table, n, strategy).s == pytest.approx(
            res.s_max, abs=1e-12)

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=repr)
    def test_full_planar_matches_bfgs(self, strategy):
        # scipy's BFGS on the planar S alone, from the family optimum and
        # 8 perturbations of it, finds nothing above the certified
        # family optimum
        for n in range(1, 12):
            for v in (0.0, 1e-3, 0.8, 0.9, 0.97, 0.99, 0.995, 1.0):
                res = max_chsh(n, v, strategy)
                oracle = bfgs_full_planar_maximum(n, v, strategy)
                assert res.s_max == pytest.approx(oracle, abs=1e-12), (n, v)
                assert res.converged, (n, v)

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=repr)
    @pytest.mark.parametrize("ns, vs", [
        (list(range(1, 26)) + [64, 257, 1024],
         np.linspace(0.0, 1.0, 10).tolist()),
        ([512, 1000, 2048, 4095, 4096], [0.5, 0.9, 0.999, 0.9999, 1.0]),
    ], ids=["n-1-to-1024", "n-512-to-4096"])
    def test_full_planar_certifies_the_family_optimum(self, monkeypatch,
                                                      strategy, ns, vs):
        # the certificate costs no evaluation beyond the grid and the
        # Newton steps, its sign tests give the verdict of the oracle
        # Hessian's eigenvalues, and those are all clearly negative, or
        # all 0 at V = 0
        calls = []
        derivatives = optimize._chsh_derivatives

        def counting(*args):
            calls.append(args)
            return derivatives(*args)

        monkeypatch.setattr(optimize, "_chsh_derivatives", counting)
        for n in ns:
            for v in vs:
                calls.clear()
                res = max_chsh(n, v, strategy)
                assert res.evaluations == optimize._GRID_POINTS + len(calls)
                assert res.converged, (n, v)
                _, _, curvature, _, _, a = derivatives(res.beta, v, n,
                                                       strategy)
                hess = planar_hessian(res.beta, v, n, strategy)
                lam = np.linalg.eigvalsh(hess)
                assert optimize._planar_maximum(curvature, a) == (
                    lam.max() <= 0.0), (n, v)
                if v == 0.0:
                    assert not hess.any()
                elif hess.any():  # parity's V^n underflows at large n
                    assert lam.max() <= -0.05 * np.abs(lam).max(), (n, v)

    def test_sign_test_is_the_eigenvalue_test_on_random_terms(self):
        # d2S/dbeta2 = 3 (a + 3 b) along the family line
        rng = np.random.default_rng(20261020)
        terms = rng.normal(size=(20000, 2)) * 10.0 ** rng.uniform(
            -6.0, 3.0, size=(20000, 1))
        verdicts = [
            (optimize._planar_maximum(3.0 * (a + 3.0 * b), a),
             np.linalg.eigvalsh(hessian_of_terms(a, b)).max() <= 0.0)
            for a, b in terms.tolist() + [[0.0, 0.0]]]
        assert all(sign == eigen for sign, eigen in verdicts)
        # both verdicts are drawn
        assert 0 < sum(sign for sign, _ in verdicts) < len(verdicts)

    def test_winning_grid_point_is_certified(self, monkeypatch):
        # a grid lifted above every Newton point is returned, and the
        # certificate is read at its best point, one evaluation more: a
        # saddle there alone is not converged
        family, derivatives = optimize.family_chsh, optimize._chsh_derivatives
        calls = []

        def counting(beta, v, n, strategy):
            calls.append(beta)
            values = derivatives(beta, v, n, strategy)
            return values[:5] + (1e-9,) if beta == calls[0] else values

        monkeypatch.setattr(optimize, "family_chsh",
                            lambda *args: family(*args) + 1.0)
        monkeypatch.setattr(optimize, "_chsh_derivatives", counting)
        res = max_chsh(5, 0.99, Majority())
        assert res.beta == calls[0] == calls[-1] != calls[-2]
        assert res.beta in optimize._GRID
        assert res.evaluations == optimize._GRID_POINTS + len(calls)
        assert not res.converged

    def test_positive_eigenvalue_is_not_converged(self, monkeypatch):
        # a saddle of the planar S is no maximum, and no critical
        # visibility is confirmed on one: not at V = 1, and not at the
        # root when only the maxima below V = 1 are saddles.  A positive
        # a is a positive eigenvalue off the family line.
        derivatives = optimize._chsh_derivatives

        def saddle(beta, v, n, strategy):
            return derivatives(beta, v, n, strategy)[:5] + (1e-9,)

        for strategy in (Majority(), Parity()):
            assert max_chsh(5, 0.99, strategy).converged
            assert critical_visibility(5, strategy) > 0.0
        monkeypatch.setattr(optimize, "_chsh_derivatives", saddle)
        for strategy in (Majority(), Parity()):
            assert not max_chsh(5, 0.99, strategy).converged
            with pytest.raises(ConvergenceError, match="n=5"):
                critical_visibility(5, strategy)
        monkeypatch.setattr(
            optimize, "_chsh_derivatives",
            lambda beta, v, n, strategy: (
                derivatives if v == 1.0 else saddle)(beta, v, n, strategy))
        assert max_chsh(5, 1.0, Majority()).converged
        with pytest.raises(ConvergenceError,
                           match="no critical visibility found for n=5"):
            critical_visibility(5, Majority())

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

    @pytest.mark.parametrize("strategy", [Majority(), Parity()],
                             ids=["majority", "parity"])
    def test_returns_a_float(self, strategy):
        assert type(critical_visibility(3, strategy)) is float

    def test_majority_21(self):
        assert critical_visibility(21, Majority()) == pytest.approx(
            0.9735, abs=0.003)

    def test_parity_12(self):
        assert critical_visibility(12, Parity()) == pytest.approx(
            0.9871, abs=0.001)

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
                    critical_visibility(n, strategy)
                continue
            root = critical_visibility(n, strategy)
            bisect = critical_visibility_bisect(n, strategy, width=width)
            assert abs(root - bisect) <= width

    @pytest.mark.parametrize("policy", list(TiePolicy), ids=str)
    def test_majority_root_pinned_to_fine_bisection(self, policy):
        strategy = Majority(policy)
        for n in (2, 3, 8, 13, 64):
            if policy is TiePolicy.RANDOMIZED and n % 2 == 0:
                continue
            root = critical_visibility(n, strategy)
            bisect = critical_visibility_bisect(n, strategy, width=1e-10)
            assert abs(root - bisect) <= 1e-9, n
            assert max_chsh(n, root, strategy).s_max == pytest.approx(
                2.0, abs=1e-12), n

    def test_newton_restarts_from_a_better_setting(self, monkeypatch):
        # a first "root" at V = 0.99, where other settings still violate,
        # sends Newton's method off again from those settings.  Its last
        # ulp depends on where it starts, so the expected root is the one
        # found from the restart's own start.
        starts = []
        newton = optimize._threshold_newton

        def first_root_wrong(n, strategy, beta, visibility):
            starts.append(visibility)
            if len(starts) == 1:
                return beta, 0.99, True
            return newton(n, strategy, beta, visibility)

        expected = newton(13, Majority(), max_chsh(13, 0.99, Majority()).beta,
                          0.99)[1]
        monkeypatch.setattr(optimize, "_threshold_newton", first_root_wrong)
        assert critical_visibility(13, Majority()) == expected
        assert starts[1] == 0.99

    def test_no_confirmed_root_raises(self, monkeypatch):
        monkeypatch.setattr(optimize, "_threshold_newton",
                            lambda n, strategy, beta, visibility:
                            (beta, visibility, False))
        with pytest.raises(ConvergenceError, match="n=5"):
            critical_visibility(5, Majority())


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

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=repr)
    @pytest.mark.parametrize("v", [0.5, 0.7, 0.707])
    def test_no_violation(self, strategy, v):
        # the n = 1 probe refines, so the error carries max_chsh's s_max
        with pytest.raises(NoViolationError) as err:
            critical_pairs(v, strategy)
        with pytest.raises(NoViolationError) as oracle:
            critical_pairs_bisect(v, strategy)
        assert err.value.s_max == oracle.value.s_max <= 2.0

    @pytest.mark.parametrize("n_max", [0, -3, 2.5, 64.0, "64", None])
    def test_bad_n_max_rejected(self, monkeypatch, n_max):
        # a probe evaluates the grid before it may refine
        monkeypatch.setattr(optimize, "family_chsh", _no_optimization)
        monkeypatch.setattr(optimize, "max_chsh", _no_optimization)
        with pytest.raises(InvalidArgumentError, match="n_max"):
            critical_pairs(0.99, Parity(), n_max=n_max)

    def test_smallest_n_max(self):
        assert critical_pairs(0.99, Parity(), n_max=1) is EXCEEDS_CAP
        assert critical_pairs(0.99, Parity(), n_max=np.int64(4)) is EXCEEDS_CAP

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=repr)
    def test_matches_max_chsh_bisection(self, strategy):
        # the grid decides only probes whose max_chsh is above 2 anyway
        # n_max = 512 at the top two visibilities is EXCEEDS_CAP for all
        # but randomized ties, which lose the violation at n = 2
        cases = [(v, 4096) for v in np.linspace(0.95, 0.9995, 24).tolist()]
        for v, n_max in cases + [(0.9999, 512), (1.0, 512)]:
            assert critical_pairs(v, strategy, n_max) == critical_pairs_bisect(
                v, strategy, n_max), v

    @pytest.mark.parametrize("strategy", [Majority(), Parity()],
                             ids=["majority", "parity"])
    def test_grid_decided_probe_skips_newton(self, monkeypatch, strategy):
        # a probe whose grid maximum exceeds 2 takes no derivative and
        # asks for no derivative table; the others refine
        family, derivatives = optimize.family_chsh, optimize._chsh_derivatives
        table = optimize._derivative_polynomial
        grid, newton, tables = {}, [], []

        def grid_values(beta, v, n, s):
            vals = family(beta, v, n, s)
            grid[n] = vals.max()
            return vals

        def counting_derivatives(beta, v, n, s):
            newton.append(n)
            return derivatives(beta, v, n, s)

        def counting_table(n, s):
            tables.append(n)
            return table(n, s)

        monkeypatch.setattr(optimize, "family_chsh", grid_values)
        monkeypatch.setattr(optimize, "_chsh_derivatives",
                            counting_derivatives)
        monkeypatch.setattr(optimize, "_derivative_polynomial",
                            counting_table)
        for v in (0.98, 0.99, 0.999):
            for record in (grid, newton, tables):
                record.clear()
            critical_pairs(v, strategy)
            decided = {n for n, top in grid.items() if top > 2.0}
            assert decided and not decided & (set(newton) | set(tables))
            assert set(newton) == set(tables) == set(grid) - decided != set()


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

    @pytest.mark.parametrize("width", BAD_TOLERANCES)
    @pytest.mark.parametrize("strategy", [Majority(), Parity()],
                             ids=["majority", "parity"])
    def test_bad_width_rejected(self, monkeypatch, strategy, width):
        monkeypatch.setattr(optimize, "max_chsh", _no_optimization)
        with pytest.raises(InvalidArgumentError, match="width"):
            scan_critical_visibilities([5], strategy, width=width)

    def test_comparison_n1_tie(self):
        cmp_ = binning_comparison([1.0], [1])
        (v, n, s_maj, s_par), = cmp_.rows
        assert s_maj == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-8)
        assert s_par == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-8)
        # at n = 1 both binnings are the identity, so neither can win
        assert s_maj == s_par
        assert cmp_.winners == ((1.0, "tie"),)
        assert cmp_.crossover is None

    def test_majority_wins_below_crossover(self):
        cmp_ = binning_comparison([0.98], range(3, 30, 2))
        assert cmp_.winners[0][1] == "majority"

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidArgumentError):
            binning_comparison([], [2])

    def test_crossover_matches_bisection(self):
        v_values = list(np.linspace(0.988, 0.999, 23))
        n_values = list(range(3, 40, 2))
        cmp_ = binning_comparison(v_values, n_values)
        expected = crossover_bisect(v_values, n_values, crossover_tol=1e-4)
        assert cmp_.crossover is not None and expected is not None
        assert abs(cmp_.crossover - expected) <= 1e-4

    @pytest.mark.parametrize("v_values, n_values", [
        ([0.99, 0.999], [3, 9]),
        ([0.988, 0.9885, 0.999], [3, 5, 7, 9, 11]),
        ([0.99, 0.999], [3, 5]),
    ], ids=["3-9", "3-to-11", "3-5"])
    def test_crossover_matches_brentq(self, v_values, n_values):
        cmp_ = binning_comparison(v_values, n_values)
        expected = brentq_crossover(v_values, n_values)
        assert cmp_.crossover is not None and expected is not None
        assert abs(cmp_.crossover - expected) <= 1e-9

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
