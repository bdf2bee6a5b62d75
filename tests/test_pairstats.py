import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from manypairs.errors import InfeasibleStatisticsError, InvalidArgumentError
from manypairs.pairstats import (SETTING_PAIRS, CorrelatorTable,
                                 joint_table, normalize_angle,
                                 settings_from_beta, werner_correlators)

from conftest import random_feasible_table


def joint_correlator(p: np.ndarray) -> float:
    """P(a = b) - P(a != b) of one (2, 2) joint p[a, b]."""
    return float(p[0, 0] + p[1, 1] - p[0, 1] - p[1, 0])


class TestSettingsFromBeta:
    def test_zero_beta_degenerate(self):
        s = settings_from_beta(0.0)
        assert s.as_tuple() == (0.0, 0.0, 0.0, 0.0)

    def test_quarter_pi(self):
        s = settings_from_beta(math.pi / 4)
        assert s.as_tuple() == pytest.approx(
            (0.0, math.pi / 2, math.pi / 4, -math.pi / 4))

    def test_normalization_at_pi(self):
        s = settings_from_beta(math.pi)
        assert s.theta_a2 == pytest.approx(0.0, abs=1e-15)
        assert s.theta_b1 == pytest.approx(math.pi)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e308,
                                     -1e308])
    def test_non_finite_rejected(self, bad):
        # 2 * 1e308 would overflow in the settings: beta is named instead
        with pytest.raises(InvalidArgumentError,
                           match=r"^beta and 3 \* beta must be finite"):
            settings_from_beta(bad)


class TestNormalizeAngle:
    def test_canonical_range(self):
        for theta in np.linspace(-20, 20, 401):
            out = normalize_angle(float(theta))
            assert -math.pi < out <= math.pi
            assert math.isclose(math.cos(out), math.cos(theta), abs_tol=1e-12)


class TestWernerCorrelators:
    def test_tsirelson_family_point(self):
        t = werner_correlators(settings_from_beta(math.pi / 4), 1.0)
        r = 1.0 / math.sqrt(2.0)
        assert (t.e11, t.e12, t.e21, t.e22) == pytest.approx((r, r, r, -r))

    def test_fully_depolarized(self):
        t = werner_correlators(settings_from_beta(0.8), 0.0)
        assert t.e11 == t.e12 == t.e21 == t.e22 == 0.0

    def test_numeric_family_point(self):
        t = werner_correlators(settings_from_beta(0.524), 0.99)
        assert t.e11 == pytest.approx(0.99 * math.cos(0.524), abs=1e-12)
        assert t.e22 == pytest.approx(0.99 * math.cos(1.572), abs=1e-12)

    def test_family_symmetry(self):
        for beta in (0.1, 0.5, 1.2):
            for v in (0.3, 1.0):
                t = werner_correlators(settings_from_beta(beta), v)
                assert t.e11 == pytest.approx(t.e12, abs=1e-12)
                assert t.e11 == pytest.approx(t.e21, abs=1e-12)

    def test_linearity_in_visibility(self):
        s = settings_from_beta(0.37)
        full = werner_correlators(s, 1.0)
        half = werner_correlators(s, 0.5)
        for (x, y) in SETTING_PAIRS:
            assert half.correlator(x, y) == pytest.approx(
                0.5 * full.correlator(x, y), abs=1e-12)

    @pytest.mark.parametrize("v", [-0.1, 1.1, math.nan])
    def test_bad_visibility(self, v):
        with pytest.raises(InvalidArgumentError):
            werner_correlators(settings_from_beta(0.5), v)


class TestJointTable:
    def test_perfect_correlation(self):
        t = CorrelatorTable(1.0, 1.0, 1.0, 1.0)
        p = joint_table(t)[SETTING_PAIRS.index((1, 1))]
        assert p[0, 0] == pytest.approx(0.5)
        assert p[1, 1] == pytest.approx(0.5)
        assert p[0, 1] == p[1, 0] == 0.0

    def test_uniform(self):
        t = CorrelatorTable(0.0, 0.0, 0.0, 0.0)
        joint = joint_table(t)
        assert joint.shape == (4, 2, 2)
        assert np.allclose(joint, 0.25)

    def test_infeasible(self):
        t = CorrelatorTable(-1.0, 0.0, 0.0, 0.0, marg_a1=1.0)
        with pytest.raises(InfeasibleStatisticsError):
            joint_table(t)

    def test_infeasible_message_names_first_pair(self):
        t = CorrelatorTable(0.2, 0.9, 0.9, -0.9, marg_a2=0.9, marg_b1=-0.5)
        with pytest.raises(InfeasibleStatisticsError) as exc:
            joint_table(t)
        assert str(exc.value) == ("setting pair (2,1): e=0.9, margA=0.9, "
                                  "margB=-0.5 imply a negative probability "
                                  "(-3.250e-01)")

    def test_matches_cell_by_cell_formula(self, rng):
        tables = [random_feasible_table(rng) for _ in range(100)]
        # on the feasibility boundary e = 1 - |mA - mB|, cell (1, 0) of
        # pair (1, 1) rounds to -2.8e-17 and is clipped to 0
        tables.append(CorrelatorTable(1.0 - (0.3 - 0.1), 0.3, 0.1, 0.9,
                                      marg_a1=0.3, marg_b1=0.1))
        for t in tables:
            joint = joint_table(t)
            assert joint.shape == (4, 2, 2)
            assert not joint.flags.writeable
            for p, (x, y) in zip(joint, SETTING_PAIRS):
                e = t.correlator(x, y)
                ma, mb = t.marginal_a(x), t.marginal_b(y)
                want = np.empty((2, 2))
                for a in (0, 1):
                    for b in (0, 1):
                        sa = 1.0 if a == 0 else -1.0
                        sb = 1.0 if b == 0 else -1.0
                        want[a, b] = max((1.0 + sa * ma + sb * mb
                                          + sa * sb * e) / 4.0, 0.0)
                assert np.array_equal(p, want)
                assert np.all(p >= 0.0)
                assert not p.flags.writeable

    def test_round_trip_random_tables(self, rng):
        for _ in range(50):
            t = random_feasible_table(rng)
            for p, (x, y) in zip(joint_table(t), SETTING_PAIRS):
                assert p.sum() == pytest.approx(1.0, abs=1e-12)
                assert joint_correlator(p) == pytest.approx(
                    t.correlator(x, y), abs=1e-12)
                marg_a = p[0, :].sum() - p[1, :].sum()
                marg_b = p[:, 0].sum() - p[:, 1].sum()
                assert marg_a == pytest.approx(t.marginal_a(x), abs=1e-12)
                assert marg_b == pytest.approx(t.marginal_b(y), abs=1e-12)

    @given(e=st.floats(-1.0, 1.0), m=st.floats(-0.2, 0.2))
    def test_round_trip_property(self, e, m):
        lo = -1.0 + abs(2 * m)
        hi = 1.0
        if not lo <= e <= hi:
            return
        t = CorrelatorTable(e, e, e, e, marg_a1=m, marg_a2=m,
                            marg_b1=m, marg_b2=m)
        assert joint_correlator(joint_table(t)[0]) == pytest.approx(
            e, abs=1e-12)


class TestSerialization:
    def test_json_round_trip(self, rng):
        t = random_feasible_table(rng)
        d = json.loads(json.dumps(t.to_json_dict()))
        assert CorrelatorTable.from_json_dict(d) == t

    @pytest.mark.parametrize("d", [
        5, [0.5, 0.5, 0.5, 0.5], {}, {"e11": 0.5, "e12": 0, "e21": 0},
        {"e11": 10 ** 400, "e12": 0, "e21": 0, "e22": 0},
        {"e11": "0.5", "e12": 0, "e21": 0, "e22": 0},
        {"e11": True, "e12": 0, "e21": 0, "e22": 0},
        {"e11": 0.5, "e12": 0, "e21": 0, "e22": 0, "margA1": None},
        {"e11": 2, "e12": 0, "e21": 0, "e22": 0},
    ], ids=["number", "list", "empty", "missing-e22", "huge-integer",
            "string", "bool", "null-marginal", "out-of-range"])
    def test_malformed_json_dict_rejected(self, d):
        with pytest.raises(InvalidArgumentError):
            CorrelatorTable.from_json_dict(d)

    def test_json_keys(self):
        keys = set(CorrelatorTable(0, 0, 0, 0).to_json_dict())
        assert keys == {"e11", "e12", "e21", "e22",
                        "margA1", "margA2", "margB1", "margB2"}


class TestValidation:
    def test_out_of_range_correlator(self):
        with pytest.raises(InvalidArgumentError):
            CorrelatorTable(1.5, 0, 0, 0)

    def test_settings_immutable(self):
        s = settings_from_beta(0.3)
        with pytest.raises(Exception):
            s.theta_a1 = 1.0
