import math

import numpy as np
import pytest

from manypairs.errors import InfeasibleStatisticsError, InvalidArgumentError
from manypairs.pairstats import (SETTING_PAIRS, CorrelatorTable,
                                 settings_from_beta, werner_correlators)
from manypairs.simulate import (DetectorModel, PERFECT_DETECTORS, EventStream,
                                generate_run, generate_symmetrized,
                                stream_seed, variant_inversions, write_csv,
                                write_jsonl)
from manypairs.analyze import logical_bits, read_csv, read_jsonl
from manypairs.cli import main

from conftest import (choice_generate_run, random_feasible_table,
                      write_csv_lines, write_jsonl_lines)


def empirical_correlator(stream: EventStream) -> float:
    agree = (stream.a == stream.b).mean()
    return 2.0 * float(agree) - 1.0


class TestGenerateRun:
    def test_perfect_correlation(self):
        t = CorrelatorTable(1.0, 1.0, 1.0, 1.0)
        s = generate_run(t, (1, 1), 1000, seed=3)
        assert np.all(s.a == s.b)

    def test_empirical_correlator_bound(self):
        e = 0.9
        n_events = 200_000
        t = CorrelatorTable(e, e, e, e)
        s = generate_run(t, (2, 1), n_events, seed=11)
        bound = 4.0 * math.sqrt((1.0 - e * e) / n_events)
        assert abs(empirical_correlator(s) - e) < bound

    def test_thinning_biases_marginal(self):
        t = CorrelatorTable(0.0, 0.0, 0.0, 0.0)
        det = DetectorModel(eta_t_a=0.5)
        s = generate_run(t, (1, 1), 100_000, detector=det, seed=4)
        # a=0 port at half efficiency: survivors lean to a=1
        assert s.a.mean() > 0.6

    def test_determinism(self):
        t = werner_correlators(settings_from_beta(0.4), 0.95)
        s1 = generate_run(t, (1, 2), 5000, seed=42)
        s2 = generate_run(t, (1, 2), 5000, seed=42)
        assert np.array_equal(s1.a, s2.a)
        assert np.array_equal(s1.b, s2.b)

    def test_seed_splitting_rule(self):
        assert stream_seed(7, 0, (1, 1)) == 7
        assert stream_seed(7, 2, (2, 1)) == 7 + 2 * 10 ** 9 + 2

    def test_infeasible_table_propagates(self):
        t = CorrelatorTable(-1.0, 0, 0, 0, marg_a1=1.0)
        with pytest.raises(InfeasibleStatisticsError):
            generate_run(t, (1, 1), 10, seed=0)

    @pytest.mark.parametrize("seed", [-1, -10 ** 9])
    def test_negative_seed_rejected(self, seed):
        t = CorrelatorTable(0, 0, 0, 0)
        with pytest.raises(InvalidArgumentError, match="seed"):
            generate_run(t, (2, 1), 10, seed=seed, basis_variant=3)

    def test_invalid_event_count(self):
        t = CorrelatorTable(0, 0, 0, 0)
        with pytest.raises(InvalidArgumentError):
            generate_run(t, (1, 1), 0, seed=0)

    def test_discard_hook_thins_uniformly(self):
        t = CorrelatorTable(0.0, 0.0, 0.0, 0.0)
        s = generate_run(t, (1, 1), 50_000, seed=8, discard_prob=0.5)
        assert 23_000 < len(s) < 27_000
        assert abs(s.a.mean() - 0.5) < 0.02  # no bias introduced

    def test_chi_square_goodness_of_fit(self, rng):
        from scipy.stats import chi2
        e = 0.6
        t = CorrelatorTable(e, e, e, e)
        n_events = 1_000_000
        s = generate_run(t, (2, 2), n_events, seed=13)
        counts = np.zeros((2, 2))
        for a in (0, 1):
            for b in (0, 1):
                counts[a, b] = np.sum((s.a == a) & (s.b == b))
        expected = n_events * np.array([[(1 + e) / 4, (1 - e) / 4],
                                        [(1 - e) / 4, (1 + e) / 4]])
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stat < chi2.ppf(1.0 - 1e-4, df=3)


#: Detector models and discard probabilities the oracle pins: trivial
#: detectors, one thinned port, and every port thinned with discards.
THINNING = [(PERFECT_DETECTORS, 0.0), (DetectorModel(eta_t_a=0.8), 0.0),
            (DetectorModel(0.8, 0.9, 0.7, 0.95), 0.1)]


class TestChoiceOracle:
    """`generate_run` draws the streams of `Generator.choice` bit for bit."""

    @pytest.mark.parametrize("detector, discard_prob", THINNING,
                             ids=["trivial", "eta_t_a", "all_ports"])
    @pytest.mark.parametrize("variant", range(4))
    def test_matches_choice_oracle(self, detector, discard_prob, variant):
        tables = [werner_correlators(settings_from_beta(0.151), 0.9871),
                  random_feasible_table(np.random.default_rng(3)),
                  # zero-probability categories: equal cdf values
                  CorrelatorTable(1.0, -1.0, 0.0, 1.0, marg_a1=0.0)]
        for table in tables:
            for sp in SETTING_PAIRS:
                args = (table, sp, 5000, detector)
                kwargs = dict(seed=21, basis_variant=variant,
                              discard_prob=discard_prob,
                              extra_meta={"beta": 0.151})
                got = generate_run(*args, **kwargs)
                want = choice_generate_run(*args, **kwargs)
                assert got.a.dtype == got.b.dtype == np.uint8
                assert np.array_equal(got.a, want.a)
                assert np.array_equal(got.b, want.b)
                assert got.meta == want.meta

    @pytest.mark.parametrize("write, suffix", [(write_jsonl, ".jsonl"),
                                               (write_csv, ".csv")],
                             ids=["jsonl", "csv"])
    def test_simulate_writes_the_oracle_bytes(self, tmp_path, capsys, write,
                                              suffix):
        beta, v = 0.151, 0.9871
        path, want = tmp_path / f"got{suffix}", tmp_path / f"want{suffix}"
        assert main(["simulate", "--beta", str(beta), "--v", str(v),
                     "--events", "3000", "--seed", "77", "--symmetrize",
                     "--eta-t-a", "0.8", "--eta-r-b", "0.9",
                     "--discard-prob", "0.1", "--out", str(path)]) == 0
        capsys.readouterr()
        table = werner_correlators(settings_from_beta(beta), v)
        detector = DetectorModel(eta_t_a=0.8, eta_r_b=0.9)
        write([choice_generate_run(table, sp, 3000, detector, seed=77,
                                   basis_variant=variant, discard_prob=0.1,
                                   extra_meta={"beta": beta,
                                               "visibility": v})
               for sp in SETTING_PAIRS for variant in range(4)], want)
        assert path.read_bytes() == want.read_bytes()


class TestSymmetrized:
    def test_variant_inversion_map(self):
        assert variant_inversions(0) == (False, False)
        assert variant_inversions(1) == (True, False)
        assert variant_inversions(2) == (False, True)
        assert variant_inversions(3) == (True, True)
        with pytest.raises(InvalidArgumentError):
            variant_inversions(4)

    def test_pooled_matches_single_variant_expectation(self):
        e = 0.7
        t = CorrelatorTable(e, e, e, e)
        streams = generate_symmetrized(t, (1, 1), 50_000, seed=2)
        pooled_e = []
        for s in streams:
            a, b = logical_bits(s)
            pooled_e.append(2.0 * float((a == b).mean()) - 1.0)
        assert np.mean(pooled_e) == pytest.approx(e, abs=0.01)

    def test_port_asymmetry_cancellation(self):
        t = CorrelatorTable(0.0, 0.0, 0.0, 0.0)
        det = DetectorModel(eta_t_a=0.8, eta_r_a=1.0)
        streams = generate_symmetrized(t, (1, 1), 250_000, det, seed=21)
        a0, _ = logical_bits(streams[0])
        n0 = len(a0)
        bias0 = abs(1.0 - 2.0 * a0.mean())
        assert bias0 > 5.0 / math.sqrt(n0)  # variant 0 alone is biased
        pooled = np.concatenate([logical_bits(s)[0] for s in streams])
        bias_pooled = abs(1.0 - 2.0 * pooled.mean())
        assert bias_pooled < 4.0 / math.sqrt(len(pooled))

    def test_determinism(self):
        t = werner_correlators(settings_from_beta(0.3), 0.99)
        s1 = generate_symmetrized(t, (2, 2), 2000, seed=5)
        s2 = generate_symmetrized(t, (2, 2), 2000, seed=5)
        for a, b in zip(s1, s2):
            assert np.array_equal(a.a, b.a)
            assert np.array_equal(a.b, b.b)


class TestRoundTrip:
    def _streams(self):
        t = werner_correlators(settings_from_beta(0.5), 0.97)
        out = []
        for sp in SETTING_PAIRS:
            out.extend(generate_symmetrized(t, sp, 500, seed=9,
                                            extra_meta={"beta": 0.5}))
        return out

    def test_jsonl_round_trip(self, tmp_path):
        streams = self._streams()
        path = tmp_path / "events.jsonl"
        write_jsonl(streams, path)
        back = read_jsonl(path)
        assert len(back) == len(streams)
        for orig, rt in zip(streams, back):
            assert rt.setting_pair == orig.setting_pair
            assert rt.basis_variant == orig.basis_variant
            assert np.array_equal(rt.a, orig.a)
            assert np.array_equal(rt.b, orig.b)
            assert rt.meta["beta"] == 0.5

    def test_csv_round_trip(self, tmp_path):
        streams = self._streams()
        path = tmp_path / "events.csv"
        write_csv(streams, path)
        back = read_csv(path)
        assert len(back) == len(streams)
        for orig, rt in zip(streams, back):
            assert rt.setting_pair == orig.setting_pair
            assert rt.basis_variant == orig.basis_variant
            assert np.array_equal(rt.a, orig.a)
            assert np.array_equal(rt.b, orig.b)
            assert rt.meta["beta"] == 0.5
            assert rt.meta["table"] == orig.meta["table"]

    @pytest.mark.parametrize("write, oracle, suffix", [
        (write_jsonl, write_jsonl_lines, ".jsonl"),
        (write_csv, write_csv_lines, ".csv"),
    ], ids=["jsonl", "csv"])
    def test_bulk_writer_matches_line_writer(self, tmp_path, write, oracle,
                                             suffix):
        streams = self._streams()
        t = werner_correlators(settings_from_beta(0.5), 0.97)
        # a stream whose detectors keep no event
        streams.append(generate_run(t, (2, 1), 30, DetectorModel(0, 0, 0, 0),
                                    seed=9, extra_meta={"beta": 0.5}))
        assert len(streams[-1]) == 0
        got, want = tmp_path / f"got{suffix}", tmp_path / f"want{suffix}"
        write(streams, got)
        oracle(streams, want)
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("write", [write_jsonl, write_csv])
    def test_writer_rejects_non_bits(self, tmp_path, write):
        stream = EventStream((1, 1), 0, a=np.array([0, 2], dtype=np.uint8),
                             b=np.array([1, 1], dtype=np.uint8))
        with pytest.raises(InvalidArgumentError, match="bits"):
            write([stream], tmp_path / "e.out")

    def test_csv_without_stream_lines(self, tmp_path):
        path = tmp_path / "old.csv"
        path.write_text("x,y,variant,a,b\n1,1,0,1,0\n2,2,1,0,0\n"
                        "1,1,0,1,1\n")
        back = read_csv(path)
        assert [(s.setting_pair, s.basis_variant, s.meta) for s in back] == [
            ((1, 1), 0, {}), ((2, 2), 1, {})]
        assert back[0].a.tolist() == [1, 1] and back[0].b.tolist() == [0, 1]


class TestDetectorModel:
    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            DetectorModel(eta_t_a=1.5)

    def test_perfect_is_trivial(self):
        assert PERFECT_DETECTORS.trivial
        assert not DetectorModel(eta_r_b=0.99).trivial
