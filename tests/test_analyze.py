import math

import numpy as np
import pytest

from manypairs.analyze import (ClusteredOutcomes, MinusKSigma, PointEstimate,
                               bootstrap_sn, cluster_events, estimate_sn,
                               find_nc, ingest, logical_bits,
                               sequences_from_streams)
from manypairs.binning import Majority, Parity, TiePolicy, parity_chsh_analytic
from manypairs.errors import IngestionError, InsufficientDataError
from manypairs.pairstats import (SETTING_PAIRS, CorrelatorTable,
                                 settings_from_beta, werner_correlators)
from manypairs.simulate import (EventStream, generate_run, write_csv,
                                write_jsonl)

from conftest import finite_population_parity_sigma


def make_sequences(table, n_events, seed, extra_meta=None):
    streams = [generate_run(table, sp, n_events, seed=seed,
                            extra_meta=extra_meta)
               for sp in SETTING_PAIRS]
    return sequences_from_streams(streams)


def constant_sequences(n_events, bit=1):
    a = np.full(n_events, bit, dtype=np.uint8)
    return {sp: (a, a.copy()) for sp in SETTING_PAIRS}


class TestIngest:
    def test_variant_inversion(self):
        s = EventStream((1, 1), 1, a=np.array([0], dtype=np.uint8),
                        b=np.array([1], dtype=np.uint8))
        a, b = logical_bits(s)
        assert (a[0], b[0]) == (1, 1)

    def test_variant0_passthrough(self):
        s = EventStream((1, 1), 0, a=np.array([0, 1], dtype=np.uint8),
                        b=np.array([1, 0], dtype=np.uint8))
        a, b = logical_bits(s)
        assert np.array_equal(a, s.a)
        assert np.array_equal(b, s.b)

    def test_missing_setting_pair(self):
        streams = [EventStream(sp, 0, a=np.zeros(3, dtype=np.uint8),
                               b=np.zeros(3, dtype=np.uint8))
                   for sp in SETTING_PAIRS[:3]]
        with pytest.raises(IngestionError):
            sequences_from_streams(streams)

    def test_ingest_files(self, tmp_path):
        t = CorrelatorTable(0.5, 0.5, 0.5, 0.5)
        streams = [generate_run(t, sp, 100, seed=1) for sp in SETTING_PAIRS]
        p1 = tmp_path / "a.jsonl"
        p2 = tmp_path / "b.csv"
        write_jsonl(streams[:2], p1)
        write_csv(streams[2:], p2)
        per_beta = ingest([p1, p2])
        assert list(per_beta) == [0.0]
        assert set(per_beta[0.0]) == set(SETTING_PAIRS)
        assert all(len(a) == len(b) == 100
                   for a, b in per_beta[0.0].values())

    def test_ingest_refuses_mixed_visibility(self, tmp_path):
        paths = []
        for name, v in (("a.jsonl", 0.9871), ("b.jsonl", 0.90)):
            table = werner_correlators(settings_from_beta(0.151), v)
            streams = [generate_run(table, sp, 50, seed=1,
                                    extra_meta={"beta": 0.151,
                                                "visibility": v})
                       for sp in SETTING_PAIRS]
            paths.append(tmp_path / name)
            write_jsonl(streams, paths[-1])
        with pytest.raises(IngestionError, match="visibility"):
            ingest(paths)

    def test_missing_file_named(self, tmp_path):
        missing = tmp_path / "missing.jsonl"
        with pytest.raises(IngestionError, match="missing.jsonl"):
            ingest([missing])

    def test_malformed_record_names_location(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"settingPair": [1, 1], "basisVariant": 0}\n'
                     '{"a": 2, "b": 0}\n')
        with pytest.raises(IngestionError, match=r"bad\.jsonl:2"):
            ingest([p])

    def test_bad_variant_rejected(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"settingPair": [1, 1], "basisVariant": 5}\n')
        with pytest.raises(IngestionError, match="variant"):
            ingest([p])


class TestClusterEvents:
    def test_integer_division(self):
        a = np.ones(100, dtype=np.uint8)
        c = cluster_events((a, a), 7)
        assert c.clusters == 14
        assert c.discarded == 2
        assert c.clusters * 7 + c.discarded == 100

    def test_n1_identity(self):
        a = np.array([0, 1, 1, 0], dtype=np.uint8)
        b = np.array([1, 1, 0, 0], dtype=np.uint8)
        c = cluster_events((a, b), 1)
        assert np.array_equal(c.a_counts, a)
        assert np.array_equal(c.b_counts, b)

    def test_constant_input(self):
        a = np.ones(25, dtype=np.uint8)
        c = cluster_events((a, a), 5)
        assert np.all(c.a_counts == 5)
        assert np.all(c.b_counts == 5)

    def test_oversized_cluster_not_an_error(self):
        a = np.ones(3, dtype=np.uint8)
        c = cluster_events((a, a), 10)
        assert c.clusters == 0
        assert c.discarded == 3


class TestEstimateSn:
    def test_noiseless_point(self):
        seqs = constant_sequences(60)
        clustered = {sp: cluster_events(seqs[sp], 6) for sp in SETTING_PAIRS}
        est = estimate_sn(clustered, Majority(TiePolicy.TIE_TO_MINUS))
        assert est.correlators == (1.0, 1.0, 1.0, 1.0)
        assert est.s == 2.0

    def test_n1_matches_plain_chsh(self):
        t = werner_correlators(settings_from_beta(0.6), 0.9)
        seqs = make_sequences(t, 20_000, seed=3)
        clustered = {sp: cluster_events(seqs[sp], 1) for sp in SETTING_PAIRS}
        for strat in (Majority(), Parity()):
            est = estimate_sn(clustered, strat)
            raw = []
            for sp in SETTING_PAIRS:
                a, b = seqs[sp]
                raw.append(2.0 * float((a == b).mean()) - 1.0)
            assert est.s == pytest.approx(raw[0] + raw[1] + raw[2] - raw[3],
                                          abs=1e-12)

    def test_statistical_agreement_with_theory(self):
        beta, v, n = 0.25, 0.99, 6
        t = werner_correlators(settings_from_beta(beta), v)
        seqs = make_sequences(t, 300_000, seed=17)
        clustered = {sp: cluster_events(seqs[sp], n) for sp in SETTING_PAIRS}
        est = estimate_sn(clustered, Parity())
        expected = parity_chsh_analytic(beta, v, n)
        sigma = 4.0 / math.sqrt(300_000 / n)  # generous correlator bound
        assert abs(est.s - expected) < sigma

    def test_insufficient_data(self):
        empty = {sp: ClusteredOutcomes(5, np.array([], dtype=np.int64),
                                       np.array([], dtype=np.int64), 3)
                 for sp in SETTING_PAIRS}
        with pytest.raises(InsufficientDataError):
            estimate_sn(empty, Parity())


class TestBootstrap:
    def test_constant_data_zero_sigma(self):
        seqs = constant_sequences(40)
        means, sigmas = bootstrap_sn(seqs, [1, 2, 4], Majority(),
                                     resamples=20, seed=0)
        assert np.array_equal(sigmas, np.zeros(3))
        assert np.array_equal(means, np.full(3, 2.0))

    def test_determinism(self):
        t = werner_correlators(settings_from_beta(0.4), 0.97)
        seqs = make_sequences(t, 4000, seed=6)
        r1 = bootstrap_sn(seqs, [2, 5], Parity(), resamples=50, seed=99)
        r2 = bootstrap_sn(seqs, [2, 5], Parity(), resamples=50, seed=99)
        assert np.array_equal(r1[0], r2[0])
        assert np.array_equal(r1[1], r2[1])

    def test_row_independent_of_grid(self):
        t = werner_correlators(settings_from_beta(0.4), 0.97)
        seqs = make_sequences(t, 4000, seed=6)
        strategy = Majority(TiePolicy.RANDOMIZED)
        alone = bootstrap_sn(seqs, [4], strategy, resamples=30, seed=(3, 1))
        grid = bootstrap_sn(seqs, [1, 2, 4, 6], strategy, resamples=30,
                            seed=(3, 1))
        assert alone[0][0] == grid[0][2]
        assert alone[1][0] == grid[1][2]

    def test_shuffle_invariance_of_expectation(self):
        t = werner_correlators(settings_from_beta(0.3), 0.95)
        seqs = make_sequences(t, 30_000, seed=12)
        clustered = {sp: cluster_events(seqs[sp], 4) for sp in SETTING_PAIRS}
        point = estimate_sn(clustered, Parity()).s
        resamples = 200
        means, sigmas = bootstrap_sn(seqs, [4], Parity(),
                                     resamples=resamples, seed=1)
        assert abs(means[0] - point) < 6.0 * sigmas[0] / math.sqrt(resamples)

    def test_sigma_near_binomial_propagation(self):
        # compare bootstrap sigma against analytic error propagation
        beta, v, n = 0.234, 0.99, 5
        t = werner_correlators(settings_from_beta(beta), v)
        seqs = make_sequences(t, 100_000, seed=8)
        _, sigmas = bootstrap_sn(seqs, [n], Parity(), resamples=300, seed=2)
        m = 100_000 // n
        var = 0.0
        for sp in SETTING_PAIRS:
            e = (v * math.cos(settings_from_beta(beta).alice(sp[0])
                              - settings_from_beta(beta).bob(sp[1]))) ** n
            var += (1.0 - e * e) / m
        analytic = math.sqrt(var)
        assert analytic / 2.0 < sigmas[0] < analytic * 2.0

    def test_sigma_matches_finite_population(self):
        t = werner_correlators(settings_from_beta(0.25), 0.99)
        seqs = make_sequences(t, 20_000, seed=21)
        n_values = [2, 4, 12]
        resamples = 400
        _, sigmas = bootstrap_sn(seqs, n_values, Parity(),
                                 resamples=resamples, seed=5)
        for n, sigma in zip(n_values, sigmas):
            exact = finite_population_parity_sigma(seqs, n)
            mc_error = exact / math.sqrt(2.0 * (resamples - 1))
            assert abs(sigma - exact) < 5.0 * mc_error, n

    def test_resamples_validated(self):
        seqs = constant_sequences(10)
        with pytest.raises(Exception):
            bootstrap_sn(seqs, [2], Parity(), resamples=1)


class TestFindNc:
    def test_local_deterministic_data(self):
        seqs = constant_sequences(200)
        curve = find_nc({0.0: seqs}, Majority(), [1, 2, 4], resamples=20,
                        seed=0)
        assert curve.n_critical == 0  # S = 2 exactly, strict criterion
        assert curve.note is not None

    def test_n1_reduces_to_plain_chsh_decision(self):
        t = werner_correlators(settings_from_beta(math.pi / 4), 0.9)
        seqs = make_sequences(t, 50_000, seed=4)
        curve = find_nc({math.pi / 4: seqs}, Parity(), [1], resamples=50,
                        seed=0)
        beta, n, s, sigma = curve.entries[0]
        assert n == 1
        assert s > 2.0  # 0.9 * 2*sqrt(2) = 2.55
        assert curve.n_critical == 1

    def test_minus_k_sigma_stricter(self):
        t = werner_correlators(settings_from_beta(0.23), 0.99)
        seqs = make_sequences(t, 20_000, seed=10)
        point = find_nc({0.23: seqs}, Parity(), range(1, 8), resamples=50,
                        seed=1, criterion=PointEstimate())
        strict = find_nc({0.23: seqs}, Parity(), range(1, 8), resamples=50,
                         seed=1, criterion=MinusKSigma(k=3.0))
        assert strict.n_critical <= point.n_critical

    def test_entries_sorted(self):
        t = werner_correlators(settings_from_beta(0.3), 0.95)
        seqs = make_sequences(t, 5000, seed=2)
        curve = find_nc({0.3: seqs, 0.2: seqs}, Parity(), [3, 1, 2],
                        resamples=10, seed=0)
        keys = [(n, beta) for beta, n, _, _ in curve.entries]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("strategy", [Parity(),
                                          Majority(TiePolicy.RANDOMIZED)],
                             ids=repr)
    def test_row_independent_of_grid(self, strategy):
        t = werner_correlators(settings_from_beta(0.3), 0.95)
        per_beta = {0.3: make_sequences(t, 5000, seed=2),
                    0.2: make_sequences(t, 5000, seed=3)}
        alone = find_nc(per_beta, strategy, [4], resamples=20, seed=8)
        grid = find_nc(per_beta, strategy, range(1, 9), resamples=20,
                       seed=8)
        assert alone.entries == tuple(e for e in grid.entries if e[1] == 4)
