import math
import re

import numpy as np
import pytest

from manypairs import analyze
from manypairs.analyze import (ClusteredOutcomes, MinusKSigma, PointEstimate,
                               RunningTotals, bootstrap_sn, cluster_events,
                               estimate_sn, find_nc, ingest, logical_bits,
                               read_csv, read_jsonl, sequences_from_streams)
from manypairs.binning import Majority, Parity, TiePolicy, parity_chsh_analytic
from manypairs.errors import (IngestionError, InsufficientDataError,
                              InvalidArgumentError)
from manypairs.pairstats import (SETTING_PAIRS, CorrelatorTable,
                                 settings_from_beta, werner_correlators)
from manypairs.simulate import (DetectorModel, EventStream, generate_run,
                                generate_symmetrized, write_csv, write_jsonl)

from conftest import (finite_population_parity_sigma, reshape_cluster_events,
                      shuffle_parity_mean)


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

    @pytest.mark.parametrize("name, text, message", [
        ("bad.csv", 'x,y,variant,a,b\n# stream: 5\n1,1,0,1,0\n',
         "2: stream metadata is not an object"),
        ("bad.jsonl", '{"settingPair": [1, 1], "basisVariant": 0}\n'
         '{"a": 0, "b": 1}\n5\n', "3: unrecognized record 5"),
        ("bad.jsonl", '{"settingPair": [1, 1], "basisVariant": "x"}\n',
         "1: basis variant outside 0..3"),
        ("bad.jsonl", '{"settingPair": 3, "basisVariant": 0}\n'
         '{"a": 0, "b": 1}\n', "1: setting pair 3 is not two integers"),
    ], ids=["csv-stream-not-object", "jsonl-record-not-object",
            "jsonl-variant-not-integer", "jsonl-pair-not-list"])
    def test_malformed_header_names_location(self, tmp_path, name, text,
                                             message):
        p = tmp_path / name
        p.write_text(text)
        with pytest.raises(IngestionError) as exc:
            ingest([p])
        assert str(exc.value) == f"{p}:{message}"

    @pytest.mark.parametrize("name, text", [
        ("big.jsonl", '{"settingPair": [1, 1], "basisVariant": 0}\n'
         '{"a": ' + "1" * 5000 + ', "b": 0}\n'),
        ("deep.jsonl", '{"settingPair": [1, 1], "basisVariant": 0}\n'
         '{"settingPair": ' + "[" * 100_000 + "\n"),
        ("big.csv", 'x,y,variant,a,b\n# stream: {"v": ' + "1" * 5000
         + "}\n"),
    ], ids=["jsonl-long-integer", "jsonl-deep-nesting", "csv-long-integer"])
    def test_json_python_cannot_hold_names_location(self, tmp_path, name,
                                                    text):
        p = tmp_path / name
        p.write_text(text)
        with pytest.raises(IngestionError) as exc:
            ingest([p])
        assert str(exc.value).startswith(f"{p}:2: bad ")


def _streams_with_empty(events=300):
    """Symmetrized streams of all four pairs, plus one with no events."""
    t = werner_correlators(settings_from_beta(0.2), 0.97)
    streams = []
    for sp in SETTING_PAIRS:
        streams.extend(generate_symmetrized(
            t, sp, events, DetectorModel(eta_t_a=0.8), seed=4,
            extra_meta={"beta": 0.2, "visibility": 0.97}))
    streams.append(generate_run(t, (1, 2), 50, DetectorModel(0, 0, 0, 0),
                                seed=4, extra_meta={"beta": 0.2}))
    return streams


def _meta(stream):
    """Stream metadata without the header fields a reader moves out."""
    return {k: v for k, v in stream.meta.items()
            if k not in ("settingPair", "basisVariant")}


def _same_streams(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.setting_pair == w.setting_pair
        assert g.basis_variant == w.basis_variant
        assert _meta(g) == _meta(w)
        assert g.a.dtype == w.a.dtype == g.b.dtype == np.uint8
        assert np.array_equal(g.a, w.a) and np.array_equal(g.b, w.b)


class TestBulkRead:
    @pytest.mark.parametrize("suffix", [".jsonl", ".csv"])
    def test_bulk_matches_line_parser(self, tmp_path, suffix):
        streams = _streams_with_empty()
        p = tmp_path / f"e{suffix}"
        if suffix == ".csv":
            write_csv(streams, p)
            bulk, lines = analyze._bulk_csv, analyze._read_csv_lines
            back = read_csv(p)
            # CSV keeps no stream without rows
            streams = [s for s in streams if len(s)]
        else:
            write_jsonl(streams, p)
            bulk, lines = analyze._bulk_jsonl, analyze._read_jsonl_lines
            back = read_jsonl(p)
        assert bulk(p.read_bytes()) is not None
        _same_streams(back, lines(p))
        _same_streams(back, streams)

    @pytest.mark.parametrize("edit", [
        lambda text: text.replace("\n", "\r\n"),
        lambda text: text.replace("\n", "\n\n", 7),
        lambda text: text.replace('{"a": 1, "b": 0}', '{"a":1,"b":0}'),
        lambda text: "\n" + text + "\n",
    ], ids=["crlf", "blank-lines", "compact-records", "leading-blank-line"])
    def test_jsonl_fallback_reads_the_same(self, tmp_path, edit):
        streams = _streams_with_empty(40)
        p = tmp_path / "e.jsonl"
        write_jsonl(streams, p)
        p.write_bytes(edit(p.read_text()).encode())
        assert analyze._bulk_jsonl(p.read_bytes()) is None
        _same_streams(read_jsonl(p), analyze._read_jsonl_lines(p))
        _same_streams(read_jsonl(p), streams)

    @pytest.mark.parametrize("edit", [
        lambda text: text.replace("\n", "\r\n"),
        lambda text: text.replace("\n", "\n\n", 7),
        lambda text: re.sub(r"(?m)^([^,#\n]+),([^,]+),([^,]+),([^,]+),(.+)$",
                            r"\4,\5,\1,\2,\3", text),
    ], ids=["crlf", "blank-lines", "permuted-columns"])
    def test_csv_fallback_reads_the_same(self, tmp_path, edit):
        streams = [s for s in _streams_with_empty(40) if len(s)]
        p = tmp_path / "e.csv"
        write_csv(streams, p)
        p.write_bytes(edit(p.read_text()).encode())
        assert analyze._bulk_csv(p.read_bytes()) is None
        _same_streams(read_csv(p), analyze._read_csv_lines(p))
        _same_streams(read_csv(p), streams)

    # Messages and line numbers as the line parser reported them before
    # the bulk reader existed; each file is valid up to the broken line.
    @pytest.mark.parametrize("line, replacement, message", [
        (3, '{"a": 0, "b": 1', "bad JSON (Expecting ',' delimiter: line 1 "
         "column 16 (char 15))"),
        (1, '{"settingPair": [1, 1], "basisVariant": 7}',
         "basis variant outside 0..3"),
        (7, '{"settingPair": [1, 2], "basisVariant": -1}',
         "basis variant outside 0..3"),
        (4, '{"a": 2, "b": 0}', "outcomes must be bits"),
        (5, '{"a": 1}', "unrecognized record {'a': 1}"),
        (1, '{"a": 1, "b": 0}', "event record before any header"),
    ], ids=["bad-json", "bad-variant", "bad-variant-later-header",
            "not-bits", "unrecognized", "event-before-header"])
    def test_jsonl_malformed_line(self, tmp_path, line, replacement,
                                  message):
        self._check_malformed(tmp_path / "e.jsonl", write_jsonl, line,
                              replacement, message)

    @pytest.mark.parametrize("line, replacement, message", [
        (1, "x,y,variant,a", "expected columns x,y,variant,a,b"),
        (2, "# stream: {", "bad stream metadata (Expecting property name "
         "enclosed in double quotes: line 2 column 1 (char 2))"),
        (5, "1,1,0,1", "malformed row '1,1,0,1'"),
        (6, "1,1,4,1,0", "basis variant outside 0..3"),
        (9, "1,1,0,0,2", "outcomes must be bits"),
    ], ids=["columns", "bad-metadata", "short-row", "bad-variant",
            "not-bits"])
    def test_csv_malformed_line(self, tmp_path, line, replacement, message):
        self._check_malformed(tmp_path / "e.csv", write_csv, line,
                              replacement, message)

    @staticmethod
    def _check_malformed(path, write, line, replacement, message):
        t = werner_correlators(settings_from_beta(0.2), 0.97)
        write([generate_run(t, sp, 4, seed=1) for sp in SETTING_PAIRS], path)
        lines = path.read_text().split("\n")
        lines[line - 1] = replacement
        path.write_text("\n".join(lines))
        with pytest.raises(IngestionError) as exc:
            ingest([path])
        assert str(exc.value) == f"{path}:{line}: {message}"


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

    def test_matches_reshape_oracle(self):
        rng = np.random.default_rng(5)
        a = rng.integers(0, 2, size=37, dtype=np.uint8)
        b = rng.integers(0, 2, size=37, dtype=np.uint8)
        totals = RunningTotals.of((a, b))
        for n in range(1, 39):
            want = reshape_cluster_events((a, b), n)
            for got in (cluster_events((a, b), n), cluster_events(totals, n)):
                assert got.n == want.n and got.discarded == want.discarded
                assert got.a_counts.dtype == got.b_counts.dtype == np.int64
                assert np.array_equal(got.a_counts, want.a_counts)
                assert np.array_equal(got.b_counts, want.b_counts)

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
        resamples = 200
        means, sigmas = bootstrap_sn(seqs, [2, 4], Parity(),
                                     resamples=resamples, seed=1)
        for n, mean, sigma in zip([2, 4], means, sigmas):
            exact = shuffle_parity_mean(seqs, n)
            assert abs(mean - exact) < 6.0 * sigma / math.sqrt(resamples), n

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

    @pytest.mark.parametrize("seed", [-1, (3, -1)])
    def test_negative_seed_rejected(self, seed):
        with pytest.raises(InvalidArgumentError, match="seed"):
            bootstrap_sn(constant_sequences(10), [2], Parity(),
                         resamples=5, seed=seed)


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

    def test_negative_seed_rejected_before_bootstrap(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("bootstrap ran")
        monkeypatch.setattr(analyze, "bootstrap_sn", fail)
        with pytest.raises(InvalidArgumentError, match="seed"):
            find_nc({0.0: constant_sequences(20)}, Parity(), [1],
                    resamples=5, seed=-1)

    @pytest.mark.parametrize("strategy", [Parity(),
                                          Majority(TiePolicy.RANDOMIZED)],
                             ids=repr)
    def test_reshape_clustering_gives_same_entries(self, monkeypatch,
                                                   strategy):
        t = werner_correlators(settings_from_beta(0.3), 0.95)
        per_beta = {0.3: make_sequences(t, 3000, seed=2),
                    0.2: make_sequences(t, 3000, seed=3)}
        fast = find_nc(per_beta, strategy, range(1, 9), resamples=15,
                       seed=8)

        def reshape(sequence, n):
            if isinstance(sequence, RunningTotals):
                sequence = np.diff(sequence.counts, axis=1).astype(np.uint8)
            return reshape_cluster_events(sequence, n)

        monkeypatch.setattr(analyze, "cluster_events", reshape)
        slow = find_nc(per_beta, strategy, range(1, 9), resamples=15, seed=8)
        assert fast.entries == slow.entries
        assert fast.n_critical == slow.n_critical
