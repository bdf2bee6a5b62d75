import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from manypairs import analyze, cli, eventfile
from manypairs.analyze import (ClusteredOutcomes, MinusKSigma, _running_totals,
                               bootstrap_sn, cluster_events, estimate_sn,
                               find_nc, read_csv, read_jsonl,
                               sequences_from_streams)
from manypairs.binning import (Majority, Parity, TiePolicy, chsh_value,
                               parity_chsh_analytic, table_chsh)
from manypairs.errors import (IngestionError, InsufficientDataError,
                              InvalidArgumentError)
from manypairs.pairstats import (SETTING_PAIRS, CorrelatorTable,
                                 settings_from_beta, werner_correlators)
from manypairs.simulate import (DetectorModel, EventStream, _header,
                                generate_run, generate_symmetrized, write_csv,
                                write_jsonl)

from conftest import (category_counts, coin_estimate_sn,
                      exact_shuffle_sigma, finite_population_parity_sigma,
                      ingest, logical_bits, mean_correlator,
                      monte_carlo_bootstrap_sn, read_back, read_csv_lines,
                      read_jsonl_lines, reshape_cluster_events,
                      shuffle_parity_mean)


def make_sequences(table, n_events, seed, extra_meta=None):
    streams = [generate_run(table, sp, n_events, seed=seed,
                            extra_meta=extra_meta)
               for sp in SETTING_PAIRS]
    return sequences_from_streams(streams)


def constant_sequences(n_events, bit=1):
    a = np.full(n_events, bit, dtype=np.uint8)
    return {sp: (a, a.copy()) for sp in SETTING_PAIRS}


def variant_sequences(variant, a, b) -> dict:
    """`sequences_from_streams` of one stream per setting pair, each of
    the basis variant and the physical bits a and b."""
    return sequences_from_streams([
        EventStream(sp, variant, a=np.array(a, dtype=np.uint8),
                    b=np.array(b, dtype=np.uint8)) for sp in SETTING_PAIRS])


class TestIngest:
    def test_variant_inversion(self):
        for a, b in variant_sequences(1, [0], [1]).values():
            assert (a[0], b[0]) == (1, 1)

    def test_variant0_passthrough(self):
        for a, b in variant_sequences(0, [0, 1], [1, 0]).values():
            assert a.tolist() == [0, 1]
            assert b.tolist() == [1, 0]

    def test_missing_setting_pair(self):
        streams = [EventStream(sp, 0, a=np.zeros(3, dtype=np.uint8),
                               b=np.zeros(3, dtype=np.uint8))
                   for sp in SETTING_PAIRS[:3]]
        with pytest.raises(IngestionError):
            sequences_from_streams(streams)

    def test_sequences_concatenate_logical_bits(self):
        # several streams per pair in all four variants, an empty one,
        # pairs interleaved: each pair's bits in stream order
        t = werner_correlators(settings_from_beta(0.2), 0.97)
        streams = [generate_run(t, sp, 30 + 11 * i, seed=i, basis_variant=v)
                   for i, (v, sp) in enumerate(
                       (v, sp) for v in range(4) for sp in SETTING_PAIRS)]
        none = np.zeros(0, dtype=np.uint8)
        streams.insert(5, EventStream((2, 1), 3, none, none))
        got = sequences_from_streams(streams)
        assert list(got) == list(SETTING_PAIRS)
        for sp in SETTING_PAIRS:
            bits = [logical_bits(s) for s in streams if s.setting_pair == sp]
            for party in (0, 1):
                want = np.concatenate([b[party] for b in bits])
                assert got[sp][party].dtype == np.uint8
                assert np.array_equal(got[sp][party], want)

    def test_bad_stream_refused_in_stream_order(self):
        a = np.zeros(3, dtype=np.uint8)
        streams = [EventStream(sp, 0, a, a) for sp in SETTING_PAIRS]
        unknown = EventStream((3, 1), 0, a, a)
        bad = EventStream((1, 1), 7, a, a)
        with pytest.raises(IngestionError, match="unknown setting pair"):
            sequences_from_streams(streams[:2] + [unknown, bad])
        with pytest.raises(InvalidArgumentError, match="variant 7"):
            sequences_from_streams(streams[:2] + [bad, unknown])
        with pytest.raises(IngestionError, match=r"setting pair \(1, 2\)"):
            sequences_from_streams(streams[:1] + streams[2:3])

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
        assert (find_nc([p1, p2], Parity(), [1, 3])
                == find_nc(per_beta, Parity(), [1, 3]))

    def test_streams_without_seed_pool_unchecked(self, tmp_path):
        t = CorrelatorTable(0.5, 0.5, 0.5, 0.5)
        streams = [generate_run(t, sp, 100, seed=1) for sp in SETTING_PAIRS]
        unseeded = [EventStream(s.setting_pair, s.basis_variant, s.a, s.b,
                                {k: v for k, v in s.meta.items()
                                 if k != "seed"}) for s in streams]
        p = tmp_path / "a.jsonl"
        write_jsonl(unseeded, p)
        per_beta = ingest([p, p])
        assert all(len(a) == 200 for a, _ in per_beta[0.0].values())
        assert (find_nc([p, p], Parity(), [1, 3])
                == find_nc(per_beta, Parity(), [1, 3]))
        write_jsonl(streams, p)
        with pytest.raises(IngestionError, match="repeat seed 1"):
            find_nc([p, p], Parity(), [1])

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
            find_nc(paths, Parity(), [1])

    def test_missing_file_named(self, tmp_path):
        missing = tmp_path / "missing.jsonl"
        with pytest.raises(IngestionError, match="missing.jsonl"):
            find_nc([missing], Parity(), [1])

    @pytest.mark.parametrize("name, text", [
        ("e.jsonl", ""), ("e.jsonl", "\n \r\n\r\n"),
        ("e.csv", "x,y,variant,a,b\n"),
    ], ids=["empty-jsonl", "blank-lines", "csv-column-line"])
    @pytest.mark.parametrize("alone", [True, False],
                             ids=["alone", "after-a-file"])
    def test_file_without_stream_named(self, tmp_path, name, text, alone):
        # a file that holds no stream is refused, also next to one that
        # holds all four setting pairs
        full = tmp_path / "full.jsonl"
        t = CorrelatorTable(0.5, 0.5, 0.5, 0.5)
        write_jsonl([generate_run(t, sp, 10, seed=1) for sp in SETTING_PAIRS],
                    full)
        p = tmp_path / name
        p.write_text(text)
        with pytest.raises(IngestionError) as exc:
            find_nc([p] if alone else [full, p], Parity(), [1])
        assert str(exc.value) == f"{p}: no event stream"

    def test_malformed_record_names_location(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"settingPair": [1, 1], "basisVariant": 0}\n'
                     '{"a": 2, "b": 0}\n')
        with pytest.raises(IngestionError, match=r"bad\.jsonl:2"):
            find_nc([p], Parity(), [1])

    def test_bad_variant_rejected(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"settingPair": [1, 1], "basisVariant": 5}\n')
        with pytest.raises(IngestionError, match="variant"):
            find_nc([p], Parity(), [1])

    @pytest.mark.parametrize("name, text, message", [
        ("bad.csv", 'x,y,variant,a,b\n# stream: 5\n1,1,0,1,0\n',
         "2: stream metadata is not an object"),
        ("bad.jsonl", '{"settingPair": [1, 1], "basisVariant": 0}\n'
         '{"a": 0, "b": 1}\n5\n', "3: unrecognized record 5"),
        ("bad.jsonl", '{"settingPair": [1, 1], "basisVariant": "x"}\n',
         "1: basis variant outside 0..3"),
        ("bad.jsonl", '{"settingPair": 3, "basisVariant": 0}\n'
         '{"a": 0, "b": 1}\n', "1: setting pair 3 is not two integers"),
        ("bad.jsonl", '{"settingPair": [1, 1], "basisVariant": 0, '
         '"beta": "a"}\n', "1: beta 'a' is not a finite number"),
        ("bad.jsonl", '{"settingPair": [1, 1], "basisVariant": 0}\n'
         '{"a": 0, "b": 1}\n{"settingPair": [1, 2], "basisVariant": 0, '
         '"beta": NaN}\n', "3: bad JSON (NaN is not a JSON number)"),
        ("bad.jsonl", '{"settingPair": [1, 1], "basisVariant": 0, '
         '"beta": 1e400}\n', "1: beta inf is not a finite number"),
        ("bad.jsonl", '{"settingPair": [1, 1], "basisVariant": 0, '
         '"beta": 1' + "0" * 400 + '}\n',
         "1: beta 1" + "0" * 400 + " is not a finite number"),
        ("bad.csv", 'x,y,variant,a,b\n# stream: {"beta": true}\n'
         '1,1,0,1,0\n', "2: beta True is not a finite number"),
        ("bad.csv", 'x,y,variant,a,b\n# stream: {"beta": null}\n'
         '1,1,0,1,0\n', "2: beta None is not a finite number"),
        ("bad.csv", 'x,y,variant,a,b\n# stream: {"beta": 0.2}\n'
         '1,1,0,1,0\n# stream: {"visibility": -Infinity}\n1,1,0,1,0\n',
         "4: bad stream metadata (-Infinity is not a JSON number)"),
        ("bad.jsonl", '{"settingPair": [1, 1], "basisVariant": 0, '
         '"visibility": "a"}\n',
         "1: visibility 'a' is not a finite number in [0, 1]"),
        ("bad.csv", 'x,y,variant,a,b\n# stream: {"visibility": -3}\n'
         '1,1,0,1,0\n', "2: visibility -3 is not a finite number in [0, 1]"),
        ("bad.jsonl", '{"settingPair": [1, 1], "basisVariant": 0, '
         '"visibility": false}\n',
         "1: visibility False is not a finite number in [0, 1]"),
        ("bad.jsonl", '{"settingPair": [1, 1], "basisVariant": 0, '
         '"table": 5}\n', "1: table 5 is not a correlator table"),
        ("bad.csv", 'x,y,variant,a,b\n# stream: {"table": {"e11": 0.5}}\n'
         '1,1,0,1,0\n', "2: table {'e11': 0.5} is not a correlator table"),
        ("bad.jsonl", '{"settingPair": [1, 1], "basisVariant": 0, "table": '
         '{"e11": 2, "e12": 0, "e21": 0, "e22": 0}}\n',
         "1: table {'e11': 2, 'e12': 0, 'e21': 0, 'e22': 0} is not a "
         "correlator table"),
        ("bad.jsonl", '{"settingPair": [1, 1], "basisVariant": 0, "table": '
         '{"e11": true, "e12": 0, "e21": 0, "e22": 0}}\n',
         "1: table {'e11': True, 'e12': 0, 'e21': 0, 'e22': 0} is not a "
         "correlator table"),
        ("bad.jsonl", '{"settingPair": [1, 1], "basisVariant": 0, '
         '"detector": "x"}\n', "1: detector 'x' is not an object"),
        ("bad.csv", 'x,y,variant,a,b\n# stream: {"detector": {"etaT_A": '
         '1, "etaR_A": 1, "etaT_B": 1.5, "etaR_B": 1}}\n1,1,0,1,0\n',
         "2: detector etaT_B 1.5 is not a finite number in [0, 1]"),
        ("bad.jsonl", '{"settingPair": [1, 1], "basisVariant": 0, '
         '"detector": {"etaT_A": 1}}\n',
         "1: detector etaR_A None is not a finite number in [0, 1]"),
        ("bad.jsonl", '{"settingPair": [1, 1], "basisVariant": 0, '
         '"discardProb": 7}\n',
         "1: discardProb 7 is not a finite number in [0, 1)"),
        ("bad.csv", 'x,y,variant,a,b\n# stream: {"discardProb": 1.0}\n'
         '1,1,0,1,0\n', "2: discardProb 1.0 is not a finite number in "
         "[0, 1)"),
        ("bad.csv", 'x,y,variant,a,b\n# stream: {"settingPair": [1, 1], '
         '"basisVariant": 0, "seed": 1}\n2,2,3,1,0\n2,2,3,0,0\n',
         "3: row of setting pair (2, 2), basis variant 3 under the header "
         "of setting pair (1, 1), basis variant 0"),
        ("bad.csv", 'x,y,variant,a,b\n# stream: {"settingPair": [1, 1], '
         '"basisVariant": 0}\n1,1,0,1,0\n# stream: {"settingPair": [1, 2], '
         '"basisVariant": 0}\n1,2,2,0,1\n',
         "5: row of setting pair (1, 2), basis variant 2 under the header "
         "of setting pair (1, 2), basis variant 0"),
        ("bad.csv", 'x,y,variant,a,b\n# stream: {"settingPair": [1, 1]}\n'
         '1,1,0,1,0\n', "2: basis variant outside 0..3"),
        ("bad.csv", 'x,y,variant,a,b\n# stream: {"basisVariant": 0}\n'
         '1,1,0,1,0\n', "2: setting pair None is not two integers"),
        ("bad.csv", 'x,y,variant,a,b\n# stream: {"settingPair": [1, true], '
         '"basisVariant": 0}\n1,1,0,1,0\n',
         "2: setting pair [1, True] is not two integers"),
    ], ids=["csv-stream-not-object", "jsonl-record-not-object",
            "jsonl-variant-not-integer", "jsonl-pair-not-list",
            "jsonl-beta-string", "jsonl-beta-nan", "jsonl-beta-overflow",
            "jsonl-beta-huge-integer", "csv-beta-bool", "csv-beta-null",
            "csv-visibility-infinity", "jsonl-visibility-string",
            "csv-visibility-negative", "jsonl-visibility-bool",
            "jsonl-table-number", "csv-table-incomplete",
            "jsonl-table-out-of-range", "jsonl-table-bool",
            "jsonl-detector-string",
            "csv-detector-efficiency-above-1", "jsonl-detector-incomplete",
            "jsonl-discard-above-1", "csv-discard-1",
            "csv-row-of-another-pair", "csv-row-of-another-variant",
            "csv-header-without-variant", "csv-header-without-pair",
            "csv-header-pair-bool"])
    def test_malformed_header_names_location(self, tmp_path, name, text,
                                             message):
        p = tmp_path / name
        p.write_text(text)
        with pytest.raises(IngestionError) as exc:
            find_nc([p], Parity(), [1])
        assert str(exc.value) == f"{p}:{message}"

    @pytest.mark.parametrize("suffix", [".jsonl", ".csv"])
    def test_valid_metadata_reads(self, tmp_path, suffix, parsed_lines):
        t = werner_correlators(settings_from_beta(0.2), 0.9)
        streams = [s for sp in SETTING_PAIRS for s in generate_symmetrized(
            t, sp, 20, DetectorModel(eta_t_a=0.0, eta_r_b=0.5), seed=1,
            discard_prob=0.25, extra_meta={"beta": 0.2, "visibility": 1})]
        p = tmp_path / f"e{suffix}"
        (write_jsonl if suffix == ".jsonl" else write_csv)(streams, p)
        assert {e[0] for e in find_nc([p], Parity(), [1]).entries} == {0.2}
        assert len(parsed_lines) == len(streams)
        assert not any(_is_event_line(line) for line in parsed_lines)

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
            find_nc([p], Parity(), [1])
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


#: Replacement bytes of the mutation test's byte flips.
_FLIPS = b'01 2,{}[]":#\t\r\n-.eN'

#: Non-ASCII insertions: UTF-8 text, Unicode line breaks and whitespace
#: that text mode does not split at, a byte order mark, and bytes that
#: are not UTF-8.
_NON_ASCII = [s.encode() for s in ("\u00e9", "\u0661", "\x85", "\u2028",
                                   "\u3000", "\ufeff")] + [b"\xff", b"\xc3"]


def _mutate(raw, rng):
    """`raw` with 1-4 random edits: byte flips, inserted line breaks,
    spliced fragments of its lines, non-ASCII bytes and deletions.  Half
    the edits insert line breaks or whole lines at a line boundary, which
    leaves more files valid."""
    data = bytearray(raw)
    lines = raw.splitlines(keepends=True)
    for _ in range(int(rng.integers(1, 5))):
        i = int(rng.integers(0, len(data) + 1))
        kind = int(rng.integers(0, 10))
        if kind < 5:
            ends = [0] + [m.end() for m in re.finditer(b"\n", data)]
            i = max(ends[rng.integers(len(ends))] - (kind == 1), 0)
        if kind in (0, 1, 2):
            data[i:i] = (b"\r", b"\r\n", b"\n", b"\n \n")[rng.integers(4)]
        elif kind in (3, 4):
            data[i:i] = lines[rng.integers(len(lines))]
        elif kind == 5 and i < len(data):
            data[i] = _FLIPS[rng.integers(len(_FLIPS))]
        elif kind == 6:
            line = lines[rng.integers(len(lines))]
            data[i:i] = line[slice(*sorted(rng.integers(0, len(line), 2)))]
        elif kind == 7:
            data[i:i] = _NON_ASCII[rng.integers(len(_NON_ASCII))]
        else:
            del data[i:i + int(rng.integers(1, 12))]
    return bytes(data)


def _outcome(read, path):
    """What `read_streams` makes of a reader's result: the streams, or
    the message of the error it raises."""
    try:
        return [(s.setting_pair, s.basis_variant, _meta(s), s.a.dtype,
                 s.a.tolist(), s.b.dtype, s.b.tolist()) for s in read(path)]
    except IngestionError as exc:
        return str(exc)
    except UnicodeDecodeError:
        return "not UTF-8 text"


@pytest.fixture
def parsed_lines(monkeypatch):
    """The text of every line that the readers parse one by one."""
    seen = []
    lines = eventfile._lines

    def spy(raw, lo, hi):
        for text in lines(raw, lo, hi):
            seen.append(text)
            yield text

    monkeypatch.setattr(eventfile, "_lines", spy)
    return seen


def _as_lf(raw):
    """raw with each CR LF pair and each lone CR made an LF."""
    return raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")


def _is_event_line(line):
    return not ("settingPair" in line or line.startswith("# stream: "))


class TestBulkRead:
    @pytest.mark.parametrize("suffix", [".jsonl", ".csv"])
    def test_bulk_matches_line_parser(self, tmp_path, suffix, parsed_lines):
        streams = _streams_with_empty()
        p = tmp_path / f"e{suffix}"
        if suffix == ".csv":
            write_csv(streams, p)
            back, lines = read_back(read_csv, p), read_csv_lines(p)
            # CSV keeps no stream without rows
            written, streams = len(streams), [s for s in streams if len(s)]
        else:
            write_jsonl(streams, p)
            back, lines = read_back(read_jsonl, p), read_jsonl_lines(p)
            written = len(streams)
        # only the header lines, one per stream written, went line by line
        assert len(parsed_lines) == written
        assert not any(_is_event_line(line) for line in parsed_lines)
        _same_streams(back, lines)
        _same_streams(back, streams)

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"],
                             ids=["crlf", "lone-cr"])
    @pytest.mark.parametrize("suffix", [".jsonl", ".csv"])
    def test_line_breaks_of_a_copy_read_in_bulk(self, tmp_path, suffix,
                                                newline, parsed_lines):
        # a copy whose line breaks are all CR LF, or all lone CRs, reads
        # as the LF file and as the line parser reads it, and only its
        # header lines go line by line
        streams = _streams_with_empty()
        write, read, oracle = ((write_csv, read_csv, read_csv_lines)
                               if suffix == ".csv" else
                               (write_jsonl, read_jsonl, read_jsonl_lines))
        p = tmp_path / f"e{suffix}"
        write(streams, p)
        want = read_back(read, p)
        parsed_lines.clear()
        p.write_bytes(p.read_bytes().replace(b"\n", newline))
        back = read_back(read, p)
        assert len(parsed_lines) == len(streams)
        assert not any(_is_event_line(line) for line in parsed_lines)
        _same_streams(back, want)
        _same_streams(back, oracle(p))

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"],
                             ids=["crlf", "lone-cr"])
    @pytest.mark.parametrize("suffix", [".jsonl", ".csv"])
    def test_stream_with_its_own_line_breaks_read_in_bulk(
            self, tmp_path, suffix, newline, parsed_lines):
        streams = [s for s in _streams_with_empty(40) if len(s)]
        p = tmp_path / f"e{suffix}"
        (write_csv if suffix == ".csv" else write_jsonl)(streams, p)
        marker = b"# stream: " if suffix == ".csv" else b'{"settingPair"'
        head, *sections = p.read_bytes().split(marker)
        sections[3] = sections[3].replace(b"\n", newline)
        p.write_bytes(head + b"".join(marker + s for s in sections))
        _same_streams(read_back(read_csv if suffix == ".csv" else read_jsonl,
                                p), streams)
        assert len(parsed_lines) == len(streams)
        assert not any(_is_event_line(line) for line in parsed_lines)

    @pytest.mark.parametrize("edit", [
        lambda text: text.replace("\n", "\n\n", 7),
        lambda text: text.replace('{"a": 1, "b": 0}', '{"a":1,"b":0}'),
        lambda text: "\n" + text + "\n",
    ], ids=["blank-lines", "compact-records", "leading-blank-line"])
    def test_jsonl_fallback_reads_the_same(self, tmp_path, edit,
                                           parsed_lines):
        streams = _streams_with_empty(40)
        p = tmp_path / "e.jsonl"
        write_jsonl(streams, p)
        p.write_bytes(edit(p.read_text()).encode())
        back = read_back(read_jsonl, p)
        assert any(_is_event_line(line) for line in parsed_lines)
        _same_streams(back, read_jsonl_lines(p))
        _same_streams(back, streams)

    @pytest.mark.parametrize("edit", [
        lambda text: text.replace("\n", "\n\n", 7),
        lambda text: re.sub(r"(?m)^([^,#\n]+),([^,]+),([^,]+),([^,]+),(.+)$",
                            r"\4,\5,\1,\2,\3", text),
    ], ids=["blank-lines", "permuted-columns"])
    def test_csv_fallback_reads_the_same(self, tmp_path, edit, parsed_lines):
        streams = [s for s in _streams_with_empty(40) if len(s)]
        p = tmp_path / "e.csv"
        write_csv(streams, p)
        p.write_bytes(edit(p.read_text()).encode())
        back = read_back(read_csv, p)
        assert any(_is_event_line(line) for line in parsed_lines)
        _same_streams(back, read_csv_lines(p))
        _same_streams(back, streams)

    @pytest.mark.parametrize("suffix", [".jsonl", ".csv"])
    def test_mutated_files_read_as_line_parser(self, tmp_path, suffix):
        # each file is valid writer output with 1-4 random edits; the
        # reader must return the line parser's streams or raise its error
        rng = np.random.default_rng(14)
        t = werner_correlators(settings_from_beta(0.2), 0.97)
        pool = [generate_run(t, sp, int(rng.integers(1, 7)),
                             DetectorModel(eta_t_a=i % 2), seed=i,
                             basis_variant=i % 4, extra_meta={"beta": 0.2})
                for i, sp in enumerate(SETTING_PAIRS * 2)]
        write, read, oracle = ((write_csv, read_csv, read_csv_lines)
                               if suffix == ".csv" else
                               (write_jsonl, read_jsonl, read_jsonl_lines))
        p = tmp_path / f"e{suffix}"
        refused = 0
        for _ in range(300):
            picks = rng.choice(len(pool), size=int(rng.integers(1, 5)))
            write([pool[i] for i in picks], p)
            p.write_bytes(_mutate(p.read_bytes(), rng))
            got = _outcome(lambda path: read_back(read, path), p)
            assert got == _outcome(oracle, p)
            refused += isinstance(got, str)
        assert 30 < refused < 270

    @pytest.mark.parametrize("key, value, refused", [
        ("beta", 1e308, False),
        ("visibility", 1.0, False), ("visibility", 0.0, False),
        ("visibility", 1.0000000000000002, True),
        ("visibility", -5e-324, True),
        ("discardProb", 0.9999999999999999, False),
        ("discardProb", 1.0, True), ("discardProb", -0.0, False),
        ("detector", {"etaT_A": 1.0, "etaR_A": 0.0, "etaT_B": 1,
                      "etaR_B": 0}, False),
        ("detector", {"etaT_A": 1.0000000000000002, "etaR_A": 1.0,
                      "etaT_B": 1.0, "etaR_B": 1.0}, True),
    ], ids=["beta-1e308", "visibility-1", "visibility-0",
            "visibility-above-1", "visibility-below-0", "discard-below-1",
            "discard-1", "discard-minus-0", "detector-bounds",
            "detector-above-1"])
    @pytest.mark.parametrize("suffix", [".jsonl", ".csv"])
    def test_header_bounds_read_as_line_parser(self, tmp_path, suffix, key,
                                               value, refused):
        # a header value at or just past a bound of the format reads as
        # the line parser reads it, whose checks are its own
        t = werner_correlators(settings_from_beta(0.2), 0.97)
        stream = generate_run(t, (1, 2), 5, seed=3,
                              extra_meta={"beta": 0.2, "visibility": 0.97})
        write, read, oracle = ((write_csv, read_csv, read_csv_lines)
                               if suffix == ".csv" else
                               (write_jsonl, read_jsonl, read_jsonl_lines))
        p = tmp_path / f"e{suffix}"
        write([stream], p)
        marker = "# stream: " if suffix == ".csv" else ""
        lines = p.read_text().split("\n")
        i = next(i for i, line in enumerate(lines) if "settingPair" in line)
        header = json.loads(lines[i][len(marker):])
        header[key] = value
        lines[i] = marker + json.dumps(header)
        p.write_text("\n".join(lines))
        got = _outcome(lambda path: read_back(read, path), p)
        assert got == _outcome(oracle, p)
        assert isinstance(got, str) == refused, got

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
        (1, '{"settingPair": [1, 1], "basisVariant": 2.7}',
         "basis variant outside 0..3"),
        (7, '{"settingPair": [1, 2], "basisVariant": false}',
         "basis variant outside 0..3"),
        (1, '{"settingPair": [true, 1], "basisVariant": 0}',
         "setting pair [True, 1] is not two integers"),
        (7, '{"settingPair": [1, 2.0], "basisVariant": 0}',
         "setting pair [1, 2.0] is not two integers"),
        (4, '{"a": true, "b": 0}', "outcomes must be bits"),
        (4, '{"a": 1, "b": 0.0}', "outcomes must be bits"),
    ], ids=["bad-json", "bad-variant", "bad-variant-later-header",
            "not-bits", "unrecognized", "event-before-header",
            "variant-float", "variant-bool", "pair-bool", "pair-float",
            "bit-bool", "bit-float"])
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
        (5, "1,1,0,1,0,7", "malformed row '1,1,0,1,0,7'"),
        (5, "1,1,0,0_1,0", "malformed row '1,1,0,0_1,0'"),
        (5, "1,1,0,+1,0", "malformed row '1,1,0,+1,0'"),
        (5, "1,1,0,1, 0", "malformed row '1,1,0,1, 0'"),
        (5, " 1,1,0,1,0", "malformed row ' 1,1,0,1,0'"),
        (5, "1,1,0,1,\u0661", "malformed row '1,1,0,1,\u0661'"),
        (4, "1,2,0,1,0", "row of setting pair (1, 2), basis variant 0 "
         "under the header of setting pair (1, 1), basis variant 0"),
        (9, "1,2,3,1,0", "row of setting pair (1, 2), basis variant 3 "
         "under the header of setting pair (1, 2), basis variant 0"),
    ], ids=["columns", "bad-metadata", "short-row", "bad-variant",
            "not-bits", "six-cells", "underscore", "plus-sign",
            "space-in-cell", "leading-space", "non-ascii-digit",
            "row-of-another-pair", "row-of-another-variant"])
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
            find_nc([path], Parity(), [1])
        assert str(exc.value) == f"{path}:{line}: {message}"


@pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "lone-cr"])
@pytest.mark.parametrize("suffix", [".jsonl", ".csv"])
def test_mixed_line_breaks_read_in_bulk(tmp_path, suffix, newline,
                                        parsed_lines):
    # the first seven line breaks are CR LF or lone CRs and the rest LF,
    # inside the first stream's run of event lines; each chunk's line
    # breaks are made LFs before it is cut, so the run is one block
    streams = [s for s in _streams_with_empty(40) if len(s)]
    write, read, oracle = ((write_csv, read_csv, read_csv_lines)
                           if suffix == ".csv" else
                           (write_jsonl, read_jsonl, read_jsonl_lines))
    p = tmp_path / f"e{suffix}"
    write(streams, p)
    p.write_bytes(p.read_bytes().replace(b"\n", newline, 7))
    back = read_back(read, p)
    assert len(parsed_lines) == len(streams)
    assert not any(_is_event_line(line) for line in parsed_lines)
    _same_streams(back, oracle(p))
    _same_streams(back, streams)


class TestChunkBoundaries(TestBulkRead):
    """Every `TestBulkRead` test again with chunks of a few bytes, so that
    streams, blocks and runs of lines span many chunks."""

    @pytest.fixture(autouse=True, params=[1, 7, 64])
    def chunk_bytes(self, request, monkeypatch):
        monkeypatch.setattr(eventfile, "_CHUNK_BYTES", request.param)

    @staticmethod
    def _written_lines(path, write):
        t = werner_correlators(settings_from_beta(0.2), 0.97)
        write([generate_run(t, sp, 6, seed=2) for sp in SETTING_PAIRS], path)
        return path.read_text().split("\n")[:-1]

    @pytest.mark.parametrize("write, replacement, message", [
        (write_jsonl, '{"a": 1}', "unrecognized record {'a': 1}"),
        (write_csv, "1,1,0,1", "malformed row '1,1,0,1'"),
    ], ids=["jsonl", "csv"])
    def test_line_after_crlf_and_lone_cr_lines(self, tmp_path, write,
                                                replacement, message):
        # lines 5-10 end in CR LF and lines 11-14 in a lone CR; line 25
        # lies several chunks on
        suffix = ".csv" if write is write_csv else ".jsonl"
        p = tmp_path / f"e{suffix}"
        lines = self._written_lines(p, write)
        lines[24] = replacement
        p.write_bytes("".join(
            line + ("\r\n" if 4 <= i < 10 else "\r" if 10 <= i < 14 else "\n")
            for i, line in enumerate(lines)).encode())
        with pytest.raises(IngestionError) as exc:
            find_nc([p], Parity(), [1])
        assert str(exc.value) == f"{p}:25: {message}"

    @pytest.mark.parametrize("malformed", [False, True],
                             ids=["valid-before", "malformed-line-3"])
    @pytest.mark.parametrize("write", [write_jsonl, write_csv],
                             ids=["jsonl", "csv"])
    def test_non_utf8_byte_in_later_chunk(self, tmp_path, write, malformed):
        # the first fault in file order is reported: a malformed line 3
        # stops the reader chunks before the byte
        p = tmp_path / ("e.csv" if write is write_csv else "e.jsonl")
        lines = [line.encode() for line in self._written_lines(p, write)]
        if malformed:
            lines[2] = b"1,"
        lines[-1] += b"\xff"
        p.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(IngestionError) as exc:
            find_nc([p], Parity(), [1])
        line3 = ("malformed row '1,'" if write is write_csv else
                 "bad JSON (Extra data: line 1 column 2 (char 1))")
        assert str(exc.value) == (f"{p}:3: {line3}" if malformed else
                                  f"{p}: not UTF-8 text")


class TestReaderMemory:
    @pytest.mark.parametrize("events_per_pair", [50_000, 500_000])
    @pytest.mark.parametrize("newline", [b"\n", b"\r", b"\r\n"],
                             ids=["lf", "lone-cr", "crlf"])
    @pytest.mark.parametrize("write, read", [
        (write_jsonl, read_jsonl), (write_csv, read_csv)], ids=["jsonl", "csv"])
    def test_reader_holds_one_chunk(self, tmp_path, write, read, newline,
                                    events_per_pair):
        # a chunk and its XOR with the template, or two of its copies on
        # the way to its LF form, and the chunk's bits, whatever the
        # file's size; holding the bits took 2 bytes per event, 15 chunks
        # at 2e6 events.  The CR LF and lone-CR copies take the same bulk
        # path, and peak as LF files do (2.04 to 2.27 chunks).
        t = werner_correlators(settings_from_beta(0.3), 0.95)
        streams = [generate_run(t, sp, events_per_pair + 7 * i, seed=6)
                   for i, sp in enumerate(SETTING_PAIRS)]
        p = tmp_path / "e"
        write(streams, p)
        p.write_bytes(p.read_bytes().replace(b"\n", newline))
        counts = []

        def sink(pair, variant, meta):
            count = [pair, variant, 0, 0, 0]
            counts.append(count)

            def fold(a, b):
                count[2] += len(a)
                count[3] += int(np.count_nonzero(a))
                count[4] += int(np.count_nonzero(b))
            return fold

        tracemalloc.start()
        try:
            records = read(p, sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts == [[s.setting_pair, s.basis_variant, len(s),
                           int(np.count_nonzero(s.a)),
                           int(np.count_nonzero(s.b))] for s in streams]
        assert [len(r) for r in records] == [len(s) for s in streams]
        assert peak <= 3 * eventfile._CHUNK_BYTES

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"],
                             ids=["lf", "crlf", "lone-cr"])
    def test_chunks_end_at_line_breaks(self, tmp_path, monkeypatch, newline):
        # LF and CR LF files take the chunks of read() completed by
        # readline(), as they did before lone CRs ended a chunk; every
        # chunk comes with its line breaks made LFs
        size = 100
        monkeypatch.setattr(eventfile, "_CHUNK_BYTES", size)
        t = werner_correlators(settings_from_beta(0.3), 0.95)
        p = tmp_path / "e.jsonl"
        write_jsonl([generate_run(t, sp, 40, seed=6) for sp in SETTING_PAIRS],
                    p)
        raw = p.read_bytes().replace(b"\n", newline)
        p.write_bytes(raw)
        chunks = []

        def block(chunk, lo, hi):
            if not chunks or chunks[-1] is not chunk:
                chunks.append(chunk)
            return chunk.count(b"\n", lo, hi)

        with p.open("rb") as fh:
            eventfile._read_chunks(p, fh, b'"settingPair"', block,
                                 lambda text: None, lambda: None)
        assert b"".join(chunks) == _as_lf(raw)
        if newline == b"\r":
            longest = max(map(len, raw.split(b"\r")))
            assert all(c.endswith(b"\n") for c in chunks)
            assert max(map(len, chunks)) <= size + longest
            return
        expected = []
        with p.open("rb") as fh:
            while chunk := fh.read(size):
                expected.append(_as_lf(chunk if chunk.endswith(b"\n")
                                       else chunk + fh.readline()))
        assert chunks == expected


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
        for n in range(1, 39):
            want = reshape_cluster_events((a, b), n)
            got = cluster_events((a, b), n)
            assert got.n == want.n and got.discarded == want.discarded
            assert got.a_counts.dtype == got.b_counts.dtype == np.int64
            assert np.array_equal(got.a_counts, want.a_counts)
            assert np.array_equal(got.b_counts, want.b_counts)

    def test_running_totals_hold_no_cast_copy(self):
        # the bits are cast into the totals and summed there; an int32
        # copy of them first would take 4 more bytes per event
        rng = np.random.default_rng(6)
        a = rng.integers(0, 2, size=100_000, dtype=np.uint8)
        b = rng.integers(0, 2, size=100_000, dtype=np.uint8)
        tracemalloc.start()
        try:
            totals = _running_totals((a, b))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert totals.dtype == np.int32
        assert peak <= totals.nbytes + 4096
        assert totals[:, 0].tolist() == [0, 0]
        assert np.array_equal(totals[0, 1:], np.cumsum(a))
        assert np.array_equal(totals[1, 1:], np.cumsum(b))

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

    def test_randomized_tie_counts_zero(self):
        # n = 2 signs: count 0 -> -1, 1 (a tie) -> 0, 2 -> +1
        def clusters(a, b):
            return ClusteredOutcomes(2, np.array(a), np.array(b), 0)
        clustered = {sp: clusters([0, 1, 2, 1], [0, 1, 2, 2])
                     for sp in SETTING_PAIRS[:3]}
        clustered[(2, 2)] = clusters([2, 2, 1, 0], [0, 2, 1, 0])
        est = estimate_sn(clustered, Majority(TiePolicy.RANDOMIZED))
        # (1 + 0 + 1 + 0)/4 three times, minus (-1 + 1 + 0 + 1)/4
        assert est.correlators == (0.5, 0.5, 0.5, 0.25)
        assert est.s == 1.25

    def test_randomized_ties_unbiased_with_less_variance(self):
        beta, v, n = 0.3, 0.97, 4
        strategy = Majority(TiePolicy.RANDOMIZED)
        t = werner_correlators(settings_from_beta(beta), v)
        exact = table_chsh(t, n, strategy).s
        coin_rng = np.random.default_rng(99)
        expectation, coin = [], []
        for seed in range(100):
            seqs = make_sequences(t, 20_000, seed=seed)
            clustered = {sp: cluster_events(seqs[sp], n)
                         for sp in SETTING_PAIRS}
            expectation.append(estimate_sn(clustered, strategy).s)
            coin.append(coin_estimate_sn(clustered, strategy, coin_rng))
        mean_error = np.std(expectation, ddof=1) / math.sqrt(100)
        assert abs(np.mean(expectation) - exact) < 4.0 * mean_error
        assert np.var(expectation) < np.var(coin)

    def test_insufficient_data(self):
        empty = {sp: ClusteredOutcomes(5, np.array([], dtype=np.int64),
                                       np.array([], dtype=np.int64), 3)
                 for sp in SETTING_PAIRS}
        with pytest.raises(InsufficientDataError):
            estimate_sn(empty, Parity())


class TestBootstrap:
    def test_constant_data_zero_sigma(self):
        seqs = constant_sequences(40)
        means, sigmas = bootstrap_sn(category_counts(seqs), [1, 2, 4],
                                     Majority())
        assert np.array_equal(sigmas, np.zeros(3))
        assert np.array_equal(means, np.full(3, 2.0))

    @pytest.mark.parametrize("strategy", [
        Parity(), Majority(), Majority(TiePolicy.TIE_TO_PLUS),
        Majority(TiePolicy.RANDOMIZED)], ids=repr)
    def test_sigma_exactly_zero_at_n1(self, strategy):
        t = werner_correlators(settings_from_beta(0.3), 0.9)
        seqs = make_sequences(t, 30_001, seed=13)
        _, sigmas = bootstrap_sn(category_counts(seqs), [1, 2], strategy)
        assert sigmas[0] == 0.0
        assert sigmas[1] > 0.0

    def test_row_independent_of_grid(self):
        t = werner_correlators(settings_from_beta(0.4), 0.97)
        seqs = make_sequences(t, 4000, seed=6)
        strategy = Majority(TiePolicy.RANDOMIZED)
        alone = bootstrap_sn(category_counts(seqs), [4], strategy)
        grid = bootstrap_sn(category_counts(seqs), [1, 2, 4, 6], strategy)
        assert alone[0][0] == grid[0][2]
        assert alone[1][0] == grid[1][2]

    def test_shuffle_invariance_of_expectation(self):
        t = werner_correlators(settings_from_beta(0.3), 0.95)
        seqs = make_sequences(t, 30_000, seed=12)
        means, _ = bootstrap_sn(category_counts(seqs), [1, 2, 4, 12], Parity())
        for n, mean in zip([1, 2, 4, 12], means):
            assert mean == pytest.approx(shuffle_parity_mean(seqs, n),
                                         abs=1e-12), n

    def test_sigma_near_binomial_propagation(self):
        # compare the shuffle sigma against analytic error propagation
        beta, v, n = 0.234, 0.99, 5
        t = werner_correlators(settings_from_beta(beta), v)
        seqs = make_sequences(t, 100_000, seed=8)
        _, sigmas = bootstrap_sn(category_counts(seqs), [n], Parity())
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
        _, sigmas = bootstrap_sn(category_counts(seqs), n_values, Parity())
        for n, sigma in zip(n_values, sigmas):
            exact = finite_population_parity_sigma(seqs, n)
            assert sigma == pytest.approx(exact, rel=1e-4), n

    @pytest.mark.parametrize("tie", [TiePolicy.TIE_TO_MINUS,
                                     TiePolicy.RANDOMIZED], ids=repr)
    def test_majority_matches_monte_carlo(self, tie):
        t = werner_correlators(settings_from_beta(0.3), 0.97)
        seqs = make_sequences(t, 20_000, seed=5)
        n_values = [3, 4, 12]
        resamples = 400
        strategy = Majority(tie)
        _, sigmas = bootstrap_sn(category_counts(seqs), n_values, strategy)
        _, drawn = monte_carlo_bootstrap_sn(seqs, n_values, strategy,
                                            resamples, seed=2)
        for n, sigma, mc in zip(n_values, sigmas, drawn):
            mc_error = sigma / math.sqrt(2.0 * (resamples - 1))
            assert abs(mc - sigma) < 5.0 * mc_error, n

    @pytest.mark.parametrize("events", [200, 1000])
    @pytest.mark.parametrize("strategy", [
        Parity(), Majority(), Majority(TiePolicy.TIE_TO_PLUS),
        Majority(TiePolicy.RANDOMIZED)], ids=repr)
    def test_matches_exact_composition_sum(self, strategy, events):
        t = werner_correlators(settings_from_beta(0.3), 0.9)
        seqs = make_sequences(t, events, seed=events + 1)
        n_values = [2, 3, 4, 5]
        _, sigmas = bootstrap_sn(category_counts(seqs), n_values, strategy)
        for n, sigma in zip(n_values, sigmas):
            exact = exact_shuffle_sigma(seqs, n, strategy)
            assert sigma == pytest.approx(exact, rel=0.01), n

    @pytest.mark.parametrize("strategy", [
        Parity(), Majority(), Majority(TiePolicy.TIE_TO_PLUS),
        Majority(TiePolicy.RANDOMIZED)], ids=repr)
    def test_one_cluster_per_pair(self, strategy):
        # at m = 1 the covariance has weight 0, so sigma is
        # sqrt(sum Var(X)), which the exact sum gives too
        t = werner_correlators(settings_from_beta(0.3), 0.9)
        full = make_sequences(t, 12, seed=9)
        seqs = {sp: (a[:size], b[:size]) for size, (sp, (a, b))
                in zip((9, 10, 11, 12), full.items())}
        n_values = [7, 8]
        _, sigmas = bootstrap_sn(category_counts(seqs), n_values, strategy)
        resamples = 400
        _, drawn = monte_carlo_bootstrap_sn(seqs, n_values, strategy,
                                            resamples, seed=4)
        for n, sigma, mc in zip(n_values, sigmas, drawn):
            assert sigma > 0.0
            assert sigma == pytest.approx(
                exact_shuffle_sigma(seqs, n, strategy), rel=1e-9), n
            mc_error = sigma / math.sqrt(2.0 * (resamples - 1))
            assert abs(mc - sigma) < 5.0 * mc_error, n

    @pytest.mark.parametrize("strategy", [Parity(), Majority(),
                                          Majority(TiePolicy.TIE_TO_PLUS)],
                             ids=repr)
    def test_no_discordant_events(self, strategy):
        rng = np.random.default_rng(3)
        seqs = {}
        for sp in SETTING_PAIRS:
            a = rng.integers(0, 2, size=5000, dtype=np.uint8)
            seqs[sp] = (a, a.copy())
        _, sigmas = bootstrap_sn(category_counts(seqs), range(1, 9), strategy)
        assert np.all(sigmas < 1e-6)

    def test_too_few_events(self):
        seqs = constant_sequences(10)
        with pytest.raises(InsufficientDataError, match="n=11"):
            bootstrap_sn(category_counts(seqs), [2, 11], Parity())

    def test_draws_nothing(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a generator was created")
        t = werner_correlators(settings_from_beta(0.3), 0.95)
        seqs = make_sequences(t, 2000, seed=2)
        monkeypatch.setattr(np.random, "default_rng", fail)
        bootstrap_sn(category_counts(seqs), [1, 2, 4],
                     Majority(TiePolicy.RANDOMIZED))


STRATEGIES = [Parity(), Majority(TiePolicy.TIE_TO_MINUS),
              Majority(TiePolicy.TIE_TO_PLUS), Majority(TiePolicy.RANDOMIZED)]


class TestCorrelatorOracle:
    """The int8 sign sums give the float64 mean of the products exactly."""

    N_VALUES = list(range(1, 13)) + list(range(41, 45))

    @pytest.fixture(scope="class")
    def sequences(self):
        t = werner_correlators(settings_from_beta(0.151), 0.9871)
        return make_sequences(t, 20_011, seed=31)

    @pytest.mark.parametrize("strategy", STRATEGIES, ids=repr)
    def test_estimate_sn_equals_mean_of_products(self, sequences, strategy):
        for n in self.N_VALUES:
            clustered = {sp: cluster_events(sequences[sp], n)
                         for sp in SETTING_PAIRS}
            want = chsh_value([mean_correlator(clustered[sp], strategy)
                               for sp in SETTING_PAIRS], n=n)
            got = estimate_sn(clustered, strategy)
            assert got.correlators == want.correlators
            assert got.s == want.s

    @pytest.mark.parametrize("strategy", STRATEGIES, ids=repr)
    def test_find_nc_equals_mean_of_products(self, sequences, strategy):
        curve = find_nc({0.151: sequences}, strategy, self.N_VALUES)
        for _, n, s, _ in curve.entries:
            want = chsh_value([mean_correlator(cluster_events(
                sequences[sp], n), strategy) for sp in SETTING_PAIRS])
            assert s == want.s


def _runs(beta, seed, events=37, variants=(0, 1)):
    """Streams of every setting pair at `beta`, one per basis variant,
    each a few events short of a multiple of the cluster sizes."""
    t = werner_correlators(settings_from_beta(beta), 0.95)
    return [generate_run(t, sp, events + 4 * i + v, seed=seed,
                         basis_variant=v, extra_meta={"beta": beta})
            for v in variants for i, sp in enumerate(SETTING_PAIRS)]


def _write_compact(streams, path):
    """JSON lines whose events are compact JSON, off the bulk layout."""
    with path.open("w") as fh:
        for stream in streams:
            fh.write(json.dumps(_header(stream)) + "\n")
            fh.writelines(f'{{"a":{a},"b":{b}}}\n' for a, b in
                          zip(stream.a.tolist(), stream.b.tolist()))


def _write_interleaved(streams, path):
    """A CSV without stream lines, then one that names no setting pair:
    under each, the rows of a pair's streams interleave."""
    rng = np.random.default_rng(3)
    rows = []
    for stream in streams:
        x, y = stream.setting_pair
        rows += [(rng.random(), f"{x},{y},{stream.basis_variant},{a},{b}\n")
                 for a, b in zip(stream.a.tolist(), stream.b.tolist())]
    rows = [row for _, row in sorted(rows)]
    half = len(rows) // 2
    path.write_text("".join(["x,y,variant,a,b\n", *rows[:half],
                             '# stream: {"seed": 5}\n', *rows[half:]]))


def _fold_case(case, tmp_path) -> list:
    """The event files of one case of `TestFold`'s stream-order test."""
    a, b = tmp_path / "a.jsonl", tmp_path / "b.csv"
    if case == "two-streams":
        write_jsonl(_runs(0.3, 1), a)
        return [a]
    if case == "two-files":
        write_jsonl(_runs(0.3, 1, variants=(0, 2)), a)
        write_csv(_runs(0.3, 2, variants=(1, 3)), b)
        return [a, b]
    if case == "two-betas":
        write_csv(_runs(0.3, 1) + _runs(0.2, 1) + _runs(0.3, 2, 11, (3,)), b)
        return [b]
    if case == "compact-json":
        _write_compact(_runs(0.3, 1), a)
        return [a]
    _write_interleaved(_runs(0.3, 1), b)
    return [b]


class TestFold:
    """Event files fold stream by stream as they are read, into the sums
    that whole sequences give."""

    N_VALUES = [1, 2, 3, 5, 8, 13]

    @pytest.mark.parametrize("chunk_bytes", [1, 7, 64])
    @pytest.mark.parametrize("strategy", [Parity(),
                                          Majority(TiePolicy.RANDOMIZED)],
                             ids=repr)
    @pytest.mark.parametrize("case", [
        "two-streams", "two-files", "two-betas", "compact-json",
        "interleaved-csv"])
    def test_rows_equal_whole_sequences(self, tmp_path, monkeypatch, case,
                                        strategy, chunk_bytes):
        # clusters straddle streams and files; the oracle folds each
        # pair's whole sequence, read line by line (`ingest`)
        paths = _fold_case(case, tmp_path)
        want = find_nc(ingest(paths), strategy, self.N_VALUES)
        monkeypatch.setattr(eventfile, "_CHUNK_BYTES", chunk_bytes)
        assert find_nc(paths, strategy, self.N_VALUES) == want

    @pytest.mark.parametrize("write, suffix", [
        (write_jsonl, ".jsonl"), (write_csv, ".csv")], ids=["jsonl", "csv"])
    def test_memory_does_not_grow_with_the_file(self, tmp_path, capsys,
                                                write, suffix):
        # the analysis holds a chunk and the running sums; holding the
        # bits took about 4 bytes per event, 7 MB more at 2e6 events
        t = werner_correlators(settings_from_beta(0.151), 0.9871)
        peaks = []
        for events in (50_000, 500_000):
            p = tmp_path / f"e{events}{suffix}"
            write([generate_run(t, sp, events, seed=7)
                   for sp in SETTING_PAIRS], p)
            tracemalloc.start()
            try:
                code = cli.main(["analyze", "--files", str(p), "--n", "1..8"])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0 and capsys.readouterr().err == ""
        assert abs(peaks[1] - peaks[0]) <= eventfile._CHUNK_BYTES

    @pytest.mark.parametrize("fault", ["provenance", "draw", "pair"])
    def test_header_checks_precede_later_lines(self, tmp_path, capsys,
                                               fault):
        # a stream is checked when its header is read, so a malformed
        # line after it is not reached
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        streams = _runs(0.3, 1)
        write_jsonl(streams, first)
        if fault == "provenance":
            streams = [EventStream(s.setting_pair, s.basis_variant, s.a,
                                   s.b, {**s.meta, "visibility": 0.9})
                       for s in _runs(0.3, 2)]
        elif fault == "pair":
            streams[0] = EventStream((3, 1), 0, streams[0].a, streams[0].b)
        write_jsonl(streams, second)
        second.write_text(second.read_text() + "5\n")
        paths = [second] if fault == "pair" else [first, second]
        message = {
            "provenance": f"{first} and {second}: streams at beta=0.3 "
                          "differ in visibility; analyze them separately",
            "draw": f"{first} and {second}: streams at beta=0.3 repeat "
                    "seed 1 for setting pair (1, 1), basis variant 0; "
                    "their events would count twice",
            "pair": "unknown setting pair (3, 1)"}[fault]
        with pytest.raises(IngestionError) as exc:
            find_nc(paths, Parity(), [1])
        assert str(exc.value) == message
        code = cli.main(["analyze", "--files", *map(str, paths), "--n", "1"])
        assert (code, capsys.readouterr().err) == (1, f"error: {message}\n")
        # without the fault the malformed line is reported
        if fault != "draw":
            write_jsonl(_runs(0.3, 2), second)
            second.write_text(second.read_text() + "5\n")
            lines = len(second.read_text().splitlines())
            with pytest.raises(IngestionError,
                               match=f"b.jsonl:{lines}: unrecognized"):
                find_nc(paths, Parity(), [1])


class TestFindNc:
    def test_local_deterministic_data(self):
        seqs = constant_sequences(200)
        curve = find_nc({0.0: seqs}, Majority(), [1, 2, 4])
        assert curve.n_critical == 0  # S = 2 exactly, strict criterion
        assert curve.note is not None

    def test_n1_reduces_to_plain_chsh_decision(self):
        t = werner_correlators(settings_from_beta(math.pi / 4), 0.9)
        seqs = make_sequences(t, 50_000, seed=4)
        curve = find_nc({math.pi / 4: seqs}, Parity(), [1])
        beta, n, s, sigma = curve.entries[0]
        assert n == 1
        assert s > 2.0  # 0.9 * 2*sqrt(2) = 2.55
        assert curve.n_critical == 1

    def test_minus_k_sigma_stricter(self):
        t = werner_correlators(settings_from_beta(0.23), 0.99)
        seqs = make_sequences(t, 20_000, seed=10)
        point = find_nc({0.23: seqs}, Parity(), range(1, 8))
        assert point.criterion == MinusKSigma(0.0)  # the default
        assert point.n_critical == max(
            (n for _, n, s, _ in point.entries if s > 2.0), default=0)
        strict = find_nc({0.23: seqs}, Parity(), range(1, 8),
                         criterion=MinusKSigma(k=3.0))
        assert strict.n_critical <= point.n_critical

    @pytest.mark.parametrize("criterion", [3.0, "ksigma:3", None])
    def test_criterion_must_be_minus_k_sigma(self, criterion):
        # no data would raise too: the criterion is checked first
        with pytest.raises(InvalidArgumentError, match="criterion"):
            find_nc({}, Parity(), [1], criterion=criterion)

    def test_entries_sorted(self):
        t = werner_correlators(settings_from_beta(0.3), 0.95)
        seqs = make_sequences(t, 5000, seed=2)
        curve = find_nc({0.3: seqs, 0.2: seqs}, Parity(), [3, 1, 2])
        keys = [(n, beta) for beta, n, _, _ in curve.entries]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("strategy", [Parity(),
                                          Majority(TiePolicy.RANDOMIZED)],
                             ids=repr)
    def test_row_independent_of_grid(self, strategy):
        t = werner_correlators(settings_from_beta(0.3), 0.95)
        per_beta = {0.3: make_sequences(t, 5000, seed=2),
                    0.2: make_sequences(t, 5000, seed=3)}
        alone = find_nc(per_beta, strategy, [4])
        grid = find_nc(per_beta, strategy, range(1, 9))
        assert alone.entries == tuple(e for e in grid.entries if e[1] == 4)

    def test_draws_nothing(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a generator was created")
        t = werner_correlators(settings_from_beta(0.3), 0.95)
        seqs = make_sequences(t, 2000, seed=2)
        monkeypatch.setattr(np.random, "default_rng", fail)
        monkeypatch.setattr(np.random, "SeedSequence", fail)
        curve = find_nc({0.3: seqs}, Majority(TiePolicy.RANDOMIZED),
                        [1, 2, 4])
        assert [n for _, n, _, _ in curve.entries] == [1, 2, 4]

    @pytest.mark.parametrize("strategy", [Parity(),
                                          Majority(TiePolicy.RANDOMIZED)],
                             ids=repr)
    def test_runs_fold_as_the_whole_sequence(self, monkeypatch, strategy):
        # 3001 events per pair is one run by default; in runs of 7, the
        # clusters of every n but 1 and 7 straddle runs
        t = werner_correlators(settings_from_beta(0.3), 0.95)
        per_beta = {0.3: make_sequences(t, 3001, seed=2),
                    0.2: make_sequences(t, 3001, seed=3)}
        want = find_nc(per_beta, strategy, range(1, 14))
        monkeypatch.setattr(analyze, "_SEQUENCE_RUN", 7)
        assert find_nc(per_beta, strategy, range(1, 14)) == want

    @pytest.mark.parametrize("strategy, n_values", [
        (Parity(), [1]), (Parity(), range(1, 17)),
        (Majority(), range(41, 45))], ids=["parity-1", "parity-1..16",
                                           "majority-41..44"])
    def test_memory_does_not_grow_with_the_sequences(self, strategy,
                                                     n_values):
        # a sequence folds run by run, so the fold holds one run's
        # running totals and cluster counts; folding it whole took 26
        # bytes per event of a pair at n = 1, 23 MB more at 10^6 events
        rng = np.random.default_rng(8)
        peaks = []
        for events in (100_000, 1_000_000):
            seqs = {sp: (rng.integers(0, 2, events, dtype=np.uint8),
                         rng.integers(0, 2, events, dtype=np.uint8))
                    for sp in SETTING_PAIRS}
            tracemalloc.start()
            try:
                find_nc({0.3: seqs}, strategy, n_values)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # within the a and b bits of one run of 2^16 events
        assert abs(peaks[1] - peaks[0]) <= 2 * 2 ** 16

    @pytest.mark.parametrize("strategy", [Parity(),
                                          Majority(TiePolicy.RANDOMIZED)],
                             ids=repr)
    def test_reshape_clustering_gives_same_entries(self, strategy):
        t = werner_correlators(settings_from_beta(0.3), 0.95)
        per_beta = {0.3: make_sequences(t, 3000, seed=2),
                    0.2: make_sequences(t, 3000, seed=3)}
        curve = find_nc(per_beta, strategy, range(1, 9))
        want = []
        for beta, seqs in per_beta.items():
            sigmas = bootstrap_sn(category_counts(seqs), range(1, 9),
                                  strategy)[1]
            for n, sigma in zip(range(1, 9), sigmas):
                s = chsh_value([mean_correlator(reshape_cluster_events(
                    seqs[sp], n), strategy) for sp in SETTING_PAIRS]).s
                want.append((beta, n, s, sigma))
        assert curve.entries == tuple(sorted(want, key=lambda e: e[1::-1]))
