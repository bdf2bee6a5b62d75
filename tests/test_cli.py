import argparse
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import manypairs
from manypairs import cli
from manypairs import optimize as opt
from manypairs.binning import Majority, Parity
from manypairs.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestScanVc:
    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "scan-vc", "--n", "1,2,3",
                           "--strategy", "parity")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# config:")
        header = next(l for l in lines if l.startswith("n,"))
        assert header.split(",")[:3] == ["n", "v_c", "strategy"]
        first = lines[lines.index(header) + 1].split(",")
        assert first[0] == "1"
        assert float(first[1]) == pytest.approx(1 / math.sqrt(2), abs=1e-3)

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "scan-vc", "--n", "2..4",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["strategy"] == "majority"
        assert doc["config"]["n"] == "2..4"
        assert [r[0] for r in doc["rows"]] == [2, 3, 4]
        assert "monotone" in doc

    def test_out_file_and_env_redirect(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MANYPAIRS_OUTDIR", str(tmp_path))
        code, out, _ = run(capsys, "scan-vc", "--n", "1", "--out", "vc.csv")
        assert code == 0
        assert out == ""
        assert (tmp_path / "vc.csv").exists()


class TestMaxS:
    def test_beta_grid(self, capsys):
        code, out, _ = run(capsys, "max-s", "--n", "1", "--beta",
                           "0.7853981633974483", "--strategy", "parity")
        assert code == 0
        last = out.strip().splitlines()[-1].split(",")
        assert float(last[2]) == pytest.approx(2 * math.sqrt(2), abs=1e-5)

    def test_range_expansion(self, capsys):
        code, out, _ = run(capsys, "max-s", "--n", "2,4", "--beta",
                           "0.1..0.3", "--beta-points", "5")
        assert code == 0
        rows = [l for l in out.strip().splitlines()
                if not l.startswith(("#", "beta"))]
        assert len(rows) == 10

    @pytest.mark.parametrize("strategy", ["parity", "majority"])
    def test_rows_match_scalar_calls(self, capsys, monkeypatch, strategy):
        # one array call per n, rows in (n, beta) order, each within 1e-14
        # of a scalar call
        calls = []
        family_chsh = opt.family_chsh

        def spy(beta, *args):
            calls.append(np.shape(beta))
            return family_chsh(beta, *args)

        monkeypatch.setattr(opt, "family_chsh", spy)
        code, out, _ = run(capsys, "max-s", "--n", "1001,3,12",
                           "--beta=-0.3..3.1", "--beta-points", "65", "--v",
                           "0.9999", "--strategy", strategy, "--format",
                           "json")
        assert code == 0
        assert calls == [(65,)] * 3
        betas = np.linspace(-0.3, 3.1, 65).tolist()
        rows = json.loads(out)["rows"]
        assert [row[:2] for row in rows] == [
            [beta, n] for n in (1001, 3, 12) for beta in betas]
        binning = Parity() if strategy == "parity" else Majority()
        for beta, n, s in rows:
            assert abs(s - family_chsh(beta, 0.9999, n, binning)) <= 1e-14


class TestSimulateAnalyze:
    def test_simulate_deterministic_files(self, tmp_path, capsys):
        args = ["simulate", "--beta", "0.3", "--v", "0.95", "--events",
                "400", "--seed", "11", "--format", "json"]
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run(capsys, *args, "--out", str(p1))[0] == 0
        assert run(capsys, *args, "--out", str(p2))[0] == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_closed_loop(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        code, _, _ = run(capsys, "simulate", "--beta", "0.25", "--v",
                         "0.99", "--events", "20000", "--seed", "5",
                         "--format", "json", "--out", str(events))
        assert code == 0
        code, out, _ = run(capsys, "analyze", "--files", str(events),
                           "--n", "1..4", "--strategy", "parity",
                           "--resamples", "30", "--seed", "0",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["nCritical"] >= 1
        s1 = next(r[2] for r in doc["rows"] if r[1] == 1)
        # V = 0.99 single-pair CHSH at beta = 0.25 is comfortably above 2
        assert s1 > 2.0

    def test_sigma_independent_of_resamples_and_seed(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        run(capsys, "simulate", "--beta", "0.25", "--v", "0.99", "--events",
            "2000", "--seed", "5", "--out", str(events))
        docs = []
        for resamples, seed in (("2", "0"), ("1000", "7")):
            code, out, _ = run(capsys, "analyze", "--files", str(events),
                               "--n", "1..6", "--tie", "randomized",
                               "--resamples", resamples, "--seed", seed,
                               "--format", "json")
            assert code == 0
            docs.append(json.loads(out))
            assert docs[-1]["config"]["resamples"] == int(resamples)
        sigmas = [[r[3] for r in doc["rows"]] for doc in docs]
        assert sigmas[0] == sigmas[1]
        assert sigmas[0][0] == 0.0 and all(s > 0.0 for s in sigmas[0][1:])

    def test_one_cluster_per_pair_finite_sigma(self, tmp_path, capsys):
        # n = 150 leaves one cluster of 200 events per pair
        events = tmp_path / "events.jsonl"
        run(capsys, "simulate", "--beta", "0.2", "--v", "0.95", "--events",
            "200", "--seed", "3", "--out", str(events))
        code, out, err = run(capsys, "analyze", "--files", str(events),
                             "--n", "150", "--format", "json")
        assert code == 0 and err == ""
        (row,) = json.loads(out)["rows"]
        assert math.isfinite(row[3]) and row[3] > 0.0

    def test_randomized_rows_independent_of_seed(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        run(capsys, "simulate", "--beta", "0.25", "--v", "0.99", "--events",
            "2000", "--seed", "5", "--out", str(events))
        outputs = []
        for seed in (("--seed", "0"), ("--seed", "7"), ()):
            code, out, _ = run(capsys, "analyze", "--files", str(events),
                               "--n", "1..8", "--tie", "randomized", *seed)
            assert code == 0
            config, rows = out.split("\n", 1)
            assert json.loads(config.removeprefix("# config: ")).get(
                "seed") == (int(seed[1]) if seed else None)
            outputs.append(rows)
        # everything after the config line, which echoes the seed
        assert outputs[0] == outputs[1] == outputs[2]

    def test_symmetrize_and_csv(self, tmp_path, capsys):
        events = tmp_path / "events.csv"
        code, _, _ = run(capsys, "simulate", "--beta", "0.2", "--v", "0.9",
                         "--events", "50", "--seed", "1", "--symmetrize",
                         "--out", str(events))
        assert code == 0
        header = events.read_text().splitlines()[0]
        assert header == "x,y,variant,a,b"
        code, out, _ = run(capsys, "analyze", "--files", str(events),
                           "--n", "1", "--resamples", "10", "--seed", "0",
                           "--format", "json")
        assert code == 0
        # the beta of each stream survives the CSV round trip
        assert [r[0] for r in json.loads(out)["rows"]] == [0.2]

    def test_format_follows_suffix(self, tmp_path, capsys):
        events = tmp_path / "e.jsonl"
        code, _, _ = run(capsys, "simulate", "--beta", "0.25", "--v", "0.99",
                         "--events", "200", "--seed", "2", "--out",
                         str(events))
        assert code == 0
        assert json.loads(events.read_text().splitlines()[0])["beta"] == 0.25
        code, out, _ = run(capsys, "analyze", "--files", str(events),
                           "--n", "1,2", "--resamples", "10", "--seed", "0",
                           "--format", "json")
        assert code == 0
        assert [r[:2] for r in json.loads(out)["rows"]] == [[0.25, 1],
                                                            [0.25, 2]]

    def _simulate(self, capsys, path, v, seed, *extra, events="300"):
        code, _, _ = run(capsys, "simulate", "--beta", "0.151", "--v", v,
                         "--events", events, "--seed", seed, "--out",
                         str(path), *extra)
        assert code == 0

    @pytest.mark.parametrize("second, field", [
        (("0.90", "2"), "visibility"),
        (("0.9871", "2", "--override", "2,2=0.5"), "table"),
    ], ids=["visibility", "correlator-table"])
    def test_mixed_provenance_not_pooled(self, tmp_path, capsys, second,
                                         field):
        first_path, second_path = tmp_path / "a.csv", tmp_path / "b.jsonl"
        self._simulate(capsys, first_path, "0.9871", "1")
        self._simulate(capsys, second_path, *second)
        code, out, err = run(capsys, "analyze", "--files", str(first_path),
                             str(second_path), "--n", "1", "--resamples",
                             "10", "--seed", "0")
        assert code == 1
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert str(first_path) in err and str(second_path) in err
        assert field in err

    def test_seeds_and_event_counts_pool(self, tmp_path, capsys):
        first, second = tmp_path / "a.csv", tmp_path / "b.jsonl"
        self._simulate(capsys, first, "0.9871", "1")
        self._simulate(capsys, second, "0.9871", "2", events="500")
        code, out, _ = run(capsys, "analyze", "--files", str(first),
                           str(second), "--n", "1", "--resamples", "10",
                           "--seed", "0", "--format", "json")
        assert code == 0
        assert [r[0] for r in json.loads(out)["rows"]] == [0.151]

    @pytest.mark.parametrize("second", ["same", "copy", "more-events"])
    def test_repeated_draw_refused(self, tmp_path, capsys, second):
        # a seed's events pooled twice would count double and shrink sigma
        # by sqrt(2); a seed drawn again with more events overlaps too
        first = tmp_path / "a.jsonl"
        self._simulate(capsys, first, "0.9871", "1", "--symmetrize")
        other = {"same": first, "copy": tmp_path / "b.jsonl",
                 "more-events": tmp_path / "b.csv"}[second]
        if second == "copy":
            other.write_bytes(first.read_bytes())
        elif second == "more-events":
            self._simulate(capsys, other, "0.9871", "1", "--symmetrize",
                           events="500")
        code, out, err = run(capsys, "analyze", "--files", str(first),
                             str(other), "--n", "1")
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert f"{first} and {other}" in err and "repeat seed 1" in err

    def test_override(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        code, _, _ = run(capsys, "simulate", "--beta", "0.3", "--v", "1.0",
                         "--events", "2000", "--seed", "3", "--override",
                         "2,2=0.0", "--format", "json", "--out", str(events))
        assert code == 0
        text = events.read_text()
        assert '"e22": 0.0' in text


class TestCompareRatio:
    def test_compare_columns(self, capsys):
        code, out, _ = run(capsys, "compare", "--v", "0.98", "--n", "3,5",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["columns"] == ["v", "n", "s_majority", "s_parity"]
        assert len(doc["rows"]) == 2

    @pytest.mark.parametrize("n, winner", [("1", "tie"), ("1,2", "parity")])
    def test_compare_winner(self, capsys, n, winner):
        code, out, _ = run(capsys, "compare", "--v", "0.99", "--n", n,
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["winners"] == [[0.99, winner]]
        assert doc["crossover"] is None

    def test_compare_config_echo(self, capsys):
        code, out, _ = run(capsys, "compare", "--v", "0.98..0.985",
                           "--v-points", "2", "--n", "3", "--tol", "1e-3")
        assert code == 0
        assert out.splitlines()[0] == (
            '# config: {"command": "compare", "v": "0.98..0.985", '
            '"v_points": 2, "n": "3", "mode": "beta-family", "tol": 0.001}')

    @pytest.mark.parametrize("argv, grid", [
        (("compare", "--v", "0.98..0.985", "--v-points", "2", "--n", "3"),
         {"v": "0.98..0.985", "v_points": 2}),
        (("compare", "--v", "0.98,0.985", "--v-points", "2", "--n", "3"),
         {"v": "0.98,0.985"}),
        (("ratio", "--v", "0.98..0.985", "--v-points", "3"),
         {"v": "0.98..0.985", "v_points": 3}),
        (("ratio", "--v", "0.98", "--v-points", "3"), {"v": "0.98"}),
        (("max-s", "--n", "3", "--beta", "0.1..0.2", "--beta-points", "4"),
         {"beta": "0.1..0.2", "beta_points": 4}),
        (("max-s", "--n", "3", "--beta", "0.1..0.2"),
         {"beta": "0.1..0.2", "beta_points": 64}),
        (("max-s", "--n", "3", "--beta", "0.1,0.2", "--beta-points", "4"),
         {"beta": "0.1,0.2"}),
    ], ids=["compare-range", "compare-list", "ratio-range", "ratio-list",
            "max-s-range", "max-s-default-points", "max-s-list"])
    def test_config_echo_determines_grid(self, capsys, argv, grid):
        # the point count is echoed exactly when it shapes the grid
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        config = json.loads(out)["config"]
        name = next(iter(grid))
        assert {k: v for k, v in config.items()
                if k.startswith(name)} == grid

    def test_ratio_value(self, capsys):
        code, out, _ = run(capsys, "ratio", "--v", "0.99")
        assert code == 0
        last = out.strip().splitlines()[-1].split(",")
        assert float(last[1]) == pytest.approx(0.324, abs=2e-3)


def test_compare_mode_changes_only_its_echo(capsys):
    docs = {}
    for mode in ("beta-family", "full-planar"):
        code, out, _ = run(capsys, "compare", "--v", "0.99,0.999", "--n",
                           "3,5", "--mode", mode, "--format", "json")
        assert code == 0
        docs[mode] = json.loads(out)
        assert docs[mode]["config"].pop("mode") == mode
    assert docs["beta-family"] == docs["full-planar"]


class TestErrors:
    def test_domain_error_exit_code(self, capsys):
        code, _, err = run(capsys, "ratio", "--v", "0.5")
        assert code == 1
        assert "error:" in err

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_criterion(self, tmp_path, capsys):
        events = tmp_path / "e.jsonl"
        run(capsys, "simulate", "--beta", "0.2", "--v", "0.9", "--events",
            "40", "--seed", "0", "--out", str(events))
        code, _, err = run(capsys, "analyze", "--files", str(events),
                           "--n", "1", "--seed", "0", "--resamples", "10",
                           "--criterion", "bogus")
        assert code == 1
        assert "unknown criterion" in err

    def test_malformed_ksigma_criterion(self, tmp_path, capsys):
        events = tmp_path / "e.jsonl"
        run(capsys, "simulate", "--beta", "0.2", "--v", "0.9", "--events",
            "40", "--seed", "0", "--out", str(events))
        code, out, err = run(capsys, "analyze", "--files", str(events),
                             "--n", "1", "--seed", "0", "--resamples", "10",
                             "--criterion", "ksigma:x")
        assert code == 1
        assert out == ""
        assert err == "error: malformed criterion 'ksigma:x'\n"

    @pytest.mark.parametrize("argv", [
        ("max-s", "--strategy", "majority", "--n", "3", "--beta", "0.3",
         "--v", "1.5"),
        ("max-s", "--strategy", "majority", "--n", "0", "--beta", "0.3"),
        ("max-s", "--n", "3", "--beta", "nan"),
        ("max-s", "--n", "3", "--beta", "inf"),
        ("max-s", "--n", "3", "--beta", "1e308"),
    ], ids=["visibility-above-1", "zero-pairs", "beta-nan", "beta-inf",
            "beta-triple-overflows"])
    def test_max_s_domain_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ("compare", "--v", "0.988..0.999", "--v-points", "23", "--n",
         "3,5,7,9,11", "--tol", "0"),
        ("compare", "--v", "0.988..0.999", "--v-points", "23", "--n",
         "3,5,7,9,11", "--tol", "-1"),
        ("compare", "--v", "0.99,0.995", "--n", "3", "--tol", "nan"),
        ("compare", "--v", "0.99,0.995", "--n", "3", "--tol", "inf"),
        ("scan-vc", "--n", "2..4", "--width", "0"),
        ("scan-vc", "--n", "2..4", "--width", "nan"),
        ("analyze", "--files", "missing.jsonl", "--n", "1", "--seed", "0"),
        ("analyze", "--files", "binary.csv", "--n", "1", "--seed", "0"),
        ("analyze", "--files", "stream5.csv", "--n", "1", "--seed", "0"),
        ("analyze", "--files", "record5.jsonl", "--n", "1", "--seed", "0"),
        ("analyze", "--files", "variantx.jsonl", "--n", "1", "--seed", "0"),
        ("analyze", "--files", "pair3.jsonl", "--n", "1", "--seed", "0"),
        ("analyze", "--files", "long.jsonl", "--n", "1", "--seed", "0"),
        ("analyze", "--files", "ok.jsonl", "--n", "1", "--seed", "0",
         "--criterion", "ksigma:nan"),
        ("analyze", "--files", "ok.jsonl", "--n", "1", "--seed", "0",
         "--criterion", "ksigma:-3"),
        ("analyze", "--files", "ok.jsonl", "--n", "1", "--seed", "0",
         "--criterion", "ksigma:inf"),
        ("analyze", "--files", "betaa.jsonl", "--n", "1", "--seed", "0"),
        ("analyze", "--files", "betanan.jsonl", "--n", "1", "--seed", "0"),
        ("analyze", "--files", "visnan.jsonl", "--n", "1", "--seed", "0"),
        ("analyze", "--files", "visa.jsonl", "--n", "1"),
        ("analyze", "--files", "visneg.jsonl", "--n", "1"),
        ("analyze", "--files", "table5.jsonl", "--n", "1"),
        ("analyze", "--files", "detx.jsonl", "--n", "1"),
        ("analyze", "--files", "discard7.jsonl", "--n", "1"),
        ("simulate", "--beta", "1e308", "--v", "0.9", "--events", "40",
         "--seed", "0", "--out", "big.jsonl"),
    ], ids=["compare-tol-0", "compare-tol-negative", "compare-tol-nan",
            "compare-tol-inf", "scan-vc-width-0", "scan-vc-width-nan",
            "analyze-missing-file", "analyze-binary-file",
            "analyze-csv-stream-not-object", "analyze-jsonl-record-not-object",
            "analyze-jsonl-variant-not-integer",
            "analyze-jsonl-pair-not-list", "analyze-jsonl-long-integer",
            "analyze-ksigma-nan", "analyze-ksigma-negative",
            "analyze-ksigma-inf", "analyze-beta-string", "analyze-beta-nan",
            "analyze-visibility-nan", "analyze-visibility-string",
            "analyze-visibility-negative", "analyze-table-number",
            "analyze-detector-string", "analyze-discard-above-1",
            "simulate-beta-triple-overflows"])
    def test_bad_value_exit_1(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        run(capsys, "simulate", "--beta", "0.2", "--v", "0.9", "--events",
            "40", "--seed", "0", "--out", "ok.jsonl")
        (tmp_path / "binary.csv").write_bytes(b"x,y,variant,a,b\n\xff\xfe\n")
        (tmp_path / "stream5.csv").write_text(
            "x,y,variant,a,b\n# stream: 5\n1,1,0,1,0\n")
        (tmp_path / "record5.jsonl").write_text(
            '{"settingPair": [1, 1], "basisVariant": 0}\n5\n')
        (tmp_path / "variantx.jsonl").write_text(
            '{"settingPair": [1, 1], "basisVariant": "x"}\n')
        (tmp_path / "pair3.jsonl").write_text(
            '{"settingPair": 3, "basisVariant": 0}\n{"a": 0, "b": 1}\n')
        (tmp_path / "long.jsonl").write_text(
            '{"settingPair": [1, 1], "basisVariant": 0}\n{"a": '
            + "1" * 5000 + ', "b": 1}\n')
        ok = (tmp_path / "ok.jsonl").read_text()
        (tmp_path / "betaa.jsonl").write_text(
            ok.replace('"beta": 0.2', '"beta": "a"', 1))
        (tmp_path / "betanan.jsonl").write_text(
            ok.replace('"beta": 0.2', '"beta": NaN', 1))
        (tmp_path / "visnan.jsonl").write_text(
            ok.replace('"visibility": 0.9', '"visibility": NaN'))
        for name, pattern, value in (
                ("visa", r'"visibility": [^,}]*', '"visibility": "a"'),
                ("visneg", r'"visibility": [^,}]*', '"visibility": -3'),
                ("table5", r'"table": \{[^}]*\}', '"table": 5'),
                ("detx", r'"detector": \{[^}]*\}', '"detector": "x"'),
                ("discard7", r'"discardProb": [^,}]*', '"discardProb": 7')):
            edited = re.sub(pattern, value, ok, count=1)
            assert edited != ok
            (tmp_path / f"{name}.jsonl").write_text(edited)
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    # A valid simulated file with one line edited; the unedited forms
    # (exit 0) show that the edit alone makes the file malformed.
    @pytest.mark.parametrize("name, line, old, new, message", [
        ("e.csv", 3, None, "1,1,0,1,0", None),
        ("e.csv", 3, None, "1,1,0,1,0,7", "malformed row '1,1,0,1,0,7'"),
        ("e.csv", 3, None, "1,1,0,0_1,0", "malformed row '1,1,0,0_1,0'"),
        ("e.csv", 3, None, "1,1,0,+1,0", "malformed row '1,1,0,+1,0'"),
        ("e.csv", 3, None, "1,1,0,1, 0", "malformed row '1,1,0,1, 0'"),
        ("e.jsonl", 1, '"basisVariant": 0', '"basisVariant": 2', None),
        ("e.jsonl", 1, '"basisVariant": 0', '"basisVariant": 2.7',
         "basis variant outside 0..3"),
        ("e.jsonl", 1, "[1, 1]", "[true, 1]",
         "setting pair [True, 1] is not two integers"),
        ("e.jsonl", 2, None, '{"a": 1, "b": 0}', None),
        ("e.jsonl", 2, None, '{"a": true, "b": 0}', "outcomes must be bits"),
        ("e.jsonl", 2, None, '{"a": 1, "b": 0.0}', "outcomes must be bits"),
    ], ids=["csv-valid", "csv-six-cells", "csv-underscore", "csv-plus-sign",
            "csv-space", "jsonl-valid-variant", "jsonl-variant-float",
            "jsonl-pair-bool", "jsonl-valid-bits", "jsonl-bit-bool",
            "jsonl-bit-float"])
    def test_malformed_event_line_exit_1(self, tmp_path, capsys, name, line,
                                         old, new, message):
        path = tmp_path / name
        run(capsys, "simulate", "--beta", "0.2", "--v", "0.9", "--events",
            "40", "--seed", "0", "--out", str(path))
        lines = path.read_text().split("\n")
        lines[line - 1] = (new if old is None
                           else lines[line - 1].replace(old, new, 1))
        path.write_text("\n".join(lines))
        code, out, err = run(capsys, "analyze", "--files", str(path), "--n",
                             "1", "--seed", "0", "--resamples", "2")
        if message is None:
            assert code == 0 and err == ""
        else:
            assert code == 1
            assert out == ""
            assert err == f"error: {path}:{line}: {message}\n"

    @pytest.mark.parametrize("argv", [
        ("scan-vc", "--n", "3..x"),
        ("max-s", "--n", "2", "--beta", "0.1..y"),
        ("ratio", "--v", "0.99,z"),
        ("simulate", "--beta", "0.2", "--v", "0.9", "--seed", "0",
         "--override", "2,2", "--out", "e.jsonl"),
        ("simulate", "--beta", "0.2", "--v", "0.9", "--seed", "0"),
        ("simulate", "--beta", "0.2", "--v", "0.9", "--seed", "0",
         "--format", "csv", "--out", "e.jsonl"),
        ("ratio", "--v", "0.99..0.995", "--v-points", "-1"),
        ("ratio", "--v", "0.99..0.995", "--v-points", "0"),
        ("compare", "--v", "0.99..0.995", "--v-points", "0", "--n", "3"),
        ("max-s", "--n", "2", "--beta", "0.1..0.3", "--beta-points", "0"),
        ("scan-vc", "--n", "5..3"),
        ("scan-vc", "--n", ","),
        ("simulate", "--beta", "0.2", "--v", "0.9", "--seed", "-1",
         "--out", "e.jsonl"),
        ("analyze", "--files", "e.jsonl", "--n", "1", "--seed", "-1"),
        ("analyze", "--files", "e.jsonl", "--n", "1", "--seed", "0",
         "--threads", "2"),
        ("scan-vc", "--n", "2..4", "--mode", "beta-family"),
    ], ids=["malformed-n", "malformed-beta", "malformed-v",
            "malformed-override", "simulate-without-out",
            "format-contradicts-suffix", "ratio-negative-points",
            "ratio-zero-points", "compare-zero-points", "max-s-zero-points",
            "empty-n-range", "empty-n-list", "simulate-negative-seed",
            "analyze-negative-seed", "analyze-threads-gone",
            "scan-vc-mode-gone"])
    def test_usage_error_exit_2(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "e.jsonl").exists()

    @pytest.mark.parametrize("argv, path", [
        (("max-s", "--n", "3", "--beta", "0.1", "--out", "adir"), "adir"),
        (("simulate", "--beta", "0.2", "--v", "0.9", "--events", "10",
          "--seed", "0", "--out", "adir"), "adir"),
        (("ratio", "--v", "0.99", "--out", "afile/x.csv"), "afile/x.csv"),
    ], ids=["emit-to-directory", "simulate-to-directory",
            "parent-is-a-file"])
    def test_unwritable_out_exit_1(self, tmp_path, monkeypatch, capsys, argv,
                                   path):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "adir").mkdir()
        (tmp_path / "afile").write_text("")
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {path}: cannot write")
        assert len(err.splitlines()) == 1


class TestIntegerBounds:
    """Oversized integers are refused by the argparse types, before any
    work; no huge value is run."""

    @pytest.mark.parametrize("text", [
        "4097", "3,4097", "2..5000", "99999999999999999999",
        "1..99999999999999999999", "-99999999999999999999..3",
        ",".join(["1"] * 4097)],
        ids=["above-cap", "list-above-cap", "range-above-cap", "huge",
             "huge-range", "huge-negative-range", "too-many-values"])
    def test_pair_counts_refused(self, text):
        with pytest.raises(argparse.ArgumentTypeError):
            cli._INT_RANGE(text)

    def test_pair_count_cap_accepted(self):
        assert cli.N_MAX == 4096
        assert cli._INT_RANGE("4096") == "4096"
        assert cli._parse_int_range("1..4096") == list(range(1, 4097))

    @pytest.mark.parametrize("check, cap", [
        (cli._POINTS, cli.POINTS_MAX), (cli._EVENTS, cli.EVENTS_MAX)],
        ids=["points", "events"])
    def test_upper_bounds(self, check, cap):
        assert check(str(cap)) == cap
        for text in (str(cap + 1), "99999999999999999999"):
            with pytest.raises(argparse.ArgumentTypeError):
                check(text)

    @pytest.mark.parametrize("argv", [
        ("scan-vc", "--n", "4097"),
        ("max-s", "--n", "4097", "--beta", "0.1"),
        ("analyze", "--files", "e.jsonl", "--n", "4097"),
        ("compare", "--v", "0.99", "--n", "4097"),
        ("max-s", "--n", "3", "--beta", "0.1..0.2", "--beta-points",
         "99999999999999999999"),
        ("compare", "--v", "0.99..0.995", "--v-points",
         "99999999999999999999", "--n", "3"),
        ("ratio", "--v", "0.99..0.995", "--v-points",
         "99999999999999999999"),
        ("simulate", "--beta", "0.2", "--v", "0.9", "--seed", "0",
         "--events", "99999999999999999999", "--out", "e.jsonl"),
    ], ids=["scan-vc-n", "max-s-n", "analyze-n", "compare-n",
            "max-s-beta-points", "compare-v-points", "ratio-v-points",
            "simulate-events"])
    def test_every_subcommand_refuses(self, capsys, argv):
        # parsing alone: the refusal comes before any command runs
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(list(argv))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"manypairs {argv[0]}: error: argument --")
        assert len(err.splitlines()) == 1


# Edge values per kind of flag.  Every value is invalid or cheap: the
# argparse types refuse the huge ones before any work.
_INTS = ["nan", "inf", "-1", "0", "", "99999999999999999999", "x", "1e3",
         "1..", "2..1", "5..2", "-3..2", "1,,2", "-99999999999999999999..3",
         "1,2", "3"]
_FLOATS = ["nan", "inf", "-inf", "-1", "-0", "0", "", "1e-320", "1e308",
           "1.5", "1", "x", "0.5..0.6"]
_FLOAT_LISTS = _FLOATS + ["0.99..nan", "nan..0.99", "0.9..inf", "-inf..0.9",
                          "-1e308..1e308", "1..0.9", "0.9..0.9", "0.99,",
                          ","]
_POINTS = ["0", "-1", "nan", "", "1.5", "99999999999999999999", "1", "2"]
_SEEDS = ["-1", "nan", "", "99999999999999999999", "0"]
_EVENTS = ["0", "-1", "nan", "", "99999999999999999999", "1", "3"]
_ENUMS = ["bogus", "", "MAJORITY"]
_FORMATS = ["xml", "", "csv", "json"]
_COMMON = {"--strategy": _ENUMS + ["parity"],
           "--tie": _ENUMS + ["randomized"], "--format": _FORMATS}
#: subcommand: (cheap valid arguments, edge values per flag)
_FUZZ_COMMANDS = {
    "scan-vc": (["--n", "2..4"],
                {**_COMMON, "--n": _INTS, "--width": _FLOATS}),
    "max-s": (["--n", "3", "--beta", "0.1..0.3", "--beta-points", "5"],
              {**_COMMON, "--n": _INTS, "--beta": _FLOAT_LISTS,
               "--beta-points": _POINTS, "--v": _FLOATS}),
    "simulate": (["--beta", "0.25", "--v", "0.99", "--events", "50",
                  "--seed", "1", "--out", "new.jsonl"],
                 {"--beta": _FLOATS, "--v": _FLOATS, "--events": _EVENTS,
                  "--seed": _SEEDS, "--eta-t-a": _FLOATS,
                  "--eta-r-b": _FLOATS, "--discard-prob": _FLOATS,
                  "--override": ["1,1=nan", "1,1=-inf", "1,1=2", "2,2=-1",
                                 "3,3=0.5", "=", "", "1,1=0.5"],
                  "--format": _FORMATS,
                  "--out": ["", ".", "new.csv", "sub/new.jsonl",
                            "blob.csv/x.jsonl"]}),
    "analyze": (["--files", "ev.jsonl", "--n", "1..3"],
                {**_COMMON, "--n": _INTS, "--seed": _SEEDS,
                 "--files": ["missing.jsonl", "", ".", "blob.csv",
                             "empty.jsonl", "ev.csv", "ev.jsonl"],
                 "--resamples": ["nan", "-1", "0", "",
                                 "99999999999999999999"],
                 "--criterion": ["point", "bogus", "ksigma:", "ksigma:nan",
                                 "ksigma:inf", "ksigma:-inf", "ksigma:-1",
                                 "ksigma:1e308"]}),
    "compare": (["--v", "0.99,0.995", "--n", "3"],
                {"--v": _FLOAT_LISTS, "--v-points": _POINTS, "--n": _INTS,
                 "--mode": _ENUMS, "--tol": _FLOATS, "--format": _FORMATS}),
    "ratio": (["--v", "0.99"],
              {"--v": _FLOAT_LISTS, "--v-points": _POINTS,
               "--format": _FORMATS}),
}


def _fuzz_argv(rng: random.Random) -> list[str]:
    """A subcommand's cheap valid arguments with one or two flags set to
    edge values."""
    command = rng.choice(sorted(_FUZZ_COMMANDS))
    argv, flags = _FUZZ_COMMANDS[command]
    argv = list(argv)
    for flag in rng.sample(sorted(flags), rng.choice([1, 2])):
        value = rng.choice(flags[flag])
        if flag in argv:
            argv[argv.index(flag) + 1] = value
        else:
            argv += [flag, value]
    return [command, *argv]


@pytest.mark.parametrize("text", ["0.9..inf", "-inf..0.9", "nan..0.99",
                                  "-1e308..1e308"])
def test_non_finite_float_range_refused(capsys, text):
    # np.linspace over such a range warned and returned nan values
    with pytest.raises(argparse.ArgumentTypeError):
        cli._FLOAT_LIST(text)
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["ratio", "--v", text])
    assert exc.value.code == 2
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_seeded_fuzz_exits_cleanly(tmp_path, monkeypatch, capsys):
    # every edge case exits 0, 1 or 2 with at most one line on stderr,
    # no traceback and no RuntimeWarning
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.OUTDIR_ENV, raising=False)
    for out in ("ev.jsonl", "ev.csv"):
        assert main(["simulate", "--beta", "0.25", "--v", "0.99", "--events",
                     "200", "--seed", "1", "--out", out]) == 0
    (tmp_path / "blob.csv").write_bytes(b"\x00\xff" * 10)
    (tmp_path / "empty.jsonl").write_text("")
    rng = random.Random(1712)
    broken = []
    for _ in range(300):
        argv = _fuzz_argv(rng)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # reported with its argv below
                code = repr(exc)
        err = capsys.readouterr().err
        if (code not in (0, 1, 2) or len(err.splitlines()) > 1
                or "Traceback" in err
                or any(issubclass(w.category, RuntimeWarning)
                       for w in caught)):
            broken.append((shlex.join(argv), code, err,
                           [str(w.message) for w in caught]))
    assert not broken


def readme_cli_examples() -> list[list[str]]:
    """Every `manypairs ...` command in the README's sh blocks, as argv."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"```sh\n(.*?)```", readme.read_text(), re.S)
    commands = []
    for block in blocks:
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("manypairs "):
                commands.append(shlex.split(line)[1:])
    return commands


def test_readme_cli_examples_parse():
    commands = readme_cli_examples()
    assert {argv[0] for argv in commands} == {
        "scan-vc", "max-s", "compare", "ratio", "simulate", "analyze"}
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README example does not parse: manypairs "
                        f"{shlex.join(argv)}")


def test_readme_library_sketch_runs(capsys):
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 5
    assert all(math.isfinite(float(v)) for v in printed)


def fresh_env() -> dict:
    """The environment of a fresh interpreter that imports this package."""
    src = str(Path(manypairs.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_fresh(tmp_path, script):
    """Run a Python script in a fresh interpreter that imports this
    package, and return its stdout; pytest's own imports stay out."""
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env=fresh_env(), capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestPipe:
    """An event file on a pipe, `--files /dev/stdin`, reads as JSON lines,
    front to back, as the file does."""

    @staticmethod
    def analyze_stdin(tmp_path, data: bytes):
        return subprocess.run(
            [sys.executable, "-m", "manypairs.cli", "analyze", "--files",
             "/dev/stdin", "--n", "1..3", "--format", "json"],
            cwd=tmp_path, env=fresh_env(), input=data, capture_output=True,
            timeout=120)

    @pytest.fixture
    def events(self, tmp_path, capsys):
        path = tmp_path / "ev.jsonl"
        assert run(capsys, "simulate", "--beta", "0.25", "--v", "0.99",
                   "--events", "400", "--seed", "3", "--symmetrize",
                   "--out", str(path))[0] == 0
        return path

    def test_pipe_reads_as_file(self, tmp_path, capsys, events):
        code, out, _ = run(capsys, "analyze", "--files", str(events), "--n",
                           "1..3", "--format", "json")
        assert code == 0
        done = self.analyze_stdin(tmp_path, events.read_bytes())
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout == out.encode()

    def test_malformed_line_named(self, tmp_path, events):
        lines = events.read_bytes().split(b"\n")
        lines[6] = b'{"a": 2, "b": 0}'
        done = self.analyze_stdin(tmp_path, b"\n".join(lines))
        assert done.returncode == 1 and done.stdout == b""
        assert done.stderr == b"error: /dev/stdin:7: outcomes must be bits\n"

    def test_empty_pipe_refused(self, tmp_path):
        done = self.analyze_stdin(tmp_path, b"")
        assert done.returncode == 1 and done.stdout == b""
        assert done.stderr == b"error: /dev/stdin: no event stream\n"


class TestStartup:
    """The package loads numpy alone: every command runs without scipy,
    `compare` with either `--mode` and with a crossover included."""

    def test_data_commands_load_no_scipy(self, tmp_path):
        out = run_fresh(tmp_path, """
import json, sys
import manypairs, manypairs.cli
from manypairs.cli import main

def scipy_loaded():
    return [m for m in ("scipy.special", "scipy.optimize")
            if m in sys.modules]

loaded = {"import": scipy_loaded()}
loaded["simulate"] = main(["simulate", "--beta", "0.25", "--v", "0.99",
                           "--events", "2000", "--seed", "3",
                           "--symmetrize", "--out", "ev.jsonl"])
loaded["analyze"] = main(["analyze", "--files", "ev.jsonl", "--n", "1..4",
                          "--out", "sn.csv"])
loaded["run"] = scipy_loaded()
print(json.dumps(loaded))
""")
        assert json.loads(out) == {"import": [], "simulate": 0,
                                   "analyze": 0, "run": []}
        rows = [line for line in (tmp_path / "sn.csv").read_text().splitlines()
                if not line.startswith("#")]
        assert [r.split(",")[1] for r in rows] == ["n", "1", "2", "3", "4"]

    def test_family_commands_load_no_optimizer(self, tmp_path):
        out = run_fresh(tmp_path, """
import json, sys
from manypairs.cli import main

loaded = []
for argv in (["max-s", "--n", "3", "--beta", "0.2,0.4", "--v", "0.99"],
             ["scan-vc", "--n", "2..8", "--strategy", "majority"],
             ["scan-vc", "--n", "2..8", "--strategy", "parity"],
             # a grid without a crossover needs no root
             ["compare", "--v", "0.99,0.995", "--n", "3"]):
    loaded.append([argv[0], main(argv), "scipy.optimize" in sys.modules])
print(json.dumps(loaded))
""")
        assert json.loads(out.splitlines()[-1]) == [
            ["max-s", 0, False], ["scan-vc", 0, False], ["scan-vc", 0, False],
            ["compare", 0, False]]

    def test_readme_commands_run_without_scipy(self, tmp_path):
        # a None entry in sys.modules makes every scipy import fail
        out = run_fresh(tmp_path, """
import json, sys
sys.modules["scipy"] = None
from manypairs.cli import main

codes = [["simulate", main(["simulate", "--beta", "0.151", "--v", "0.9871",
                             "--events", "2000", "--seed", "7",
                             "--symmetrize", "--eta-t-a", "0.8", "--out",
                             "ev.jsonl"]), None]]
for argv in (["analyze", "--files", "ev.jsonl", "--n", "1..4",
              "--strategy", "parity"],
             ["max-s", "--n", "12", "--beta", "0.05..0.4", "--beta-points",
              "8", "--v", "0.99", "--strategy", "parity"],
             ["ratio", "--v", "0.99"],
             ["scan-vc", "--n", "2..8", "--strategy", "majority"],
             # the parity advantage changes sign between 0.99 and 0.999
             ["compare", "--v", "0.99,0.999", "--n", "3,9"],
             ["compare", "--v", "0.99,0.999", "--n", "3,5", "--mode",
              "full-planar"]):
    code = main(argv + ["--format", "json", "--out", "out.json"])
    doc = json.loads(open("out.json").read())
    codes.append([argv[0], code, doc.get("crossover")])
print(json.dumps(codes))
""")
        codes = json.loads(out.splitlines()[-1])
        assert [[name, code] for name, code, _ in codes] == [
            ["simulate", 0], ["analyze", 0], ["max-s", 0], ["ratio", 0],
            ["scan-vc", 0], ["compare", 0], ["compare", 0]]
        assert all(0.99 < v_star < 0.999 for _, _, v_star in codes[-2:])
