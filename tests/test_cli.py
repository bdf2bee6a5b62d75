import json
import math
import re
import shlex
from pathlib import Path

import pytest

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

    def test_compare_config_echo(self, capsys):
        code, out, _ = run(capsys, "compare", "--v", "0.98..0.985",
                           "--v-points", "2", "--n", "3", "--tol", "1e-3")
        assert code == 0
        assert out.splitlines()[0] == (
            '# config: {"command": "compare", "v": "0.98..0.985", '
            '"n": "3", "mode": "beta-family", "tol": 0.001}')

    def test_ratio_value(self, capsys):
        code, out, _ = run(capsys, "ratio", "--v", "0.99")
        assert code == 0
        last = out.strip().splitlines()[-1].split(",")
        assert float(last[1]) == pytest.approx(0.324, abs=2e-3)


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
    ], ids=["visibility-above-1", "zero-pairs", "beta-nan", "beta-inf"])
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
        ("scan-vc", "--n", "2..4", "--width", "0"),
        ("scan-vc", "--n", "2..4", "--width", "nan"),
        ("analyze", "--files", "missing.jsonl", "--n", "1", "--seed", "0"),
        ("analyze", "--files", "binary.csv", "--n", "1", "--seed", "0"),
        ("analyze", "--files", "stream5.csv", "--n", "1", "--seed", "0"),
        ("analyze", "--files", "record5.jsonl", "--n", "1", "--seed", "0"),
        ("analyze", "--files", "variantx.jsonl", "--n", "1", "--seed", "0"),
        ("analyze", "--files", "pair3.jsonl", "--n", "1", "--seed", "0"),
        ("analyze", "--files", "long.jsonl", "--n", "1", "--seed", "0"),
    ], ids=["compare-tol-0", "compare-tol-negative", "compare-tol-nan",
            "scan-vc-width-0", "scan-vc-width-nan", "analyze-missing-file",
            "analyze-binary-file", "analyze-csv-stream-not-object",
            "analyze-jsonl-record-not-object",
            "analyze-jsonl-variant-not-integer",
            "analyze-jsonl-pair-not-list", "analyze-jsonl-long-integer"])
    def test_bad_value_exit_1(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
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
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

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
    ], ids=["malformed-n", "malformed-beta", "malformed-v",
            "malformed-override", "simulate-without-out",
            "format-contradicts-suffix", "ratio-negative-points",
            "ratio-zero-points", "compare-zero-points", "max-s-zero-points",
            "empty-n-range", "empty-n-list", "simulate-negative-seed",
            "analyze-negative-seed", "analyze-threads-gone"])
    def test_usage_error_exit_2(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
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
