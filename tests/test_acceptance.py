"""Acceptance suite: one test per shipped guarantee.

Each test prints a single PASS/FAIL line (run with `pytest -s` to see
them live); the assertion carries the same verdict.
"""

import math

import numpy as np
import pytest

from manypairs.analyze import find_nc, sequences_from_streams
from manypairs.binning import (PARITY_BETA_SCALE, PARITY_S_LIMIT, Majority,
                               Parity, parity_chsh_analytic, table_chsh)
from manypairs.optimize import (binning_comparison, critical_pairs,
                                critical_visibility, fit_vc_curve, max_chsh)
from manypairs.pairstats import (SETTING_PAIRS, joint_table,
                                 settings_from_beta, werner_correlators)
from manypairs.simulate import DetectorModel, generate_run, generate_symmetrized

from conftest import (brute_force_counts, counts_correlators, logical_bits,
                      random_feasible_table)


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {number:02d} {name}: {verdict}{suffix}", flush=True)
    assert ok, f"acceptance {number:02d} {name} failed{suffix}"


def test_criterion_01_parity_power_identity():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        table = random_feasible_table(rng, with_marginals=True)
        es = np.array([table.correlator(x, y) for (x, y) in SETTING_PAIRS])
        for n in range(1, 65):
            got = table_chsh(table, n, Parity()).correlators
            worst = max(worst, float(np.abs(np.array(got) - es ** n).max()))
    report(1, "parity power identity", worst <= 1e-10, f"max err {worst:.2e}")


def test_criterion_02_brute_force_oracle():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(20):
        table = random_feasible_table(rng, with_marginals=True)
        pair = joint_table(table)
        for n in (1, 2, 3, 4):
            oracle = brute_force_counts(pair, n)
            for strategy in (Majority(), Parity()):
                got = table_chsh(table, n, strategy)
                expected = counts_correlators(oracle, n, strategy)
                worst = max(worst, float(np.abs(
                    np.array(got.correlators) - expected).max()))
                worst = max(worst, abs(got.s - (expected[0] + expected[1]
                                                + expected[2] - expected[3])))
    report(2, "brute-force oracle n<=4", worst <= 1e-12,
           f"max err {worst:.2e}")


def test_criterion_03_parity_asymptote():
    n = 10 ** 4
    res = max_chsh(n, 1.0, Parity())
    beta_ref = PARITY_BETA_SCALE / math.sqrt(n)
    ok = (abs(res.s_max - PARITY_S_LIMIT) <= 1e-3
          and abs(res.beta - beta_ref) <= 0.05 * beta_ref)
    report(3, "parity asymptote at n=1e4", ok,
           f"s={res.s_max:.6f} beta={res.beta:.3e}")


def test_criterion_04_majority_thresholds():
    v21 = critical_visibility(21, Majority())
    v64 = critical_visibility(64, Majority())
    ok = abs(v21 - 0.9735) <= 0.003 and abs(v64 - 0.9912) <= 0.003
    report(4, "majority thresholds n=21,64", ok,
           f"vc21={v21:.4f} vc64={v64:.4f}")


def test_criterion_05_parity_threshold():
    v12 = critical_visibility(12, Parity())
    nc = critical_pairs(0.99, Parity())
    ok = abs(v12 - 0.9871) <= 0.001 and nc >= 14
    report(5, "parity threshold n=12 and nc(0.99)", ok,
           f"vc12={v12:.4f} nc={nc}")


def test_criterion_06_fit_law():
    points = [(n, critical_visibility(n, Majority()))
              for n in range(2, 65)]
    fit = fit_vc_curve(points)
    ok = 0.52 <= fit.c1 <= 0.62 and fit.c2 >= 0.0
    report(6, "majority vc fit law", ok,
           f"c1={fit.c1:.4f} c2={fit.c2:.4f}")


def test_criterion_07_crossover():
    cmp_ = binning_comparison(list(np.linspace(0.988, 0.999, 23)),
                              list(range(3, 40, 2)))
    ok = cmp_.crossover is not None and abs(cmp_.crossover - 0.994) <= 0.002
    report(7, "majority/parity crossover", ok, f"v*={cmp_.crossover}")


def test_criterion_08_majority_decay_exponent():
    ns = np.arange(5, 66, 2)
    gaps = np.array([max_chsh(int(n), 1.0, Majority()).s_max - 2.0
                     for n in ns])
    slope = float(np.polyfit(np.log(ns), np.log(gaps), 1)[0])
    ok = -0.6 <= slope <= -0.4
    report(8, "majority decay exponent", ok, f"slope={slope:.4f}")


def test_criterion_09_end_to_end_loop():
    v = 0.9871
    beta0 = PARITY_BETA_SCALE / math.sqrt(12)
    betas = [0.9 * beta0, beta0, 1.1 * beta0]
    n_events = 10 ** 6
    sequences = {}
    for bi, beta in enumerate(betas):
        table = werner_correlators(settings_from_beta(beta), v)
        streams = [generate_run(table, sp, n_events, seed=500 + bi)
                   for sp in SETTING_PAIRS]
        sequences[beta] = sequences_from_streams(streams)
    n_values = list(range(9, 16))
    curve = find_nc(sequences, Parity(), n_values)
    worst_pull = 0.0
    for beta, n, s, sigma in curve.entries:
        expected = parity_chsh_analytic(beta, v, n)
        worst_pull = max(worst_pull, abs(s - expected) / sigma)
    ok = worst_pull < 3.0 and 10 <= curve.n_critical <= 14
    report(9, "end-to-end simulate/analyze loop", ok,
           f"max pull {worst_pull:.2f} sigma, nCritical={curve.n_critical}")


def test_criterion_10_symmetrization():
    table = werner_correlators(settings_from_beta(0.3), 0.95)
    detector = DetectorModel(eta_t_a=0.8)
    streams = generate_symmetrized(table, (1, 1), 250_000, detector,
                                   seed=1010)
    a0, _ = logical_bits(streams[0])
    m0 = 1.0 - 2.0 * float(a0.mean())
    pulls0 = abs(m0) * math.sqrt(len(a0))
    pooled = np.concatenate([logical_bits(s)[0] for s in streams])
    mp = 1.0 - 2.0 * float(pooled.mean())
    pulls_pool = abs(mp) * math.sqrt(len(pooled))
    ok = pulls0 > 5.0 and pulls_pool < 4.0
    report(10, "four-basis symmetrization", ok,
           f"variant0 {pulls0:.1f} sigma, pooled {pulls_pool:.1f} sigma")


def test_criterion_11_determinism():
    from manypairs.cli import main as cli_main
    import tempfile
    from pathlib import Path

    table = werner_correlators(settings_from_beta(0.3), 0.97)
    streams_a = [generate_run(table, sp, 20_000, seed=7)
                 for sp in SETTING_PAIRS]
    streams_b = [generate_run(table, sp, 20_000, seed=7)
                 for sp in SETTING_PAIRS]
    streams_ok = all(np.array_equal(x.a, y.a) and np.array_equal(x.b, y.b)
                     for x, y in zip(streams_a, streams_b))
    seqs = sequences_from_streams(streams_a)
    first = find_nc({0.3: seqs}, Parity(), [2, 6])
    second = find_nc({0.3: seqs}, Parity(), [2, 6])
    analysis_ok = first.entries == second.entries
    with tempfile.TemporaryDirectory() as tmp:
        p1 = Path(tmp) / "r1.jsonl"
        p2 = Path(tmp) / "r2.jsonl"
        args = ["simulate", "--beta", "0.3", "--v", "0.97", "--events",
                "5000", "--seed", "33", "--symmetrize", "--format", "json"]
        cli_main(args + ["--out", str(p1)])
        cli_main(args + ["--out", str(p2)])
        files_ok = p1.read_bytes() == p2.read_bytes()
    ok = streams_ok and analysis_ok and files_ok
    report(11, "seeded determinism", ok,
           f"streams={streams_ok} analysis={analysis_ok} files={files_ok}")
