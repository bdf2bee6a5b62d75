"""Tests of the benchmark's reference computations against enumeration.

Run with ``python3 -m pytest bench/test_reference.py``.  They live beside
the benchmark, outside ``tests/``, so the package's own suite does not
collect them.
"""

import itertools
import math

import numpy as np
import pytest

import reference as ref


def enumerated_correlator(e: float, n: int, sign) -> float:
    """<sign(a) sign(b)> over all 4^n outcome strings of n pairs.

    Each pair gives (a, b) with probability (1 + (-1)^(a+b) e) / 4; a and
    b count the 1 outcomes.
    """
    total = 0.0
    for outcomes in itertools.product(range(4), repeat=n):
        prob = 1.0
        a = b = 0
        for o in outcomes:
            x, y = divmod(o, 2)
            prob *= (1.0 + (e if x == y else -e)) / 4.0
            a += x
            b += y
        total += prob * sign(a, n) * sign(b, n)
    return total


def majority_sign(count, n):
    return 1.0 if 2 * count > n else -1.0


def majority_sign_tie_plus(count, n):
    return 1.0 if 2 * count >= n else -1.0


def parity_sign(count, n):
    return 1.0 if count % 2 == 0 else -1.0


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("e", [-0.83, -0.2, 0.0, 0.37, 0.95])
def test_majority_weights_match_enumeration(n, e):
    for sign in (majority_sign, majority_sign_tie_plus):
        assert ref.majority_correlator(e, n) == pytest.approx(
            enumerated_correlator(e, n, sign), abs=1e-13)


@pytest.mark.parametrize("n", range(1, 7))
def test_parity_family_matches_enumeration(n):
    beta, v = 0.31, 0.97
    es = ref.family_correlators(beta, v)
    enumerated = sum(s * enumerated_correlator(e, n, parity_sign)
                     for s, e in zip(ref.CHSH_SIGNS, es))
    assert ref.family_s(beta, v, n, "parity") == pytest.approx(
        enumerated, abs=1e-13)
    majority = sum(s * enumerated_correlator(e, n, majority_sign)
                   for s, e in zip(ref.CHSH_SIGNS, es))
    assert ref.family_s(beta, v, n, "majority") == pytest.approx(
        majority, abs=1e-13)


def test_majority_weights_sum_to_one_at_large_n():
    for n in (101, 584, 1025):
        assert ref.majority_weights(n).sum() == pytest.approx(1.0, abs=1e-12)


def test_max_family_s_single_pair_is_tsirelson():
    assert ref.max_family_s(1.0, 1, "parity") == pytest.approx(
        2.0 * math.sqrt(2.0), abs=1e-12)
    assert ref.max_family_s(1.0, 1, "majority") == pytest.approx(
        2.0 * math.sqrt(2.0), abs=1e-12)


def test_parity_critical_pairs_brackets_the_threshold():
    n_c, _ = ref.parity_critical_pairs(0.99)
    assert ref.max_family_s(0.99, n_c, "parity") > 2.0
    assert ref.max_family_s(0.99, n_c + 1, "parity") <= 2.0


def write_enumerated_events(tmp_path, n, e):
    """Event files whose clusters of n are all 4^n outcome strings.

    Each string is repeated in proportion to its probability at correlator
    e = 1/2 (concordant 3 : discordant 1), so the clustered estimate
    equals the enumerated correlator exactly.  Pairs (1, 2) and (2, 2) are
    written as basis variant 3, with both physical outcomes inverted.
    """
    assert e == 0.5
    streams = []
    for pair in ref.PAIRS:
        variant = 3 if pair[1] == 2 else 0
        a_bits, b_bits = [], []
        for outcomes in itertools.product(range(4), repeat=n):
            pairs = [divmod(o, 2) for o in outcomes]
            copies = 3 ** sum(x == y for x, y in pairs)
            for _ in range(copies):
                for x, y in pairs:
                    a_bits.append(x ^ (variant == 3))
                    b_bits.append(y ^ (variant == 3))
        streams.append((pair, variant, a_bits, b_bits))
    jsonl = tmp_path / "events.jsonl"
    with jsonl.open("w") as fh:
        for pair, variant, a_bits, b_bits in streams:
            fh.write(f'{{"beta": 0.1, "settingPair": [{pair[0]}, {pair[1]}],'
                     f' "basisVariant": {variant}}}\n')
            for a, b in zip(a_bits, b_bits):
                fh.write(f'{{"a": {a}, "b": {b}}}\n')
    csv = tmp_path / "events.csv"
    with csv.open("w") as fh:
        fh.write("# stream metadata lines are skipped\nx,y,variant,a,b\n")
        for pair, variant, a_bits, b_bits in streams:
            for a, b in zip(a_bits, b_bits):
                fh.write(f"{pair[0]},{pair[1]},{variant},{a},{b}\n")
    return jsonl, csv


@pytest.mark.parametrize("n", [1, 2, 3])
def test_event_clustering_matches_enumeration(tmp_path, n):
    jsonl, csv = write_enumerated_events(tmp_path, n, 0.5)
    for path in (jsonl, csv):
        streams = ref.read_events(path)
        assert [s["pair"] for s in streams] == list(ref.PAIRS)
        seqs = ref.logical_sequences(streams)
        for strategy, sign in (("parity", parity_sign),
                               ("majority", majority_sign)):
            expected = enumerated_correlator(0.5, n, sign)
            for e in ref.cluster_correlators(seqs, n, strategy):
                assert e == pytest.approx(expected, abs=1e-12)
    assert ref.read_events(jsonl)[0]["meta"]["beta"] == 0.1


def test_cluster_counts_drops_the_tail():
    bits = np.array([1, 0, 1, 1, 1, 0, 1], dtype=np.uint8)
    assert ref.cluster_counts(bits, 3).tolist() == [2, 2]
    assert ref.cluster_counts(bits, 8).tolist() == []


@pytest.mark.parametrize("events,discordant,n",
                         [(6, 2, 1), (6, 2, 2), (7, 3, 2), (7, 2, 3)])
def test_shuffle_sigma_matches_all_orderings(events, discordant, n):
    """Exact spread of the clustered parity estimate over every ordering."""
    bits = [1] * discordant + [0] * (events - discordant)
    m = events // n
    values = []
    for order in itertools.permutations(bits):
        signs = [(-1) ** sum(order[j * n:(j + 1) * n]) for j in range(m)]
        values.append(sum(signs) / m)
    values = np.array(values)
    exact = math.sqrt(np.mean((values - values.mean()) ** 2))
    # four identical independent setting pairs add their variances
    expected = 2.0 * exact
    got = ref.parity_shuffle_sigma([(events, discordant)] * 4, n)
    assert got == pytest.approx(expected, abs=1e-7)
