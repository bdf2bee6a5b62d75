"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from manypairs.analyze import ClusteredOutcomes
from manypairs.binning import Majority, Parity
from manypairs.errors import NoViolationError
from manypairs.optimize import SettingsMode, max_chsh
from manypairs.pairstats import (SETTING_PAIRS, CorrelatorTable,
                                 PairJointDistribution, joint_table)
from manypairs.simulate import CSV_STREAM_PREFIX, _header


def random_feasible_table(rng: np.random.Generator,
                          with_marginals: bool = True) -> CorrelatorTable:
    """Sample a correlator table guaranteed to yield valid probabilities.

    For marginals mA, mB the correlator of a setting pair is feasible iff
    -1 + |mA + mB| <= e <= 1 - |mA - mB|.
    """
    if with_marginals:
        ma1, ma2, mb1, mb2 = rng.uniform(-0.3, 0.3, size=4)
    else:
        ma1 = ma2 = mb1 = mb2 = 0.0
    es = {}
    for (x, y) in SETTING_PAIRS:
        ma = ma1 if x == 1 else ma2
        mb = mb1 if y == 1 else mb2
        lo = -1.0 + abs(ma + mb)
        hi = 1.0 - abs(ma - mb)
        es[(x, y)] = rng.uniform(lo, hi)
    return CorrelatorTable(e11=es[(1, 1)], e12=es[(1, 2)], e21=es[(2, 1)],
                           e22=es[(2, 2)], marg_a1=ma1, marg_a2=ma2,
                           marg_b1=mb1, marg_b2=mb2)


def brute_force_counts(pair: PairJointDistribution, n: int) -> dict:
    """Count distribution by enumerating all 4^n outcome strings."""
    out = {}
    for (x, y) in SETTING_PAIRS:
        p = pair.table(x, y)
        mat = np.zeros((n + 1, n + 1))
        for outcomes in itertools.product(range(4), repeat=n):
            prob = 1.0
            a_total = 0
            b_total = 0
            for o in outcomes:
                a, b = divmod(o, 2)
                prob *= p[a, b]
                a_total += a
                b_total += b
            mat[a_total, b_total] += prob
        out[(x, y)] = mat
    return out


def critical_visibility_bisect(n: int, strategy,
                               mode: SettingsMode = SettingsMode.BETA_FAMILY,
                               width: float = 1e-5) -> float:
    """Bisection on V of the predicate max_chsh(..).s_max > 2."""
    top = max_chsh(n, 1.0, strategy, mode)
    if top.s_max <= 2.0:
        raise NoViolationError(
            f"no violation at V=1 for n={n}, {strategy!r}", top.s_max)
    lo, hi = 0.5, 1.0
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if max_chsh(n, mid, strategy, mode).s_max > 2.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def crossover_bisect(v_values, n_values,
                     mode: SettingsMode = SettingsMode.BETA_FAMILY,
                     crossover_tol: float = 1e-4):
    """Majority/parity crossover V* by bisection, or None without a bracket.

    The advantage at V is the largest parity-minus-majority CHSH maximum
    over the odd n >= 3 of the grid (every n >= 2 when there is none).
    V* is the midpoint of the final bracket of the predicate
    advantage > 0, bisected from the first grid pair where it turns true.
    """
    odd = [n for n in n_values if n % 2 == 1 and n >= 3]
    n_grid = odd if odd else [n for n in n_values if n >= 2]

    def advantage(v):
        return max((max_chsh(n, v, Parity(), mode).s_max
                    - max_chsh(n, v, Majority(), mode).s_max
                    for n in n_grid), default=-math.inf)

    v_values = [float(v) for v in v_values]
    advantages = [advantage(v) for v in v_values]
    for (lo, adv_lo), (hi, adv_hi) in zip(zip(v_values, advantages),
                                          zip(v_values[1:], advantages[1:])):
        if adv_lo <= 0.0 < adv_hi:
            while hi - lo > crossover_tol:
                mid = 0.5 * (lo + hi)
                if advantage(mid) > 0.0:
                    hi = mid
                else:
                    lo = mid
            return 0.5 * (lo + hi)
    return None


def parity_moment(total: int, discordant: int, k: int) -> float:
    """E[(-1)^d] for d ~ Hyp(total, discordant, k): the mean parity sign
    of k events drawn without replacement from `total`, `discordant` of
    them with a != b."""
    from scipy.stats import hypergeom

    d = np.arange(max(0, k - (total - discordant)), min(k, discordant) + 1)
    return float(np.sum((-1.0) ** d * hypergeom.pmf(d, total, discordant, k)))


def _parity_moments(sequences: dict, k: int) -> dict:
    return {key: parity_moment(len(a), int(np.count_nonzero(a != b)), k)
            for key, (a, b) in sequences.items()}


def shuffle_parity_mean(sequences: dict, n: int) -> float:
    """Expectation of the parity S_n over reshuffled orders: each cluster
    of a pair has mean sign E_n, so S = E_n(11) + E_n(12) + E_n(21) -
    E_n(22)."""
    e = _parity_moments(sequences, n)
    return e[(1, 1)] + e[(1, 2)] + e[(2, 1)] - e[(2, 2)]


def finite_population_parity_sigma(sequences: dict, n: int) -> float:
    """Limit of the shuffle bootstrap's parity sigma as resamples grow.

    Reshuffling and clustering draws clusters without replacement.  A
    parity cluster's sign is (-1)^d, with d the cluster's discordant
    events, so for a pair with N events, D of them discordant, and m
    clusters, Var(E) = (1 - E_n^2)/m + (1 - 1/m)(E_2n - E_n^2), where
    E_k = E[(-1)^Hyp(N, D, k)].  The setting pairs are independent, so
    their variances add.
    """
    e_n, e_2n = _parity_moments(sequences, n), _parity_moments(sequences,
                                                               2 * n)
    var = 0.0
    for key, (a, _) in sequences.items():
        m = len(a) // n
        var += ((1.0 - e_n[key] ** 2) / m
                + (1.0 - 1.0 / m) * (e_2n[key] - e_n[key] ** 2))
    return math.sqrt(max(var, 0.0))


def reshape_cluster_events(sequence, n: int) -> ClusteredOutcomes:
    """Window sums by reshaping the first m * n bits to (m, n)."""
    a, b = sequence
    m = len(a) // n
    a_counts = a[:m * n].reshape(m, n).sum(axis=1).astype(np.int64)
    b_counts = b[:m * n].reshape(m, n).sum(axis=1).astype(np.int64)
    return ClusteredOutcomes(n=int(n), a_counts=a_counts, b_counts=b_counts,
                             discarded=int(len(a) - m * n))


def write_jsonl_lines(streams, path) -> None:
    """Event writer of the JSON-lines form, one formatted line per event."""
    with Path(path).open("w") as fh:
        for stream in streams:
            fh.write(json.dumps(_header(stream)) + "\n")
            for a, b in zip(stream.a.tolist(), stream.b.tolist()):
                fh.write(f'{{"a": {a}, "b": {b}}}\n')


def write_csv_lines(streams, path) -> None:
    """Event writer of the CSV form, one formatted line per event."""
    with Path(path).open("w") as fh:
        fh.write("x,y,variant,a,b\n")
        for stream in streams:
            fh.write(CSV_STREAM_PREFIX + json.dumps(_header(stream)) + "\n")
            x, y = stream.setting_pair
            v = stream.basis_variant
            for a, b in zip(stream.a.tolist(), stream.b.tolist()):
                fh.write(f"{x},{y},{v},{a},{b}\n")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
