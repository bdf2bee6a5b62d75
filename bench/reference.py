"""Reference computations that the benchmark's output checks compare against.

Nothing here imports ``manypairs``.  Each quantity is derived by a route
the package does not take:

* the parity CHSH value of the one-angle family from its closed form
  V^n (3 cos^n b - cos^n 3b), maximized over b by a dense grid and
  Brent's bounded method;
* the majority-vote binned correlator from the Fourier weights of the
  majority function (O'Donnell, *Analysis of Boolean Functions*, 2014,
  Thm 5.19), as the noise stability f(e) = sum_k W_k e^k.  Even n with
  ties broken to one side is the restriction Maj_{n+1}(x, -1);
* event files parsed, de-inverted, clustered and binned by this module's
  own reader;
* the finite-population standard deviation of the parity shuffle
  bootstrap, the exact limit of its sample standard deviation.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np
from scipy import optimize, special

PAIRS = ((1, 1), (1, 2), (2, 1), (2, 2))
#: Sign of each setting pair's correlator in S = E11 + E12 + E21 - E22.
CHSH_SIGNS = (1.0, 1.0, 1.0, -1.0)

_BETA_GRID = 2048


def _log_comb(n, k):
    return (special.gammaln(n + 1) - special.gammaln(k + 1)
            - special.gammaln(n - k + 1))


def _log_abs_majority_coefficient(m: int, k: np.ndarray) -> np.ndarray:
    """log |Fourier coefficient| of Maj_m (m odd) on a set of odd size k."""
    h = (m - 1) // 2
    return (_log_comb(h, (k - 1) // 2) - _log_comb(m - 1, k - 1)
            + (1 - m) * math.log(2.0) + _log_comb(m - 1, h))


def majority_weights(n: int) -> np.ndarray:
    """Fourier weight W_k of n-bit majority at each level k = 0..n.

    Ties at even n go to one fixed side; both sides give the same weights,
    since flipping every input maps one onto the other.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    k = np.arange(n + 1)
    if n % 2 == 1:
        w = np.zeros(n + 1)
        odd = k[k % 2 == 1]
        w[odd] = np.exp(_log_comb(n, odd)
                        + 2.0 * _log_abs_majority_coefficient(n, odd))
        return w
    # Maj_n(x) = Maj_{n+1}(x, -1): a set S gets the coefficient of S when
    # |S| is odd and, up to sign, that of S + {n+1} when |S| is even.
    level = np.where(k % 2 == 1, k, k + 1)
    return np.exp(_log_comb(n, k)
                  + 2.0 * _log_abs_majority_coefficient(n + 1, level))


def majority_correlator(e, n: int):
    """Binned majority correlator of n pairs with unbiased marginals."""
    return np.polynomial.polynomial.polyval(e, majority_weights(n))


def family_s(beta, visibility: float, n: int, strategy: str):
    """CHSH value of the one-angle settings family (0, 2b, b, -b)."""
    beta = np.asarray(beta, dtype=float)
    if strategy == "parity":
        return visibility ** n * (3.0 * np.cos(beta) ** n
                                  - np.cos(3.0 * beta) ** n)
    return (3.0 * majority_correlator(visibility * np.cos(beta), n)
            - majority_correlator(visibility * np.cos(3.0 * beta), n))


def max_family_s(visibility: float, n: int, strategy: str) -> float:
    """Largest CHSH value over the one-angle family, b in (0, pi/2]."""
    grid = np.linspace(math.pi / 2.0 / _BETA_GRID, math.pi / 2.0, _BETA_GRID)
    values = family_s(grid, visibility, n, strategy)
    i = int(np.argmax(values))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    res = optimize.minimize_scalar(
        lambda b: -float(family_s(b, visibility, n, strategy)),
        bounds=(lo, hi), method="bounded", options={"xatol": 1e-13})
    return max(float(values[i]), float(-res.fun))


def parity_critical_visibility(n: int) -> float:
    """V_c of parity binning: the S_max of V^n scaling gives a closed form."""
    return (2.0 / max_family_s(1.0, n, "parity")) ** (1.0 / n)


def parity_critical_pairs(visibility: float, margin: float = 1e-9) -> tuple:
    """Largest n with a parity violation, and the n whose S lies in the margin.

    Returns (n_c, ambiguous) where ``ambiguous`` holds the pair counts
    whose CHSH value is within ``margin`` of 2, for which either answer
    is accepted.
    """
    n = 1
    ambiguous = set()
    while True:
        s = max_family_s(visibility, n, "parity")
        if abs(s - 2.0) <= margin:
            ambiguous.add(n)
        if s <= 2.0:
            return n - 1, ambiguous
        n += 1


def violation_ratio(visibility: float) -> float:
    """Parity violation left at half the critical pair number.

    n_c is the high-visibility estimate (1 - 3^(9/8)/4) / (1 - V); the
    settings are b0/sqrt(n) with b0 = sqrt(ln 3)/2 at n = round(n_c/2),
    against b0 at n = 1.
    """
    n_c = (1.0 - 3.0 ** (9.0 / 8.0) / 4.0) / (1.0 - visibility)
    n_half = math.floor(n_c / 2.0 + 0.5)
    b0 = math.sqrt(math.log(3.0)) / 2.0
    top = float(family_s(b0 / math.sqrt(n_half), visibility, n_half,
                         "parity")) - 2.0
    return top / (float(family_s(b0, visibility, 1, "parity")) - 2.0)


def _parity_moment(population: int, discordant: int, draws: int) -> float:
    """E[(-1)^d] for d ~ Hypergeometric(population, discordant, draws)."""
    # imported here so that it stays out of a round's peak RSS
    from scipy import stats

    d = np.arange(draws + 1)
    pmf = stats.hypergeom.pmf(d, population, discordant, draws)
    return float(np.sum(np.where(d % 2 == 0, 1.0, -1.0) * pmf))


def parity_shuffle_sigma(populations, n: int) -> float:
    """Exact standard deviation of S over all reshuffles, parity binning.

    ``populations`` holds (events, discordant events) per setting pair.
    A reshuffle draws each cluster of n events without replacement, so a
    cluster's sign is (-1)^Hyp(N, D, n) and the product of two clusters'
    signs is (-1)^Hyp(N, D, 2n).  Per setting pair
    Var(E) = (1 - E_n^2)/m + (1 - 1/m)(E_2n - E_n^2), m = N // n, and the
    four independently shuffled pairs add.
    """
    var = 0.0
    for events, discordant in populations:
        m = events // n
        e_n = _parity_moment(events, discordant, n)
        e_2n = _parity_moment(events, discordant, 2 * n)
        var += (1.0 - e_n ** 2) / m + (1.0 - 1.0 / m) * (e_2n - e_n ** 2)
    return math.sqrt(max(var, 0.0))


# ---------------------------------------------------------------------------
# event files

_EVENT_LINE = re.compile(rb'\{"a": ([01]), "b": ([01])\}')


def _stream(pair, variant, meta, a_bits, b_bits) -> dict:
    return {"pair": (int(pair[0]), int(pair[1])), "variant": int(variant),
            "meta": meta, "a": np.asarray(a_bits, dtype=np.uint8),
            "b": np.asarray(b_bits, dtype=np.uint8)}


def read_jsonl(path) -> list[dict]:
    """Streams of a JSON-lines event file: header objects, then events."""
    streams = []
    header = None
    a_bits: list[int] = []
    b_bits: list[int] = []
    with Path(path).open("rb") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            match = _EVENT_LINE.fullmatch(line)
            if match is not None:
                a_bits.append(match[1] == b"1")
                b_bits.append(match[2] == b"1")
                continue
            obj = json.loads(line)
            if "settingPair" not in obj:
                a_bits.append(int(obj["a"]))
                b_bits.append(int(obj["b"]))
                continue
            if header is not None:
                streams.append(_stream(header["settingPair"],
                                       header["basisVariant"], header,
                                       a_bits, b_bits))
            header, a_bits, b_bits = obj, [], []
    if header is not None:
        streams.append(_stream(header["settingPair"], header["basisVariant"],
                               header, a_bits, b_bits))
    return streams


def read_csv(path) -> list[dict]:
    """Streams of a CSV event file (x, y, variant, a, b), in file order.

    Lines starting with '#' are skipped.  A stream is a maximal run of
    rows with the same (x, y, variant).
    """
    with Path(path).open() as fh:
        header = next(line for line in fh if not line.startswith("#"))
        cols = [header.strip().split(",").index(c)
                for c in ("x", "y", "variant", "a", "b")]
        table = np.loadtxt(fh, delimiter=",", comments="#", dtype=np.int64,
                           ndmin=2)
    if len(table) == 0:
        return []
    table = table[:, cols]
    keys = table[:, 0] * 100 + table[:, 1] * 10 + table[:, 2]
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    ends = np.r_[starts[1:], len(table)]
    return [_stream(table[s, 0:2], table[s, 2], {}, table[s:e, 3],
                    table[s:e, 4]) for s, e in zip(starts, ends)]


def read_events(path) -> list[dict]:
    return read_csv(path) if Path(path).suffix == ".csv" else read_jsonl(path)


def logical_sequences(streams) -> dict:
    """Per setting pair, the logical (a, b) bits of all its streams in order.

    Basis variants 1 and 3 invert Alice's outcome, 2 and 3 Bob's.
    """
    parts = {pair: ([], []) for pair in PAIRS}
    for s in streams:
        inv_a = np.uint8(s["variant"] in (1, 3))
        inv_b = np.uint8(s["variant"] in (2, 3))
        parts[s["pair"]][0].append(s["a"] ^ inv_a)
        parts[s["pair"]][1].append(s["b"] ^ inv_b)
    return {pair: (np.concatenate(a), np.concatenate(b))
            for pair, (a, b) in parts.items()}


def cluster_counts(bits: np.ndarray, n: int) -> np.ndarray:
    """Sums over consecutive windows of n events; the tail is dropped."""
    m = len(bits) // n
    edges = np.concatenate(([0], np.cumsum(bits[:m * n], dtype=np.int64)))
    return edges[n::n] - edges[:-n:n] if m else np.zeros(0, np.int64)


def cluster_correlators(sequences: dict, n: int, strategy: str) -> list:
    """Empirical binned correlator of each setting pair at cluster size n."""
    out = []
    for pair in PAIRS:
        a, b = sequences[pair]
        ca, cb = cluster_counts(a, n), cluster_counts(b, n)
        if strategy == "parity":
            sign = np.where((ca + cb) % 2 == 0, 1.0, -1.0)
        else:  # majority, ties to -1
            sign = (np.where(2 * ca > n, 1.0, -1.0)
                    * np.where(2 * cb > n, 1.0, -1.0))
        out.append(float(np.mean(sign)))
    return out


def cluster_chsh(sequences: dict, n: int, strategy: str) -> float:
    es = cluster_correlators(sequences, n, strategy)
    return sum(sign * e for sign, e in zip(CHSH_SIGNS, es))


def family_correlators(beta: float, visibility: float) -> list:
    """Single-pair correlators of the settings family, in PAIRS order."""
    return [visibility * math.cos(beta), visibility * math.cos(beta),
            visibility * math.cos(beta), visibility * math.cos(3.0 * beta)]


def parity_sampling_sigma(sequences: dict, n: int, beta: float,
                          visibility: float) -> float:
    """Standard deviation of the parity S estimate under the source model.

    Clusters are i.i.d. with sign mean e^n, so each correlator estimate
    has variance (1 - e^2n) / m.
    """
    var = 0.0
    for pair, e in zip(PAIRS, family_correlators(beta, visibility)):
        m = len(sequences[pair][0]) // n
        var += (1.0 - e ** (2 * n)) / m
    return math.sqrt(var)


def discordant_populations(sequences: dict) -> list:
    """(events, discordant events) per setting pair, in PAIRS order."""
    return [(len(sequences[p][0]),
             int(np.count_nonzero(sequences[p][0] != sequences[p][1])))
            for p in PAIRS]
