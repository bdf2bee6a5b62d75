"""Post-processing pipeline for event streams.

Ingests simulated (or recorded) per-setting event files (read by
`eventfile`), undoes the basis variant inversions, clusters events into
groups of n, bins, estimates the CHSH value, and extracts the largest
cluster size that still shows a violation.  The error bar is the
closed-form limit of a shuffle-recluster bootstrap (`bootstrap_sn`,
from `sampling`), and a randomized majority tie counts as its coin's
expectation, sign 0, so the analysis draws no random number at all.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .binning import BinningStrategy, ChshEstimate, chsh_value, sign_vector
from .errors import (IngestionError, InsufficientDataError,
                     InvalidArgumentError)
# the readers are this module's too: `analyze.read_jsonl` and `read_csv`
from .eventfile import read_csv, read_jsonl, read_streams  # noqa: F401
from .pairstats import SETTING_PAIRS
from .sampling import bootstrap_sn
from .simulate import variant_inversions

#: Stream metadata that must agree between streams pooled under one beta;
#: "table" is compared per setting pair.  Seeds and event counts may differ.
_PROVENANCE_FIELDS = ("visibility", "detector", "discardProb", "table")


@dataclass(frozen=True)
class ClusteredOutcomes:
    """Count pairs for one setting pair, clustered into windows of n."""

    n: int
    a_counts: np.ndarray
    b_counts: np.ndarray
    discarded: int

    @property
    def clusters(self) -> int:
        return len(self.a_counts)


@dataclass(frozen=True)
class MinusKSigma:
    """Violation criterion: s - k*sigma exceeds 2.

    k = 0 is the point criterion, s > 2.  Raises InvalidArgumentError
    unless k is a finite number >= 0.
    """

    k: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.k) and self.k >= 0.0):
            raise InvalidArgumentError(
                f"criterion k must be a finite number >= 0, got {self.k!r}")


@dataclass(frozen=True)
class SnCurve:
    """S_n estimates over a (beta, n) grid and the extracted n_critical."""

    strategy: BinningStrategy
    entries: tuple  # (beta, n, s, sigma), sorted by (n, beta)
    n_critical: int
    criterion: MinusKSigma
    note: str | None = None


def _pooling_check():
    """A check of each stream header of the files pooled, in stream
    order: `check(path, pair, variant, meta)` raises IngestionError as
    `streams_by_beta` says."""
    seen: dict[tuple, tuple] = {}
    draws: dict[tuple, object] = {}

    def check(path, pair: tuple, variant: int, meta: dict) -> None:
        beta = float(meta.get("beta", 0.0))
        for name in _PROVENANCE_FIELDS:
            key = pair if name == "table" else None
            value = meta.get(name)
            first_value, first_path = seen.setdefault((beta, name, key),
                                                      (value, path))
            if value != first_value:
                where = f" for setting pair {key}" if key else ""
                raise IngestionError(
                    f"{first_path} and {path}: streams at beta={beta} "
                    f"differ in {name}{where}; analyze them separately")
        if meta.get("seed") is not None:
            seed = json.dumps(meta["seed"])
            draw = (beta, seed, pair, variant)
            if draw in draws:
                raise IngestionError(
                    f"{draws[draw]} and {path}: streams at beta={beta} "
                    f"repeat seed {seed} for setting pair {pair}, basis "
                    f"variant {variant}; their events would count twice")
            draws[draw] = path
        if pair not in SETTING_PAIRS:
            raise IngestionError(f"unknown setting pair {pair!r}")

    return check


def streams_by_beta(paths) -> dict:
    """Read event files and group their streams by the beta in their metadata.

    Streams without a beta group under 0.0.  Each stream is checked when
    its header is read, before the lines after it.  Its setting pair
    must be known.  Streams of one beta must agree in visibility,
    detector, discard probability and, per setting pair, correlator
    table, and no two of them may share a seed, setting pair and basis
    variant: their draws would overlap, so the events would count twice.
    Otherwise raises IngestionError naming the unknown pair, or two files
    whose streams differ or repeat a draw.  Streams without a seed are
    not checked for repeats.
    """
    groups: dict[float, list] = {}
    check = _pooling_check()
    for path in paths:
        # the check returns no fold, so the reader keeps the bits
        for stream in read_streams(path, lambda *fields: check(path, *fields)):
            beta = float(stream.meta.get("beta", 0.0))
            groups.setdefault(beta, []).append(stream)
    return groups


def sequences_from_streams(streams) -> dict:
    """Concatenate logical bit sequences per setting pair, in stream order.

    Each stream's bits are XORed with its basis variant's inversions
    (`variant_inversions`) straight into one uint8 array per party and
    setting pair, so nothing is held besides the streams and the sequences.
    Raises IngestionError for a stream of an unknown setting pair and
    for a setting pair without any stream.
    """
    groups = {key: [] for key in SETTING_PAIRS}
    for stream in streams:
        if stream.setting_pair not in groups:
            raise IngestionError(
                f"unknown setting pair {stream.setting_pair!r}")
        groups[stream.setting_pair].append(
            (stream, variant_inversions(stream.basis_variant)))
    out = {}
    for key, group in groups.items():
        if not group:
            raise IngestionError(f"no events for setting pair {key}")
        length = sum(len(stream) for stream, _ in group)
        a, b = np.empty(length, np.uint8), np.empty(length, np.uint8)
        lo = 0
        for stream, (invert_a, invert_b) in group:
            hi = lo + len(stream)
            np.bitwise_xor(stream.a, np.uint8(invert_a), out=a[lo:hi])
            np.bitwise_xor(stream.b, np.uint8(invert_b), out=b[lo:hi])
            lo = hi
        out[key] = a, b
    return out


def ingest(paths) -> dict:
    """Read event files into {beta: logical sequences by setting pair}.

    Streams are grouped and checked by `streams_by_beta`, so streams of
    one beta with different provenance, or that repeat a draw, raise
    IngestionError.
    """
    return {beta: sequences_from_streams(group)
            for beta, group in streams_by_beta(paths).items()}


def _running_totals(sequence: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Cumulative a and b counts of a setting pair's (a, b) bits: column
    k sums the first k events, so a slice of columns holds the totals of
    a stretch of events.  int32, 8 bytes per event, unless that could
    overflow; no cast copy of the bits is held.
    """
    a, b = sequence
    dtype = np.int32 if len(a) < 2 ** 31 else np.int64
    totals = np.empty((2, len(a) + 1), dtype=dtype)
    totals[:, 0] = 0
    # cast into the totals, then sum them in place: a cast of the bits on
    # their own would be a temporary of 4 bytes per event
    totals[0, 1:], totals[1, 1:] = a, b
    np.cumsum(totals[:, 1:], axis=1, out=totals[:, 1:])
    return totals


def _windows(totals: np.ndarray, n: int) -> np.ndarray:
    """a and b counts, rows of an int64 array, of each whole window of n
    events of the running totals `totals` (`_running_totals`)."""
    m = (totals.shape[1] - 1) // n
    # int64 counts whatever the totals' width: numpy indexes with int64
    # at about twice the speed of int32
    return np.subtract(totals[:, n:m * n + 1:n], totals[:, :m * n:n],
                       dtype=np.int64)


def cluster_events(sequence, n: int) -> ClusteredOutcomes:
    """Sum a setting pair's (a, b) bits over sequential non-overlapping
    windows of n events."""
    if n < 1:
        raise InvalidArgumentError(f"cluster size must be >= 1, got {n!r}")
    a_counts, b_counts = _windows(_running_totals(sequence), n)
    return ClusteredOutcomes(n=int(n), a_counts=a_counts, b_counts=b_counts,
                             discarded=int(len(sequence[0]) % n))


def _signs(n: int, strategy: BinningStrategy) -> np.ndarray:
    """`sign_vector` as int8: +-1, or 0 for a randomized tie."""
    return sign_vector(n, strategy).astype(np.int8)


def _sign_sum(a_counts: np.ndarray, b_counts: np.ndarray,
              sign: np.ndarray) -> int:
    """Sum of sign[a] * sign[b] over clusters, with `sign` from `_signs`.

    The int8 products are summed in int64, so the sum is exact, and a
    correlator, the sum over its clusters divided by their number,
    equals the mean of the float64 products bit for bit.
    """
    product = sign[a_counts]
    product *= sign[b_counts]
    return int(product.sum(dtype=np.int64))


def estimate_sn(clustered: dict, strategy: BinningStrategy) -> ChshEstimate:
    """Empirical binned correlators and CHSH value from clustered counts.

    A randomized majority tie counts as sign 0, the expectation of its
    fair +-1 coin, so the estimate is deterministic.  Each correlator
    is a `_sign_sum` over the pair's clusters, as in `find_nc`.
    """
    es = []
    n = clustered[SETTING_PAIRS[0]].n
    for key in SETTING_PAIRS:
        c = clustered[key]
        if c.clusters < 1:
            raise InsufficientDataError(
                f"no clusters for setting pair {key} (n={c.n})")
        if c.n != n:
            raise InvalidArgumentError("inconsistent cluster sizes")
        es.append(_sign_sum(c.a_counts, c.b_counts, _signs(n, strategy))
                  / c.clusters)
    return chsh_value(es, n=n)


class _PairSums:
    """One setting pair's logical bits, folded run by run in stream
    order into running sums: its four category counts, c = 2a + b, and,
    for each (n, sign) of the grid, a row of the `_sign_sum` over the
    clusters of n completed so far, their number, and the open cluster's
    a count, b count and length.  A cluster that straddles two runs
    counts as it does in their concatenation."""

    def __init__(self, grid):
        self.grid = grid
        self.counts = np.zeros(4, np.int64)
        self.rows = [[0] * 5 for _ in grid]

    def fold(self, a: np.ndarray, b: np.ndarray) -> "_PairSums":
        """Fold the pair's next run of logical bits; returns self."""
        totals = _running_totals((a, b))
        ones_a, ones_b = (int(t) for t in totals[:, -1])
        both = int(np.count_nonzero(a & b))
        self.counts += (len(a) - ones_a - ones_b + both, ones_b - both,
                        ones_a - both, both)
        for row, (n, sign) in zip(self.rows, self.grid):
            total, clusters, open_a, open_b, held = row
            # the clusters that close in the run; the first one starts in
            # the open cluster, before the run
            ends = totals[:, n - held::n]
            done = ends.shape[1]
            counts = np.empty((2, done), np.int64)
            np.subtract(ends[:, 1:], ends[:, :-1], out=counts[:, 1:])
            counts[:, :1] = ends[:, :1] + [[open_a], [open_b]]
            last = ends[:, -1] if done else (-open_a, -open_b)
            row[:] = (total + _sign_sum(*counts, sign), clusters + done,
                      ones_a - int(last[0]), ones_b - int(last[1]),
                      held + len(a) - done * n)
        return self


def _fold_files(paths, grid) -> dict:
    """{beta: {setting pair: _PairSums}} of event files, each stream's
    bits de-inverted by its basis variant and folded as they are read.

    Each stream is checked when its header is read, as `streams_by_beta`
    says.  Raises IngestionError for a stream it refuses and for a beta
    without any stream of a setting pair.
    """
    check, sums = _pooling_check(), {}
    for path in paths:
        def sink(pair: tuple, variant: int, meta: dict):
            check(path, pair, variant, meta)
            pairs = sums.setdefault(float(meta.get("beta", 0.0)), {})
            fold = pairs.setdefault(pair, _PairSums(grid)).fold
            invert_a, invert_b = map(np.uint8, variant_inversions(variant))
            return lambda a, b: fold(a ^ invert_a, b ^ invert_b)

        read_streams(path, sink)
    for pairs in sums.values():
        for key in SETTING_PAIRS:
            if key not in pairs:
                raise IngestionError(f"no events for setting pair {key}")
    return sums


def find_nc(data, strategy: BinningStrategy, n_values,
            criterion: MinusKSigma = MinusKSigma(0.0)) -> SnCurve:
    """S_n with error bars over a (beta, n) grid, plus the largest violating n.

    `data` is {beta: logical sequences by setting pair}, each sequence
    folded as one run (`_PairSums`), or a list of event files, whose
    streams are folded as they are read (`_fold_files`), so that one
    chunk of a file and the running sums are held.  The point estimate
    comes from the unshuffled ordering, as in `estimate_sn`, sigma from
    `bootstrap_sn` on the category counts; neither draws a random
    number, so a row depends only on the data.  n_critical is the
    largest n at which any beta meets the criterion (0, with a note,
    when none does).  Raises InvalidArgumentError, before any work,
    unless the criterion is a MinusKSigma, there is data and each n is
    at least 1.
    """
    if not isinstance(criterion, MinusKSigma):
        raise InvalidArgumentError(
            f"criterion {criterion!r} is not a MinusKSigma")
    if not data:
        raise InvalidArgumentError("need data for at least one beta")
    n_values = sorted({int(n) for n in n_values})
    if n_values and n_values[0] < 1:
        raise InvalidArgumentError(
            f"cluster size must be >= 1, got {n_values[0]!r}")
    grid = [(n, _signs(n, strategy)) for n in n_values]
    if isinstance(data, dict):
        sums = {beta: {key: _PairSums(grid).fold(*sequences[key])
                       for key in SETTING_PAIRS}
                for beta, sequences in data.items()}
    else:
        sums = _fold_files(data, grid)
    entries = []
    for beta, pairs in sorted(sums.items()):
        pairs = [pairs[key] for key in SETTING_PAIRS]
        # raises InsufficientDataError for a pair with fewer than n events
        sigmas = bootstrap_sn([p.counts for p in pairs], n_values,
                              strategy)[1]
        for j, (n, sigma) in enumerate(zip(n_values, sigmas)):
            # each correlator: the sign sum over its clusters / their number
            s = chsh_value([p.rows[j][0] / p.rows[j][1] for p in pairs],
                           n=n).s
            entries.append((float(beta), n, float(s), float(sigma)))
    entries.sort(key=lambda entry: (entry[1], entry[0]))
    n_critical = max((n for _, n, s, sigma in entries
                      if s - criterion.k * sigma > 2.0), default=0)
    note = None if n_critical > 0 else "no n satisfied the criterion"
    return SnCurve(strategy=strategy, entries=tuple(entries),
                   n_critical=n_critical, criterion=criterion, note=note)
