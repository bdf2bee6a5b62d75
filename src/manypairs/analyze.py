"""Post-processing pipeline for event streams.

Ingests simulated (or recorded) per-setting event files, undoes the basis
variant inversions, clusters events into groups of n, bins, estimates the
CHSH value with shuffle-bootstrap error bars, and extracts the largest
cluster size that still shows a violation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .binning import BinningStrategy, ChshEstimate, chsh_value, sign_vector
from .errors import (IngestionError, InsufficientDataError,
                     InvalidArgumentError)
from .pairstats import SETTING_PAIRS
from .simulate import (CSV_STREAM_PREFIX, EventStream, event_format,
                       variant_inversions)

#: Column names of the CSV event form.
_CSV_COLUMNS = ("x", "y", "variant", "a", "b")

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
class PointEstimate:
    """Violation criterion: the point estimate itself exceeds 2."""


@dataclass(frozen=True)
class MinusKSigma:
    """Violation criterion: s - k*sigma exceeds 2."""

    k: float = 1.0


@dataclass(frozen=True)
class SnCurve:
    """S_n estimates over a (beta, n) grid and the extracted n_critical."""

    strategy: BinningStrategy
    entries: tuple  # (beta, n, s, sigma), sorted by (n, beta)
    n_critical: int
    criterion: object
    note: str | None = None


def _stream_meta(header: dict) -> dict:
    return {k: v for k, v in header.items()
            if k not in ("settingPair", "basisVariant")}


def read_jsonl(path) -> list[EventStream]:
    """Parse a JSON-lines event file into streams (physical bits)."""
    path = Path(path)
    streams: list[EventStream] = []
    header = None
    a_bits: list[int] = []
    b_bits: list[int] = []

    def flush():
        if header is None:
            return
        streams.append(EventStream(
            setting_pair=tuple(header["settingPair"]),
            basis_variant=int(header["basisVariant"]),
            a=np.array(a_bits, dtype=np.uint8),
            b=np.array(b_bits, dtype=np.uint8),
            meta=_stream_meta(header)))

    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise IngestionError(f"{path}:{lineno}: bad JSON ({exc})")
            if "settingPair" in obj:
                flush()
                header = obj
                a_bits, b_bits = [], []
                if int(obj.get("basisVariant", -1)) not in (0, 1, 2, 3):
                    raise IngestionError(
                        f"{path}:{lineno}: basis variant outside 0..3")
            elif "a" in obj and "b" in obj:
                if header is None:
                    raise IngestionError(
                        f"{path}:{lineno}: event record before any header")
                if obj["a"] not in (0, 1) or obj["b"] not in (0, 1):
                    raise IngestionError(
                        f"{path}:{lineno}: outcomes must be bits")
                a_bits.append(obj["a"])
                b_bits.append(obj["b"])
            else:
                raise IngestionError(
                    f"{path}:{lineno}: unrecognized record {obj!r}")
    flush()
    return streams


def read_csv(path) -> list[EventStream]:
    """Parse the compact CSV form (x, y, variant, a, b) into streams.

    A `# stream: {json}` comment line carries the metadata of the rows
    after it; files without such lines read with empty metadata.
    """
    path = Path(path)
    metas: list[dict] = [{}]
    chunks: dict[tuple, list] = {}
    with path.open() as fh:
        names = fh.readline().strip().split(",")
        if sorted(names) != sorted(_CSV_COLUMNS):
            raise IngestionError(
                f"{path}:1: expected columns x,y,variant,a,b")
        cols = [names.index(c) for c in _CSV_COLUMNS]
        for lineno, line in enumerate(fh, start=2):
            if line.startswith(CSV_STREAM_PREFIX):
                try:
                    header = json.loads(line[len(CSV_STREAM_PREFIX):])
                except json.JSONDecodeError as exc:
                    raise IngestionError(
                        f"{path}:{lineno}: bad stream metadata ({exc})")
                metas.append(_stream_meta(header))
                continue
            cells = line.strip().split(",")
            if cells == [""]:
                continue
            try:
                x, y, v, a, b = (int(cells[i]) for i in cols)
            except (IndexError, ValueError):
                raise IngestionError(
                    f"{path}:{lineno}: malformed row {line.strip()!r}")
            if v not in (0, 1, 2, 3):
                raise IngestionError(
                    f"{path}:{lineno}: basis variant outside 0..3")
            if a not in (0, 1) or b not in (0, 1):
                raise IngestionError(f"{path}:{lineno}: outcomes must be bits")
            chunks.setdefault((len(metas) - 1, (x, y), v), []).append((a, b))
    streams = []
    for (block, setting_pair, variant), rows in chunks.items():
        pairs = np.array(rows, dtype=np.uint8)
        streams.append(EventStream(setting_pair=setting_pair,
                                   basis_variant=variant, a=pairs[:, 0],
                                   b=pairs[:, 1], meta=dict(metas[block])))
    return streams


def read_streams(path) -> list[EventStream]:
    """Read an event file in the format its suffix names.

    Raises IngestionError naming the path when the file cannot be read
    or is not UTF-8 text.
    """
    read = read_csv if event_format(path) == "csv" else read_jsonl
    try:
        return read(path)
    except OSError as exc:
        raise IngestionError(f"{path}: cannot read ({exc.strerror})") from exc
    except UnicodeDecodeError as exc:
        raise IngestionError(f"{path}: not UTF-8 text") from exc


def streams_by_beta(paths) -> dict:
    """Read event files and group their streams by the beta in their metadata.

    Streams without a beta group under 0.0.  Streams of one beta must
    agree in visibility, detector, discard probability and, per setting
    pair, correlator table; otherwise raises IngestionError naming two
    files whose streams differ.
    """
    groups: dict[float, list] = {}
    seen: dict[tuple, tuple] = {}
    for path in paths:
        for stream in read_streams(path):
            beta = float(stream.meta.get("beta", 0.0))
            for name in _PROVENANCE_FIELDS:
                pair = stream.setting_pair if name == "table" else None
                value = stream.meta.get(name)
                first_value, first_path = seen.setdefault(
                    (beta, name, pair), (value, path))
                if value != first_value:
                    where = f" for setting pair {pair}" if pair else ""
                    raise IngestionError(
                        f"{first_path} and {path}: streams at beta={beta} "
                        f"differ in {name}{where}; analyze them separately")
            groups.setdefault(beta, []).append(stream)
    return groups


def logical_bits(stream: EventStream) -> tuple[np.ndarray, np.ndarray]:
    """Undo the stream's basis-variant inversion on the physical bits."""
    inv_a, inv_b = variant_inversions(stream.basis_variant)
    return stream.a ^ np.uint8(inv_a), stream.b ^ np.uint8(inv_b)


def sequences_from_streams(streams) -> dict:
    """Concatenate logical bit sequences per setting pair, in stream order."""
    seqs = {key: ([], []) for key in SETTING_PAIRS}
    for stream in streams:
        if stream.setting_pair not in seqs:
            raise IngestionError(
                f"unknown setting pair {stream.setting_pair!r}")
        a, b = logical_bits(stream)
        seqs[stream.setting_pair][0].append(a)
        seqs[stream.setting_pair][1].append(b)
    out = {}
    for key in SETTING_PAIRS:
        a_parts, b_parts = seqs[key]
        if not a_parts:
            raise IngestionError(f"no events for setting pair {key}")
        out[key] = (np.concatenate(a_parts), np.concatenate(b_parts))
    return out


def ingest(paths) -> dict:
    """Read event files into {beta: logical sequences by setting pair}.

    Streams are grouped and checked by `streams_by_beta`, so streams of
    one beta with different provenance raise IngestionError.
    """
    return {beta: sequences_from_streams(group)
            for beta, group in streams_by_beta(paths).items()}


def cluster_events(sequence: tuple[np.ndarray, np.ndarray],
                   n: int) -> ClusteredOutcomes:
    """Sum bits over sequential non-overlapping windows of n events."""
    if n < 1:
        raise InvalidArgumentError(f"cluster size must be >= 1, got {n!r}")
    a, b = sequence
    m = len(a) // n
    a_counts = a[:m * n].reshape(m, n).sum(axis=1).astype(np.int64)
    b_counts = b[:m * n].reshape(m, n).sum(axis=1).astype(np.int64)
    return ClusteredOutcomes(n=int(n), a_counts=a_counts, b_counts=b_counts,
                             discarded=int(len(a) - m * n))


def _binned_signs(counts: np.ndarray, n: int, strategy: BinningStrategy,
                  rng: np.random.Generator | None) -> np.ndarray:
    s = sign_vector(n, strategy)[counts]
    ties = s == 0.0
    if np.any(ties):
        if rng is None:
            raise InvalidArgumentError(
                "randomized ties present but no rng supplied")
        s = s.copy()
        s[ties] = rng.choice([-1.0, 1.0], size=int(ties.sum()))
    return s


def estimate_sn(clustered: dict, strategy: BinningStrategy,
                rng: np.random.Generator | None = None) -> ChshEstimate:
    """Empirical binned correlators and CHSH value from clustered counts."""
    es = []
    n = None
    for key in SETTING_PAIRS:
        c = clustered[key]
        if c.clusters < 1:
            raise InsufficientDataError(
                f"no clusters for setting pair {key} (n={c.n})")
        if n is None:
            n = c.n
        elif c.n != n:
            raise InvalidArgumentError("inconsistent cluster sizes")
        sa = _binned_signs(c.a_counts, c.n, strategy, rng)
        sb = _binned_signs(c.b_counts, c.n, strategy, rng)
        es.append(float(np.mean(sa * sb)))
    return chsh_value((es[0], es[1], es[2], es[3]), n=n)


def bootstrap_sn(sequences: dict, n_values, strategy: BinningStrategy,
                 resamples: int = 1000, seed: int | tuple[int, ...] = 0
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Shuffle-recluster bootstrap of S_n: (sample means, sample stds).

    Both arrays follow `n_values`.  Each resample permutes every setting
    pair's event order once and re-clusters that order at every n.  The
    shuffle generator is seeded from `seed` (an int or a sequence of
    ints) and draws only permutations; randomized majority ties at n draw
    from a generator seeded from (`seed`, n).  A row's values therefore
    do not depend on the other n of the grid.
    """
    if resamples < 2:
        raise InvalidArgumentError(f"resamples must be >= 2, got {resamples}")
    n_values = [int(n) for n in n_values]
    shuffle_rng = np.random.default_rng(np.random.SeedSequence(seed))
    tie_rngs = [np.random.default_rng(np.random.SeedSequence(
        seed, spawn_key=(n,))) for n in n_values]
    # pack each pair's (a, b) bits into one code array so a resample is a
    # single in-C shuffle instead of an index permutation plus two gathers
    packed = {key: (sequences[key][0] | (sequences[key][1] << np.uint8(1)))
              for key in SETTING_PAIRS}
    values = np.empty((len(n_values), resamples))
    for i in range(resamples):
        shuffled = {}
        for key in SETTING_PAIRS:
            codes = shuffle_rng.permuted(packed[key])
            shuffled[key] = (codes & np.uint8(1), codes >> np.uint8(1))
        for j, (n, tie_rng) in enumerate(zip(n_values, tie_rngs)):
            clustered = {key: cluster_events(shuffled[key], n)
                         for key in SETTING_PAIRS}
            values[j, i] = estimate_sn(clustered, strategy, rng=tie_rng).s
    # reduce each n's row on its own, so it sums as a lone n would
    return values.mean(axis=1), values.std(axis=1, ddof=1)


def find_nc(sequences_per_beta: dict, strategy: BinningStrategy, n_values,
            criterion=PointEstimate(), resamples: int = 1000,
            seed: int = 0) -> SnCurve:
    """S_n with error bars over a (beta, n) grid, plus the largest violating n.

    The point estimate comes from the unshuffled ordering; sigma from one
    `bootstrap_sn` call per beta, seeded from (seed, beta index).
    n_critical is the largest n at which any beta meets the criterion (0,
    with a note, when none does).
    """
    if not sequences_per_beta:
        raise InvalidArgumentError("need data for at least one beta")
    n_values = sorted({int(n) for n in n_values})
    betas = sorted(sequences_per_beta)
    sigmas = [bootstrap_sn(sequences_per_beta[beta], n_values, strategy,
                           resamples=resamples, seed=(int(seed), bi))[1]
              for bi, beta in enumerate(betas)]
    entries = []
    n_critical = 0
    for j, n in enumerate(n_values):
        for bi, beta in enumerate(betas):
            sequences = sequences_per_beta[beta]
            tie_rng = np.random.default_rng(
                np.random.SeedSequence([int(seed), bi, n]))
            clustered = {key: cluster_events(sequences[key], n)
                         for key in SETTING_PAIRS}
            s = estimate_sn(clustered, strategy, rng=tie_rng).s
            sigma = float(sigmas[bi][j])
            entries.append((float(beta), n, float(s), sigma))
            if isinstance(criterion, MinusKSigma):
                violated = s - criterion.k * sigma > 2.0
            else:
                violated = s > 2.0
            if violated:
                n_critical = max(n_critical, n)
    note = None if n_critical > 0 else "no n satisfied the criterion"
    return SnCurve(strategy=strategy, entries=tuple(entries),
                   n_critical=n_critical, criterion=criterion, note=note)
