"""Post-processing pipeline for event streams.

Ingests simulated (or recorded) per-setting event files, undoes the basis
variant inversions, clusters events into groups of n, bins, estimates the
CHSH value with shuffle-bootstrap error bars, and extracts the largest
cluster size that still shows a violation.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .binning import BinningStrategy, ChshEstimate, chsh_value, sign_vector
from .errors import (IngestionError, InsufficientDataError,
                     InvalidArgumentError)
from .pairstats import SETTING_PAIRS
from .simulate import (CSV_EVENT, CSV_HEADER, CSV_STREAM_PREFIX, JSONL_EVENT,
                       EventStream, check_seed, event_format,
                       variant_inversions)

#: Column names of the CSV event form.
_CSV_COLUMNS = ("x", "y", "variant", "a", "b")

#: First row of a run of CSV rows that the bulk reader takes.
_CSV_FIRST_ROW = re.compile(rb"[0-9],[0-9],[0-3],[01],[01]\n")

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


def _stream_header(header: dict) -> tuple[tuple, int, dict]:
    """Setting pair, basis variant and metadata of a JSON-lines header.

    Raises ValueError saying what is malformed.
    """
    try:
        variant = int(header.get("basisVariant", -1))
    except (TypeError, ValueError, OverflowError):
        variant = -1
    if variant not in (0, 1, 2, 3):
        raise ValueError("basis variant outside 0..3")
    pair = header["settingPair"]
    if not (isinstance(pair, list) and len(pair) == 2
            and all(isinstance(v, int) for v in pair)):
        raise ValueError(f"setting pair {pair!r} is not two integers")
    return tuple(pair), variant, _stream_meta(header)


def _json_object(line: bytes) -> dict | None:
    """The JSON object on one line of an event file, or None when the
    line is not ASCII, holds a carriage return (which the line parser
    reads as a line break) or is not a JSON object."""
    if not line.isascii() or b"\r" in line:
        return None
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError):
        return None
    return obj if isinstance(obj, dict) else None


def _event_bits(block: np.ndarray, template: bytes, columns):
    """(a, b) of a run of event lines, or None if any line departs from
    `template` other than by a 0 or 1 bit at `columns`."""
    width = len(template)
    if len(block) % width:
        return None
    diff = block.reshape(-1, width) ^ np.frombuffer(template, np.uint8)
    limit = np.zeros(width, dtype=np.uint8)
    limit[list(columns)] = 1
    if np.any(diff.max(axis=0, initial=0) > limit):
        return None
    return diff[:, columns[0]].copy(), diff[:, columns[1]].copy()


def _bulk_jsonl(raw: bytes) -> list[EventStream] | None:
    """Streams of a file in `write_jsonl`'s layout, or None for any other.

    Header lines are found by their "settingPair" key and parsed with
    json; the event lines between two headers are one zero-copy block.
    """
    template, columns = JSONL_EVENT
    buf = np.frombuffer(raw, dtype=np.uint8)
    streams: list[EventStream] = []
    fields = None
    pos = 0
    while True:
        key = raw.find(b'"settingPair"', pos)
        start = len(raw) if key < 0 else max(raw.rfind(b"\n", pos, key) + 1,
                                               pos)
        bits = _event_bits(buf[pos:start], template, columns)
        if bits is None or (fields is None and len(bits[0])):
            return None
        if fields is not None:
            pair, variant, meta = fields
            streams.append(EventStream(setting_pair=pair,
                                       basis_variant=variant, a=bits[0],
                                       b=bits[1], meta=meta))
        if key < 0:
            return streams
        end = raw.find(b"\n", key)
        pos = len(raw) if end < 0 else end + 1
        header = _json_object(raw[start:pos])
        if header is None or "settingPair" not in header:
            return None
        try:
            fields = _stream_header(header)
        except ValueError:
            return None


def _bulk_csv(raw: bytes) -> list[EventStream] | None:
    """Streams of a file in `write_csv`'s layout, or None for any other.

    Every run of rows between two `# stream:` lines must hold one
    (x, y, variant), with x, y <= 9 and variant <= 3 as single digits.
    """
    header = CSV_HEADER.encode()
    prefix = CSV_STREAM_PREFIX.encode()
    suffix, columns = CSV_EVENT
    if not raw.startswith(header):
        return None
    buf = np.frombuffer(raw, dtype=np.uint8)
    streams: list[EventStream] = []
    meta: dict = {}
    pos = len(header)
    while True:
        key = raw.find(prefix, pos)
        start = len(raw) if key < 0 else key
        if start > pos:
            first = raw[pos:raw.find(b"\n", pos) + 1]
            if not _CSV_FIRST_ROW.fullmatch(first):
                return None
            template = first[:-len(suffix)] + suffix
            bits = _event_bits(buf[pos:start], template, columns)
            if bits is None:
                return None
            x, y, variant = (int(c) for c in first[:5].split(b","))
            streams.append(EventStream(setting_pair=(x, y),
                                       basis_variant=variant, a=bits[0],
                                       b=bits[1], meta=dict(meta)))
        if key < 0:
            return streams
        end = raw.find(b"\n", key)
        pos = len(raw) if end < 0 else end + 1
        meta = _json_object(raw[key + len(prefix):pos])
        if meta is None:
            return None
        meta = _stream_meta(meta)


def read_jsonl(path) -> list[EventStream]:
    """Parse a JSON-lines event file into streams (physical bits).

    A file in `write_jsonl`'s layout is read in bulk; any other goes
    through the line parser, which reports errors as `path:line`.
    """
    path = Path(path)
    streams = _bulk_jsonl(path.read_bytes())
    return _read_jsonl_lines(path) if streams is None else streams


def read_csv(path) -> list[EventStream]:
    """Parse the compact CSV form (x, y, variant, a, b) into streams.

    A `# stream: {json}` comment line carries the metadata of the rows
    after it; files without such lines read with empty metadata.  A file
    in `write_csv`'s layout is read in bulk; any other goes through the
    line parser, which reports errors as `path:line`.
    """
    path = Path(path)
    streams = _bulk_csv(path.read_bytes())
    return _read_csv_lines(path) if streams is None else streams


def _read_jsonl_lines(path: Path) -> list[EventStream]:
    streams: list[EventStream] = []
    fields = None
    a_bits: list[int] = []
    b_bits: list[int] = []

    def flush():
        if fields is None:
            return
        pair, variant, meta = fields
        streams.append(EventStream(
            setting_pair=pair, basis_variant=variant,
            a=np.array(a_bits, dtype=np.uint8),
            b=np.array(b_bits, dtype=np.uint8), meta=meta))

    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as exc:
                # ValueError covers JSONDecodeError and integers longer
                # than Python converts; RecursionError, deep nesting
                raise IngestionError(f"{path}:{lineno}: bad JSON ({exc})")
            if isinstance(obj, dict) and "settingPair" in obj:
                flush()
                try:
                    fields = _stream_header(obj)
                except ValueError as exc:
                    raise IngestionError(f"{path}:{lineno}: {exc}")
                a_bits, b_bits = [], []
            elif isinstance(obj, dict) and "a" in obj and "b" in obj:
                if fields is None:
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


def _read_csv_lines(path: Path) -> list[EventStream]:
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
                except (ValueError, RecursionError) as exc:
                    raise IngestionError(
                        f"{path}:{lineno}: bad stream metadata ({exc})")
                if not isinstance(header, dict):
                    raise IngestionError(
                        f"{path}:{lineno}: stream metadata is not an object")
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


@dataclass(frozen=True)
class RunningTotals:
    """Cumulative a and b counts of one setting pair's events.

    `counts[:, k]` sums the first k events (a shape (2, events + 1)
    array), so the counts of any window are the difference of two of its
    columns.  The totals are int32, half the memory of int64, unless
    that could overflow.
    """

    counts: np.ndarray

    @classmethod
    def of(cls, sequence: tuple[np.ndarray, np.ndarray]) -> "RunningTotals":
        a, b = sequence
        dtype = np.int32 if len(a) < 2 ** 31 else np.int64
        counts = np.empty((2, len(a) + 1), dtype=dtype)
        counts[:, 0] = 0
        np.cumsum(a, dtype=dtype, out=counts[0, 1:])
        np.cumsum(b, dtype=dtype, out=counts[1, 1:])
        return cls(counts)


def cluster_events(sequence, n: int) -> ClusteredOutcomes:
    """Sum bits over sequential non-overlapping windows of n events.

    `sequence` is a setting pair's (a, b) bit arrays or their
    `RunningTotals`; with the totals at hand each n costs O(events / n).
    """
    if n < 1:
        raise InvalidArgumentError(f"cluster size must be >= 1, got {n!r}")
    if not isinstance(sequence, RunningTotals):
        sequence = RunningTotals.of(sequence)
    totals = sequence.counts
    events = totals.shape[1] - 1
    m = events // n
    # int64 counts whatever the totals' width: numpy indexes with int64
    # at about twice the speed of int32
    a_counts, b_counts = np.subtract(totals[:, n:m * n + 1:n],
                                     totals[:, :m * n:n], dtype=np.int64)
    return ClusteredOutcomes(n=int(n), a_counts=a_counts, b_counts=b_counts,
                             discarded=int(events - m * n))


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
    pair's event order once and re-clusters that order at every n from
    one running total per pair.  The shuffle generator is seeded from
    `seed` (an int or a sequence of ints, each >= 0) and draws only
    permutations; randomized majority ties at n draw from a generator
    seeded from (`seed`, n).  A row's values therefore do not depend on
    the other n of the grid.
    """
    check_seed(seed)
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
    totals = {}
    for i in range(resamples):
        for key in SETTING_PAIRS:
            codes = shuffle_rng.permuted(packed[key])
            totals[key] = RunningTotals.of((codes & np.uint8(1),
                                            codes >> np.uint8(1)))
        for j, (n, tie_rng) in enumerate(zip(n_values, tie_rngs)):
            clustered = {key: cluster_events(totals[key], n)
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
    check_seed(seed)
    if not sequences_per_beta:
        raise InvalidArgumentError("need data for at least one beta")
    n_values = sorted({int(n) for n in n_values})
    betas = sorted(sequences_per_beta)
    rows = []  # rows[bi][j]: the (beta, n) entry of beta index bi, n_values[j]
    for bi, beta in enumerate(betas):
        sequences = sequences_per_beta[beta]
        sigmas = bootstrap_sn(sequences, n_values, strategy,
                              resamples=resamples, seed=(int(seed), bi))[1]
        totals = {key: RunningTotals.of(sequences[key])
                  for key in SETTING_PAIRS}
        rows.append([])
        for n, sigma in zip(n_values, sigmas):
            tie_rng = np.random.default_rng(
                np.random.SeedSequence([int(seed), bi, n]))
            clustered = {key: cluster_events(totals[key], n)
                         for key in SETTING_PAIRS}
            s = estimate_sn(clustered, strategy, rng=tie_rng).s
            rows[-1].append((float(beta), n, float(s), float(sigma)))
    entries = [beta_rows[j] for j in range(len(n_values))
               for beta_rows in rows]
    n_critical = 0
    for _, n, s, sigma in entries:
        if isinstance(criterion, MinusKSigma):
            violated = s - criterion.k * sigma > 2.0
        else:
            violated = s > 2.0
        if violated:
            n_critical = max(n_critical, n)
    note = None if n_critical > 0 else "no n satisfied the criterion"
    return SnCurve(strategy=strategy, entries=tuple(entries),
                   n_critical=n_critical, criterion=criterion, note=note)
