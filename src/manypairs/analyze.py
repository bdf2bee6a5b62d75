"""Post-processing pipeline for event streams.

Ingests simulated (or recorded) per-setting event files, undoes the basis
variant inversions, clusters events into groups of n, bins, estimates the
CHSH value, and extracts the largest cluster size that still shows a
violation.  The error bar is the closed-form limit of a shuffle-recluster
bootstrap (`bootstrap_sn`, from `sampling`), and a randomized majority
tie counts as its coin's expectation, sign 0, so the analysis draws no
random number at all.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .binning import BinningStrategy, ChshEstimate, chsh_value, sign_vector
from .errors import (IngestionError, InsufficientDataError,
                     InvalidArgumentError)
from .pairstats import SETTING_PAIRS, CorrelatorTable
from .sampling import bootstrap_sn
from .simulate import (CSV_EVENT, CSV_STREAM_PREFIX, JSONL_EVENT, EventStream,
                       event_format, variant_inversions)

#: Column names of the CSV event form.
_CSV_COLUMNS = ("x", "y", "variant", "a", "b")

#: One cell of a CSV event row: a run of ASCII digits.
_CSV_CELL = re.compile(r"[0-9]+")

#: First row of a run of CSV rows that `read_csv` checks as one block,
#: and its cells before the bits.
_CSV_FIRST_ROW = re.compile(rb"([0-9],[0-9],[0-3],)[01],[01](?:\r\n|\r|\n)")

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
    """Violation criterion: s - k*sigma exceeds 2.

    Raises InvalidArgumentError unless k is a finite number >= 0.
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
    criterion: object
    note: str | None = None


def _no_constant(token: str):
    """json.loads hook: NaN and Infinity are not JSON numbers."""
    raise ValueError(f"{token} is not a JSON number")


def _finite(value) -> bool:
    """True for a finite JSON number; json reads true/false as bool."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _stream_meta(header: dict) -> dict:
    """A stream header without its setting pair and basis variant.

    Raises ValueError unless the provenance it holds is well formed: a
    finite JSON number for "beta", one in [0, 1] for "visibility" and
    each "detector" efficiency, one in [0, 1) for "discardProb", and a
    "table" that `CorrelatorTable.from_json_dict` takes.
    """
    beta = header.get("beta", 0.0)
    if not _finite(beta):
        raise ValueError(f"beta {beta!r} is not a finite number")
    units = {"visibility": "[0, 1]", "discardProb": "[0, 1)"}
    fields = [(name, header[name], units[name]) for name in units
              if name in header]
    if "detector" in header:
        detector = header["detector"]
        if not isinstance(detector, dict):
            raise ValueError(f"detector {detector!r} is not an object")
        fields += [(f"detector {key}", detector.get(key), "[0, 1]")
                   for key in ("etaT_A", "etaR_A", "etaT_B", "etaR_B")]
    for name, value, unit in fields:
        if not (_finite(value) and 0.0 <= value <= 1.0
                and (value < 1.0 or unit.endswith("]"))):
            raise ValueError(f"{name} {value!r} is not a finite number "
                             f"in {unit}")
    if "table" in header:
        try:
            CorrelatorTable.from_json_dict(header["table"])
        except InvalidArgumentError:
            raise ValueError(
                f"table {header['table']!r} is not a correlator table")
    return {k: v for k, v in header.items()
            if k not in ("settingPair", "basisVariant")}


def _is_json_int(value) -> bool:
    """True for a JSON integer; json reads true/false as bool, an int."""
    return type(value) is int


def _stream_header(header: dict) -> tuple[tuple, int, dict]:
    """Setting pair, basis variant and metadata of a JSON-lines header.

    Both must be JSON integers, and the metadata well formed
    (`_stream_meta`).  Raises ValueError saying what is malformed.
    """
    variant = header.get("basisVariant")
    if not (_is_json_int(variant) and variant in (0, 1, 2, 3)):
        raise ValueError("basis variant outside 0..3")
    pair = header["settingPair"]
    if not (isinstance(pair, list) and len(pair) == 2
            and all(_is_json_int(v) for v in pair)):
        raise ValueError(f"setting pair {pair!r} is not two integers")
    return tuple(pair), variant, _stream_meta(header)


def _error(path: Path, offset: int, message: str):
    """IngestionError naming `path:line` for the line at byte `offset` of
    the file, counting line breaks as text mode does: LF, CR LF and a
    lone CR.

    Only the error path reads the file a second time, whole: it raises
    UnicodeDecodeError instead if the file is not UTF-8.  A reader
    decodes every line it parses and checks every other byte against an
    ASCII template, so a file that is not UTF-8 is refused as such
    whichever of its lines is also malformed, in whichever chunk.
    """
    raw = path.read_bytes()
    raw.decode()
    line = (raw.count(b"\n", 0, offset) + raw.count(b"\r", 0, offset)
            - raw.count(b"\r\n", 0, offset) + 1)
    return IngestionError(f"{path}:{line}: {message}")


#: Bytes a reader takes from an event file at a time, before it completes
#: the chunk to the end of its line (`_to_line_end`).
_CHUNK_BYTES = 1 << 18

#: One line and its line break, as text mode splits a file.
_LINE = re.compile(rb"([^\r\n]*)(\r\n|\r|\n)?")


def _lines(raw: bytes, lo: int, hi: int):
    """(offset, text, line break) of each line of raw[lo:hi]; the line
    break is normalised to LF, or is "" for a last line without one."""
    for match in _LINE.finditer(raw, lo, hi):
        if match.end() > match.start():
            yield (match.start(), match[1].decode(),
                   "\n" if match[2] else "")


def _runs(raw: bytes, pos: int, marker: bytes):
    """Cut raw[pos:] before and after each line holding `marker`.

    Yields (lo, start, end): raw[lo:start] is the run of lines before
    such a line and raw[start:end] the line itself (empty at the end).
    Lines end in LF, CR LF or a lone CR.
    """
    while pos < len(raw):
        key = raw.find(marker, pos)
        if key < 0:
            yield pos, len(raw), len(raw)
            return
        lf = max(raw.rfind(b"\n", pos, key) + 1, pos)
        start = raw.rfind(b"\r", lf, key) + 1 or lf
        end = _LINE.match(raw, key).end()
        yield pos, start, end
        pos = end


def _to_line_end(fh, head: bytes) -> bytes:
    """head, read on from the buffered file `fh` through the next line
    break: an LF, a CR LF pair or a lone CR.  A head that ends in a line
    break takes at most the LF of a CR LF pair."""
    while not head.endswith(b"\n") and (ahead := fh.peek()):
        if head.endswith(b"\r"):
            return head + fh.read(1 if ahead.startswith(b"\n") else 0)
        head += fh.read(_LINE.match(ahead).end())
    return head


def _read_chunks(fh, marker: bytes, block, line) -> None:
    """Read `fh` from its position on, in chunks of whole lines.

    Each chunk is `_CHUNK_BYTES` bytes completed to the next line break
    (`_to_line_end`), so no line, CR LF pair or UTF-8 sequence is split,
    and a file whose lines end in lone CRs is held a chunk at a time
    too.  A chunk is cut before and after each line holding `marker`
    (`_runs`).  Each run of lines in between goes to `block(chunk, lo,
    hi)`, which returns true if it took the run as one block; the lines
    of a run it did not take, and each line holding `marker`, go one by
    one to `line(file offset, text, line break)` (`_lines`).
    """
    base = fh.tell()
    while chunk := fh.read(_CHUNK_BYTES):
        chunk = _to_line_end(fh, chunk)
        for lo, start, end in _runs(chunk, 0, marker):
            spans = ((start, end),) if block(chunk, lo, start) else (
                (lo, start), (start, end))
            for span in spans:
                for offset, text, newline in _lines(chunk, *span):
                    line(base + offset, text, newline)
        base += len(chunk)


def _event_bits(raw: bytes, lo: int, hi: int, template: bytes, columns):
    """(a, b) of the event lines raw[lo:hi], or None if any line departs
    from `template` other than by a 0 or 1 bit at `columns`.

    `template` ends in LF; the lines are checked against it ending in
    the line break of their first line instead, so a run of lines that
    all end in CR LF, or all in a lone CR, is one block too.
    """
    columns = [column % len(template) for column in columns]
    template = template[:-1] + (_LINE.match(raw, lo, hi)[2] or b"\n")
    width = len(template)
    if (hi - lo) % width:
        return None
    block = np.frombuffer(raw, np.uint8)[lo:hi].reshape(-1, width)
    diff = block ^ np.frombuffer(template, np.uint8)
    mask = np.full(width, 0xFF, dtype=np.uint8)
    mask[list(columns)] = 0xFE
    if np.any(diff & mask):
        return None
    return diff[:, columns[0]].copy(), diff[:, columns[1]].copy()


class _Events:
    """One stream under assembly: its a and b bits, in file order."""

    def __init__(self, pair: tuple, variant: int, meta: dict):
        self.fields = (pair, variant, meta)
        self.a, self.b = bytearray(), bytearray()

    def extend(self, a, b) -> None:
        self.a.extend(a)  # a uint8 array is copied as one buffer
        self.b.extend(b)

    def stream(self) -> EventStream:
        pair, variant, meta = self.fields
        return EventStream(pair, variant, np.frombuffer(self.a, np.uint8),
                           np.frombuffer(self.b, np.uint8), meta)


def read_jsonl(path) -> list[EventStream]:
    """Parse a JSON-lines event file into streams (physical bits).

    The file is read in chunks of whole lines (`_read_chunks`), so the
    reader holds one chunk and the bits read so far, not the file.  In
    each chunk, each run of event lines is checked as one block against
    `write_jsonl`'s layout, ending in the run's own line break, and
    appended to the latest stream; only the lines of a run that departs
    from it, and the header lines, are parsed one by one.  Errors name
    `path:line`.
    """
    path = Path(path)
    template, columns = JSONL_EVENT
    streams: list[_Events] = []

    def block(chunk: bytes, lo: int, hi: int) -> bool:
        bits = streams and _event_bits(chunk, lo, hi, template, columns)
        if bits:
            streams[-1].extend(*bits)
        return bool(bits)

    def line(offset: int, text: str, newline: str) -> None:
        text = text.strip()
        if not text:
            return
        try:
            obj = json.loads(text, parse_constant=_no_constant)
        except (ValueError, RecursionError) as exc:
            # ValueError covers JSONDecodeError and integers longer than
            # Python converts; RecursionError, deep nesting
            raise _error(path, offset, f"bad JSON ({exc})")
        if isinstance(obj, dict) and "settingPair" in obj:
            try:
                streams.append(_Events(*_stream_header(obj)))
            except ValueError as exc:
                raise _error(path, offset, str(exc))
        elif isinstance(obj, dict) and "a" in obj and "b" in obj:
            if not streams:
                raise _error(path, offset, "event record before any header")
            if not all(_is_json_int(obj[k]) and obj[k] in (0, 1)
                       for k in ("a", "b")):
                raise _error(path, offset, "outcomes must be bits")
            streams[-1].extend((obj["a"],), (obj["b"],))
        else:
            raise _error(path, offset, f"unrecognized record {obj!r}")

    with path.open("rb") as fh:
        _read_chunks(fh, b'"settingPair"', block, line)
    return [events.stream() for events in streams]


def read_csv(path) -> list[EventStream]:
    """Parse the compact CSV form (x, y, variant, a, b) into streams.

    A `# stream: {json}` comment line carries the metadata of the rows
    after it; files without such lines read with empty metadata.  After
    the column line, the file is read in chunks of whole lines
    (`_read_chunks`), so the reader holds one chunk and the bits read so
    far, not the file.  Under `write_csv`'s column line, each run of rows
    of a chunk between two such comment lines is checked as one block
    against the layout of its first row, line break included; only the
    rows of a run that departs from it, and the comment lines, are parsed
    one by one.
    Errors name `path:line`.
    """
    path = Path(path)
    suffix, columns = CSV_EVENT
    metas: list[dict] = [{}]
    streams: dict[tuple, _Events] = {}

    def events(pair: tuple, variant: int) -> _Events:
        key = (len(metas) - 1, pair, variant)
        if key not in streams:
            streams[key] = _Events(pair, variant, dict(metas[-1]))
        return streams[key]

    def block(chunk: bytes, lo: int, hi: int) -> bool:
        row = _LINE.match(chunk, lo, hi)[0]
        first = in_order and _CSV_FIRST_ROW.fullmatch(row)
        bits = first and _event_bits(chunk, lo, hi, first[1] + suffix,
                                     columns)
        if bits:
            x, y, variant = map(int, row[:5].split(b","))
            events((x, y), variant).extend(*bits)
        return bool(bits)

    def line(offset: int, row: str, newline: str) -> None:
        if row.startswith(CSV_STREAM_PREFIX):
            try:
                header = json.loads(row[len(CSV_STREAM_PREFIX):] + newline,
                                    parse_constant=_no_constant)
            except (ValueError, RecursionError) as exc:
                raise _error(path, offset, f"bad stream metadata ({exc})")
            if not isinstance(header, dict):
                raise _error(path, offset, "stream metadata is not an object")
            try:
                metas.append(_stream_meta(header))
            except ValueError as exc:
                raise _error(path, offset, str(exc))
            return
        if not row.strip():
            return
        cells = row.split(",")
        try:
            if len(cells) != len(cols) or not all(
                    _CSV_CELL.fullmatch(c) for c in cells):
                raise ValueError
            x, y, v, a, b = (int(cells[i]) for i in cols)
        except ValueError:  # int() also refuses over 4300 digits
            raise _error(path, offset, f"malformed row {row!r}")
        if v not in (0, 1, 2, 3):
            raise _error(path, offset, "basis variant outside 0..3")
        if a not in (0, 1) or b not in (0, 1):
            raise _error(path, offset, "outcomes must be bits")
        events((x, y), v).extend((a,), (b,))

    with path.open("rb") as fh:
        names = _to_line_end(fh, b"").decode().strip().split(",")
        if sorted(names) != sorted(_CSV_COLUMNS):
            raise _error(path, 0, "expected columns x,y,variant,a,b")
        cols = [names.index(c) for c in _CSV_COLUMNS]
        in_order = names == list(_CSV_COLUMNS)
        _read_chunks(fh, CSV_STREAM_PREFIX.encode(), block, line)
    return [stream.stream() for stream in streams.values()]


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
    """Concatenate logical bit sequences per setting pair, in stream order.

    Each stream's bits are XORed with its basis variant's inversions
    (`logical_bits`) straight into one uint8 array per party and setting
    pair, so nothing is held besides the streams and the sequences.
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
    one beta with different provenance raise IngestionError.
    """
    return {beta: sequences_from_streams(group)
            for beta, group in streams_by_beta(paths).items()}


#: Clusters `find_nc` sums at a time: its working set beyond one pair's
#: running totals.
_BLOCK = 1 << 12


@dataclass(frozen=True)
class RunningTotals:
    """Cumulative a and b counts of one setting pair's events.

    `counts[:, k]` sums the first k events (a shape (2, events + 1)
    array), so the counts of any window are the difference of two of its
    columns, and a slice of columns holds the totals of a stretch of
    events.  The totals are int32, 8 bytes per event, unless that could
    overflow.  `of` holds no cast copy of the sequence.
    """

    counts: np.ndarray

    @classmethod
    def of(cls, sequence: tuple[np.ndarray, np.ndarray]) -> "RunningTotals":
        a, b = sequence
        dtype = np.int32 if len(a) < 2 ** 31 else np.int64
        counts = np.empty((2, len(a) + 1), dtype=dtype)
        counts[:, 0] = 0
        # cast into the totals, then sum them in place: a cast of the
        # bits on their own would be a temporary of 4 bytes per event
        counts[0, 1:], counts[1, 1:] = a, b
        np.cumsum(counts[:, 1:], axis=1, out=counts[:, 1:])
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


def _signs(n: int, strategy: BinningStrategy) -> np.ndarray:
    """`sign_vector` as int8: +-1, or 0 for a randomized tie."""
    return sign_vector(n, strategy).astype(np.int8)


def _sign_sum(clustered: ClusteredOutcomes, sign: np.ndarray) -> int:
    """Sum of sign[a] * sign[b] over clusters, with `sign` from `_signs`.

    The int8 products are summed in int64, so the sum is exact, and a
    correlator, the sum over its clusters divided by their number,
    equals the mean of the float64 products bit for bit.
    """
    product = sign[clustered.a_counts]
    product *= sign[clustered.b_counts]
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
        es.append(_sign_sum(c, _signs(n, strategy)) / c.clusters)
    return chsh_value(es, n=n)


def _pair_correlators(sequence, n_values, strategy: BinningStrategy
                      ) -> list[float]:
    """One setting pair's correlator at each n, n <= its events.

    Each is an exact `_sign_sum` over blocks of `_BLOCK` clusters, each
    block clustered from a slice of the pair's `RunningTotals`; the
    totals are released when the function returns.
    """
    totals = RunningTotals.of(sequence).counts
    events = totals.shape[1] - 1
    correlators = []
    for n in n_values:
        sign = _signs(n, strategy)
        m = events // n
        total = 0
        for first in range(0, m, _BLOCK):
            last = min(first + _BLOCK, m)
            block = RunningTotals(totals[:, first * n:last * n + 1])
            total += _sign_sum(cluster_events(block, n), sign)
        correlators.append(total / m)
    return correlators


def find_nc(sequences_per_beta: dict, strategy: BinningStrategy, n_values,
            criterion=PointEstimate()) -> SnCurve:
    """S_n with error bars over a (beta, n) grid, plus the largest violating n.

    The point estimate comes from the unshuffled ordering, as in
    `estimate_sn`, sigma from `bootstrap_sn`; neither draws a random
    number, so a row depends only on the data.  n_critical is the
    largest n at which any beta meets the criterion (0, with a note,
    when none does).

    The setting pairs are taken one at a time (`_pair_correlators`), so
    besides the sequences themselves one pair's `RunningTotals` are
    held, 8 bytes per event of the pair, and one block of `_BLOCK`
    clusters at a time.
    """
    if not sequences_per_beta:
        raise InvalidArgumentError("need data for at least one beta")
    n_values = sorted({int(n) for n in n_values})
    entries = []
    for beta, sequences in sorted(sequences_per_beta.items()):
        # raises InsufficientDataError for a pair with fewer than n events
        sigmas = bootstrap_sn(sequences, n_values, strategy)[1]
        es = np.array([_pair_correlators(sequences[key], n_values, strategy)
                       for key in SETTING_PAIRS]).T
        for n, sigma, correlators in zip(n_values, sigmas, es):
            s = chsh_value(correlators, n=n).s
            entries.append((float(beta), n, float(s), float(sigma)))
    entries.sort(key=lambda entry: (entry[1], entry[0]))
    k = criterion.k if isinstance(criterion, MinusKSigma) else 0.0
    n_critical = max((n for _, n, s, sigma in entries
                      if s - k * sigma > 2.0), default=0)
    note = None if n_critical > 0 else "no n satisfied the criterion"
    return SnCurve(strategy=strategy, entries=tuple(entries),
                   n_critical=n_critical, criterion=criterion, note=note)
