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
from .simulate import (CSV_COLUMNS, CSV_EVENT, CSV_STREAM_PREFIX, JSONL_EVENT,
                       EventStream, event_format, variant_inversions)

#: One cell of a CSV event row: a run of ASCII digits.
_CSV_CELL = re.compile(r"[0-9]+")

#: First row of a run of CSV rows that `read_csv` checks as one block:
#: its cells before the bits, and each of them.
_CSV_FIRST_ROW = re.compile(rb"(([0-9]),([0-9]),([0-3]),)[01],[01]\n")

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
    pair = header.get("settingPair")
    if not (isinstance(pair, list) and len(pair) == 2
            and all(_is_json_int(v) for v in pair)):
        raise ValueError(f"setting pair {pair!r} is not two integers")
    return tuple(pair), variant, _stream_meta(header)


def _lf(raw: bytes) -> bytes:
    """raw with its line breaks as text mode reads them: each CR LF pair
    and each lone CR becomes an LF."""
    if b"\r" not in raw:
        return raw
    return raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")


#: Bytes a reader takes from an event file at a time, before it completes
#: the chunk to the end of its line (`_to_line_end`).
_CHUNK_BYTES = 1 << 18


def _lines(raw: bytes, lo: int, hi: int):
    """The text of each line of raw[lo:hi], an LF-only chunk; the text
    keeps its LF, which a last line may lack."""
    while lo < hi:
        end = raw.find(b"\n", lo, hi) + 1 or hi
        yield raw[lo:end].decode()
        lo = end


def _to_line_end(fh, head: bytes) -> bytes:
    """head, read on from the buffered file `fh` through the next line
    break: an LF, a CR LF pair or a lone CR.  A head that ends in a line
    break takes at most the LF of a CR LF pair, so no chunk ends between
    the two."""
    while not head.endswith(b"\n") and (ahead := fh.peek()):
        if head.endswith(b"\r"):
            return head + fh.read(1 if ahead.startswith(b"\n") else 0)
        ends = [i for i in (ahead.find(b"\n"), ahead.find(b"\r")) if i >= 0]
        head += fh.read(min(ends, default=len(ahead) - 1) + 1)
    return head


def _read_chunks(path, fh, marker: bytes, block, line,
                 number: int = 1) -> None:
    """Read `fh` from its position on, line `number` of `path`, in
    chunks of whole lines.

    Each chunk is `_CHUNK_BYTES` bytes completed to the next line break
    (`_to_line_end`), so no line, CR LF pair or UTF-8 sequence is split,
    and its line breaks are made LFs (`_lf`).  A chunk is cut before and
    after each line holding `marker`.  Each run of lines in between goes
    to `block(chunk, lo, hi)`, which returns the number of lines it took
    as one block, or 0 if it did not take the run; the lines of a run it
    did not take, and each line holding `marker`, go one by one to
    `line(text)` (`_lines`).  A ValueError that `line` raises is raised
    as IngestionError naming `path:line`.
    """
    while chunk := fh.read(_CHUNK_BYTES):
        chunk = _lf(_to_line_end(fh, chunk))
        lo = 0
        while lo < len(chunk):
            key = chunk.find(marker, lo)
            if key < 0:
                start = end = len(chunk)
            else:
                start = chunk.rfind(b"\n", 0, key) + 1
                end = chunk.find(b"\n", key) + 1 or len(chunk)
            taken = block(chunk, lo, start)
            number += taken
            for text in _lines(chunk, start if taken else lo, end):
                try:
                    line(text)
                except ValueError as exc:
                    raise IngestionError(f"{path}:{number}: {exc}") from exc
                number += 1
            lo = end


def _event_bits(raw: bytes, lo: int, hi: int, template: bytes, columns):
    """(a, b) of the event lines raw[lo:hi], or None if any line departs
    from `template` other than by a 0 or 1 bit at `columns`."""
    width = len(template)
    if (hi - lo) % width:
        return None
    block = np.frombuffer(raw, np.uint8)[lo:hi].reshape(-1, width)
    diff = block ^ np.frombuffer(template, np.uint8)
    for column in columns:
        diff[:, column] &= 0xFE
    if diff.any():
        return None
    return block[:, columns[0]] & 1, block[:, columns[1]] & 1


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
    `write_jsonl`'s layout and appended to the latest stream; only the
    lines of a run that departs from it, and the header lines, are
    parsed one by one.  Errors name `path:line`.
    """
    path = Path(path)
    template, columns = JSONL_EVENT
    streams: list[_Events] = []

    def block(chunk: bytes, lo: int, hi: int) -> int:
        bits = streams and _event_bits(chunk, lo, hi, template, columns)
        if bits:
            streams[-1].extend(*bits)
        return len(bits[0]) if bits else 0

    def line(text: str) -> None:
        text = text.strip()
        if not text:
            return
        try:
            obj = json.loads(text, parse_constant=_no_constant)
        except (ValueError, RecursionError) as exc:
            # ValueError covers JSONDecodeError and integers longer than
            # Python converts; RecursionError, deep nesting
            raise ValueError(f"bad JSON ({exc})")
        if isinstance(obj, dict) and "settingPair" in obj:
            streams.append(_Events(*_stream_header(obj)))
        elif isinstance(obj, dict) and "a" in obj and "b" in obj:
            if not streams:
                raise ValueError("event record before any header")
            if not all(_is_json_int(obj[k]) and obj[k] in (0, 1)
                       for k in ("a", "b")):
                raise ValueError("outcomes must be bits")
            streams[-1].extend((obj["a"],), (obj["b"],))
        else:
            raise ValueError(f"unrecognized record {obj!r}")

    with path.open("rb") as fh:
        _read_chunks(path, fh, b'"settingPair"', block, line)
    return [events.stream() for events in streams]


def read_csv(path) -> list[EventStream]:
    """Parse the compact CSV form (x, y, variant, a, b) into streams.

    A `# stream: {json}` comment line carries the metadata of the rows
    after it; files without such lines read with empty metadata.  If it
    names a setting pair or basis variant, it must name both, as a
    JSON-lines header does (`_stream_header`), and every row after it
    must be of that pair and variant.  After the column line, the file
    is read in chunks of whole lines (`_read_chunks`), so the reader
    holds one chunk and the bits read so far, not the file.  Under
    `write_csv`'s column line, each run of rows of a chunk between two
    such comment lines is checked as one block against the layout of
    its first row; only the rows of a run that departs from it, and the
    comment lines, are parsed one by one.
    Errors name `path:line`.
    """
    path = Path(path)
    suffix, columns = CSV_EVENT
    # each header's metadata, and the (pair, variant) it names, or None
    headers: list[tuple[dict, tuple | None]] = [({}, None)]
    streams: dict[tuple, _Events] = {}

    def events(pair: tuple, variant: int) -> _Events | None:
        """The stream of rows of `pair` and `variant` under the latest
        header, or None if that header names another pair or variant."""
        meta, named = headers[-1]
        if named not in (None, (pair, variant)):
            return None
        key = (len(headers) - 1, pair, variant)
        if key not in streams:
            streams[key] = _Events(pair, variant, dict(meta))
        return streams[key]

    def block(chunk: bytes, lo: int, hi: int) -> int:
        first = in_order and _CSV_FIRST_ROW.match(chunk, lo, hi)
        # a row its header does not name is left to the line path
        stream = first and events((int(first[2]), int(first[3])),
                                  int(first[4]))
        bits = stream and _event_bits(chunk, lo, hi, first[1] + suffix,
                                      columns)
        if bits:
            stream.extend(*bits)
        return len(bits[0]) if bits else 0

    def line(text: str) -> None:
        if text.startswith(CSV_STREAM_PREFIX):
            try:
                header = json.loads(text[len(CSV_STREAM_PREFIX):],
                                    parse_constant=_no_constant)
            except (ValueError, RecursionError) as exc:
                raise ValueError(f"bad stream metadata ({exc})")
            if not isinstance(header, dict):
                raise ValueError("stream metadata is not an object")
            named = None
            if header.keys() & {"settingPair", "basisVariant"}:
                named = _stream_header(header)[:2]
            headers.append((_stream_meta(header), named))
            return
        row = text.removesuffix("\n")
        if not row.strip():
            return
        cells = row.split(",")
        try:
            if len(cells) != len(cols) or not all(
                    _CSV_CELL.fullmatch(c) for c in cells):
                raise ValueError
            x, y, v, a, b = (int(cells[i]) for i in cols)
        except ValueError:  # int() also refuses over 4300 digits
            raise ValueError(f"malformed row {row!r}")
        if v not in (0, 1, 2, 3):
            raise ValueError("basis variant outside 0..3")
        if a not in (0, 1) or b not in (0, 1):
            raise ValueError("outcomes must be bits")
        stream = events((x, y), v)
        if stream is None:
            pair, variant = headers[-1][1]
            raise ValueError(f"row of setting pair {(x, y)}, basis variant "
                             f"{v} under the header of setting pair {pair}, "
                             f"basis variant {variant}")
        stream.extend((a,), (b,))

    with path.open("rb") as fh:
        names = _to_line_end(fh, b"").decode().strip().split(",")
        if sorted(names) != sorted(CSV_COLUMNS):
            raise IngestionError(
                f"{path}:1: expected columns {','.join(CSV_COLUMNS)}")
        cols = [names.index(c) for c in CSV_COLUMNS]
        in_order = names == list(CSV_COLUMNS)
        _read_chunks(path, fh, CSV_STREAM_PREFIX.encode(), block, line, 2)
    return [stream.stream() for stream in streams.values()]


def read_streams(path) -> list[EventStream]:
    """Read an event file in the format its suffix names (`event_format`),
    so a pipe such as /dev/stdin reads as JSON lines.

    Raises IngestionError naming the path when the file cannot be read,
    is not UTF-8 text or holds no stream.
    """
    read = read_csv if event_format(path) == "csv" else read_jsonl
    try:
        streams = read(path)
    except OSError as exc:
        raise IngestionError(f"{path}: cannot read ({exc.strerror})") from exc
    except UnicodeDecodeError as exc:
        raise IngestionError(f"{path}: not UTF-8 text") from exc
    if not streams:
        raise IngestionError(f"{path}: no event stream")
    return streams


def streams_by_beta(paths) -> dict:
    """Read event files and group their streams by the beta in their metadata.

    Streams without a beta group under 0.0.  Streams of one beta must
    agree in visibility, detector, discard probability and, per setting
    pair, correlator table, and no two of them may share a seed, setting
    pair and basis variant: their draws would overlap, so the events
    would count twice.  Otherwise raises IngestionError naming two files
    whose streams differ or repeat a draw.  Streams without a seed are
    not checked for repeats.
    """
    groups: dict[float, list] = {}
    seen: dict[tuple, tuple] = {}
    draws: dict[tuple, object] = {}
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
            if stream.meta.get("seed") is not None:
                pair, variant = stream.setting_pair, stream.basis_variant
                seed = json.dumps(stream.meta["seed"])
                draw = (beta, seed, pair, variant)
                if draw in draws:
                    raise IngestionError(
                        f"{draws[draw]} and {path}: streams at beta={beta} "
                        f"repeat seed {seed} for setting pair {pair}, basis "
                        f"variant {variant}; their events would count twice")
                draws[draw] = path
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


#: Clusters `find_nc` sums at a time: its working set beyond one pair's
#: running totals.
_BLOCK = 1 << 12


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


def _pair_correlators(sequence, n_values, strategy: BinningStrategy
                      ) -> list[float]:
    """One setting pair's correlator at each n, n <= its events.

    Each is an exact `_sign_sum` over blocks of `_BLOCK` clusters, each
    block windowed (`_windows`) from a slice of the pair's running
    totals; the totals are released when the function returns.
    """
    totals = _running_totals(sequence)
    events = totals.shape[1] - 1
    correlators = []
    for n in n_values:
        sign, step = _signs(n, strategy), _BLOCK * n
        total = sum(_sign_sum(*_windows(totals[:, lo:lo + step + 1], n), sign)
                    for lo in range(0, events - n + 1, step))
        correlators.append(total / (events // n))
    return correlators


def find_nc(sequences_per_beta: dict, strategy: BinningStrategy, n_values,
            criterion: MinusKSigma = MinusKSigma(0.0)) -> SnCurve:
    """S_n with error bars over a (beta, n) grid, plus the largest violating n.

    The point estimate comes from the unshuffled ordering, as in
    `estimate_sn`, sigma from `bootstrap_sn`; neither draws a random
    number, so a row depends only on the data.  n_critical is the
    largest n at which any beta meets the criterion (0, with a note,
    when none does).

    The setting pairs are taken one at a time (`_pair_correlators`), so
    besides the sequences themselves one pair's running totals are held,
    8 bytes per event of the pair, and one block of `_BLOCK` clusters at
    a time.  Raises InvalidArgumentError, before any work, unless the
    criterion is a MinusKSigma.
    """
    if not isinstance(criterion, MinusKSigma):
        raise InvalidArgumentError(
            f"criterion {criterion!r} is not a MinusKSigma")
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
    n_critical = max((n for _, n, s, sigma in entries
                      if s - criterion.k * sigma > 2.0), default=0)
    note = None if n_critical > 0 else "no n satisfied the criterion"
    return SnCurve(strategy=strategy, entries=tuple(entries),
                   n_critical=n_critical, criterion=criterion, note=note)
