"""Event-file readers: JSON lines and the compact CSV form.

Each reader walks its file once, front to back, in chunks of whole
lines, checks each run of event lines against the layout `simulate`
writes as one array, and parses only the other lines one by one.  A
stream's bits go to the fold that its header asks of a sink as they are
read, so that a reader holds one chunk of a file rather than its bits.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

from .errors import IngestionError, InvalidArgumentError
from .pairstats import CorrelatorTable
from .simulate import (CSV_COLUMNS, CSV_EVENT, CSV_STREAM_PREFIX, JSONL_EVENT,
                       event_format)

#: One cell of a CSV event row: a run of ASCII digits.
_CSV_CELL = re.compile(r"[0-9]+")

#: First row of a run of CSV rows that `read_csv` checks as one block:
#: its cells before the bits, and each of them.
_CSV_FIRST_ROW = re.compile(rb"(([0-9]),([0-9]),([0-3]),)[01],[01]\n")

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
    the two.  The bytes read on are joined to head once, so a copy of head
    is made at most once."""
    tail = b""
    while not (tail or head).endswith(b"\n") and (ahead := fh.peek()):
        if (tail or head).endswith(b"\r"):
            tail += fh.read(1 if ahead.startswith(b"\n") else 0)
            break
        ends = [i for i in (ahead.find(b"\n"), ahead.find(b"\r")) if i >= 0]
        tail += fh.read(min(ends, default=len(ahead) - 1) + 1)
    return head + tail


def _read_chunks(path, fh, marker: bytes, block, line, flush,
                 number: int = 1) -> None:
    """Read `fh` from its position on, line `number` of `path`, in
    chunks of whole lines.

    Each chunk is `_CHUNK_BYTES` bytes completed to the next line break
    (`_to_line_end`), so no line, CR LF pair or UTF-8 sequence is split,
    and its line breaks are made LFs as text mode reads them: each CR LF
    pair and each lone CR becomes an LF.  A chunk is cut before and
    after each line holding `marker`.  Each run of lines in between goes
    to `block(chunk, lo, hi)`, which returns the number of lines it took
    as one block, or 0 if it did not take the run; the lines of a run it
    did not take, and each line holding `marker`, go one by one to
    `line(text)` (`_lines`), and `flush()` follows each chunk.  A
    ValueError that `line` raises, unless an IngestionError, is raised as
    IngestionError naming `path:line`.
    """
    while chunk := fh.read(_CHUNK_BYTES):
        chunk = _to_line_end(fh, chunk)
        if b"\r" in chunk:  # one step at a time: two copies at most
            chunk = chunk.replace(b"\r\n", b"\n")
            chunk = chunk.replace(b"\r", b"\n")
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
                except IngestionError:
                    raise
                except ValueError as exc:
                    raise IngestionError(f"{path}:{number}: {exc}") from exc
                number += 1
            lo = end
        flush()


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
    """One stream under assembly: the fold `sink(pair, variant, meta)`
    returns for its bits, and the a and b bits read since the fold last
    took them (`flush`)."""

    def __init__(self, pair: tuple, variant: int, meta: dict, sink):
        self.fold = sink(pair, variant, meta)
        self.a, self.b = bytearray(), bytearray()
        self.folded = 0

    def __len__(self) -> int:
        return self.folded + len(self.a)

    def extend(self, a, b) -> None:
        self.a.extend(a)  # a uint8 array is copied as one buffer
        self.b.extend(b)

    def flush(self) -> None:
        """Hand the bits held to the fold."""
        if self.a:
            self.fold(np.frombuffer(self.a, np.uint8),
                      np.frombuffer(self.b, np.uint8))
            self.folded += len(self.a)
            self.a, self.b = bytearray(), bytearray()


def read_jsonl(path, sink) -> list[_Events]:
    """Fold a JSON-lines event file stream by stream; returns the
    streams' records, whose len() is their event count.

    Each stream header calls `sink(pair, variant, meta)`, in file order,
    for the fold of that stream's physical bits, `fold(a, b)`.  The file
    is read in chunks of whole lines (`_read_chunks`), so the reader
    holds one chunk, not the file.  In each chunk, each run of event
    lines is checked as one block against `write_jsonl`'s layout and
    appended to the latest stream; only the lines of a run that departs
    from it, and the header lines, are parsed one by one.  A stream's
    bits are folded after each chunk and at the next header.  Errors
    name `path:line`.
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
            if streams:
                streams[-1].flush()
            streams.append(_Events(*_stream_header(obj), sink))
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
        _read_chunks(path, fh, b'"settingPair"', block, line,
                     lambda: streams and streams[-1].flush())
    return streams


def read_csv(path, sink) -> list[_Events]:
    """Fold the compact CSV form (x, y, variant, a, b), as `read_jsonl`
    folds JSON lines.

    A `# stream: {json}` comment line carries the metadata of the rows
    after it; files without such lines read with empty metadata.  If it
    names a setting pair or basis variant, it must name both, as a
    JSON-lines header does (`_stream_header`), and every row after it
    must be of that pair and variant.  After the column line, the file
    is read in chunks of whole lines (`_read_chunks`).  Under
    `write_csv`'s column line, each run of rows of a chunk between two
    such comment lines is checked as one block against the layout of
    its first row; only the rows of a run that departs from it, and the
    comment lines, are parsed one by one.  A stream is a (header, pair,
    variant), and `sink` is called at its first row.  The first stream
    of each setting pair under a header is folded after each chunk; the
    bits of a later one, whose rows may interleave with the first's,
    wait until the next comment line or the end.  Errors name
    `path:line`.
    """
    path = Path(path)
    suffix, columns = CSV_EVENT
    # each header's metadata, and the (pair, variant) it names, or None
    headers: list[tuple[dict, tuple | None]] = [({}, None)]
    streams: dict[tuple, _Events] = {}
    section: dict[tuple, list] = {}  # the latest header's, by pair

    def events(pair: tuple, variant: int) -> _Events | None:
        """The stream of rows of `pair` and `variant` under the latest
        header, or None if that header names another pair or variant."""
        meta, named = headers[-1]
        if named not in (None, (pair, variant)):
            return None
        key = (len(headers) - 1, pair, variant)
        if key not in streams:
            streams[key] = _Events(pair, variant, dict(meta), sink)
            section.setdefault(pair, []).append(streams[key])
        return streams[key]

    def flush(end: bool = False) -> None:
        """Fold the first stream of each pair under the latest header,
        or, at the header's end, all of them in first-row order."""
        for group in section.values():
            for stream in group if end else group[:1]:
                stream.flush()
        if end:
            section.clear()

    def block(chunk: bytes, lo: int, hi: int) -> int:
        first = in_order and _CSV_FIRST_ROW.match(chunk, lo, hi)
        # a row its header does not name is left to the line path
        stream = first and events((int(first[2]), int(first[3])),
                                  int(first[4]))
        bits = first and stream is not None and _event_bits(
            chunk, lo, hi, first[1] + suffix, columns)
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
            flush(end=True)
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
        _read_chunks(path, fh, CSV_STREAM_PREFIX.encode(), block, line,
                     flush, 2)
    flush(end=True)
    return list(streams.values())


def read_streams(path, sink) -> list[_Events]:
    """Fold an event file, with `sink`, by the reader of the format its
    suffix names (`event_format`), so a pipe such as /dev/stdin reads as
    JSON lines.

    Raises IngestionError naming the path when the file cannot be read,
    is not UTF-8 text or holds no stream.
    """
    read = read_csv if event_format(path) == "csv" else read_jsonl
    try:
        streams = read(path, sink)
    except OSError as exc:
        raise IngestionError(f"{path}: cannot read ({exc.strerror})") from exc
    except UnicodeDecodeError as exc:
        raise IngestionError(f"{path}: not UTF-8 text") from exc
    if not streams:
        raise IngestionError(f"{path}: no event stream")
    return streams
