"""Monte Carlo generation of coincidence-event streams.

A run draws i.i.d. single-pair outcomes from the 2x2 joint of one setting
pair, optionally thins events through per-port detector efficiencies, and
tags each stream with a basis variant: variant 0 is the nominal basis,
variants 1-3 rotate one or both analyzers by 45 degrees, which swaps the
physical output ports and therefore requires inverting the corresponding
party's outcome at analysis time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InvalidArgumentError
from .pairstats import CorrelatorTable, joint_table

#: Default events per run (the per-60s average of a typical run).
DEFAULT_EVENTS_PER_RUN = 16000

#: Prefix of the CSV comment line that carries one stream's metadata.
CSV_STREAM_PREFIX = "# stream: "

#: First line of the CSV form, naming its columns.
CSV_HEADER = "x,y,variant,a,b\n"

#: An event line of each format with both bits 0, and the byte columns of
#: its a and b bits.  A CSV event line starts with the stream's
#: `x,y,variant,`; these are the bytes after it.
JSONL_EVENT = (b'{"a": 0, "b": 0}\n', (6, 14))
CSV_EVENT = (b"0,0\n", (-4, -2))


@dataclass(frozen=True)
class DetectorModel:
    """Detection efficiency per party per output port (transmitted=0)."""

    eta_t_a: float = 1.0
    eta_r_a: float = 1.0
    eta_t_b: float = 1.0
    eta_r_b: float = 1.0

    def __post_init__(self):
        for name in ("eta_t_a", "eta_r_a", "eta_t_b", "eta_r_b"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise InvalidArgumentError(f"{name}={v!r} outside [0, 1]")

    @property
    def trivial(self) -> bool:
        return (self.eta_t_a == self.eta_r_a == self.eta_t_b
                == self.eta_r_b == 1.0)


PERFECT_DETECTORS = DetectorModel()


@dataclass(frozen=True)
class EventStream:
    """One per-setting run: ordered physical outcome bits plus provenance."""

    setting_pair: tuple[int, int]
    basis_variant: int
    a: np.ndarray
    b: np.ndarray
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.a)


def variant_inversions(variant: int) -> tuple[bool, bool]:
    """Which party's outcomes are inverted for a basis variant (A, B)."""
    if variant not in (0, 1, 2, 3):
        raise InvalidArgumentError(f"basis variant {variant!r} outside 0..3")
    return (variant in (1, 3), variant in (2, 3))


def setting_index(setting_pair: tuple[int, int]) -> int:
    x, y = setting_pair
    if x not in (1, 2) or y not in (1, 2):
        raise InvalidArgumentError(f"setting pair {setting_pair!r} invalid")
    return 2 * (x - 1) + (y - 1)


def check_seed(seed: int) -> None:
    """Raise InvalidArgumentError unless the seed is >= 0."""
    if seed < 0:
        raise InvalidArgumentError(f"seed must be >= 0, got {seed!r}")


def stream_seed(seed: int, variant: int, setting_pair: tuple[int, int]) -> int:
    """Fixed sub-stream seed splitting rule: seed + variant*1e9 + index."""
    return int(seed) + variant * 10 ** 9 + setting_index(setting_pair)


def generate_run(table: CorrelatorTable, setting_pair: tuple[int, int],
                 n_events: int, detector: DetectorModel = PERFECT_DETECTORS,
                 seed: int = 0, basis_variant: int = 0,
                 discard_prob: float = 0.0,
                 extra_meta: dict | None = None) -> EventStream:
    """Sample one event stream for a setting pair.

    Logical outcomes are drawn i.i.d. from the reconstructed 2x2 joint;
    the basis variant's inversion is applied to obtain physical port bits,
    and each event then survives thinning with probability
    eta_A(port) * eta_B(port).  Fully reproducible from the seed.

    An event's category c = 2a + b is the number of the joint's three
    inner cdf values at or below one uniform draw, which is how
    `Generator.choice` with `p` draws it, so the streams are those of
    `rng.choice(4, p=...)` bit for bit, with one byte per event held.
    """
    check_seed(seed)
    if n_events < 1:
        raise InvalidArgumentError(f"n_events must be >= 1, got {n_events!r}")
    if not 0.0 <= discard_prob < 1.0:
        raise InvalidArgumentError(
            f"discard_prob {discard_prob!r} outside [0, 1)")
    x, y = setting_pair
    p = joint_table(table).table(x, y)
    flat = np.array([p[0, 0], p[0, 1], p[1, 0], p[1, 1]])
    flat = flat / flat.sum()
    cdf = flat.cumsum()
    cdf /= cdf[-1]  # as `Generator.choice` normalizes it

    rng = np.random.default_rng(stream_seed(seed, basis_variant, setting_pair))
    u = rng.random(n_events)
    cat = (u >= cdf[0]).view(np.uint8)
    cat += u >= cdf[1]
    cat += u >= cdf[2]
    del u
    inv_a, inv_b = variant_inversions(basis_variant)
    cat ^= np.uint8(2 * inv_a + inv_b)  # physical ports from here on

    keep = np.ones(n_events, dtype=bool)
    if not detector.trivial:
        # eta_A(a) * eta_B(b) at category 2a + b, port 0 transmitted
        eta = np.multiply.outer([detector.eta_t_a, detector.eta_r_a],
                                [detector.eta_t_b, detector.eta_r_b])
        keep = rng.random(n_events) < eta.ravel()[cat]
    if discard_prob > 0.0:
        keep &= rng.random(n_events) >= discard_prob

    meta = {
        "settingPair": [x, y],
        "basisVariant": basis_variant,
        "seed": int(seed),
        "eventsRequested": int(n_events),
        "table": table.to_json_dict(),
        "detector": {"etaT_A": detector.eta_t_a, "etaR_A": detector.eta_r_a,
                     "etaT_B": detector.eta_t_b, "etaR_B": detector.eta_r_b},
        "discardProb": discard_prob,
    }
    if extra_meta:
        meta.update(extra_meta)
    cat = cat[keep]
    a_out = cat >> np.uint8(1)
    b_out = cat & np.uint8(1)
    a_out.setflags(write=False)
    b_out.setflags(write=False)
    return EventStream(setting_pair=(x, y), basis_variant=basis_variant,
                       a=a_out, b=b_out, meta=meta)


def generate_symmetrized(table: CorrelatorTable, setting_pair: tuple[int, int],
                         n_events_per_variant: int,
                         detector: DetectorModel = PERFECT_DETECTORS,
                         seed: int = 0, discard_prob: float = 0.0,
                         extra_meta: dict | None = None) -> tuple:
    """One stream per basis variant 0..3 for a single setting pair.

    Pooling the four analysis-side-inverted streams cancels detector-port
    efficiency asymmetries to first order.
    """
    return tuple(
        generate_run(table, setting_pair, n_events_per_variant, detector,
                     seed=seed, basis_variant=v, discard_prob=discard_prob,
                     extra_meta=extra_meta)
        for v in range(4))


def event_format(path) -> str:
    """Event-file format named by the suffix: "csv" for .csv, else "json"."""
    return "csv" if Path(path).suffix == ".csv" else "json"


def _header(stream: EventStream) -> dict:
    header = dict(stream.meta)
    header["settingPair"] = list(stream.setting_pair)
    header["basisVariant"] = stream.basis_variant
    return header


def _event_lines(template: bytes, columns, stream: EventStream):
    """The stream's events as one (events, line width) uint8 block.

    Each line is `template` with the a and b bits set at `columns`.
    """
    lines = np.empty((len(stream), len(template)), dtype=np.uint8)
    lines[:] = np.frombuffer(template, dtype=np.uint8)
    for column, bits in zip(columns, (stream.a, stream.b)):
        bits = np.asarray(bits)
        if np.any((bits != 0) & (bits != 1)):
            raise InvalidArgumentError(
                f"stream {stream.setting_pair}/{stream.basis_variant}: "
                "outcomes must be bits")
        lines[:, column] |= bits.astype(np.uint8)  # b"0" | 1 == b"1"
    return lines


def write_jsonl(streams, path) -> None:
    """Write streams as JSON lines: a header object, then one {a,b}/event."""
    template, columns = JSONL_EVENT
    with Path(path).open("wb") as fh:
        for stream in streams:
            fh.write(json.dumps(_header(stream)).encode() + b"\n")
            fh.write(_event_lines(template, columns, stream))


def write_csv(streams, path) -> None:
    """Compact CSV form: one row per event (x, y, variant, a, b).

    Each stream's rows follow a `# stream: {json}` comment line holding
    the same header object as the JSON-lines form.
    """
    suffix, columns = CSV_EVENT
    with Path(path).open("wb") as fh:
        fh.write(CSV_HEADER.encode())
        for stream in streams:
            fh.write((CSV_STREAM_PREFIX + json.dumps(_header(stream))
                      + "\n").encode())
            x, y = stream.setting_pair
            prefix = f"{x},{y},{stream.basis_variant},".encode()
            fh.write(_event_lines(prefix + suffix, columns, stream))


def write_streams(streams, path) -> None:
    """Write streams in the format that `event_format` names for the path."""
    if event_format(path) == "csv":
        write_csv(streams, path)
    else:
        write_jsonl(streams, path)
