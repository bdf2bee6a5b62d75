"""Command-line front-end: every pipeline as a subcommand.

Outputs are plot-ready CSV (6 significant digits, config embedded as a
leading comment line) or full-precision JSON (config embedded in the
document).  `simulate`, the only stochastic subcommand, requires an
explicit seed; `analyze` draws nothing, so a row depends only on the data.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import analyze as ana
from . import optimize as opt
from . import simulate as sim
from .binning import Majority, Parity, TiePolicy
from .errors import ManyPairsError
from .optimize import N_MAX
from .pairstats import SETTING_PAIRS, settings_from_beta, werner_correlators

OUTDIR_ENV = "MANYPAIRS_OUTDIR"

#: Largest --v-points and --beta-points.
POINTS_MAX = 10_000
#: Largest --events: at about 8 bytes per event and array, 10^7 events
#: stay well inside a laptop's memory; pool seeded files for more.
EVENTS_MAX = 10_000_000


def _parse_int_range(text: str) -> list[int]:
    """Inclusive 'a..b' range or comma-separated integers.

    Raises argparse.ArgumentTypeError for a value above N_MAX or for more
    than N_MAX values, before a range is expanded.
    """
    if ".." in text:
        lo, hi = (int(t) for t in text.split("..", 1))
        top, count = hi, hi - lo + 1
    else:
        values = [int(t) for t in text.split(",") if t]
        top, count = max(values, default=0), len(values)
    if top > N_MAX:
        raise argparse.ArgumentTypeError(
            f"pair counts above {N_MAX} are refused, got {text!r}")
    if count > N_MAX:
        raise argparse.ArgumentTypeError(f"more than {N_MAX} pair counts")
    return list(range(lo, hi + 1)) if ".." in text else values


def _parse_float_list(text: str, points: int = 11) -> list[float]:
    """Comma-separated floats, or 'a..b' expanded to `points` values.

    Raises ValueError for a range whose ends or span are not finite.
    """
    if ".." in text:
        lo, hi = (float(t) for t in text.split("..", 1))
        if not math.isfinite(hi - lo):
            raise ValueError(f"range {text!r} is not finite")
        return list(np.linspace(lo, hi, points))
    return [float(t) for t in text.split(",") if t]


def _text_of(parse):
    """argparse type: keep the text as given once `parse` accepts it.

    The commands echo the text in their config and parse it again.  A
    value that parses to no items is rejected too.
    """
    def check(text: str) -> str:
        try:
            items = parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"malformed value {text!r}")
        if not items:
            raise argparse.ArgumentTypeError(f"no values in {text!r}")
        return text
    return check


_INT_RANGE = _text_of(_parse_int_range)
_FLOAT_LIST = _text_of(_parse_float_list)


def _int_between(lo: int, hi: float = math.inf):
    """argparse type: an integer in [lo, hi]."""
    def check(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"malformed value {text!r}")
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(
                f"need an integer in [{lo}, {hi}], got {text}")
        return value
    return check


_POINTS = _int_between(1, POINTS_MAX)
_EVENTS = _int_between(1, EVENTS_MAX)
_SEED = _int_between(0)


def _override(text: str) -> tuple[tuple[int, int], float]:
    """argparse type for 'X,Y=E': a setting pair and its correlator."""
    try:
        key, value = text.split("=", 1)
        x, y = (int(t) for t in key.split(","))
        correlator = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"malformed override {text!r}, expected X,Y=E")
    if (x, y) not in SETTING_PAIRS:
        raise argparse.ArgumentTypeError(
            f"override {text!r} names no setting pair")
    return (x, y), correlator


def _strategy(args) -> Majority | Parity:
    if args.strategy == "parity":
        return Parity()
    return Majority(TiePolicy(args.tie))


def _write_out(path: str, write) -> None:
    """Call write(resolved path), creating its directory first.

    A relative path lands in $MANYPAIRS_OUTDIR when that is set.  Raises
    ManyPairsError naming the path when it cannot be written.
    """
    p = Path(path)
    outdir = os.environ.get(OUTDIR_ENV)
    if outdir and not p.is_absolute():
        p = Path(outdir) / p
    try:
        p.parent.mkdir(parents=True, exist_ok=True)
        write(p)
    except OSError as exc:
        raise ManyPairsError(f"{p}: cannot write ({exc.strerror})") from exc


def _emit(config: dict, columns: list[str], rows: list[tuple],
          extra: dict, args) -> None:
    """Write a result table as CSV or JSON, embedding config for provenance."""
    if args.format == "json":
        doc = {"config": config, "columns": columns,
               "rows": [list(r) for r in rows]}
        doc.update(extra)
        text = json.dumps(doc, indent=2) + "\n"
    else:
        lines = ["# config: " + json.dumps(config)]
        for key, value in extra.items():
            lines.append(f"# {key}: {json.dumps(value)}")
        lines.append(",".join(columns))
        for row in rows:
            cells = []
            for v in row:
                if isinstance(v, float):
                    cells.append(f"{v:.6g}")
                else:
                    cells.append(str(v))
            lines.append(",".join(cells))
        text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        _write_out(args.out, lambda p: p.write_text(text))


def _config_dict(args, keys) -> dict:
    return {k: getattr(args, k) for k in keys if getattr(args, k) is not None}


def _grid_keys(args, name: str) -> list[str]:
    """Config keys of a float list: `name`, and its point count when the
    list is an 'a..b' range, the only case where the count shapes it."""
    return [name, f"{name}_points"] if ".." in getattr(args, name) else [name]


def cmd_scan_vc(args) -> int:
    strategy = _strategy(args)
    n_values = _parse_int_range(args.n)
    curve = opt.scan_critical_visibilities(n_values, strategy,
                                           width=args.width)
    rows = []
    for n, vc in curve.points:
        row = [n, vc, args.strategy]
        if curve.fit is not None:
            row.append(curve.fit.predict(n))
        if isinstance(strategy, Parity):
            row.append(opt.parity_vc_approx(n))
        rows.append(tuple(row))
    columns = ["n", "v_c", "strategy"]
    if curve.fit is not None:
        columns.append("v_c_fit")
    if isinstance(strategy, Parity):
        columns.append("v_c_linear_approx")
    extra = {"monotone": curve.monotone}
    if curve.fit is not None:
        extra["fit"] = {"c1": curve.fit.c1, "c2": curve.fit.c2,
                        "residual": curve.fit.residual}
    config = _config_dict(args, ["command", "strategy", "tie", "n", "width"])
    _emit(config, columns, rows, extra, args)
    return 0


def cmd_max_s(args) -> int:
    strategy = _strategy(args)
    n_values = _parse_int_range(args.n)
    betas = _parse_float_list(args.beta, args.beta_points)
    rows = []
    for n in n_values:
        s = opt.family_chsh(np.array(betas), args.v, n, strategy).tolist()
        rows += [(beta, n, value) for beta, value in zip(betas, s)]
    config = _config_dict(args, ["command", "strategy", "tie", "n",
                                 *_grid_keys(args, "beta"), "v"])
    _emit(config, ["beta", "n", "s"], rows, {}, args)
    return 0


def cmd_simulate(args) -> int:
    table = werner_correlators(settings_from_beta(args.beta), args.v)
    overrides = dict(args.override or [])
    detector = sim.DetectorModel(eta_t_a=args.eta_t_a, eta_r_a=args.eta_r_a,
                                 eta_t_b=args.eta_t_b, eta_r_b=args.eta_r_b)
    streams = []
    for (x, y) in SETTING_PAIRS:
        pair_table = table
        if (x, y) in overrides:
            pair_table = dataclasses.replace(
                table, **{f"e{x}{y}": overrides[(x, y)]})
        extra = {"beta": args.beta, "visibility": args.v}
        if args.symmetrize:
            streams.extend(sim.generate_symmetrized(
                pair_table, (x, y), args.events, detector, seed=args.seed,
                discard_prob=args.discard_prob, extra_meta=extra))
        else:
            streams.append(sim.generate_run(
                pair_table, (x, y), args.events, detector, seed=args.seed,
                discard_prob=args.discard_prob, extra_meta=extra))
    _write_out(args.out, lambda p: sim.write_streams(streams, p))
    return 0


def _criterion(text: str):
    if text == "point":
        return ana.MinusKSigma(0.0)
    if text.startswith("ksigma:"):
        try:
            k = float(text.split(":", 1)[1])
        except ValueError:
            raise ManyPairsError(f"malformed criterion {text!r}")
        return ana.MinusKSigma(k=k)
    raise ManyPairsError(f"unknown criterion {text!r}")


def cmd_analyze(args) -> int:
    strategy = _strategy(args)
    criterion = _criterion(args.criterion)
    curve = ana.find_nc(args.files, strategy, _parse_int_range(args.n),
                        criterion=criterion)
    rows = list(curve.entries)
    # --resamples and a given --seed are echoed, though nothing is drawn
    config = _config_dict(args, ["command", "strategy", "tie", "n",
                                 "resamples", "seed", "criterion"])
    extra = {"summary": {"strategy": args.strategy,
                         "nCritical": curve.n_critical,
                         "criterion": args.criterion}}
    if curve.note:
        extra["note"] = curve.note
    _emit(config, ["beta", "n", "s", "sigma"], rows, extra, args)
    return 0


def cmd_compare(args) -> int:
    v_values = _parse_float_list(args.v, args.v_points)
    n_values = _parse_int_range(args.n)
    if not (math.isfinite(args.tol) and args.tol > 0.0):
        raise ManyPairsError(
            f"--tol must be a finite positive number, got {args.tol!r}")
    cmp_ = opt.binning_comparison(v_values, n_values)
    config = _config_dict(args, ["command", *_grid_keys(args, "v"), "n",
                                 "mode", "tol"])
    extra = {"winners": [list(w) for w in cmp_.winners],
             "crossover": cmp_.crossover}
    _emit(config, ["v", "n", "s_majority", "s_parity"], list(cmp_.rows),
          extra, args)
    return 0


def cmd_ratio(args) -> int:
    v_values = _parse_float_list(args.v, args.v_points)
    rows = [(v, opt.violation_ratio(v)) for v in v_values]
    config = _config_dict(args, ["command", *_grid_keys(args, "v")])
    _emit(config, ["v", "ratio"], rows, {}, args)
    return 0


def _add_common(p: argparse.ArgumentParser, strategy: bool = True) -> None:
    if strategy:
        p.add_argument("--strategy", choices=["majority", "parity"],
                       default="majority")
        p.add_argument("--tie", choices=[t.value for t in TiePolicy],
                       default=TiePolicy.TIE_TO_MINUS.value,
                       help="majority-vote tie policy for even n")
    p.add_argument("--out", default=None,
                   help=f"output path (relative paths land in ${OUTDIR_ENV} "
                        "when set; default stdout)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error in one line on stderr, without the usage
    text (`-h` prints it), and exits 2.  Subcommand parsers inherit it."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="manypairs",
        description="Collective-measurement CHSH toolkit: exact theory, "
                    "critical-noise scans, event simulation and analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scan-vc", help="critical visibility vs pair count")
    _add_common(p)
    p.add_argument("--n", type=_INT_RANGE, required=True,
                   help="pair counts, e.g. 2..64")
    p.add_argument("--width", type=float, default=1e-5,
                   help="slack of the monotone check")
    p.set_defaults(func=cmd_scan_vc)

    p = sub.add_parser("max-s", help="CHSH value vs beta for fixed n set")
    _add_common(p)
    p.add_argument("--n", type=_INT_RANGE, required=True)
    p.add_argument("--beta", type=_FLOAT_LIST, required=True,
                   help="comma list or lo..hi (see --beta-points)")
    p.add_argument("--beta-points", type=_POINTS, default=64)
    p.add_argument("--v", type=float, default=1.0)
    p.set_defaults(func=cmd_max_s)

    p = sub.add_parser("simulate", help="generate coincidence event files")
    p.add_argument("--out", required=True,
                   help="event file: a .csv suffix writes CSV, any other "
                        "JSON lines (relative paths land in "
                        f"${OUTDIR_ENV} when set)")
    p.add_argument("--format", choices=["csv", "json"], default=None,
                   help="optional; must agree with the --out suffix")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--v", type=float, required=True)
    p.add_argument("--events", type=_EVENTS,
                   default=sim.DEFAULT_EVENTS_PER_RUN,
                   help=f"events per stream, at most {EVENTS_MAX}")
    p.add_argument("--seed", type=_SEED, required=True)
    p.add_argument("--symmetrize", action="store_true",
                   help="emit all four 45-degree basis variants")
    p.add_argument("--eta-t-a", type=float, default=1.0)
    p.add_argument("--eta-r-a", type=float, default=1.0)
    p.add_argument("--eta-t-b", type=float, default=1.0)
    p.add_argument("--eta-r-b", type=float, default=1.0)
    p.add_argument("--discard-prob", type=float, default=0.0)
    p.add_argument("--override", type=_override, action="append",
                   default=None,
                   metavar="X,Y=E",
                   help="per-setting-pair correlator override (colored noise)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "analyze", help="cluster, bin and estimate S_n with its shuffle sigma")
    _add_common(p)
    p.add_argument("--files", nargs="+", required=True)
    p.add_argument("--n", type=_INT_RANGE, required=True)
    p.add_argument("--resamples", type=int, default=1000,
                   help="accepted and echoed in the config, but unused: "
                        "sigma is the closed-form limit of the shuffle "
                        "bootstrap as resamples grow")
    p.add_argument("--seed", type=_SEED, default=None,
                   help="accepted and echoed in the config, but unused: "
                        "a randomized majority tie counts as sign 0, its "
                        "coin's expectation")
    p.add_argument("--criterion", default="point",
                   help="'point' or 'ksigma:K'")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("compare", help="majority vs parity over a (V, n) grid")
    _add_common(p, strategy=False)
    p.add_argument("--v", type=_FLOAT_LIST, required=True)
    p.add_argument("--v-points", type=_POINTS, default=11)
    p.add_argument("--n", type=_INT_RANGE, required=True)
    p.add_argument("--mode", choices=["beta-family", "full-planar"],
                   default="beta-family",
                   help="accepted and echoed in the config, but unused: "
                        "every maximum is the one-angle family's, certified "
                        "against all planar settings")
    p.add_argument("--tol", type=float, default=1e-4,
                   help="checked and echoed in the config, but unused: the "
                        "crossover is converged to rounding")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("ratio", help="remaining parity violation at n_c/2")
    _add_common(p, strategy=False)
    p.add_argument("--v", type=_FLOAT_LIST, required=True)
    p.add_argument("--v-points", type=_POINTS, default=11)
    p.set_defaults(func=cmd_ratio)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "simulate" and args.format not in (
            None, sim.event_format(args.out)):
        parser.error(f"simulate: --format {args.format} contradicts --out "
                     f"{args.out}; a .csv suffix writes CSV, any other "
                     "JSON lines")
    try:
        return args.func(args)
    except ManyPairsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
