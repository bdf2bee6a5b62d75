"""The benchmark's workloads: the operations of one round and their checks.

A round is a fixed list of operations issued one at a time.  Every
operation goes through a public entry point of ``manypairs``: the CLI's
``main(argv)`` or a name the package exports.  Each has a check that
compares its output with ``reference`` or with a property the method must
have; a check returns a list of problems, empty when the output is right.
Inputs depend only on the seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

# event_analysis: the README experiment, scaled to a few seconds per stage
BETA = 0.151
VISIBILITY = 0.9871
ETA_T_A = 0.8
EVENTS_PER_VARIANT = 30000
RESAMPLES = 20
PARITY_N = "1..16"
MAJORITY_N = "41..44"

#: Fixed high visibilities of high_visibility; V = 0.999 probes n = 1024.
FIXED_VISIBILITIES = (0.9871, 0.999)

TSIRELSON = 2.0 * math.sqrt(2.0)
#: CHSH values this close to 2 may land on either side of it.
S_MARGIN = 1e-9
#: Agreement of two routes to the same exact CHSH value.
S_TOL = 1e-9

#: Problems starting with this text come from the fault that makes every
#: CSV analysis fail today: ``read_csv`` keeps no stream metadata, so the
#: CLI labels each CSV row beta = 0.
CSV_BETA_FAULT = "beta label"


class CommandFailed(Exception):
    pass


@dataclass
class Op:
    """One operation of a round: what to run and how to check it."""

    name: str
    run: Callable[[], object]
    check: Callable[["Op"], list]
    out: Path | None = None
    known_fault: str | None = None
    output: object = None
    error: str | None = None
    problems: list = field(default_factory=list)

    def document(self) -> dict:
        return json.loads(self.out.read_text())


def _cli(argv: list) -> Callable[[], None]:
    def run():
        import manypairs.cli
        try:
            code = manypairs.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        if code != 0:
            raise CommandFailed(f"manypairs {' '.join(argv)}: exit {code}")
    return run


def _cli_op(work: Path, name: str, argv: list, check, **kwargs) -> Op:
    out = work / (name.replace(" ", "_") + ".json")
    return Op(name, _cli(argv + ["--format", "json", "--out", str(out)]),
              check, out=out, **kwargs)


# ---------------------------------------------------------------------------
# landscape


def _check_scan_majority(op: Op) -> list:
    doc = op.document()
    width = doc["config"]["width"]
    problems = []
    if [r[0] for r in doc["rows"]] != list(range(2, 65)):
        problems.append("n column is not 2..64")
    for n, vc, *_ in doc["rows"]:
        below = ref.max_family_s(max(vc - width, 0.0), n, "majority")
        above = ref.max_family_s(min(vc + width, 1.0), n, "majority")
        if not below <= 2.0 < above:
            problems.append(f"n={n}: V_c={vc} does not bracket the threshold"
                            f" (S={below} at -width, {above} at +width)")
    return problems


def _check_scan_parity(op: Op) -> list:
    doc = op.document()
    width = doc["config"]["width"]
    problems = []
    for n, vc, *_ in doc["rows"]:
        expected = ref.parity_critical_visibility(n)
        if abs(vc - expected) > width:
            problems.append(f"n={n}: V_c={vc}, closed form {expected}")
    if len(doc["rows"]) != 63:
        problems.append("expected 63 rows")
    return problems


def _check_max_s(op: Op) -> list:
    doc = op.document()
    v = doc["config"]["v"]
    problems = []
    for beta, n, s in doc["rows"]:
        expected = float(ref.family_s(beta, v, n, "majority"))
        if abs(s - expected) > S_TOL:
            problems.append(f"beta={beta}, n={n}: S={s}, reference {expected}")
    if len(doc["rows"]) != 64:
        problems.append("expected 64 rows")
    return problems


def _check_ratio(op: Op) -> list:
    problems = []
    for v, ratio in op.document()["rows"]:
        expected = ref.violation_ratio(v)
        if not 0.0 < ratio <= 1.0 or abs(ratio - expected) > 1e-12:
            problems.append(f"V={v}: ratio {ratio}, reference {expected}")
    return problems


def _parity_advantage(v: float, odd_n: list) -> float:
    return max(ref.max_family_s(v, n, "parity")
               - ref.max_family_s(v, n, "majority") for n in odd_n)


def _check_compare(op: Op) -> list:
    doc = op.document()
    problems = []
    for v, n, s_maj, s_par in doc["rows"]:
        for strategy, s in (("majority", s_maj), ("parity", s_par)):
            expected = ref.max_family_s(v, n, strategy)
            if abs(s - expected) > S_TOL:
                problems.append(f"V={v}, n={n}, {strategy}: S={s}, "
                                f"reference {expected}")
    odd_n = sorted({n for _, n, _, _ in doc["rows"] if n % 2 and n >= 3})
    tol = doc["config"]["tol"]
    crossover = doc["crossover"]
    if crossover is None:
        vs = sorted({r[0] for r in doc["rows"]})
        adv = [_parity_advantage(v, odd_n) for v in vs]
        if any(lo <= 0.0 < hi for lo, hi in zip(adv, adv[1:])):
            problems.append("no crossover reported, but the reference parity"
                            " advantage changes sign on the grid")
    else:
        lo = _parity_advantage(crossover - tol, odd_n)
        hi = _parity_advantage(crossover + tol, odd_n)
        if not lo <= 0.0 < hi:
            problems.append(f"crossover {crossover}: reference advantage "
                            f"{lo} at -tol and {hi} at +tol")
    return problems


def _check_compare_planar(op: Op) -> list:
    problems = []
    for v, n, s_maj, s_par in op.document()["rows"]:
        for strategy, s in (("majority", s_maj), ("parity", s_par)):
            family = ref.max_family_s(v, n, strategy)
            if not family - S_TOL <= s <= TSIRELSON + 1e-12:
                problems.append(f"V={v}, n={n}, {strategy}: full-planar "
                                f"S={s} outside [{family}, 2*sqrt(2)]")
    return problems


def landscape(seed: int, work: Path) -> list:
    """The README's theory figures at n <= 64."""
    rng = np.random.default_rng(seed)
    max_s_n = int(rng.integers(8, 17))
    max_s_v = round(float(rng.uniform(0.985, 1.0)), 4)
    ratio_lo = round(float(rng.uniform(0.96, 0.975)), 4)
    ratio_hi = round(float(rng.uniform(0.99, 0.999)), 4)
    planar_v = round(float(rng.uniform(0.99, 0.999)), 4)
    return [
        _cli_op(work, "scan-vc majority",
                ["scan-vc", "--n", "2..64", "--strategy", "majority"],
                _check_scan_majority),
        _cli_op(work, "scan-vc parity",
                ["scan-vc", "--n", "2..64", "--strategy", "parity"],
                _check_scan_parity),
        _cli_op(work, "max-s",
                ["max-s", "--n", str(max_s_n), "--beta", "0.05..0.4",
                 "--beta-points", "64", "--v", str(max_s_v)],
                _check_max_s),
        _cli_op(work, "ratio",
                ["ratio", "--v", f"{ratio_lo}..{ratio_hi}"], _check_ratio),
        _cli_op(work, "compare",
                ["compare", "--v", "0.988..0.999", "--v-points", "23",
                 "--n", "3,5,7,9,11"], _check_compare),
        _cli_op(work, "compare full-planar",
                ["compare", "--mode", "full-planar", "--v", str(planar_v),
                 "--n", "3,5"], _check_compare_planar),
    ]


# ---------------------------------------------------------------------------
# high_visibility


def _critical_pairs(v: float, strategy: str) -> Callable[[], object]:
    def run():
        import manypairs
        binning = (manypairs.Parity() if strategy == "parity"
                   else manypairs.Majority())
        return manypairs.critical_pairs(v, binning)
    return run


def high_visibility(seed: int, work: Path) -> list:
    """n_c(V) of both binnings over a grid of high visibilities."""
    rng = np.random.default_rng(seed)
    candidates = [v for v in np.round(np.arange(0.975, 0.99501, 0.0001), 4)
                  if v not in FIXED_VISIBILITIES]
    grid = sorted(FIXED_VISIBILITIES
                  + tuple(float(v) for v in rng.choice(candidates, 4,
                                                       replace=False)))
    found: dict = {}

    def check(strategy, v):
        def run_check(op: Op) -> list:
            n_c = op.output
            found[(strategy, v)] = n_c
            if not isinstance(n_c, int) or n_c < 1:
                return [f"V={v}: n_c={n_c!r} is not a pair count"]
            problems = []
            if strategy == "parity":
                expected, ambiguous = ref.parity_critical_pairs(v, S_MARGIN)
                if n_c != expected and not {n_c, n_c + 1} & ambiguous:
                    problems.append(f"V={v}: parity n_c={n_c}, closed form "
                                    f"{expected}")
            else:
                at = ref.max_family_s(v, n_c, "majority")
                past = ref.max_family_s(v, n_c + 1, "majority")
                if not (at > 2.0 - S_MARGIN and past <= 2.0 + S_MARGIN):
                    problems.append(f"V={v}: majority n_c={n_c}, reference S"
                                    f" {at} at n_c and {past} at n_c + 1")
            lower = [found[(strategy, u)] for u in grid
                     if u < v and (strategy, u) in found]
            if lower and isinstance(lower[-1], int) and n_c < lower[-1]:
                problems.append(f"V={v}: {strategy} n_c={n_c} below "
                                f"{lower[-1]} at a lower visibility")
            return problems
        return run_check

    return [Op(f"critical_pairs {strategy} V={v}",
               _critical_pairs(v, strategy), check(strategy, v))
            for v in grid for strategy in ("parity", "majority")]


# ---------------------------------------------------------------------------
# event_analysis


class _EventFiles:
    """Event files parsed once by the reference reader, shared by checks."""

    def __init__(self):
        self._streams = {}

    def streams(self, path: Path) -> list:
        if path not in self._streams:
            self._streams[path] = ref.read_events(path)
        return self._streams[path]

    def sequences(self, path: Path) -> dict:
        return ref.logical_sequences(self.streams(path))


def _check_events(files: _EventFiles, path: Path, events: int) -> list:
    streams = files.streams(path)
    problems = []
    keys = sorted((s["pair"], s["variant"]) for s in streams)
    if keys != sorted((p, v) for p in ref.PAIRS for v in range(4)):
        return [f"{path.name}: streams {keys}, expected 4 variants of each "
                "setting pair"]
    keep = 0.5 * ETA_T_A + 0.5  # Alice's transmitted port is thinned
    spread = 6.0 * math.sqrt(events * keep * (1.0 - keep))
    for s in streams:
        if abs(len(s["a"]) - events * keep) > spread:
            problems.append(f"{path.name}: stream {s['pair']}/{s['variant']}"
                            f" kept {len(s['a'])} of {events} events")
        meta = s["meta"]
        if path.suffix == ".jsonl" and (meta.get("beta") != BETA or
                                        meta.get("visibility") != VISIBILITY):
            problems.append(f"{path.name}: header {meta} lacks the source")
    seqs = ref.logical_sequences(streams)
    for pair, e in zip(ref.PAIRS, ref.family_correlators(BETA, VISIBILITY)):
        a, b = seqs[pair]
        got = 1.0 - 2.0 * np.count_nonzero(a != b) / len(a)
        if abs(got - e) > 5.0 * math.sqrt((1.0 - e * e) / len(a)):
            problems.append(f"{path.name}: pair {pair} correlator {got}, "
                            f"source {e}")
    return problems


def _check_same_events(files: _EventFiles, path: Path, other: Path) -> list:
    mine, theirs = files.streams(path), files.streams(other)
    same = len(mine) == len(theirs) and all(
        x["pair"] == y["pair"] and x["variant"] == y["variant"]
        and np.array_equal(x["a"], y["a"]) and np.array_equal(x["b"], y["b"])
        for x, y in zip(mine, theirs))
    return [] if same else [f"{path.name} and {other.name} hold different "
                            "events for the same seed"]


def _check_analysis(op: Op, files: _EventFiles, events: Path,
                    strategy: str, n_values: list) -> list:
    doc = op.document()
    seqs = files.sequences(events)
    rows = doc["rows"]
    problems = []
    if sorted(r[1] for r in rows) != n_values:
        problems.append(f"rows cover n={[r[1] for r in rows]}")
    resamples = doc["config"]["resamples"]
    # relative Monte Carlo error of a sample standard deviation
    sigma_error = 5.0 / math.sqrt(2.0 * (resamples - 1))
    for beta, n, s, sigma in rows:
        if beta != BETA:
            problems.append(f"{CSV_BETA_FAULT}: row n={n} has beta={beta}, "
                            f"events were simulated at {BETA}")
        expected = ref.cluster_chsh(seqs, n, strategy)
        if abs(s - expected) > 1e-12:
            problems.append(f"n={n}: S={s}, recomputed {expected}")
        if strategy != "parity":
            continue
        theory = float(ref.family_s(BETA, VISIBILITY, n, "parity"))
        sampling = ref.parity_sampling_sigma(seqs, n, BETA, VISIBILITY)
        if abs(s - theory) > 5.0 * sampling:
            problems.append(f"n={n}: S={s} is more than 5 sigma "
                            f"({sampling}) from theory {theory}")
        exact = ref.parity_shuffle_sigma(ref.discordant_populations(seqs), n)
        if n == 1:
            if abs(sigma) > 1e-12:
                problems.append(f"n=1: sigma={sigma}, expected 0")
        elif abs(sigma - exact) > sigma_error * exact:
            problems.append(f"n={n}: sigma={sigma}, finite-population "
                            f"{exact} (Monte Carlo error {sigma_error:.0%})")
    violating = [r[1] for r in rows if r[2] > 2.0]
    n_critical = max(violating, default=0)
    if doc["summary"]["nCritical"] != n_critical:
        problems.append(f"nCritical={doc['summary']['nCritical']}, largest "
                        f"n with S > 2 is {n_critical}")
    return problems


def _range(text: str) -> list:
    lo, hi = text.split("..")
    return list(range(int(lo), int(hi) + 1))


def event_analysis(seed: int, work: Path) -> list:
    """The README experiment: simulate, write both formats, analyze."""
    jsonl, csv = work / "events.jsonl", work / "events.csv"
    files = _EventFiles()
    simulate = ["simulate", "--beta", str(BETA), "--v", str(VISIBILITY),
                "--events", str(EVENTS_PER_VARIANT), "--seed", str(seed),
                "--symmetrize", "--eta-t-a", str(ETA_T_A)]
    analyze = ["analyze", "--resamples", str(RESAMPLES), "--seed", str(seed)]
    return [
        Op("simulate jsonl",
           _cli(simulate + ["--format", "json", "--out", str(jsonl)]),
           lambda op: _check_events(files, jsonl, EVENTS_PER_VARIANT)),
        Op("simulate csv", _cli(simulate + ["--out", str(csv)]),
           lambda op: (_check_events(files, csv, EVENTS_PER_VARIANT)
                       + _check_same_events(files, csv, jsonl))),
        _cli_op(work, "analyze jsonl parity",
                analyze + ["--files", str(jsonl), "--n", PARITY_N,
                           "--strategy", "parity"],
                lambda op: _check_analysis(op, files, jsonl, "parity",
                                           _range(PARITY_N))),
        _cli_op(work, "analyze csv majority",
                analyze + ["--files", str(csv), "--n", MAJORITY_N,
                           "--strategy", "majority"],
                lambda op: _check_analysis(op, files, csv, "majority",
                                           _range(MAJORITY_N)),
                known_fault=CSV_BETA_FAULT),
    ]


WORKLOADS = {
    "landscape": landscape,
    "high_visibility": high_visibility,
    "event_analysis": event_analysis,
}
