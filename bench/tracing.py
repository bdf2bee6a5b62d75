"""Per-layer tracing of ``manypairs`` from outside the package.

``Tracer.install`` replaces public functions of the package's modules by
wrappers, in every loaded ``manypairs`` module that holds a reference to
them, so calls between modules are seen too.  A "span" wrapper records
(id, name, start, end, parent); a "count" wrapper only counts calls.  It
serves functions called about 10^4 times or more per run, and those
whose only metric is a call count.  Spans stay in memory until the run
ends.  Names that do not exist are listed as absent and their metrics
are left out.  Calls are assumed to come from one thread: the benchmark
leaves ``analyze`` at its single-thread default.
"""

from __future__ import annotations

import inspect
import itertools
import os
import sys
import time
from collections import Counter, defaultdict

#: (module, function, kind) for every wrapped name.  The span-only names
#: without a metric of their own cover library calls made straight from
#: the CLI, so that ``cli.self_s`` is parsing and output.
TARGETS = (
    ("optimize", "max_chsh", "span"),
    ("optimize", "family_chsh", "count"),
    ("optimize", "binned_correlator_from_e", "count"),
    ("optimize", "critical_visibility", "span"),
    ("optimize", "scan_critical_visibilities", "span"),
    ("optimize", "binning_comparison", "span"),
    ("optimize", "critical_pairs", "span"),
    ("optimize", "violation_ratio", "span"),
    ("binning", "parity_chsh_analytic", "count"),
    ("binning", "chsh_value", "count"),
    ("simulate", "generate_symmetrized", "span"),
    ("simulate", "generate_run", "span"),
    ("simulate", "write_jsonl", "span"),
    ("simulate", "write_csv", "span"),
    ("analyze", "read_jsonl", "span"),
    ("analyze", "read_csv", "span"),
    ("analyze", "sequences_from_streams", "span"),
    ("analyze", "cluster_events", "count"),
    ("analyze", "estimate_sn", "span"),
    ("analyze", "bootstrap_sn", "span"),
    ("analyze", "find_nc", "span"),
    ("cli", "main", "span"),
)

#: per-layer metric -> (unit, wrapped names it needs, any one suffices)
METRICS = {
    "optimize.max_chsh.calls": ("count", ("optimize.max_chsh",)),
    "optimize.max_chsh.s": ("s", ("optimize.max_chsh",)),
    "optimize.family_chsh.calls": ("count", ("optimize.family_chsh",)),
    "optimize.binned_correlator_from_e.calls":
        ("count", ("optimize.binned_correlator_from_e",)),
    "optimize.critical_visibility.calls":
        ("count", ("optimize.critical_visibility",)),
    "optimize.critical_visibility.s":
        ("s", ("optimize.critical_visibility",)),
    "optimize.binning_comparison.s": ("s", ("optimize.binning_comparison",)),
    "optimize.full_planar.evals": ("count", ("optimize.max_chsh",)),
    "optimize.critical_pairs.s": ("s", ("optimize.critical_pairs",)),
    "optimize.response_build.s": ("s", ("optimize.family_chsh",)),
    "binning.parity_chsh_analytic.calls":
        ("count", ("binning.parity_chsh_analytic",)),
    "binning.chsh_value.calls": ("count", ("binning.chsh_value",)),
    "simulate.generate_run.s": ("s", ("simulate.generate_run",)),
    "simulate.events_generated": ("count", ("simulate.generate_run",)),
    "simulate.write_jsonl.s": ("s", ("simulate.write_jsonl",)),
    "simulate.write_csv.s": ("s", ("simulate.write_csv",)),
    "simulate.bytes_written":
        ("bytes", ("simulate.write_jsonl", "simulate.write_csv")),
    "analyze.read_jsonl.s": ("s", ("analyze.read_jsonl",)),
    "analyze.read_csv.s": ("s", ("analyze.read_csv",)),
    "analyze.events_ingested":
        ("count", ("analyze.read_jsonl", "analyze.read_csv")),
    "analyze.ingest_events_per_s":
        ("1/s", ("analyze.read_jsonl", "analyze.read_csv")),
    "analyze.cluster_events.calls": ("count", ("analyze.cluster_events",)),
    "analyze.estimate_sn.calls": ("count", ("analyze.estimate_sn",)),
    "analyze.estimate_sn.s": ("s", ("analyze.estimate_sn",)),
    "analyze.bootstrap_sn.s": ("s", ("analyze.bootstrap_sn",)),
    "analyze.bootstrap_sn.resamples": ("count", ("analyze.bootstrap_sn",)),
    "analyze.find_nc.s": ("s", ("analyze.find_nc",)),
    "cli.main.s": ("s", ("cli.main",)),
    "cli.self_s": ("s", ("cli.main",)),
    "cli.output_bytes": ("bytes", ("cli.main",)),
}


def _argument(fn, name):
    """Getter for parameter ``name`` of ``fn`` from (args, kwargs), or None."""
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None
    if name not in params:
        return None
    index = params.index(name)
    return lambda args, kwargs: (args[index] if len(args) > index
                                 else kwargs.get(name))


def _file_size(path) -> int:
    return os.path.getsize(path) if path and os.path.exists(path) else 0


class Tracer:
    """Spans, call counts and counters gathered while the package runs."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id or 0)
        self.calls = Counter()
        self.values = defaultdict(float)
        self.present = set()
        self.absent = []
        self._stack = [0]
        self._ids = itertools.count(1)
        self._built = set()

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, after=None):
        spans, stack, ids, calls = (self.spans, self._stack, self._ids,
                                    self.calls)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[name] += 1
            span_id = next(ids)
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name, start, end, parent))
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _count(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _response_counter(self, name, fn):
        """Counts calls; times the first call per (n, binning).

        That call builds the binning's response function (today the
        majority kernel); later calls for the same n reuse it.
        """
        calls, built, values = self.calls, self._built, self.values
        get_n, get_strategy = _argument(fn, "n"), _argument(fn, "strategy")
        if get_n is None or get_strategy is None:
            return self._count(name, fn)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[name] += 1
            key = (get_n(args, kwargs), get_strategy(args, kwargs))
            if key in built:
                return fn(*args, **kwargs)
            built.add(key)
            start = clock()
            result = fn(*args, **kwargs)
            values["optimize.response_build.s"] += clock() - start
            return result

        return wrapper

    # -- counters taken from arguments and results -------------------------

    def _hooks(self, qualified, fn):
        values = self.values
        if qualified == "optimize.max_chsh":
            def after(args, kwargs, result):
                mode = getattr(getattr(result, "mode", None), "value", None)
                if mode == "full-planar":
                    values["optimize.full_planar.evals"] += result.evaluations
            return after
        if qualified == "simulate.generate_run":
            def after(args, kwargs, result):
                values["simulate.events_generated"] += len(result)
            return after
        if qualified in ("simulate.write_jsonl", "simulate.write_csv"):
            get_path = _argument(fn, "path")

            def after(args, kwargs, result):
                values["simulate.bytes_written"] += _file_size(
                    get_path(args, kwargs))
            return after if get_path else None
        if qualified in ("analyze.read_jsonl", "analyze.read_csv"):
            def after(args, kwargs, result):
                values["analyze.events_ingested"] += sum(
                    len(s) for s in result)
            return after
        if qualified == "analyze.bootstrap_sn":
            get_resamples = _argument(fn, "resamples")

            def after(args, kwargs, result):
                values["analyze.bootstrap_sn.resamples"] += get_resamples(
                    args, kwargs)
            return after if get_resamples else None
        if qualified == "cli.main":
            def after(args, kwargs, result):
                argv = list(args[0] if args else kwargs.get("argv") or [])
                for flag, path in zip(argv, argv[1:]):
                    if flag == "--out":
                        values["cli.output_bytes"] += _file_size(path)
            return after
        return None

    def install(self) -> "Tracer":
        """Wrap every target that exists in the loaded package."""
        loaded = [m for key, m in list(sys.modules.items())
                  if key == "manypairs" or key.startswith("manypairs.")]
        for module, name, kind in TARGETS:
            qualified = f"{module}.{name}"
            owner = sys.modules.get(f"manypairs.{module}")
            fn = getattr(owner, name, None) if owner is not None else None
            if not callable(fn):
                self.absent.append(qualified)
                continue
            self.present.add(qualified)
            if qualified == "optimize.family_chsh":
                wrapper = self._response_counter(qualified, fn)
            elif kind == "count":
                wrapper = self._count(qualified, fn)
            else:
                wrapper = self._span(qualified, fn,
                                     self._hooks(qualified, fn))
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
        return self

    # -- results -----------------------------------------------------------

    def layers(self) -> dict:
        """Per wrapped name: calls, inclusive seconds and self seconds.

        Inclusive time counts only the outermost span of a name, so a
        function that calls itself is not counted twice.  Self time is a
        span's duration minus that of its direct child spans.
        """
        by_id = {s[0]: s for s in self.spans}
        child_time = defaultdict(float)
        for span_id, _, start, end, parent in self.spans:
            if parent:
                child_time[parent] += end - start
        out = {name: {"calls": count, "inclusive_s": 0.0, "self_s": 0.0}
               for name, count in self.calls.items()}
        for span_id, name, start, end, parent in self.spans:
            out[name]["self_s"] += end - start - child_time[span_id]
            ancestor = by_id.get(parent)
            while ancestor is not None and ancestor[1] != name:
                ancestor = by_id.get(ancestor[4])
            if ancestor is None:
                out[name]["inclusive_s"] += end - start
        return out

    def metrics(self) -> dict:
        """Per-layer metric values of this run, absent names left out."""
        layers = self.layers()

        def calls(name):
            return layers.get(name, {}).get("calls", 0)

        def seconds(name):
            return layers.get(name, {}).get("inclusive_s", 0.0)

        read_s = seconds("analyze.read_jsonl") + seconds("analyze.read_csv")
        ingested = self.values["analyze.events_ingested"]
        out = {}
        for metric, (_, needs) in METRICS.items():
            if not any(n in self.present for n in needs):
                continue
            if metric.endswith(".calls"):
                out[metric] = calls(metric[:-len(".calls")])
            elif metric == "cli.self_s":
                out[metric] = layers.get("cli.main", {}).get("self_s", 0.0)
            elif metric == "analyze.ingest_events_per_s":
                out[metric] = ingested / read_s if read_s > 0 else 0.0
            elif metric.endswith(".s") and metric[:-2] in self.present:
                out[metric] = seconds(metric[:-2])
            else:
                out[metric] = self.values[metric]
        return out
