"""Spans and counters around the analyzer's public functions.

The tracer wraps every public function of the traced modules and patches
each name under which a ``grafcet_lint`` module looks it up (``validate``
is bound in ``ingest`` and ``pipeline``, ``cli`` binds ``analyze_spec``,
and so on), so calls made through any binding are recorded. Spans started
on a worker thread with no open span of its own are attributed to the
innermost span open on the main thread, which is the enclosing
``analyze_spec`` while the thread pool runs.

Spans stay in memory while a pass runs; :meth:`Tracer.flush` reduces them
between passes, outside the timed region, so a long run does not carry a
growing heap into later passes. A layer's self time is the part of its
spans' intervals that no child span covers; a group's time is the union of
its spans' self time, so spans running on parallel threads are not counted
twice.
"""

from __future__ import annotations

import builtins
import functools
import importlib
import inspect
import io
import os
import pkgutil
import threading
from collections import Counter
from time import perf_counter

MODULES = ("cli", "ingest", "model", "pipeline", "hierarchy", "reachconc",
           "invariants", "varapprox", "checks", "oracle")

# Targets the per-layer metrics are defined on; one that no longer exists is
# reported as absent.
ANALYSIS_TARGETS = (
    "cli.main", "cli.build_report", "ingest.load_spec", "ingest.parse_spec",
    "model.validate", "pipeline.analyze_spec", "hierarchy.build_hierarchy",
    "hierarchy.initial_situations", "reachconc.analyze_partial",
    "reachconc.union_results", "reachconc.lift_concurrency",
    "invariants.compute_invariants", "invariants.minimal_invariants",
    "varapprox.bound_executions", "varapprox.approximate_variables",
    "checks.detect_races", "checks.check_conditions",
)
QUERY_TARGETS = ("checks.parse_queries", "checks.run_queries")
ORACLE_TARGETS = ("oracle.explore",)
EXPECTED = ANALYSIS_TARGETS + QUERY_TARGETS + ORACLE_TARGETS
PACKAGE = "grafcet_lint"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent span or None]
        self.counts: Counter = Counter()
        self.calls: Counter = Counter()
        self.seconds: Counter = Counter()  # TIME_GROUPS metric -> self time
        self.spec_paths: set[str] = set()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[list] = []
        self._main = threading.main_thread()
        self._patches: list[tuple[object, str, object]] = []
        self.targets = self._discover()

    # --- discovery and patching ------------------------------------------

    def _discover(self) -> dict[str, object]:
        targets = {}
        for mod in MODULES:
            try:
                module = importlib.import_module(f"{PACKAGE}.{mod}")
            except ImportError:
                continue
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_")):
                    targets[f"{mod}.{name}"] = obj
        return targets

    def absent(self) -> list[str]:
        return [name for name in EXPECTED if name not in self.targets]

    def install(self) -> None:
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in self.targets.items()}
        package = importlib.import_module(PACKAGE)
        modules = [package] + [
            importlib.import_module(f"{PACKAGE}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        for module in modules:
            for name, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patches.append((module, name, obj))
                    setattr(module, name, wrapper)
        for owner in (builtins, io):
            self._patches.append((owner, "open", owner.open))
            setattr(owner, "open", self._counting_open(owner.open))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _counting_open(self, real_open):
        tracer = self

        @functools.wraps(real_open)
        def counting_open(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and os.fspath(file) in tracer.spec_paths:
                tracer.count("spec_opens")
            return real_open(file, *args, **kwargs)

        return counting_open

    # --- spans -----------------------------------------------------------

    def _stack(self) -> list:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        tracer = self
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main and stack is not main else None
            span = [name, perf_counter(), 0.0, parent]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.count(f"{name}!{type(exc).__name__}")
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if observe is not None:
                observe(tracer, result)
            return result

        return wrapper

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def flush(self) -> None:
        """Fold the recorded spans into call counts and group self times."""
        selves = _self_intervals(self.spans)
        for metric, match in TIME_GROUPS.items():
            pieces = [p for span in self.spans if match(span[0]) for p in selves[id(span)]]
            self.seconds[metric] += sum(end - start for start, end in _merge(pieces))
        self.calls.update(span[0] for span in self.spans)
        self.spans.clear()


# Work counters read from return values, keyed by the traced function.
OBSERVERS = {
    "reachconc.lift_concurrency":
        lambda t, rel: t.count("global_pairs", sum(map(len, rel.values())) // 2),
    "invariants.minimal_invariants": lambda t, vectors: t.count("vectors", len(vectors)),
    "oracle.explore": lambda t, facts: (t.count("states", facts.states_seen),
                                        t.count("inconclusive", int(facts.inconclusive))),
    **{f"checks.{name}": (lambda t, found: t.count("findings", len(found)))
       for name in ("detect_races", "check_conditions", "unreachable_findings",
                    "unbounded_findings", "run_queries")},
}


def _merge(intervals):
    out = []
    for start, end in sorted(intervals):
        if out and start <= out[-1][1]:
            if end > out[-1][1]:
                out[-1][1] = end
        else:
            out.append([start, end])
    return out


def _self_intervals(spans):
    children: dict[int, list] = {}
    for span in spans:
        if span[3] is not None:
            children.setdefault(id(span[3]), []).append((span[1], span[2]))
    out = {}
    for span in spans:
        pieces, cursor = [], span[1]
        for start, end in _merge(children.get(id(span), ())):
            start, end = max(start, span[1]), min(end, span[2])
            if start > cursor:
                pieces.append((cursor, start))
            cursor = max(cursor, end)
        if cursor < span[2]:
            pieces.append((cursor, span[2]))
        out[id(span)] = pieces
    return out


def _in(prefix: str, exclude=()):
    return lambda name: name.startswith(prefix + ".") and name not in exclude


# name -> predicate on span names; the metric is the union of their self time.
TIME_GROUPS = {
    "cli.self_ms": _in("cli", ("cli.build_report",)),
    "cli.report_ms": lambda n: n == "cli.build_report",
    "ingest.ms": _in("ingest"),
    "model.validate_ms": _in("model"),
    "pipeline.self_ms": _in("pipeline"),
    "hierarchy.ms": _in("hierarchy"),
    "reachconc.partial_ms": _in("reachconc", ("reachconc.union_results",
                                              "reachconc.lift_concurrency")),
    "reachconc.union_ms": lambda n: n == "reachconc.union_results",
    "reachconc.lift_ms": lambda n: n == "reachconc.lift_concurrency",
    "invariants.ms": _in("invariants"),
    "invariants.farkas_ms": lambda n: n == "invariants.minimal_invariants",
    "varapprox.ms": _in("varapprox"),
    "checks.races_ms": lambda n: n == "checks.detect_races",
    "checks.conditions_ms": lambda n: n == "checks.check_conditions",
    "checks.queries_ms": lambda n: n in ("checks.parse_queries", "checks.run_queries"),
    "oracle.explore_ms": _in("oracle"),
}


def layer_metrics(tracer: Tracer, specs: int) -> dict[str, float]:
    """Per-layer times (ms) and counters, each per traced spec."""
    tracer.flush()
    out = {metric: tracer.seconds[metric] * 1000 / specs for metric in TIME_GROUPS}
    calls = tracer.calls
    counts = tracer.counts

    def per_spec(n):
        return n / specs

    out["cli.file_reads"] = per_spec(counts["spec_opens"])
    out["ingest.calls"] = per_spec(sum(v for k, v in calls.items() if k.startswith("ingest.")))
    out["model.validate_calls"] = per_spec(calls["model.validate"])
    out["reachconc.tasks"] = per_spec(calls["reachconc.analyze_partial"])
    out["reachconc.global_pairs"] = per_spec(counts["global_pairs"])
    out["invariants.farkas_calls"] = per_spec(calls["invariants.minimal_invariants"])
    out["invariants.vectors"] = per_spec(counts["vectors"])
    out["invariants.cap_hits"] = per_spec(
        counts["invariants.minimal_invariants!InvariantCapExceeded"])
    out["checks.findings"] = per_spec(counts["findings"])
    out["oracle.calls"] = per_spec(calls["oracle.explore"])
    out["oracle.states"] = per_spec(counts["states"])
    out["oracle.inconclusive"] = per_spec(counts["inconclusive"])
    return out
