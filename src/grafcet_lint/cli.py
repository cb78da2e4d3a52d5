"""Command-line front end: ``grafcet-lint analyze`` and a debug explorer."""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from . import __version__, checks, ingest
from .findings import SEVERITIES
from .invariants import incidence
from .pipeline import AnalysisResult, analyze_spec

REPORT_SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


class UsageError(Exception):
    """A usage or input error: ``main`` prints its message and exits 2."""


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        code = args.func(args)
        sys.stdout.flush()  # a short report is still buffered here
        return code
    except UsageError as exc:
        print(f"grafcet-lint: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # The reader closed the output early: the report is incomplete, which
        # must not read as "findings". The rest of the buffer goes to devnull,
        # so the interpreter's final flush raises nothing.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_USAGE
    except Exception:
        # A crash must not read as "findings" (exit 1): exit 2 and show where.
        import traceback

        traceback.print_exc()
        return EXIT_USAGE


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused by every later one.

    ``parse_args`` returns a fresh namespace per call, and argparse sizes its
    help output when it prints, so sharing one parser across calls is safe.
    """
    parser = argparse.ArgumentParser(
        prog="grafcet-lint",
        description="Structural analyzer for GRAFCET control specifications.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="run the full analysis pipeline")
    analyze.add_argument("spec", help="path to a .grafcet.json file")
    analyze.add_argument("--format", choices=("text", "json"), default="text")
    analyze.add_argument("--dump-invariants", action="store_true",
                         help="include incidence matrices and invariant vectors "
                              "(JSON report only)")
    analyze.add_argument("--queries", metavar="FILE",
                         help="sidecar .queries.json with safety queries")
    analyze.add_argument("--naive", action="store_true",
                         help="judge never-coactive queries from value sets alone")
    analyze.add_argument("--fail-on", choices=("warning", "error"), default="warning",
                         help="lowest severity that fails the run (default: warning)")
    analyze.add_argument("--no-timings", action="store_true",
                         help="omit wall-clock timings for byte-identical reports")
    analyze.set_defaults(func=_cmd_analyze)

    oracle = sub.add_parser("oracle", help="debug: explicit-state exploration")
    oracle.add_argument("spec")
    oracle.add_argument("--mode", choices=("structural", "semantic"), default="structural")
    oracle.add_argument("--max-states", type=int, default=100_000)
    oracle.set_defaults(func=_cmd_oracle)
    return parser


def _load(path: str):
    try:
        return ingest.load_spec(path)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")
    except ingest.SpecError as exc:
        raise UsageError(exc)


def _cmd_analyze(args) -> int:
    if args.dump_invariants and args.format != "json":
        raise UsageError("--dump-invariants requires --format json")
    spec = _load(args.spec)
    result = analyze_spec(spec)
    findings = list(result.findings)

    try:
        queries = checks.parse_queries(_query_data(args.queries, spec))
        if queries:
            findings.extend(
                checks.run_queries(spec, result.global_concurrency,
                                   result.global_reachable, result.variables,
                                   queries, naive=args.naive)
            )
    except ValueError as exc:
        raise UsageError(exc)

    if args.format == "json":
        report = build_report(result, findings,
                              dump_invariants=args.dump_invariants,
                              timings=not args.no_timings)
        _write_json(report, sys.stdout.write)
        sys.stdout.write("\n")
    else:
        try:
            _print_text(result, findings, timings=not args.no_timings)
        except UnicodeEncodeError as exc:
            raise UsageError(f"the text report cannot be written in {exc.encoding}; "
                             f"use --format json, whose output is ASCII")

    threshold = SEVERITIES.index(args.fail_on)
    if any(SEVERITIES.index(f.severity) <= threshold for f in findings):
        return EXIT_FINDINGS
    return EXIT_OK


def _query_data(sidecar, spec):
    """Raw queries from the sidecar file if one is given, else those embedded in the spec."""
    if sidecar is None:
        return spec.queries
    try:
        with open(sidecar, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad UTF-8 or JSON
        raise UsageError(f"cannot read queries {sidecar}: {exc}")
    if isinstance(doc, dict) and list(doc) != ["queries"]:
        raise UsageError(f"queries {sidecar}: expected an object whose one member is "
                         f"'queries', found members {sorted(doc)}")
    return doc["queries"] if isinstance(doc, dict) else None


def build_report(result: AnalysisResult, findings,
                 dump_invariants: bool = False, timings: bool = True) -> dict:
    spec = result.spec
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "tool_version": __version__,
        "spec": {"name": spec.name, "sha256": spec.sha256},
        "partials": {},
        "variables": {name: v.to_dict() for name, v in result.variables.items()},
        "findings": [f.to_dict() for f in findings],
    }
    for c in spec.partials:
        entry = {
            "situations": [
                {
                    "source": r.situation.label,
                    "initial": sorted(r.situation.steps),
                    "reachable": sorted(r.reachable),
                    "concurrency": {s: sorted(v) for s, v in r.concurrency.items() if v},
                }
                for r in result.results[c.id]
            ],
            "reachable": sorted(result.reachable_by_partial[c.id]),
            "concurrency": {
                s: sorted(v) for s, v in result.conc_by_partial[c.id].items() if v
            },
        }
        inv = result.invariants[c.id]
        entry["boundedness"] = {
            "covered": inv.covered,
            "bound": _num(inv.bound),
            "uncovered_steps": sorted(inv.uncovered_steps),
            "per_step_bound": {s: _num(b) for s, b in inv.per_step_bound.items()},
        }
        if dump_invariants:
            entry["incidence"] = incidence(c)
            entry["s_invariants"] = [
                {s: y[i] for i, s in enumerate(c.steps) if y[i]} for y in inv.s_invariants
            ]
            entry["t_invariants"] = [
                {c.transitions[j].id: x[j] for j in range(len(x)) if x[j]}
                for x in inv.t_invariants
            ]
        report["partials"][c.id] = entry
    report["execution_bounds"] = {
        f"{pid}.actions[{idx}]": {"step": b.step, "count": _num(b.count),
                                  "reasons": list(b.reasons)}
        for (pid, idx), b in result.bounds.items()
    }
    report["global_concurrency"] = result.global_concurrency
    if timings:
        report["timings_ms"] = {k: round(v * 1000, 3) for k, v in result.timings.items()}
    return report


_escape = json.encoder.encode_basestring_ascii  # the C escaper json.dumps uses
_LITERALS = {True: "true", False: "false", None: "null"}


def _write_json(obj, write, indent="\n") -> None:
    """Stream ``obj`` as ``json.dumps(obj, indent=2, sort_keys=True)`` would print it.

    ``json.dumps`` falls back to its pure-Python encoder whenever ``indent`` is
    set; here every string list, the bulk of a report, is escaped once as a
    whole and joined in C, and the parts go straight to ``write`` rather than
    into one string.
    """
    if isinstance(obj, dict):
        if not obj:
            write("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for key in sorted(obj):
            write(sep + _escape(key) + ": ")
            _write_json(obj[key], write, inner)
            sep = "," + inner
        write(indent + "}")
    elif isinstance(obj, list):
        if not obj:
            write("[]")
            return
        inner = indent + "  "
        write("[" + inner)
        try:
            joined = "".join(obj)
        except TypeError:  # not a list of strings
            sep = ""
            for item in obj:
                write(sep)
                _write_json(item, write, inner)
                sep = "," + inner
        else:
            # Escaping only lengthens, so an unchanged length means no item
            # needs it, and the items are quoted as they are.
            if len(_escape(joined)) == len(joined) + 2:
                write('"' + ('",' + inner + '"').join(obj) + '"')
            else:
                write(("," + inner).join(map(_escape, obj)))
        write(indent + "]")
    elif isinstance(obj, str):
        write(_escape(obj))
    elif obj is True or obj is False or obj is None:
        write(_LITERALS[obj])
    elif isinstance(obj, int):
        write(int.__repr__(obj))
    elif isinstance(obj, float) and math.isfinite(obj):
        write(float.__repr__(obj))
    else:
        raise TypeError(f"cannot write {obj!r} as JSON")


def _num(value):
    if value == math.inf:
        return "inf"
    return int(value)


def _print_text(result: AnalysisResult, findings, timings: bool) -> None:
    spec = result.spec
    print(f"{spec.name}: {len(spec.partials)} partial Grafcet(s)")
    for c in spec.partials:
        inv = result.invariants[c.id]
        print(f"  {c.id}: {len(result.reachable_by_partial[c.id])}/{len(c.steps)} "
              f"steps reachable, covered={inv.covered}, bound={_num(inv.bound)}")
    if findings:
        print(f"{len(findings)} finding(s):")
        for f in findings:
            where = ".".join(x for x in (f.partial, f.element) if x)
            print(f"  [{f.severity}] {f.kind} {where}: {f.message}")
    else:
        print("no findings")
    if timings:
        total = sum(round(v * 1000, 3) for v in result.timings.values())
        print(f"analysis time: {total:.1f} ms")


def _cmd_oracle(args) -> int:
    if args.max_states < 1:
        raise UsageError("--max-states must be a positive integer")
    from .oracle import explore

    spec = _load(args.spec)
    try:
        facts = explore(spec, mode=args.mode, max_states=args.max_states)
    except ValueError as exc:  # a spec the semantic mode cannot enumerate
        raise UsageError(exc)
    print(json.dumps({
        "reachable": sorted(facts.reachable),
        "concurrent_pairs": sorted(sorted(p) for p in facts.pairs),
        "var_values": {k: sorted(v) for k, v in facts.var_values.items()},
        "conflicts": sorted(sorted(map(list, p)) for p in facts.conflicts),
        "states_seen": facts.states_seen,
        "inconclusive": facts.inconclusive,
    }, indent=2))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
