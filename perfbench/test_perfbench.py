"""Tests of the benchmark itself: generated facts, output checks, tracing.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import specs  # noqa: E402
from corpus import corpus_cases  # noqa: E402
from grafcet_lint import analyze_spec, parse_spec  # noqa: E402
from grafcet_lint import checks, cli  # noqa: E402
from grafcet_lint.oracle import explore  # noqa: E402
from tracing import EXPECTED, Tracer, layer_metrics  # noqa: E402
from verify import check_oracle, check_output, global_pairs  # noqa: E402


def small_cases(seed):
    """One small spec of each generated shape, small enough for the oracle."""
    rng = random.Random(seed)
    return [
        specs.chain_case(rng, 5),
        specs.ladder_case(rng, 3),
        specs.product_case(rng, (3, 4)),
        specs.hierarchy_case(rng, "hier", 3, 1, 1, 1, (), False, cycle=3, leaf=2),
        specs.hierarchy_case(rng, "hier-clean", 3, 2, 1, 0, (), True, cycle=3, leaf=2),
    ]


def run_cli(path, *extra):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["analyze", str(path), *extra, "--no-timings"])
    return code, sink.getvalue()


def write(tmp_path, case):
    path = tmp_path / f"{case.name}.grafcet.json"
    path.write_text(case.doc if isinstance(case.doc, str) else json.dumps(case.doc))
    return path


@pytest.mark.parametrize("seed", range(4))
def test_closed_form_facts_match_the_analysis(seed):
    rng = random.Random(seed)
    wide = specs.hierarchy_case(rng, "wide", 4, 3, 2, 2, (2, 3), False)
    for case in small_cases(seed) + [wide]:
        facts = case.facts
        result = analyze_spec(parse_spec(case.doc))
        queries = checks.parse_queries(case.doc.get("queries", []))
        findings = list(result.findings) + checks.run_queries(
            result.spec, result.global_concurrency, result.global_reachable,
            result.variables, queries)
        got = {pid: (len(result.reachable_by_partial[pid]), inv.covered,
                     "inf" if inv.bound == float("inf") else int(inv.bound))
               for pid, inv in result.invariants.items()}
        assert got == facts.partials, case.name
        pairs = sum(map(len, result.global_concurrency.values())) // 2
        assert pairs == facts.pairs, case.name
        assert sum(len(inv.s_invariants) for inv in result.invariants.values()) \
            == facts.s_invariants, case.name
        assert Counter(f.kind for f in findings) == Counter(facts.findings), case.name


@pytest.mark.parametrize("seed", range(4))
def test_closed_form_facts_match_the_oracle(seed):
    """Reachable steps, pairs and state counts are those of the real behaviour.

    Forced roots are the one shape where the analysis over-approximates, so
    the forced hierarchy spec is held to soundness only.
    """
    for case in small_cases(seed):
        spec = parse_spec(case.doc)
        facts = explore(spec, mode="structural")
        assert not facts.inconclusive
        assert len(facts.reachable) == sum(r for r, _, _ in case.facts.partials.values())
        exact = case.name != "hier"
        if exact:
            assert len(facts.pairs) == case.facts.pairs, case.name
        if case.facts.states is not None:
            assert facts.states_seen == case.facts.states, case.name
        result = analyze_spec(spec)
        for pair in facts.pairs:
            a, b = sorted(pair)
            assert b in result.global_concurrency.get(a, ()), case.name
        for q in case.doc.get("queries", []):
            if q["kind"] == "never-concurrent":
                a, b = q["steps"]
                assert (frozenset((a, b)) in facts.pairs) == \
                    (b in result.global_concurrency.get(a, ())), (case.name, q)


def test_hierarchy_clean_variant_exits_zero(tmp_path):
    case = specs.hierarchy_case(random.Random(0), "clean", 4, 2, 1, 1, (3,), True)
    assert case.facts.exit == 0
    code, out = run_cli(write(tmp_path, case), "--format", "json")
    assert check_output(case, code, out)[0] == []


@pytest.mark.parametrize("workload", ["invariants-heavy", "hierarchy-wide", "oracle-explore"])
def test_workload_cases_pass_their_checks(tmp_path, workload):
    make = {"invariants-heavy": specs.invariants_heavy, "hierarchy-wide": specs.hierarchy_wide,
            "oracle-explore": specs.oracle_explore}[workload]
    cases = make(7)
    if workload == "invariants-heavy":
        cases = [c for c in cases if c.name in ("chain80", "ladder16")]
    if workload == "oracle-explore":
        cases = [c for c in cases if c.name.startswith("random")][:8]
    for case in cases:
        code, out = run_cli(write(tmp_path, case), "--format", case.fmt)
        problems, report = check_output(case, code, out)
        assert problems == [], case.name
        if case.oracle:
            assert check_oracle(case, report, explore(parse_spec(case.doc))) == []


def test_generators_are_deterministic_per_seed():
    for make in (specs.invariants_heavy, specs.hierarchy_wide, specs.oracle_explore):
        assert [c.doc for c in make(3)] == [c.doc for c in make(3)]
        assert [c.doc for c in make(3)] != [c.doc for c in make(4)]


def test_corpus_expectations_hold(tmp_path):
    for case in corpus_cases(SRC, 0):
        path = write(tmp_path, case)
        extra = ["--format", case.fmt]
        if case.sidecar is not None:
            qpath = tmp_path / f"{case.name}.queries.json"
            qpath.write_text(case.sidecar)
            extra += ["--queries", str(qpath)]
        code, out = run_cli(path, *extra)
        assert check_output(case, code, out)[0] == [], (case.name, case.fmt)
        assert run_cli(path, *extra) == (code, out), "report is not deterministic"


def test_checks_catch_wrong_outputs(tmp_path):
    case = specs.ladder_case(random.Random(1), 3)
    code, out = run_cli(write(tmp_path, case), "--format", "json")
    report = json.loads(out)
    assert check_output(case, code, out)[0] == []
    assert check_output(case, 2, out)[0]
    case.facts.pairs += 1
    assert check_output(case, code, out)[0]
    case.facts.pairs -= 1
    report["global_concurrency"] = {}
    assert check_output(case, code, json.dumps(report))[0]
    facts = explore(parse_spec(case.doc))
    assert check_oracle(case, json.loads(out), facts) == []
    assert check_oracle(case, report, facts)  # emptied relation is unsound
    facts.inconclusive = True
    assert check_oracle(case, json.loads(out), facts)

    text_case = specs.Case(case.name, case.doc, case.facts, fmt="text")
    code, out = run_cli(write(tmp_path, case), "--format", "text")
    assert check_output(text_case, code, out)[0] == []
    assert check_output(text_case, code, out.replace("covered=True", "covered=False"))[0]


def test_report_with_a_changed_schema_counts_as_a_failed_spec():
    import run

    class FakeCli:
        @staticmethod
        def main(argv):
            print(json.dumps({"findings": []}))  # valid JSON, no "partials"
            return 1

    case = specs.ladder_case(random.Random(3), 3)
    stats = run.Stats()
    run.run_pass([run.Job(case, "unused", [])], stats, FakeCli, None)
    assert (stats.attempted, stats.failed) == (1, 1)
    assert "check raised" in stats.problems[0] and "KeyError" in stats.problems[0]


def test_tracer_attributes_spans_and_restores_bindings(tmp_path):
    case = specs.ladder_case(random.Random(2), 4)
    path = write(tmp_path, case)
    original = cli.analyze_spec
    tracer = Tracer()
    tracer.spec_paths = {str(path)}
    assert tracer.absent() == []
    tracer.install()
    try:
        assert cli.analyze_spec is not original
        code, out = run_cli(path, "--format", "json")
        spans = list(tracer.spans)
    finally:
        tracer.uninstall()
    assert cli.analyze_spec is original
    assert check_output(case, code, out)[0] == []

    def ancestors(span):
        while span[3] is not None:
            span = span[3]
            yield span[0]

    for span in spans:
        if span[0] != "cli.main":
            assert "cli.main" in ancestors(span), span[0]
        if span[0] == "reachconc.analyze_partial":
            assert "pipeline.analyze_spec" in ancestors(span)
    metrics = layer_metrics(tracer, 1)
    assert metrics["cli.file_reads"] == 3
    assert metrics["model.validate_calls"] == 2
    assert metrics["reachconc.global_pairs"] == len(global_pairs(json.loads(out)))
    assert metrics["invariants.vectors"] > 0
    assert all(name in tracer.targets for name in EXPECTED)


def test_benchmark_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
