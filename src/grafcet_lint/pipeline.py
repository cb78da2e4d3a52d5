"""Full analysis pipeline: ingest -> hierarchy -> reachability/concurrency
-> invariants -> variable approximation -> checks."""

from __future__ import annotations

import time
from contextlib import contextmanager

from . import checks, hierarchy, invariants, reachconc, varapprox
from .findings import Finding, sort_findings
from .invariants import InvariantSet
from .model import GrafcetSpec
from .reachconc import ReachConcResult
from .varapprox import ExecutionBound, VarApprox

__all__ = ["AnalysisResult", "analyze_spec"]


class AnalysisResult:
    """What ``analyze_spec`` computed for one spec, one keyword per attribute."""
    spec: GrafcetSpec
    results: dict[str, list[ReachConcResult]]
    reachable_by_partial: dict[str, frozenset[str]]
    conc_by_partial: dict[str, dict[str, frozenset[str]]]
    global_reachable: set[str]
    global_concurrency: dict[str, list[str]]  # sorted partners
    invariants: dict[str, InvariantSet]
    bounds: dict[tuple[str, int], ExecutionBound]
    variables: dict[str, VarApprox]
    findings: list[Finding]
    timings: dict[str, float]

    def __init__(self, **attributes):
        vars(self).update(attributes)


def analyze_spec(spec: GrafcetSpec) -> AnalysisResult:
    """Analyze a spec built by ``ingest.parse_spec``, which has validated it."""
    findings: list[Finding] = []
    timings: dict[str, float] = {}

    @contextmanager
    def timed(name):
        t0 = time.perf_counter()
        yield
        timings[name] = time.perf_counter() - t0

    with timed("hierarchy"):
        graph, hier_findings = hierarchy.build_hierarchy(spec)
        findings.extend(hier_findings)
        situations = hierarchy.initial_situations(spec, graph)
        findings.extend(hierarchy.dead_partial_findings(situations))

    with timed("reachconc"):
        results: dict[str, list[ReachConcResult]] = {
            c.id: [reachconc.analyze_partial(c, s) for s in situations[c.id]]
            for c in spec.partials
        }
        reachable_by_partial = {}
        conc_by_partial = {}
        for c in spec.partials:
            reachable, conc = reachconc.union_results(c, results[c.id])
            reachable_by_partial[c.id] = reachable
            conc_by_partial[c.id] = conc
        global_concurrency = reachconc.lift_concurrency(
            spec, graph, reachable_by_partial, conc_by_partial
        )
        global_reachable = {
            spec.global_step(pid, s)
            for pid, reach in reachable_by_partial.items()
            for s in reach
        }

    with timed("invariants"):
        inv_by_partial = {}
        solved: dict = {}  # partials with one incidence matrix are solved once
        for c in spec.partials:
            inv, inv_findings = invariants.compute_invariants(c, solved=solved)
            inv_by_partial[c.id] = inv
            findings.extend(inv_findings)

    with timed("varapprox"):
        bounds = varapprox.bound_executions(spec, graph, inv_by_partial, results)
        variables = varapprox.approximate_variables(spec, bounds)

    with timed("checks"):
        findings.extend(checks.detect_races(spec, global_concurrency, global_reachable))
        findings.extend(checks.check_conditions(spec, variables, global_reachable))
        findings.extend(checks.unreachable_findings(spec, global_reachable))
        findings.extend(checks.unbounded_findings(spec, bounds))

    return AnalysisResult(
        spec=spec,
        results=results,
        reachable_by_partial=reachable_by_partial,
        conc_by_partial=conc_by_partial,
        global_reachable=global_reachable,
        global_concurrency=global_concurrency,
        invariants=inv_by_partial,
        bounds=bounds,
        variables=variables,
        findings=sort_findings(findings),
        timings=timings,
    )
