"""Hierarchical dependencies between partial Grafcets.

Enclosing steps and forcing orders induce directed edges between partial
Grafcets. These dependencies must form a partial order; each incoming edge
(and the partial's own initial steps) yields one initial situation.
"""

from __future__ import annotations

from graphlib import CycleError, TopologicalSorter

from .findings import Finding, finding
from .model import GrafcetSpec
from .record import Record

__all__ = ["HierarchyEdge", "HierarchyGraph", "InitialSituation", "build_hierarchy",
           "initial_situations"]


class HierarchyEdge(Record):
    source: str  # partial holding the enclosing step / forcing order
    target: str
    kind: str  # "enclosing" | "forcing"
    step: str
    situation: frozenset[str] | str | None = None  # forcing only


class HierarchyGraph(Record):
    nodes: tuple[str, ...]
    edges: tuple[HierarchyEdge, ...]
    order: tuple[str, ...]  # superiors before inferiors; ``nodes`` when there is a cycle
    cycle: tuple[str, ...] | None = None  # populated when not a partial order


class InitialSituation(Record):
    partial_id: str
    source: str  # "initial-steps" | "enclosing" | "forcing"
    from_step: str | None  # step in the superior partial, None for initial-steps
    from_partial: str | None
    steps: frozenset[str]

    @property
    def label(self) -> str:
        if self.source == "initial-steps":
            return "initial-steps"
        return f"{self.source}:{self.from_partial}.{self.from_step}"


def build_hierarchy(spec: GrafcetSpec) -> tuple[HierarchyGraph, list[Finding]]:
    edges: list[HierarchyEdge] = []
    for c in spec.partials:
        for step, target in c.enclosings:
            edges.append(HierarchyEdge(c.id, target, "enclosing", step))
        for a in c.forcings:
            edges.append(HierarchyEdge(c.id, a.target, "forcing", a.step, a.situation))
    nodes = tuple(c.id for c in spec.partials)
    sorter = TopologicalSorter(dict.fromkeys(nodes, ()))
    for e in edges:
        sorter.add(e.target, e.source)

    findings: list[Finding] = []
    try:
        order, cycle = tuple(sorter.static_order()), None
    except CycleError as exc:
        order, cycle = nodes, tuple(exc.args[1])
        findings.append(
            finding(
                "hierarchy-cycle", "error",
                "hierarchical dependencies are not a partial order: "
                + " -> ".join(cycle),
                cycle=cycle,
            )
        )
    return HierarchyGraph(nodes, tuple(edges), order, cycle), findings


def initial_situations(spec: GrafcetSpec,
                       graph: HierarchyGraph) -> dict[str, list[InitialSituation]]:
    """Every partial's entry modes, one situation per source, in one sweep.

    Initial steps contribute I_c; each enclosing edge into c contributes
    M_c; a forcing with an explicit step set contributes that set; a forcing
    to "init" contributes I_c; a freezing forcing ("*") adds no entry point.
    A partial's situations list its initial steps first, then its incoming
    edges in ``graph.edges`` order.
    """
    out = {c.id: [InitialSituation(c.id, "initial-steps", None, None, c.initial)]
           if c.initial else [] for c in spec.partials}
    for edge in graph.edges:
        c = spec.partial_map[edge.target]
        if edge.kind == "enclosing":
            steps = c.marked
        elif edge.situation == "*":
            continue
        elif edge.situation == "init":
            steps = c.initial
        else:
            steps = edge.situation
        out[c.id].append(InitialSituation(c.id, edge.kind, edge.step, edge.source, steps))
    return out


def dead_partial_findings(situations: dict[str, list[InitialSituation]]) -> list[Finding]:
    """Partials with no initial situation in ``situations`` (id -> list) are dead code."""
    return [
        finding("dead-partial", "warning",
                f"partial Grafcet {pid!r} has no initial situation and can "
                "never become active", partial=pid)
        for pid, sits in situations.items()
        if not sits
    ]
