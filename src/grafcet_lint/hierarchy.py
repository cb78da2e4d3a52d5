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

    @property
    def is_partial_order(self) -> bool:
        return self.cycle is None

    def incoming(self, partial_id: str) -> tuple[HierarchyEdge, ...]:
        return tuple(e for e in self.edges if e.target == partial_id)


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


def initial_situations(spec: GrafcetSpec, graph: HierarchyGraph,
                       partial_id: str) -> list[InitialSituation]:
    """All entry modes of a partial Grafcet, one situation per source.

    Initial steps contribute I_c; each incoming enclosing edge contributes
    M_c; a forcing with an explicit step set contributes that set; a forcing
    to "init" contributes I_c; a freezing forcing ("*") adds no entry point.
    """
    c = spec.partial_map[partial_id]
    out: list[InitialSituation] = []
    if c.initial:
        out.append(InitialSituation(partial_id, "initial-steps", None, None, c.initial))
    for edge in graph.incoming(partial_id):
        if edge.kind == "enclosing":
            out.append(InitialSituation(partial_id, "enclosing", edge.step, edge.source,
                                        c.marked))
        elif edge.situation == "*":
            continue
        elif edge.situation == "init":
            out.append(InitialSituation(partial_id, "forcing", edge.step, edge.source,
                                        c.initial))
        else:
            out.append(InitialSituation(partial_id, "forcing", edge.step, edge.source,
                                        edge.situation))
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
