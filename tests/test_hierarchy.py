"""Hierarchy graph construction and initial-situation enumeration."""

from grafcet_lint import parse_spec
from grafcet_lint.hierarchy import (
    build_hierarchy,
    dead_partial_findings,
    initial_situations,
)


def test_fig1_enclosing_edge(load_fixture):
    spec = load_fixture("fig1.grafcet.json")
    graph, findings = build_hierarchy(spec)
    assert findings == []
    assert graph.cycle is None
    (edge,) = graph.edges
    assert (edge.source, edge.target, edge.kind, edge.step) == ("G0", "G1", "enclosing", "1")
    sits = initial_situations(spec, graph)["G1"]
    assert [s.source for s in sits] == ["enclosing"]
    assert sits[0].steps == frozenset({"2"})
    assert sits[0].label == "enclosing:G0.1"


def test_fig4_forcing_situation(load_fixture):
    spec = load_fixture("fig4.grafcet.json")
    graph, findings = build_hierarchy(spec)
    assert findings == []
    sits = initial_situations(spec, graph)["c"]
    assert len(sits) == 1
    assert sits[0].source == "forcing"
    assert sits[0].steps == frozenset({"s3", "s4", "s5"})


def test_g_rit_topology(load_fixture):
    spec = load_fixture("g_rit.grafcet.json")
    graph, findings = build_hierarchy(spec)
    assert findings == []
    targets = sorted(e.target for e in graph.edges if e.source == "G_RIT")
    assert targets == ["G10", "G20", "G30", "G40", "G50", "G60", "G70"]
    order = graph.order
    assert order.index("G_OM") < order.index("G_RIT") < order.index("G10")
    # Every station is entered through exactly one enclosing edge.
    for i in range(1, 8):
        sits = initial_situations(spec, graph)[f"G{i}0"]
        assert [s.source for s in sits] == ["enclosing"]
        assert sits[0].steps == frozenset({"a"})


def test_cycle_detection():
    spec = parse_spec({
        "name": "cyc",
        "partials": [
            {"id": "A", "steps": [{"id": "1", "initial": True}],
             "enclosings": [{"step": "1", "target": "B"}]},
            {"id": "B", "steps": [{"id": "1", "marked": True}],
             "enclosings": [{"step": "1", "target": "A"}]},
        ],
    })
    graph, findings = build_hierarchy(spec)
    assert graph.cycle is not None
    assert [f.kind for f in findings] == ["hierarchy-cycle"]
    assert set(graph.cycle) >= {"A", "B"}


def test_multiple_entry_modes():
    spec = parse_spec({
        "name": "multi",
        "partials": [
            {"id": "A", "steps": [{"id": "1", "initial": True}],
             "enclosings": [{"step": "1", "target": "C"}]},
            {"id": "B", "steps": [{"id": "1", "initial": True}],
             "actions": [{"kind": "forcing", "step": "1", "target": "C",
                          "situation": "init"}]},
            {"id": "C", "steps": [{"id": "1", "initial": True},
                                  {"id": "2", "marked": True}]},
        ],
    })
    graph, _ = build_hierarchy(spec)
    sits = initial_situations(spec, graph)["C"]
    assert sorted(s.source for s in sits) == ["enclosing", "forcing", "initial-steps"]
    # The "init" forcing re-enters through C's initial steps.
    forcing = next(s for s in sits if s.source == "forcing")
    assert forcing.steps == frozenset({"1"})


def test_freezing_forcing_adds_no_situation_and_dead_partials():
    spec = parse_spec({
        "name": "frozen",
        "partials": [
            {"id": "A", "steps": [{"id": "1", "initial": True}],
             "actions": [{"kind": "forcing", "step": "1", "target": "B",
                          "situation": "*"}]},
            {"id": "B", "steps": [{"id": "1"}]},
        ],
    })
    graph, _ = build_hierarchy(spec)
    situations = initial_situations(spec, graph)
    assert situations["B"] == []
    dead = dead_partial_findings(situations)
    assert [(f.kind, f.partial) for f in dead] == [("dead-partial", "B")]
