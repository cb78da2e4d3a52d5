"""Worklist reachability/concurrency fixpoint and the hierarchy lift."""

import random
from pathlib import Path

from grafcet_lint import analyze_spec, load_spec, parse_spec, reachconc, serialize
from grafcet_lint.hierarchy import InitialSituation, build_hierarchy, initial_situations
from grafcet_lint.reachconc import (analyze_partial, concurrent, init_concurrency,
                                    reach_analysis)
from conftest import corpus_path
from lift_reference import lift_concurrency_reference
from randspec import random_forcing_spec, random_spec
from reach_reference import reach_analysis_reference

FIG4_EXPECTED = {
    "s1": {"s2", "s4", "s5", "s6"},
    "s2": {"s1", "s3"},
    "s3": {"s2", "s4", "s5", "s6"},
    "s4": {"s1", "s3", "s5"},
    "s5": {"s1", "s3", "s4"},
    "s6": {"s1", "s3"},
}


def _situation(pid, steps):
    return InitialSituation(pid, "initial-steps", None, None, frozenset(steps))


def test_init_concurrency_is_mutual(load_fixture):
    spec = load_fixture("fig4.grafcet.json")
    c = spec.partial_map["c"]
    conc = init_concurrency(c, frozenset({"s3", "s4", "s5"}))
    assert conc["s3"] == {"s4", "s5"}
    assert conc["s4"] == {"s3", "s5"}
    assert conc["s1"] == set()


def test_fig4_fixpoint_matches_hand_executed_table(load_fixture):
    spec = load_fixture("fig4.grafcet.json")
    c = spec.partial_map["c"]
    result = analyze_partial(c, _situation("c", {"s3", "s4", "s5"}))
    assert result.reachable == frozenset(FIG4_EXPECTED)
    assert {s: set(v) for s, v in result.concurrency.items()} == FIG4_EXPECTED
    # The defining intermediate fact: s6 joins S^C_{s3} through t4.
    assert "s6" in result.concurrency["s3"]


def test_fig4_confluent_under_randomized_worklist_orders(load_fixture):
    spec = load_fixture("fig4.grafcet.json")
    c = spec.partial_map["c"]
    for seed in range(7):
        result = analyze_partial(c, _situation("c", {"s3", "s4", "s5"}),
                                 rng=random.Random(seed))
        assert {s: set(v) for s, v in result.concurrency.items()} == FIG4_EXPECTED


def test_linear_chain_has_no_concurrency():
    spec = parse_spec({
        "name": "chain",
        "partials": [{
            "id": "P",
            "steps": [{"id": "1", "initial": True}, {"id": "2"}, {"id": "3"}],
            "transitions": [
                {"id": "t1", "from": ["1"], "to": ["2"]},
                {"id": "t2", "from": ["2"], "to": ["3"]},
            ],
        }],
    })
    c = spec.partials[0]
    reachable, conc = reach_analysis(c, frozenset({"1"}))
    assert reachable == {"1", "2", "3"}
    assert all(not v for v in conc.values())


def test_parallel_split_and_join():
    spec = parse_spec({
        "name": "split",
        "partials": [{
            "id": "P",
            "steps": [{"id": "1", "initial": True}, {"id": "2"}, {"id": "3"},
                      {"id": "4"}],
            "transitions": [
                {"id": "t1", "from": ["1"], "to": ["2", "3"]},
                {"id": "t2", "from": ["2", "3"], "to": ["4"]},
            ],
        }],
    })
    _, conc = reach_analysis(spec.partials[0], frozenset({"1"}))
    assert conc["2"] == {"3"}
    assert conc["3"] == {"2"}
    # After the join, step 4 inherits the empty shared concurrency.
    assert conc["4"] == set()


def test_source_pass_makes_downstream_concurrent_to_everything(load_fixture):
    spec = load_fixture("fig2_g5.grafcet.json")
    c = spec.partial_map["G5"]
    result = analyze_partial(c, _situation("G5", {"1"}))
    assert result.reachable == frozenset({"1", "2"})
    assert result.concurrency["1"] == frozenset({"2"})
    assert result.concurrency["2"] == frozenset({"1"})


def test_source_transitions_take_one_pass(load_fixture, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return reach_analysis(*args, **kwargs)

    monkeypatch.setattr(reachconc, "reach_analysis", counted)
    spec = load_fixture("fig2_g5.grafcet.json")
    analyze_partial(spec.partial_map["G5"], _situation("G5", {"1"}))
    assert len(calls) == 1


# Step 2 is reachable but u is not, so t2 never fires however S^C_2 grows.
HALF_ENABLED = {
    "name": "half-enabled",
    "partials": [{
        "id": "P",
        "steps": [{"id": "1", "initial": True}, {"id": "2"}, {"id": "3"},
                  {"id": "4"}, {"id": "5", "initial": True}, {"id": "u"}],
        "transitions": [
            {"id": "t1", "from": ["1"], "to": ["2"]},
            {"id": "t2", "from": ["2", "u"], "to": ["3", "4"]},
        ],
    }],
}


def test_half_enabled_transition_never_fires():
    result = analyze_spec(parse_spec(HALF_ENABLED))
    assert result.reachable_by_partial["P"] == frozenset({"1", "2", "5"})
    assert result.global_concurrency == {
        "P.1": ["P.5"], "P.2": ["P.5"], "P.5": ["P.1", "P.2"]}


def _with_sources_and_sinks(rng):
    # A random spec plus 0-2 source transitions and at most one sink per
    # partial, each source feeding one step or a parallel split.
    doc = serialize(random_spec(rng))
    for p in doc["partials"]:
        ids = [s["id"] for s in p["steps"]]
        for i in range(rng.randint(0, 2)):
            p["transitions"].append({"id": f"src{i}", "from": [],
                                     "to": rng.sample(ids, rng.randint(1, min(3, len(ids))))})
        if rng.random() < 0.5:
            p["transitions"].append({"id": "sink", "from": rng.sample(ids, rng.randint(1, 2)),
                                     "to": []})
    return parse_spec(doc)


def _assert_matches_two_pass_reference(spec):
    graph, _ = build_hierarchy(spec)
    for c in spec.partials:
        for sit in initial_situations(spec, graph, c.id):
            reachable, conc = reach_analysis_reference(c, sit.steps)
            result = analyze_partial(c, sit)
            assert result.reachable == reachable, (spec.name, c.id, sit)
            assert result.concurrency == conc, (spec.name, c.id, sit)


def test_matches_two_pass_reference_on_corpus_and_random_specs():
    for path in sorted(corpus_path("").glob("*.grafcet.json")):
        _assert_matches_two_pass_reference(load_spec(path))
    _assert_matches_two_pass_reference(load_spec(Path(__file__).with_name("compound.grafcet.json")))
    _assert_matches_two_pass_reference(parse_spec(HALF_ENABLED))
    rng = random.Random(7)
    for _ in range(300):
        _assert_matches_two_pass_reference(random_spec(rng))
    rng = random.Random(2026)
    for _ in range(300):
        _assert_matches_two_pass_reference(random_forcing_spec(rng))
    rng = random.Random(14)
    for _ in range(300):
        _assert_matches_two_pass_reference(_with_sources_and_sinks(rng))


def test_sink_transition_consumes_only():
    spec = parse_spec({
        "name": "sink",
        "partials": [{
            "id": "P",
            "steps": [{"id": "1", "initial": True}, {"id": "2"}],
            "transitions": [
                {"id": "t1", "from": ["1"], "to": ["2"]},
                {"id": "t2", "from": ["2"], "to": []},
            ],
        }],
    })
    reachable, conc = reach_analysis(spec.partials[0], frozenset({"1"}))
    assert reachable == {"1", "2"}
    assert all(not v for v in conc.values())


def test_unreachable_branch_stays_unreachable():
    spec = parse_spec({
        "name": "dead",
        "partials": [{
            "id": "P",
            "steps": [{"id": "1", "initial": True}, {"id": "2"}, {"id": "3"}],
            "transitions": [
                {"id": "t1", "from": ["1"], "to": ["2"]},
                {"id": "t2", "from": ["3"], "to": ["1"]},
            ],
        }],
    })
    reachable, _ = reach_analysis(spec.partials[0], frozenset({"1"}))
    assert reachable == {"1", "2"}


def test_result_invariants_on_random_specs():
    rng = random.Random(11)
    for _ in range(60):
        spec = random_spec(rng)
        graph, _ = build_hierarchy(spec)
        for c in spec.partials:
            for sit in initial_situations(spec, graph, c.id):
                result = analyze_partial(c, sit, rng=random.Random(rng.random()))
                result.check_invariants()
                baseline = analyze_partial(c, sit)
                assert result.reachable == baseline.reachable
                assert result.concurrency == baseline.concurrency


def test_lift_root_partials_pairwise_concurrent(load_fixture):
    spec = load_fixture("fig2_g8.grafcet.json")
    result = analyze_spec(spec)
    assert "G8.2" in result.global_concurrency["G7.2"]
    assert "G7.1" in result.global_concurrency["G8.1"]


def test_lift_enclosed_concurrent_with_anchor_and_neighbors(load_fixture):
    spec = load_fixture("g_rit.grafcet.json")
    result = analyze_spec(spec)
    gc = result.global_concurrency
    # Rule (c): station steps run concurrently with their anchor and its peers.
    assert "G_RIT.11" in gc["G10.b"]
    assert "G_RIT.12" in gc["G10.b"]
    # Rule (b): stations anchored on mutually concurrent steps are concurrent.
    for i in range(1, 8):
        for j in range(i + 1, 8):
            assert f"G{j}0.b" in gc[f"G{i}0.b"], (i, j)
    # The enclosing anchor step 16 activates both G60 and G70 at once.
    assert "G70.a" in gc["G60.a"]
    # Step 10 never overlaps the station phase.
    assert "G_RIT.10" not in gc.get("G10.b", set())


def _assert_relation_shape(gc):
    for a, partners in gc.items():
        assert partners, f"{a} is a key without partners"
        assert a not in partners, f"{a} concurrent to itself"
        for b in partners:
            assert a in gc.get(b, ()), f"asymmetric pair ({a}, {b})"


def _cycle(pid, *steps):
    return {"id": pid,
            "steps": [{"id": steps[0], "initial": True}, *({"id": s} for s in steps[1:])],
            "transitions": [{"id": f"t{i}", "from": [a], "to": [b]}
                            for i, (a, b) in enumerate(zip(steps, steps[1:] + steps[:1]))]}


def test_global_relation_is_symmetric_irreflexive_without_empty_entries(load_fixture):
    _assert_relation_shape(analyze_spec(load_fixture("g_rit.grafcet.json")).global_concurrency)
    # A root forcing another root: the forced steps already neighbour the
    # anchor when rule (c) connects them to it and its neighbours.
    forcer = _cycle("P", "1", "2")
    forcer["actions"] = [{"kind": "forcing", "step": "1", "target": "Q", "situation": "init"}]
    forced = parse_spec({"name": "forced-root", "partials": [forcer, _cycle("Q", "q1", "q2")]})
    _assert_relation_shape(analyze_spec(forced).global_concurrency)
    rng = random.Random(5)
    for _ in range(200):
        _assert_relation_shape(analyze_spec(random_spec(rng)).global_concurrency)


def _assert_lift_matches_reference(spec):
    result = analyze_spec(spec)
    graph, _ = build_hierarchy(spec)
    reference = lift_concurrency_reference(spec, graph, result.reachable_by_partial,
                                           result.conc_by_partial)
    relation = result.global_concurrency
    assert relation == {a: sorted(partners) for a, partners in reference.items()}, spec.name
    for a, partners in relation.items():
        assert all(x < y for x, y in zip(partners, partners[1:])), (a, partners)
        assert a not in partners
    return graph, relation


def test_lift_matches_string_set_reference_on_corpus_and_random_specs():
    for path in sorted(corpus_path("").glob("*.grafcet.json")):
        _assert_lift_matches_reference(load_spec(path))
    rng = random.Random(7)
    for _ in range(300):
        _assert_lift_matches_reference(random_spec(rng))
    rng = random.Random(2026)
    for _ in range(300):
        _assert_lift_matches_reference(random_forcing_spec(rng))


def test_lift_matches_reference_on_a_cyclic_hierarchy():
    # A encloses B and C from concurrent steps, B encloses A back and forces
    # C, and the root R runs beside them: graph.order falls back to the
    # declaration order, so rule (c) reads anchors whose partners are still
    # growing.
    a = _cycle("A", "1", "2")
    a["transitions"].append({"id": "t9", "from": ["1"], "to": ["1", "3"]})
    a["steps"].append({"id": "3"})
    a["enclosings"] = [{"step": "2", "target": "B"}, {"step": "3", "target": "C"}]
    b = _cycle("B", "b1", "b2")
    b["steps"][0] = {"id": "b1", "marked": True}
    b["enclosings"] = [{"step": "b2", "target": "A"}]
    b["actions"] = [{"kind": "forcing", "step": "b1", "target": "C", "situation": "init"}]
    c = _cycle("C", "c1", "c2")
    c["steps"][0] = {"id": "c1", "initial": True, "marked": True}
    spec = parse_spec({"name": "cyclic", "partials": [c, b, a, _cycle("R", "r1", "r2")]})
    graph, relation = _assert_lift_matches_reference(spec)
    assert not graph.is_partial_order and graph.order == graph.nodes
    assert concurrent(relation, "B.b1", "R.r2")


def test_lift_matches_reference_on_an_unreachable_anchor():
    # P1.s2 is never reached, yet its enclosing edge pairs it with P2's steps.
    p1 = _cycle("P1", "s1", "s3")
    p1["steps"].append({"id": "s2"})
    p1["enclosings"] = [{"step": "s2", "target": "P2"}]
    p2 = _cycle("P2", "u1", "u2")
    p2["steps"][0] = {"id": "u1", "marked": True}
    spec = parse_spec({"name": "dead-anchor", "partials": [p1, p2]})
    _, relation = _assert_lift_matches_reference(spec)
    assert relation["P1.s2"] == ["P2.u1", "P2.u2"]


def test_concurrent_reads_present_and_absent_pairs(load_fixture):
    relation = analyze_spec(load_fixture("g_rit.grafcet.json")).global_concurrency
    assert concurrent(relation, "G10.b", "G_RIT.11")
    assert concurrent(relation, "G_RIT.11", "G10.b")
    assert not concurrent(relation, "G10.b", "G_RIT.10")
    assert not concurrent(relation, "G10.b", "G10.b")
    # An id past every partner, and a step without partners.
    assert not concurrent(relation, "G10.b", "zz")
    assert not concurrent(relation, "no.such-step", "G10.b")
