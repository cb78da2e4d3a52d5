"""Execution-count bounds and variable value approximation."""

import json
import math
import random

import pytest
from bound_reference import bound_executions_reference
from conftest import corpus_path
from randspec import random_forcing_spec, random_hierarchy_spec, random_spec

from grafcet_lint import analyze_spec, load_spec, parse_spec, serialize
from grafcet_lint.cli import main
from grafcet_lint.oracle import explore
from grafcet_lint.varapprox import classify_stored_value


def _spec(actions, extra_vars=(), transitions=None, steps=None):
    return parse_spec({
        "name": "t",
        "variables": [
            {"name": "k", "kind": "internal", "type": "int", "init": 0},
            *extra_vars,
        ],
        "partials": [{
            "id": "P",
            "steps": steps or [{"id": "1", "initial": True}, {"id": "2"}],
            "transitions": transitions if transitions is not None
            else [{"id": "t1", "from": ["1"], "to": ["2"]}],
            "actions": actions,
        }],
    })


def test_classify_stored_value():
    spec = _spec([
        {"kind": "stored", "step": "1", "var": "k", "value": "5"},
        {"kind": "stored", "step": "1", "var": "k", "value": "k + 2"},
        {"kind": "stored", "step": "1", "var": "k", "value": "k - 1"},
        {"kind": "stored", "step": "1", "var": "k", "value": "2*k"},
    ])
    a = spec.partials[0].actions
    assert classify_stored_value(a[0]) == ("const", 5)
    assert classify_stored_value(a[1]) == ("shift", 2)
    assert classify_stored_value(a[2]) == ("shift", -1)
    assert classify_stored_value(a[3]) == ("opaque", None)


def test_fig5_bound_and_interval(load_fixture):
    spec = load_fixture("fig5.grafcet.json")
    result = analyze_spec(spec)
    bound = result.bounds[("c", 0)]
    assert bound.count == 4  # n = 2 times |S^I| = 2
    assert bound.reasons == ("bound-times-initial",)
    assert result.variables["k"].interval == (0, 4)


def test_constant_write_hulls_with_init():
    result = analyze_spec(_spec([
        {"kind": "stored", "step": "2", "var": "k", "value": "5"}]))
    assert result.variables["k"].interval == (0, 5)


def test_negative_shift_twice():
    spec = _spec(
        [{"kind": "stored", "step": "2", "var": "k", "value": "k - 1"}],
        steps=[{"id": "1", "initial": True}, {"id": "2", "initial": True}],
        transitions=[{"id": "t1", "from": ["1"], "to": ["2"]}],
    )
    result = analyze_spec(spec)
    # Bound 1 per initial situation of size 2: at most 2 decrements.
    assert result.bounds[("P", 0)].count == 2
    assert result.variables["k"].interval == (-2, 0)


def test_unreachable_action_counts_zero():
    spec = _spec(
        [{"kind": "stored", "step": "2", "var": "k", "value": "5"}],
        transitions=[],
    )
    result = analyze_spec(spec)
    assert result.bounds[("P", 0)].count == 0
    assert result.bounds[("P", 0)].reasons == ("unreachable",)
    assert result.variables["k"].interval == (0, 0)


def test_loop_makes_shift_unbounded(load_fixture):
    spec = load_fixture("fig2_g7.grafcet.json")
    result = analyze_spec(spec)
    assert result.bounds[("G7", 0)].count == math.inf
    assert result.bounds[("G7", 0)].reasons == ("t-invariant-loop",)
    assert result.variables["k"].interval == (0, math.inf)


def test_uncovered_partial_makes_all_actions_unbounded(load_fixture):
    spec = load_fixture("fig2_g4.grafcet.json")
    result = analyze_spec(spec)
    assert result.bounds[("G4", 0)].count == math.inf
    assert result.bounds[("G4", 1)].count == math.inf
    # k := k + 1 unbounded, k := 0 constant: [0, +inf).
    assert result.variables["k"].interval == (0, math.inf)


def test_opaque_write_is_top():
    result = analyze_spec(_spec([
        {"kind": "stored", "step": "2", "var": "k", "value": "2*k"}]))
    assert result.variables["k"].interval == (-math.inf, math.inf)


def test_bool_variables():
    spec = _spec(
        [
            {"kind": "stored", "step": "2", "var": "f", "value": "true"},
            {"kind": "continuous", "step": "1", "var": "o"},
        ],
        extra_vars=[
            {"name": "f", "kind": "internal", "type": "bool", "init": 0},
            {"name": "o", "kind": "output", "type": "bool", "init": 0},
        ],
    )
    result = analyze_spec(spec)
    assert result.variables["f"].values == frozenset({False, True})
    assert result.variables["o"].values == frozenset({False, True})


def test_bool_writer_on_unreachable_step_contributes_nothing():
    spec = _spec(
        [{"kind": "stored", "step": "2", "var": "f", "value": "true"}],
        extra_vars=[{"name": "f", "kind": "internal", "type": "bool", "init": 0}],
        transitions=[],
    )
    result = analyze_spec(spec)
    assert result.variables["f"].values == frozenset({False})


def test_to_dict_serializes_infinities():
    spec = _spec([{"kind": "stored", "step": "2", "var": "k", "value": "2*k"}])
    result = analyze_spec(spec)
    d = result.variables["k"].to_dict()
    assert d == {"type": "int", "lo": "-inf", "hi": "+inf"}
    json.dumps(d)


def test_monotone_in_the_bound():
    """A larger initial situation can only widen the interval."""
    small = analyze_spec(_spec(
        [{"kind": "stored", "step": "2", "var": "k", "value": "k + 1"}]))
    large = analyze_spec(_spec(
        [{"kind": "stored", "step": "2", "var": "k", "value": "k + 1"}],
        steps=[{"id": "1", "initial": True}, {"id": "2", "initial": True}],
    ))
    lo_s, hi_s = small.variables["k"].interval
    lo_l, hi_l = large.variables["k"].interval
    assert lo_l <= lo_s and hi_l >= hi_s


BIG = 2**53 + 1  # the least integer a float cannot hold


@pytest.mark.parametrize("init, actions", [
    pytest.param(BIG, [], id="init"),
    pytest.param(0, [{"kind": "stored", "step": "1", "var": "k", "value": f"k + {BIG}"}],
                 id="shift"),
])
def test_intervals_stay_exact_past_float_precision(tmp_path, capsys, init, actions):
    """Interval ends and execution counts are integers throughout: rounded to
    a float, ``hi`` would be 2**53 and the guard ``k = BIG`` unsatisfiable."""
    doc = {"name": "big",
           "variables": [{"name": "k", "kind": "internal", "type": "int", "init": init}],
           "partials": [{"id": "P", "steps": [{"id": "1", "initial": True}, {"id": "2"}],
                         "transitions": [{"id": "t1", "from": ["1"], "to": ["2"],
                                          "cond": f"k = {BIG}"}],
                         "actions": actions}]}
    path = tmp_path / "big.grafcet.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path), "--format", "json", "--no-timings"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["variables"]["k"]["hi"] == BIG
    assert not report["findings"]
    if not actions:
        facts = explore(parse_spec(doc), mode="semantic")
        assert "P.2" in facts.reachable and not facts.inconclusive


def _compare_with_reference(spec):
    """Bounds equal the recursive reference's on an acyclic hierarchy. On a
    cyclic one, an anchor bounded later in declaration order counts as
    unbounded, so a bound may only be coarser. Returns the analysis and
    whether the hierarchy is cyclic."""
    result = analyze_spec(spec)
    reference = bound_executions_reference(spec, result.invariants, result.results)
    cyclic = any(f.kind == "hierarchy-cycle" for f in result.findings)
    if not cyclic:
        assert result.bounds == reference, serialize(spec)
    for key, bound in reference.items():
        assert result.bounds[key].count >= bound.count, (key, serialize(spec))
    return result, cyclic


def _marked_chain(depth):
    """``depth`` partials, each after the first with three marked steps; each
    partial's m1 encloses the next, and the last stores ``k`` at m1, which
    so runs up to 3**(depth - 1) times."""
    partials = []
    for i in range(depth):
        steps = ([{"id": "m1", "initial": True}] if i == 0
                 else [{"id": f"m{j}", "marked": True} for j in (1, 2, 3)])
        p = {"id": f"P{i}", "steps": steps}
        if i + 1 < depth:
            p["enclosings"] = [{"step": "m1", "target": f"P{i + 1}"}]
        else:
            p["actions"] = [{"kind": "stored", "step": "m1", "var": "k", "value": "1"}]
        partials.append(p)
    return {"name": "marked-chain",
            "variables": [{"name": "k", "kind": "internal", "type": "int", "init": 0}],
            "partials": partials}


def _past_float_range(variant):
    """P0 with three initial steps, then P1..P323 with three marked steps
    each, every step of one enclosing the next: P323's steps run up to
    3 * 9**323 times, past the largest float. A root cycle R: r1 <-> r2.

    a: R.r1 also encloses P323, whose m1 stores ``k := k + 1``;
    b: R.r1 stores ``k := k + 1``, and so does P323's m1;
    c: only P323's m1 stores ``k := k + 1``; R's t1 reads ``k + m`` for an
       integer input m."""
    partials = [{"id": "P0", "steps": [{"id": f"m{j}", "initial": True} for j in (1, 2, 3)]}]
    partials += [{"id": f"P{i}", "steps": [{"id": f"m{j}", "marked": True} for j in (1, 2, 3)]}
                 for i in range(1, 324)]
    for i, p in enumerate(partials[:-1]):
        p["enclosings"] = [{"step": f"m{j}", "target": f"P{i + 1}"} for j in (1, 2, 3)]
    increment = {"kind": "stored", "step": "m1", "var": "k", "value": "k + 1"}
    partials[-1]["actions"] = [increment]
    root = {"id": "R", "steps": [{"id": "r1", "initial": True}, {"id": "r2"}],
            "transitions": [{"id": "t1", "from": ["r1"], "to": ["r2"]},
                            {"id": "t2", "from": ["r2"], "to": ["r1"]}]}
    variables = [{"name": "k", "kind": "internal", "type": "int", "init": 0}]
    if variant == "a":
        root["enclosings"] = [{"step": "r1", "target": "P323"}]
    elif variant == "b":
        root["actions"] = [{**increment, "step": "r1"}]
    else:
        root["transitions"][0]["cond"] = "k + m > 0"
        variables.append({"name": "m", "kind": "input", "type": "int"})
    return parse_spec({"name": "past-float-range", "variables": variables,
                       "partials": [*partials, root]})


def test_counts_past_the_float_range_stay_exact_or_infinite():
    # Adding math.inf to an int past the float range would raise OverflowError.
    result = analyze_spec(_past_float_range("a"))
    bound = result.bounds[("P323", 0)]
    assert (bound.count, bound.reasons) == (math.inf, ("unbounded-entry",))
    result = analyze_spec(_past_float_range("b"))
    assert result.bounds[("P323", 0)].count == 3 * 9**323
    assert result.variables["k"].to_dict()["hi"] == "+inf"
    result = analyze_spec(_past_float_range("c"))
    assert result.variables["k"].interval == (0, 3 * 9**323)
    assert not [f for f in result.findings if f.kind == "unsat-condition"]


def test_bounds_match_recursive_reference():
    for path in sorted(corpus_path("").glob("*.grafcet.json")):
        assert not _compare_with_reference(load_spec(path))[1]
    # 3**35 is past float precision: both counts must stay exact integers.
    result, _ = _compare_with_reference(parse_spec(_marked_chain(36)))
    assert result.bounds[("P35", 0)].count == 3**35 == 50031545098999707
    rng = random.Random(7)
    for _ in range(300):
        assert not _compare_with_reference(random_spec(rng))[1]
    rng = random.Random(2026)
    # A forcing order back into the encloser closes a cycle in 85 of these;
    # 3 of them get a coarser bound.
    for _ in range(300):
        _compare_with_reference(random_forcing_spec(rng))


def test_bounds_match_reference_on_random_hierarchies():
    rng = random.Random(15)
    acyclic = cyclic = weighted = 0
    for _ in range(700):
        result, is_cyclic = _compare_with_reference(random_hierarchy_spec(rng))
        if is_cyclic:
            cyclic += 1
            continue
        acyclic += 1
        entered = {pid for pid, rs in result.results.items()
                   if any(r.situation.source != "initial-steps" for r in rs)}
        weighted += any(0 < b.count < math.inf and pid in entered
                        for (pid, _), b in result.bounds.items())
    assert acyclic >= 500 and cyclic >= 100
    assert weighted >= 100  # specs with a finite bound in an entered partial


def _chain(depth, kind):
    """``depth`` one-step partials, each entering the next through an
    enclosing or a forcing order into its step; the last stores ``k``."""
    partials = []
    for i in range(depth):
        p = {"id": f"P{i}", "steps": [{"id": "1", "initial" if i == 0 else "marked": True}]}
        if i + 1 == depth:
            p["actions"] = [{"kind": "stored", "step": "1", "var": "k", "value": "1"}]
        elif kind == "enclosing":
            p["enclosings"] = [{"step": "1", "target": f"P{i + 1}"}]
        else:
            p["actions"] = [{"kind": "forcing", "step": "1", "target": f"P{i + 1}",
                             "situation": ["1"]}]
        partials.append(p)
    if kind == "forcing":
        partials.reverse()  # deepest first, so a lookup on demand recurses all the way
    return {"name": f"{kind}-chain",
            "variables": [{"name": "k", "kind": "internal", "type": "int", "init": 0}],
            "partials": partials}


@pytest.mark.parametrize("kind", ["enclosing", "forcing"])
def test_thousand_deep_chain_bounds_every_action_once(tmp_path, capsys, kind):
    doc = _chain(1000, kind)
    path = tmp_path / "chain.grafcet.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path), "--format", "json", "--no-timings"]) == 0
    bounds = json.loads(capsys.readouterr().out)["execution_bounds"]
    assert len(bounds) == (1 if kind == "enclosing" else 1000)
    assert {b["count"] for b in bounds.values()} == {1}
    # Resolving anchors by recursion runs out of stack on the same spec.
    spec = parse_spec(doc)
    result = analyze_spec(spec)
    with pytest.raises(RecursionError):
        bound_executions_reference(spec, result.invariants, result.results)
