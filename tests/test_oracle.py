"""Explicit-state exploration oracle."""

import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import randspec
from oracle_reference import enabled_reference, firing_subsets_reference

import grafcet_lint
from grafcet_lint import analyze_spec, parse_spec
from grafcet_lint.conditions import StepRef, VarRef
from grafcet_lint.oracle import (
    ENABLED_CAP,
    _enabled,
    _firing_subsets,
    _settle_hierarchy,
    _World,
    explore,
    explore_partial,
)


def test_linear_chain_no_pairs():
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
    facts = explore(spec)
    assert facts.reachable == {"P.1", "P.2", "P.3"}
    assert facts.pairs == set()
    assert not facts.inconclusive


def test_parallel_split_pairs():
    spec = parse_spec({
        "name": "split",
        "partials": [{
            "id": "P",
            "steps": [{"id": "1", "initial": True}, {"id": "2"}, {"id": "3"}],
            "transitions": [{"id": "t1", "from": ["1"], "to": ["2", "3"]}],
        }],
    })
    facts = explore(spec)
    assert frozenset({"P.2", "P.3"}) in facts.pairs
    assert frozenset({"P.1", "P.2"}) not in facts.pairs


def test_loop_values_hit_cap(load_fixture):
    spec = load_fixture("fig2_g7.grafcet.json")
    facts = explore(spec)
    # k := k + 1 in an endless loop: the oracle sees growing values and gives up.
    assert facts.inconclusive
    assert max(facts.var_values["k"]) >= 3


def test_fig5_counter_stays_within_analyzed_bound(load_fixture):
    spec = load_fixture("fig5.grafcet.json")
    facts = explore(spec, track_activations=("c.s5",))
    assert not facts.inconclusive
    # Step s5 never deactivates, so Boolean step semantics admit a single
    # activation; the structural bound of 4 is a sound over-approximation.
    assert 1 <= facts.activations["c.s5"] <= 4
    assert facts.var_values["k"] <= {0, 1, 2, 3, 4}


def test_activation_cap_makes_the_run_inconclusive():
    # P.a activates once per trip round a <-> b; the run gives up on the
    # trip that would count a 13th activation.
    spec = parse_spec({"name": "cycle", "partials": [{
        "id": "P",
        "steps": [{"id": "a", "initial": True}, {"id": "b"}],
        "transitions": [{"id": "t1", "from": ["a"], "to": ["b"]},
                        {"id": "t2", "from": ["b"], "to": ["a"]}],
    }]})
    facts = explore(spec, track_activations=("P.a",))
    assert facts.inconclusive
    assert facts.states_seen == 24
    assert facts.activations == {"P.a": 12}


def test_same_step_writers_conflict(load_fixture):
    spec = load_fixture("fig2_g1.grafcet.json")
    facts = explore(spec)
    assert frozenset({("G1", 0), ("G1", 1)}) in facts.conflicts


def test_sequential_writers_do_not_conflict(load_fixture):
    spec = load_fixture("fig2_g7.grafcet.json")
    facts = explore(spec)
    assert facts.conflicts == set()


def test_enclosing_activates_and_clears(load_fixture):
    spec = load_fixture("fig1.grafcet.json")
    facts = explore(spec)
    assert {"G0.0", "G0.1", "G1.2", "G1.3"} <= facts.reachable
    assert frozenset({"G0.1", "G1.2"}) in facts.pairs
    assert frozenset({"G0.0", "G1.2"}) not in facts.pairs


def test_anchor_enclosing_several_partials_activates_and_clears_all():
    spec = parse_spec({
        "name": "two-enclosings",
        "partials": [
            {"id": "A", "steps": [{"id": "1", "initial": True}, {"id": "2"}],
             "transitions": [{"id": "t1", "from": ["1"], "to": ["2"]},
                             {"id": "t2", "from": ["2"], "to": ["1"]}],
             "enclosings": [{"step": "2", "target": "B"}, {"step": "2", "target": "C"}]},
            {"id": "B", "steps": [{"id": "b", "marked": True}]},
            {"id": "C", "steps": [{"id": "c", "marked": True}]},
        ],
    })
    facts = explore(spec)
    assert not facts.inconclusive
    assert facts.reachable == {"A.1", "A.2", "B.b", "C.c"}
    assert frozenset({"B.b", "C.c"}) in facts.pairs
    # Leaving A.2 clears both enclosed partials.
    assert frozenset({"A.1", "B.b"}) not in facts.pairs
    assert frozenset({"A.1", "C.c"}) not in facts.pairs
    result = analyze_spec(spec)
    assert facts.reachable <= result.global_reachable
    for a, b in map(sorted, facts.pairs):
        assert b in result.global_concurrency.get(a, set())


def _chain(pid, steps, entry=None, *, enclosings=(), forcings=()):
    """A partial whose steps form a chain, with ``entry`` = {step: "initial"
    or "marked"}, enclosings as (step, target) and forcing orders as (step,
    target, situation)."""
    return {
        "id": pid,
        "steps": [{"id": s, **({entry[s]: True} if s in (entry or {}) else {})}
                  for s in steps],
        "transitions": [{"id": f"t{n}", "from": [a], "to": [b]}
                        for n, (a, b) in enumerate(zip(steps, steps[1:]))],
        "enclosings": [{"step": s, "target": t} for s, t in enclosings],
        "actions": [{"kind": "forcing", "step": s, "target": t, "situation": sit}
                    for s, t, sit in forcings],
    }


def test_forced_step_that_also_encloses_starts_its_enclosed_partial():
    # P1.a1 forces P2 into {s}; s encloses P3 and forces P4 into its initial
    # situation. Its forcing order must not hide s's activation from its
    # enclosing, so P3 starts at its marked step m.
    spec = parse_spec({"name": "forced-encloser", "partials": [
        _chain("P1", ["a1", "a2"], {"a1": "initial"}, forcings=[("a1", "P2", ["s"])]),
        _chain("P2", ["s", "u"], enclosings=[("s", "P3")], forcings=[("s", "P4", "init")]),
        _chain("P3", ["m", "n"], {"m": "marked"}),
        _chain("P4", ["i", "j"], {"i": "initial"}),
    ]})
    facts = explore(spec)
    assert not facts.inconclusive
    assert {"P3.m", "P3.n"} <= facts.reachable
    assert {"P3.m", "P3.n"} <= analyze_spec(spec).global_reachable


def test_clearing_a_forcing_encloser_clears_its_enclosed_partial():
    # P0 leaving s1 clears P1, and with P1.a the partial P2 that a encloses,
    # although a also forces P3.
    spec = parse_spec({"name": "cleared-encloser", "partials": [
        _chain("P1", ["b", "a"], {"b": "marked"}, enclosings=[("a", "P2")],
               forcings=[("a", "P3", "init")]),
        _chain("P2", ["m"], {"m": "marked"}),
        _chain("P3", ["i"], {"i": "initial"}),
        _chain("P0", ["s1", "s2"], {"s1": "initial"}, enclosings=[("s1", "P1")]),
    ]})
    facts = explore(spec)
    assert not facts.inconclusive
    assert frozenset({"P1.a", "P2.m"}) in facts.pairs
    assert frozenset({"P0.s2", "P2.m"}) not in facts.pairs
    assert "P2.m" not in analyze_spec(spec).global_concurrency.get("P0.s2", set())


def test_forcing_orders_that_fight_over_one_partial_never_settle():
    # P1.a forces P3 into {x} and P2.b forces it into {y}: while both anchors
    # are active, each round undoes the other order's work. A round in which
    # an order acts is never the last, even when it ends where it began.
    def spec(p2):
        return parse_spec({"name": "fight", "partials": [
            _chain("P1", ["a"], {"a": "initial"}, forcings=[("a", "P3", ["x"])]),
            p2,
            _chain("P3", ["x", "y"]),
        ]})

    both_initial = spec(_chain("P2", ["b"], {"b": "initial"},
                               forcings=[("b", "P3", ["y"])]))
    later = spec(_chain("P2", ["b0", "b"], {"b0": "initial"},
                        forcings=[("b", "P3", ["y"])]))
    for mode in ("structural", "semantic"):
        # The initial move never settles, so no state is seen.
        facts = explore(both_initial, mode=mode)
        assert facts.inconclusive and facts.states_seen == 0, mode
        assert facts.reachable == set(), mode
        # The move into P2.b is dropped; the initial state is all there is.
        facts = explore(later, mode=mode)
        assert facts.inconclusive and facts.states_seen == 1, mode
        assert facts.reachable == {"P1.a", "P2.b0", "P3.x"}, mode


def test_forcing_pins_target(load_fixture):
    spec = load_fixture("fig4.grafcet.json")
    facts = explore(spec)
    # The forcing order holds {s3, s4, s5} while main.m1 stays active, so
    # the forced partial cannot evolve past it.
    assert facts.reachable == {"main.m1", "c.s3", "c.s4", "c.s5"}


def test_explore_partial_ignores_hierarchy(load_fixture):
    spec = load_fixture("fig4.grafcet.json")
    facts = explore_partial(spec, "c", frozenset({"s3", "s4", "s5"}))
    assert facts.reachable == {f"c.{s}" for s in
                               ("s1", "s2", "s3", "s4", "s5", "s6")}
    assert frozenset({"c.s3", "c.s6"}) in facts.pairs


def test_deactivation_trigger():
    spec = parse_spec({
        "name": "t",
        "variables": [{"name": "k", "kind": "internal", "type": "int", "init": 0}],
        "partials": [{
            "id": "P",
            "steps": [{"id": "1", "initial": True}, {"id": "2"}],
            "transitions": [{"id": "t1", "from": ["1"], "to": ["2"]}],
            "actions": [{"kind": "stored", "step": "1", "var": "k", "value": "5",
                         "trigger": "deactivation"}],
        }],
    })
    facts = explore(spec)
    assert 5 in facts.var_values["k"]


def test_structural_mode_havocs_conditions():
    spec = parse_spec({
        "name": "t",
        "variables": [{"name": "x", "kind": "input", "type": "bool"}],
        "partials": [{
            "id": "P",
            "steps": [{"id": "1", "initial": True}, {"id": "2"}],
            "transitions": [{"id": "t1", "from": ["1"], "to": ["2"],
                             "cond": "x & !x"}],
        }],
    })
    assert "P.2" in explore(spec, mode="structural").reachable
    assert "P.2" not in explore(spec, mode="semantic").reachable


def test_semantic_mode_edges():
    spec = parse_spec({
        "name": "t",
        "variables": [{"name": "x", "kind": "input", "type": "bool"}],
        "partials": [{
            "id": "P",
            "steps": [{"id": "1", "initial": True}, {"id": "2"}],
            "transitions": [{"id": "t1", "from": ["1"], "to": ["2"],
                             "cond": "re(x)"}],
        }],
    })
    facts = explore(spec, mode="semantic")
    assert "P.2" in facts.reachable


def test_semantic_edge_on_an_unwritten_variable_never_fires():
    # No action writes k, so it keeps its init value 1 in every cycle and
    # re(k) never holds, as the analysis's unsat-condition finding says.
    spec = parse_spec({
        "name": "t",
        "variables": [{"name": "k", "kind": "internal", "type": "bool", "init": 1}],
        "partials": [{
            "id": "P",
            "steps": [{"id": "1", "initial": True}, {"id": "2"}],
            "transitions": [{"id": "t1", "from": ["1"], "to": ["2"], "cond": "re(k)"}],
        }],
    })
    assert explore(spec, mode="semantic").reachable == {"P.1"}
    assert [f.kind for f in analyze_spec(spec).findings] == ["unsat-condition"]


def test_semantic_mode_reads_step_variables():
    # t1 waits for XP.c, but P.c is reachable only through t1: semantic mode
    # evaluates the step variable and stays at P.a, structural mode havocs it.
    spec = parse_spec({"name": "t", "partials": [{
        "id": "P",
        "steps": [{"id": "a", "initial": True}, {"id": "b"}, {"id": "c"}],
        "transitions": [{"id": "t1", "from": ["a"], "to": ["b"], "cond": "XP.c"},
                        {"id": "t2", "from": ["b"], "to": ["c"]},
                        {"id": "t3", "from": ["c"], "to": ["a"]}],
    }]})
    facts = explore(spec, mode="semantic")
    assert facts.reachable == {"P.a"}
    assert not facts.inconclusive
    assert facts.states_seen == 1
    assert explore(spec).reachable == {"P.a", "P.b", "P.c"}


def test_semantic_mode_rejects_int_inputs():
    spec = parse_spec({
        "name": "t",
        "variables": [{"name": "n", "kind": "input", "type": "int"}],
        "partials": [{"id": "P", "steps": [{"id": "1", "initial": True}]}],
    })
    try:
        explore(spec, mode="semantic")
    except ValueError as exc:
        assert "integer inputs" in str(exc)
    else:
        raise AssertionError("expected ValueError")


def test_source_transition_reactivates_concurrently(load_fixture):
    spec = load_fixture("fig2_g5.grafcet.json")
    facts = explore(spec)
    # The source transition can re-activate step 1 while step 2 is active.
    assert frozenset({"G5.1", "G5.2"}) in facts.pairs


def test_edge_operands_are_found_at_any_depth():
    spec = parse_spec({
        "name": "t",
        "variables": [{"name": n, "kind": "input", "type": "bool"}
                      for n in ("a", "b", "c", "d", "e")]
                     + [{"name": "lamp", "kind": "output", "type": "bool"}],
        "partials": [{
            "id": "G1",
            "steps": [{"id": "1", "initial": True}, {"id": "2"}],
            "transitions": [
                {"id": "t1", "from": ["1"], "to": ["2"], "cond": "!(a & fe(b))"},
                {"id": "t2", "from": ["2"], "to": ["1"], "cond": "c | d & re(XG1.2)"},
            ],
            "actions": [{"kind": "continuous", "step": "2", "var": "lamp",
                         "cond": "!!re(e) | a"}],
        }],
    })
    world = _World(spec, list(spec.partials), "semantic")
    assert world.edge_operands == (VarRef("b"), StepRef("G1", "2"), VarRef("e"))


def test_facts_do_not_depend_on_the_hash_seed(tmp_path):
    # One firing triggers five stored actions, more than the oracle orders
    # exhaustively, so the two orders it tries must not follow string hashing.
    path = tmp_path / "fan-out.grafcet.json"
    path.write_text(json.dumps({
        "name": "fan-out",
        "variables": [{"name": "k", "kind": "internal", "type": "int", "init": 1}],
        "partials": [{
            "id": "P",
            "steps": [{"id": "s0", "initial": True}] + [{"id": f"a{i}"} for i in range(5)],
            "transitions": [{"id": "t", "from": ["s0"], "to": [f"a{i}" for i in range(5)]}],
            "actions": [{"kind": "stored", "step": f"a{i}", "var": "k", "value": value}
                        for i, value in enumerate(("k + 1", "k + k", "k - 3", "0 - k",
                                                   "k + k + k"))],
        }],
    }))
    src = str(Path(grafcet_lint.__file__).parents[1])
    outputs = set()
    for seed in ("1", "2", "3"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run([sys.executable, "-m", "grafcet_lint.cli", "oracle", str(path)],
                              capture_output=True, text=True, env=env, check=False)
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1, outputs


def test_initial_triggers_see_every_input_valuation():
    # The initial step stores f := true when x holds, and x may hold from the
    # first cycle on, so f takes both values, as the analysis says.
    spec = parse_spec({
        "name": "t",
        "variables": [{"name": "x", "kind": "input", "type": "bool"},
                      {"name": "f", "kind": "internal", "type": "bool", "init": 0}],
        "partials": [{
            "id": "P",
            "steps": [{"id": "1", "initial": True}],
            "actions": [{"kind": "stored", "step": "1", "var": "f", "value": "true",
                         "cond": "x"}],
        }],
    })
    for mode in ("structural", "semantic"):
        assert explore(spec, mode=mode).var_values["f"] == {0, 1}, mode
    assert analyze_spec(spec).variables["f"].values == {False, True}


def test_initial_state_is_stored_once():
    one_step = parse_spec({"name": "t", "partials": [
        {"id": "P", "steps": [{"id": "1", "initial": True}]}]})
    for mode in ("structural", "semantic"):
        assert explore(one_step, mode=mode).states_seen == 1, mode
    # With an edge operand the initial state has no history yet, unlike the
    # two stuttering states that remember x false and x true.
    edge = parse_spec({
        "name": "t",
        "variables": [{"name": "x", "kind": "input", "type": "bool"},
                      {"name": "f", "kind": "internal", "type": "bool", "init": 0}],
        "partials": [{
            "id": "P",
            "steps": [{"id": "1", "initial": True}],
            "actions": [{"kind": "stored", "step": "1", "var": "f", "value": "true",
                         "cond": "re(x)"}],
        }],
    })
    assert explore(edge, mode="structural").states_seen == 2
    assert explore(edge, mode="semantic").states_seen == 3


def _wide_spec():
    """Twelve initial steps in a ring, so more than ten transitions can be
    enabled at once; a source transition that only a marked step or the
    enclosing step wakes; a partial frozen by a forcing order."""
    ring = [f"w{i}" for i in range(12)]
    return parse_spec({"name": "wide", "partials": [
        {"id": "W", "steps": [{"id": s, "initial": True} for s in ring],
         "transitions": [{"id": f"t{i}", "from": [s], "to": [ring[i - 1]]}
                         for i, s in enumerate(ring)]
                        + [{"id": "ts", "from": [], "to": ["w0"]}],
         "enclosings": [{"step": "w0", "target": "E"}],
         "actions": [{"kind": "forcing", "step": "w1", "target": "F",
                      "situation": "init"}]},
        {"id": "E", "steps": [{"id": "e1", "marked": True}, {"id": "e2"}],
         "transitions": [{"id": "te", "from": [], "to": ["e2"]},
                         {"id": "te2", "from": ["e2"], "to": ["e1"]}]},
        {"id": "F", "steps": [{"id": "f1", "initial": True}, {"id": "f2"}],
         "transitions": [{"id": "tf", "from": ["f1"], "to": ["f2"]}]},
    ]})


def test_indexed_successors_match_full_scan_reference():
    """``_enabled`` visits only the transitions indexed under active steps,
    and ``_firing_subsets`` returns a list; both must give the reference's
    list in the reference's order, which is the oracle's search order."""
    rng = random.Random(18)
    specs = [_wide_spec()]
    specs += [randspec.random_spec(rng) for _ in range(100)]
    specs += [randspec.random_forcing_spec(rng) for _ in range(100)]
    specs += [randspec.random_hierarchy_spec(rng) for _ in range(100)]
    seen = Counter()
    for spec in specs:
        for mode in ("structural", "semantic"):
            world = _World(spec, list(spec.partials), mode)
            for _ in range(20):
                # Denser masks enable more transitions at once.
                active = 0
                for _ in range(rng.randint(1, 4)):
                    active |= rng.getrandbits(len(world.gids))
                vals = tuple(rng.randint(-2, 6) for _ in world.stored_vars)
                inputs = rng.choice(world.input_choices)
                enabled = enabled_reference(world, active, vals, None, inputs)
                assert _enabled(world, active, vals, None, inputs) == enabled
                assert _firing_subsets(enabled) == list(firing_subsets_reference(enabled))
                seen["more than 10 enabled"] += len(enabled) > 10
                for up, _down, hold, wake, _cond in world.transitions:
                    if active & up == up:
                        seen["held by a forcing order"] += bool(active & hold)
                        if wake:
                            seen["woken" if active & wake else "asleep"] += 1
    assert len(seen) == 4 and all(seen.values()), seen


def test_firing_subsets_match_reference_for_every_size():
    # Upstream steps drawn from five bits, sources (no upstream step)
    # included, so most lists hold transitions that share upstream steps;
    # past ENABLED_CAP the fallback meets both a conflicting and a disjoint
    # full set.
    rng = random.Random(23)
    for k in range(2, ENABLED_CAP + 2):
        lists = [[(rng.getrandbits(5) & rng.getrandbits(5), rng.getrandbits(8))
                  for _ in range(k)] for _ in range(30)]
        lists.append([(1 << i, 1 << i) for i in range(k)])
        for enabled in lists:
            assert _firing_subsets(enabled) == list(firing_subsets_reference(enabled)), enabled


def test_quiet_moves_need_no_settling():
    """A quiet move changes no watched step and no enclosing anchor, and no
    forcing anchor is active after it; ``_successors`` yields it without
    settling, so settling it must return the moved mask and no events."""
    rng = random.Random(23)
    specs = [randspec.random_spec(rng) for _ in range(60)]
    specs += [randspec.random_forcing_spec(rng) for _ in range(60)]
    specs += [randspec.random_hierarchy_spec(rng) for _ in range(60)]
    seen = Counter()
    for spec in specs:
        steps = [spec.global_step(c.id, s) for c in spec.partials for s in c.steps]
        for mode in ("structural", "semantic"):
            tracked = tuple(rng.sample(steps, rng.randint(0, 2)))
            try:
                world = _World(spec, list(spec.partials), mode, tracked)
            except ValueError:
                continue  # refused by semantic mode
            for _ in range(10):
                active = rng.getrandbits(len(world.gids)) & rng.getrandbits(len(world.gids))
                vals = tuple(rng.randint(-2, 6) for _ in world.stored_vars)
                inputs = rng.choice(world.input_choices)
                enabled = _enabled(world, active, vals, None, inputs)
                for up, down in _firing_subsets(enabled):
                    fired = (active & ~up) | down
                    forced = fired & world.forcing_anchors
                    if (active ^ fired) & world.noticed or forced:
                        seen["not quiet"] += 1
                        seen["forcing anchor active"] += bool(forced)
                    else:
                        seen["quiet"] += 1
                        assert _settle_hierarchy(world, active, fired) == (fired, [])
    assert len(seen) == 3 and all(seen.values()), seen


def test_product_of_cycles_in_closed_form():
    # Three initial cycles of 3, 4 and 5 steps, without hierarchy or stored
    # actions, so every firing is quiet. The product has 3 * 4 * 5 states,
    # and each step pairs with every step of the other two cycles:
    # 3 * 4 + 3 * 5 + 4 * 5 pairs.
    spec = parse_spec({"name": "cycles", "partials": [
        {"id": f"C{n}",
         "steps": [{"id": f"s{i}", "initial": i == 0} for i in range(n)],
         "transitions": [{"id": f"t{i}", "from": [f"s{i}"], "to": [f"s{(i + 1) % n}"]}
                         for i in range(n)]}
        for n in (3, 4, 5)]})
    facts = explore(spec)
    assert not facts.inconclusive
    assert facts.states_seen == 60
    assert len(facts.reachable) == 12
    assert len(facts.pairs) == 47


def test_more_enabled_transitions_than_searched_is_inconclusive():
    # Thirteen transitions are enabled in the initial state: ten self-loops,
    # t1 and t4 on a, and t2 on y. Past ten, only single firings and the
    # full set are tried; the full set conflicts on a, and t1 and t2 each
    # disable the other, so the pair (b, z) that t1 and t2 firing together
    # reach is missed. The run must say it is inconclusive.
    loops = [f"c{i}" for i in range(1, 11)]
    spec = parse_spec({"name": "wide-conflict", "partials": [{
        "id": "P",
        "steps": [{"id": s, "initial": True} for s in ["a", "y", *loops]]
                 + [{"id": s} for s in ("b", "z", "q")],
        "transitions": [{"id": f"t{s}", "from": [s], "to": [s]} for s in loops] + [
            {"id": "t1", "from": ["a"], "to": ["b"], "cond": "XP.y"},
            {"id": "t2", "from": ["y"], "to": ["z"], "cond": "XP.a"},
            {"id": "t4", "from": ["a"], "to": ["q"]},
        ],
    }]})
    facts = explore(spec, mode="semantic")
    assert frozenset({"P.b", "P.z"}) not in facts.pairs
    assert facts.inconclusive
    assert "P.z" in analyze_spec(spec).global_concurrency["P.b"]
