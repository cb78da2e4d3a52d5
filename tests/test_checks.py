"""Race detection, condition satisfiability and safety queries."""

import pytest

from grafcet_lint import analyze_spec, parse_spec
from grafcet_lint.checks import parse_queries, run_queries


def _kinds(result, kind, severity=None):
    return [f for f in result.findings
            if f.kind == kind and (severity is None or f.severity == severity)]


class TestRaces:
    @pytest.mark.parametrize("name, steps", [
        ("fig2_g1", ("G1.1", "G1.1")),
        ("fig2_g2", ("G2.1", "G2.2")),
        ("fig2_g3", ("G3.1", "G3.2")),
        ("fig2_g4", ("G4.2", "G4.3")),
        ("fig2_g5", ("G5.1", "G5.2")),
        ("fig2_g6", ("G6.2", "G6.3")),
    ])
    def test_intra_partial_races(self, load_fixture, name, steps):
        result = analyze_spec(load_fixture(f"{name}.grafcet.json"))
        races = _kinds(result, "race", "error")
        assert len(races) == 1
        assert dict(races[0].evidence)["steps"] == steps

    def test_sequential_loop_is_not_a_race(self, load_fixture):
        result = analyze_spec(load_fixture("fig2_g7.grafcet.json"))
        assert _kinds(result, "race") == []

    def test_cross_partial_race(self, load_fixture):
        result = analyze_spec(load_fixture("fig2_g8.grafcet.json"))
        races = _kinds(result, "race", "error")
        assert len(races) == 1
        assert dict(races[0].evidence)["steps"] == ("G7.2", "G8.2")

    def test_unreachable_writers_do_not_race(self):
        result = analyze_spec(parse_spec({
            "name": "t",
            "variables": [{"name": "k", "kind": "internal", "type": "int", "init": 0}],
            "partials": [{
                "id": "P",
                "steps": [{"id": "1", "initial": True}, {"id": "2", "initial": True},
                          {"id": "3"}],
                "actions": [
                    {"kind": "stored", "step": "1", "var": "k", "value": "0"},
                    {"kind": "stored", "step": "3", "var": "k", "value": "1"},
                ],
            }],
        }))
        assert _kinds(result, "race") == []

    def test_continuous_read_by_concurrent_stored_is_informational(self):
        result = analyze_spec(parse_spec({
            "name": "t",
            "variables": [
                {"name": "k", "kind": "internal", "type": "int", "init": 0},
                {"name": "o", "kind": "output", "type": "bool", "init": 0},
            ],
            "partials": [{
                "id": "P",
                "steps": [{"id": "1", "initial": True}, {"id": "2", "initial": True}],
                "actions": [
                    {"kind": "continuous", "step": "1", "var": "o"},
                    {"kind": "stored", "step": "2", "var": "k", "value": "k + 1",
                     "cond": "o"},
                ],
            }],
        }))
        # Races require two stored writers; reading a live continuous output
        # from a concurrent step is only worth a note.
        assert _kinds(result, "race", "error") == []


class TestConditions:
    def test_unsatisfiable_interval_condition(self, load_fixture):
        spec = parse_spec({
            "name": "t",
            "variables": [{"name": "k", "kind": "internal", "type": "int", "init": 0}],
            "partials": [{
                "id": "P",
                "steps": [{"id": "1", "initial": True}, {"id": "2"}],
                "transitions": [{"id": "t1", "from": ["1"], "to": ["2"],
                                 "cond": "k = 7"}],
            }],
        })
        result = analyze_spec(spec)
        unsat = _kinds(result, "unsat-condition", "error")
        assert len(unsat) == 1 and unsat[0].element == "t1"

    def test_unreachable_step_variable_is_unsat(self):
        result = analyze_spec(parse_spec({
            "name": "t",
            "partials": [{
                "id": "P",
                "steps": [{"id": "1", "initial": True}, {"id": "2"}, {"id": "3"}],
                "transitions": [
                    {"id": "t1", "from": ["1"], "to": ["1"], "cond": "XP.3"},
                ],
            }],
        }))
        assert len(_kinds(result, "unsat-condition", "error")) == 1
        assert len(_kinds(result, "unreachable-step", "warning")) == 2

    def test_zero_times_unbounded_input_is_unsat(self):
        # 0*n is 0 for every value of the unbounded input n, never 0 * inf.
        result = analyze_spec(parse_spec({
            "name": "t",
            "variables": [{"name": "n", "kind": "input", "type": "int"}],
            "partials": [{
                "id": "P",
                "steps": [{"id": "1", "initial": True}, {"id": "2"}],
                "transitions": [{"id": "t1", "from": ["1"], "to": ["2"],
                                 "cond": "0*n = 1"}],
            }],
        }))
        unsat = _kinds(result, "unsat-condition", "error")
        assert len(unsat) == 1 and unsat[0].element == "t1"

    def test_constant_true_condition_is_informational(self):
        result = analyze_spec(parse_spec({
            "name": "t",
            "partials": [{
                "id": "P",
                "steps": [{"id": "1", "initial": True}],
                "transitions": [{"id": "t1", "from": ["1"], "to": ["1"],
                                 "cond": "1 = 1"}],
            }],
        }))
        assert len(_kinds(result, "always-true-condition", "info")) == 1

    def test_input_driven_condition_is_fine(self, load_fixture):
        result = analyze_spec(load_fixture("fig1.grafcet.json"))
        assert _kinds(result, "unsat-condition") == []
        assert _kinds(result, "always-true-condition") == []


class TestQueries:
    def test_parse_queries_validates(self):
        with pytest.raises(ValueError, match="unknown kind"):
            parse_queries([{"kind": "sometimes"}])
        with pytest.raises(ValueError, match="steps"):
            parse_queries([{"kind": "never-concurrent", "steps": ["only-one"]}])
        with pytest.raises(ValueError, match="missing term"):
            parse_queries([{"kind": "never-coactive", "a": {"var": "v"}}])
        # A step is never concurrent with itself, so such a query would hold
        # whatever the spec says.
        with pytest.raises(ValueError, match="'steps' names 'c.s1' twice"):
            parse_queries([{"kind": "never-concurrent", "steps": ["c.s1", "c.s1"]}])
        # Nor does one variable ever hold two values at once.
        with pytest.raises(ValueError, match="terms 'a' and 'b' both name 'x'"):
            parse_queries([{"kind": "never-coactive", "a": {"var": "x", "value": True},
                            "b": {"var": "x", "value": False}}])

    def test_never_concurrent(self, load_fixture):
        # In the alternating loop G7, steps 1 and 2 are never simultaneously
        # active, so the query passes.
        g7 = load_fixture("fig2_g7.grafcet.json")
        g7_result = analyze_spec(g7)
        ok = parse_queries([{"name": "q", "kind": "never-concurrent",
                             "steps": ["G7.1", "G7.2"]}])
        assert run_queries(g7, g7_result.global_concurrency,
                           g7_result.global_reachable,
                           g7_result.variables, ok) == []
        spec = load_fixture("fig5.grafcet.json")
        result = analyze_spec(spec)
        bad = parse_queries([{"name": "q", "kind": "never-concurrent",
                              "steps": ["c.s3", "c.s4"]}])
        findings = run_queries(spec, result.global_concurrency, result.global_reachable,
                               result.variables, bad)
        assert [f.kind for f in findings] == ["query-violation"]

    def test_never_concurrent_unknown_step(self, load_fixture):
        spec = load_fixture("fig5.grafcet.json")
        result = analyze_spec(spec)
        q = parse_queries([{"kind": "never-concurrent", "steps": ["c.zz", "c.s1"]}])
        with pytest.raises(ValueError, match="unknown step"):
            run_queries(spec, result.global_concurrency, result.global_reachable,
                        result.variables, q)

    def test_never_coactive_default_vs_naive(self, load_fixture):
        spec = load_fixture("g_rit.grafcet.json")
        result = analyze_spec(spec)
        q = parse_queries([{"name": "q", "kind": "never-coactive",
                            "a": {"var": "rotateTable", "value": True},
                            "b": {"var": "stationMotion1", "value": True}}])
        args = (spec, result.global_concurrency, result.global_reachable,
                result.variables, q)
        assert run_queries(*args) == []
        naive = run_queries(*args, naive=True)
        assert [f.kind for f in naive] == ["query-violation"]
        assert "value-set approximation" in naive[0].message

    def test_never_coactive_real_violation(self, load_fixture):
        spec = load_fixture("g_rit.grafcet.json")
        result = analyze_spec(spec)
        q = parse_queries([{"name": "q", "kind": "never-coactive",
                            "a": {"var": "stationMotion1", "value": True},
                            "b": {"var": "stationMotion2", "value": True}}])
        findings = run_queries(spec, result.global_concurrency,
                               result.global_reachable, result.variables, q)
        assert [f.kind for f in findings] == ["query-violation"]

    def test_never_coactive_requires_bool(self, load_fixture):
        spec = load_fixture("fig5.grafcet.json")
        result = analyze_spec(spec)
        q = parse_queries([{"kind": "never-coactive",
                            "a": {"var": "k", "value": True},
                            "b": {"var": "x", "value": False}}])
        with pytest.raises(ValueError, match="Boolean"):
            run_queries(spec, result.global_concurrency, result.global_reachable,
                        result.variables, q, naive=True)




def _chain_spec(variables, actions):
    """One partial G: the cycle 1 -> 2 -> 3 -> 1, step 1 initial."""
    return parse_spec({
        "name": "persist",
        "variables": variables,
        "partials": [{
            "id": "G",
            "steps": [{"id": "1", "initial": True}, {"id": "2"}, {"id": "3"}],
            "transitions": [{"id": "t1", "from": ["1"], "to": ["2"]},
                            {"id": "t2", "from": ["2"], "to": ["3"]},
                            {"id": "t3", "from": ["3"], "to": ["1"]}],
            "actions": actions,
        }],
    })


def _coactive(spec, a, b, naive=False):
    """Findings of the query that ``a`` and ``b``, (var, value) pairs, never coincide."""
    result = analyze_spec(spec)
    q = parse_queries([{"name": "q", "kind": "never-coactive",
                        "a": {"var": a[0], "value": a[1]},
                        "b": {"var": b[0], "value": b[1]}}])
    return run_queries(spec, result.global_concurrency, result.global_reachable,
                       result.variables, q, naive=naive)


def _out(name, init=0):
    return {"name": name, "kind": "output", "type": "bool", "init": init}


def _stored(step, var):
    return {"kind": "stored", "step": step, "var": var, "value": "true"}


def _continuous(step, var):
    return {"kind": "continuous", "step": step, "var": var}


# Each literal below persists (a stored value, an init value, a continuous
# output's false value, an input), so it can hold while the other one does.
PERSISTING_LITERALS = [
    pytest.param([_out("a"), _out("b")], [_stored("2", "a"), _stored("3", "b")],
                 ("a", True), ("b", True), id="stored-at-sequential-steps"),
    pytest.param([_out("c", init=1), _out("d")], [_stored("2", "d")],
                 ("c", True), ("d", True), id="init-value"),
    pytest.param([_out("o"), _out("p")], [_continuous("2", "o"), _continuous("1", "p")],
                 ("o", False), ("p", True), id="continuous-false"),
    pytest.param([{"name": "x", "kind": "input", "type": "bool"}, _out("p")],
                 [_continuous("1", "p")], ("x", True), ("p", True), id="input"),
]


@pytest.mark.parametrize("naive", [False, True], ids=["refined", "naive"])
@pytest.mark.parametrize("variables, actions, a, b", PERSISTING_LITERALS)
def test_never_coactive_sees_persisting_literals(variables, actions, a, b, naive):
    findings = _coactive(_chain_spec(variables, actions), a, b, naive=naive)
    assert [f.kind for f in findings] == ["query-violation"]


def test_never_coactive_places_only_continuous_true_at_steps():
    spec = _chain_spec([_out("o"), _out("p")], [_continuous("2", "o"), _continuous("1", "p")])
    # o and p are written at sequential steps, so they are never both true ...
    assert _coactive(spec, ("o", True), ("p", True)) == []
    # ... but o is false at any time, also while p is true at step 1.
    [f] = _coactive(spec, ("o", False), ("p", True))
    assert f.message == ("query 'q': o=false (any time) and p=true (step G.1) "
                         "can hold simultaneously")
