"""Model invariants: each well-formedness rule has a violating example."""

import pytest

from grafcet_lint import parse_spec
from grafcet_lint.ingest import SpecSemanticError
from grafcet_lint.model import GrafcetSpec, PartialGrafcet, validate


def _base():
    return {
        "name": "t",
        "variables": [
            {"name": "x", "kind": "input", "type": "bool"},
            {"name": "k", "kind": "internal", "type": "int", "init": 0},
            {"name": "f", "kind": "internal", "type": "bool", "init": 0},
            {"name": "o", "kind": "output", "type": "bool", "init": 0},
        ],
        "partials": [
            {
                "id": "P",
                "steps": [{"id": "1", "initial": True}, {"id": "2"}],
                "transitions": [{"id": "t1", "from": ["1"], "to": ["2"]}],
            },
            {"id": "Q", "steps": [{"id": "q", "marked": True}]},
        ],
    }


def _errors(doc):
    with pytest.raises(SpecSemanticError) as exc:
        parse_spec(doc)
    return [f.message for f in exc.value.findings]


def test_valid_base_has_no_findings():
    assert validate(parse_spec(_base())) == []


def test_duplicate_variable():
    doc = _base()
    doc["variables"].append({"name": "x", "kind": "input", "type": "bool"})
    assert any("duplicate variable" in m for m in _errors(doc))


def test_input_with_init():
    doc = _base()
    doc["variables"][0]["init"] = 1
    assert any("must not declare an init" in m for m in _errors(doc))


def test_bool_init_out_of_range():
    doc = _base()
    doc["variables"][2]["init"] = 2
    assert any("outside" in m for m in _errors(doc))


def test_duplicate_partial_and_step_ids():
    doc = _base()
    doc["partials"].append(dict(doc["partials"][0]))
    assert any("duplicate partial" in m for m in _errors(doc))
    doc = _base()
    doc["partials"][0]["steps"].append({"id": "1"})
    assert any("duplicate step" in m for m in _errors(doc))


def test_partial_id_must_not_contain_a_dot():
    # A.b.c would name both A's step b.c and A.b's step c, two steps that
    # are never active together; a shared id made them look like a race.
    doc = {
        "name": "t",
        "variables": [{"name": "k", "kind": "internal", "type": "bool", "init": 0}],
        "partials": [
            {"id": "A", "steps": [{"id": "s", "initial": True}, {"id": "b.c"}],
             "transitions": [{"id": "t1", "from": ["s"], "to": ["b.c"]}],
             "enclosings": [{"step": "s", "target": "A.b"}],
             "actions": [{"kind": "stored", "step": "b.c", "var": "k", "value": "true"}]},
            {"id": "A.b", "steps": [{"id": "c", "marked": True}],
             "actions": [{"kind": "stored", "step": "c", "var": "k", "value": "false"}]},
        ],
    }
    with pytest.raises(SpecSemanticError) as exc:
        parse_spec(doc)
    assert [(f.kind, f.partial, f.message) for f in exc.value.findings] == [
        ("model-error", "A.b", "partial Grafcet id 'A.b' must not contain '.'")]
    # Step ids may keep their dots.
    doc["partials"][1]["id"] = "Ab"
    doc["partials"][0]["enclosings"][0]["target"] = "Ab"
    assert validate(parse_spec(doc)) == []


def test_initial_and_marked_steps_must_be_steps():
    # A spec file cannot break these rules: ingest builds both sets from the
    # step list. So the model is built directly.
    spec = parse_spec(_base())
    p = spec.partials[0]
    for field in ("initial", "marked"):
        fields = {n: getattr(p, n) for n in p._fields}
        fields[field] = frozenset({"1", "zz"})
        broken = GrafcetSpec(**{**{n: getattr(spec, n) for n in spec._fields},
                                "partials": (PartialGrafcet(**fields), *spec.partials[1:])})
        assert [f.message for f in validate(broken)] == [f"{field} step 'zz' is not a step"]


def test_enclosing_rules():
    doc = _base()
    doc["partials"][0]["enclosings"] = [{"step": "zz", "target": "Q"}]
    assert any("enclosing step" in m for m in _errors(doc))
    doc = _base()
    doc["partials"][0]["enclosings"] = [{"step": "1", "target": "P"}]
    assert any("cannot enclose itself" in m for m in _errors(doc))
    doc = _base()
    doc["partials"][0]["enclosings"] = [{"step": "1", "target": "ZZ"}]
    assert any("not a partial Grafcet" in m for m in _errors(doc))


def test_transition_rules():
    doc = _base()
    doc["partials"][0]["transitions"].append({"id": "t1", "from": ["2"], "to": ["1"]})
    assert any("duplicate transition" in m for m in _errors(doc))
    doc = _base()
    doc["partials"][0]["transitions"].append({"id": "t2", "from": [], "to": []})
    assert any("empty transition" in m for m in _errors(doc))
    doc = _base()
    doc["partials"][0]["transitions"][0]["to"] = ["zz"]
    assert any("unknown step" in m for m in _errors(doc))


def test_continuous_action_targets():
    doc = _base()
    doc["partials"][0]["actions"] = [{"kind": "continuous", "step": "1", "var": "k"}]
    assert any("Boolean output" in m for m in _errors(doc))
    doc = _base()
    doc["partials"][0]["actions"] = [{"kind": "continuous", "step": "1", "var": "zz"}]
    assert any("undeclared" in m for m in _errors(doc))


def test_stored_action_targets():
    doc = _base()
    doc["partials"][0]["actions"] = [
        {"kind": "stored", "step": "1", "var": "x", "value": "true"}]
    assert any("internal or output" in m for m in _errors(doc))
    doc = _base()
    doc["partials"][0]["actions"] = [
        {"kind": "stored", "step": "1", "var": "f", "value": "k + 1"}]
    assert any("must be a literal" in m for m in _errors(doc))
    doc = _base()
    doc["partials"][0]["actions"] = [
        {"kind": "stored", "step": "1", "var": "k", "value": "true"}]
    assert any("integer expression" in m for m in _errors(doc))
    doc = _base()
    doc["partials"][0]["actions"] = [
        {"kind": "stored", "step": "1", "var": "k", "value": "0", "trigger": "edge"}]
    assert any("unknown trigger" in m for m in _errors(doc))
    doc = _base()
    doc["partials"][0]["actions"] = [
        {"kind": "stored", "step": "zz", "var": "k", "value": "0"}]
    assert any("action attached to unknown step 'zz'" in m for m in _errors(doc))


def test_forcing_rules():
    doc = _base()
    doc["partials"][0]["actions"] = [
        {"kind": "forcing", "step": "1", "target": "P", "situation": "init"}]
    assert any("cannot force itself" in m for m in _errors(doc))
    doc = _base()
    doc["partials"][0]["actions"] = [
        {"kind": "forcing", "step": "1", "target": "ZZ", "situation": "init"}]
    assert any("forcing targets unknown partial Grafcet 'ZZ'" in m for m in _errors(doc))
    doc = _base()
    doc["partials"][0]["actions"] = [
        {"kind": "forcing", "step": "1", "target": "Q", "situation": ["zz"]}]
    assert any("unknown step" in m for m in _errors(doc))


def test_continuous_and_stored_overlap():
    doc = _base()
    doc["partials"][0]["actions"] = [
        {"kind": "continuous", "step": "1", "var": "o"},
        {"kind": "stored", "step": "2", "var": "o", "value": "true"},
    ]
    assert any("both continuous and stored" in m for m in _errors(doc))


def test_condition_checks():
    doc = _base()
    doc["partials"][0]["transitions"][0]["cond"] = "zz"
    assert any("undeclared variable" in m for m in _errors(doc))
    doc = _base()
    doc["partials"][0]["transitions"][0]["cond"] = "XP.9"
    assert any("unknown step variable" in m for m in _errors(doc))
    doc = _base()
    doc["partials"][0]["transitions"][0]["cond"] = "re(k)"
    assert any("integer variable" in m for m in _errors(doc))
    doc = _base()
    doc["partials"][0]["actions"] = [
        {"kind": "stored", "step": "1", "var": "k", "value": "f + 1"}]
    assert any("used in arithmetic" in m for m in _errors(doc))
    doc = _base()
    doc["partials"][0]["actions"] = [
        {"kind": "stored", "step": "1", "var": "k", "value": "zz + 1"}]
    assert any("stored value" in m and "undeclared variable 'zz'" in m for m in _errors(doc))
