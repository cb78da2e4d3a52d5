"""File-format parsing, schema errors and serialization round-trips."""

import hashlib
import json
import random
import re
from pathlib import Path

import pytest

from grafcet_lint import analyze_spec, ingest, load_spec, parse_spec, serialize
from grafcet_lint.checks import parse_queries
from grafcet_lint.ingest import (
    SpecSchemaError,
    SpecSemanticError,
    SpecSyntaxError,
)
from randspec import random_spec

MINIMAL = {
    "name": "m",
    "partials": [{"id": "P", "steps": [{"id": "1", "initial": True}]}],
}


def test_minimal_spec():
    spec = parse_spec(MINIMAL)
    assert spec.name == "m"
    assert spec.partials[0].initial == frozenset({"1"})


def test_digest_of_the_file_bytes_on_first_read(corpus):
    path = corpus("g_rit.grafcet.json")
    spec = load_spec(path)
    assert spec.source == path.read_bytes()
    assert "sha256" not in vars(spec)
    assert spec.sha256 == hashlib.sha256(path.read_bytes()).hexdigest()
    assert vars(spec)["sha256"] == spec.sha256
    doc = path.read_text(encoding="utf-8")
    for parsed in (parse_spec(doc), parse_spec(json.loads(doc))):
        assert parsed.source is None and parsed.sha256 is None
        assert parsed == spec


def test_invalid_json_reports_position():
    with pytest.raises(SpecSyntaxError, match="line 1"):
        parse_spec("{oops")


def test_unknown_top_level_field():
    with pytest.raises(SpecSchemaError, match="unknown field"):
        parse_spec({**MINIMAL, "extra": 1})


def test_queries_key_is_reserved_not_rejected():
    parse_spec({**MINIMAL, "queries": []})


def test_missing_partials():
    with pytest.raises(SpecSchemaError, match="partials"):
        parse_spec({"name": "m"})
    with pytest.raises(SpecSchemaError, match="non-empty"):
        parse_spec({"name": "m", "partials": []})


def test_wrong_field_type():
    with pytest.raises(SpecSchemaError, match="wrong type"):
        parse_spec({"name": 3, "partials": [{"id": "P", "steps": []}]})


def test_bad_variable_kind():
    doc = {**MINIMAL, "variables": [{"name": "v", "kind": "global", "type": "bool"}]}
    with pytest.raises(SpecSchemaError):
        parse_spec(doc)


def test_bad_condition_is_syntax_error():
    doc = json.loads(json.dumps(MINIMAL))
    doc["partials"][0]["transitions"] = [{"id": "t", "from": ["1"], "to": ["1"],
                                          "cond": "a &"}]
    with pytest.raises(SpecSyntaxError, match="bad condition"):
        parse_spec(doc)


def test_each_text_is_parsed_once_per_spec(monkeypatch):
    calls = []

    def counted(parser):
        def parse(text):
            calls.append((parser.__name__, text))
            return parser(text)
        return parse

    for name in ("parse_condition", "parse_arith"):
        monkeypatch.setattr(ingest, name, counted(getattr(ingest, name)))
    doc = {
        "name": "m",
        "variables": [{"name": "x", "kind": "input", "type": "bool"},
                      {"name": "k", "kind": "internal", "type": "int", "init": 0}],
        "partials": [{
            "id": "P", "steps": [{"id": "1", "initial": True}, {"id": "2"}],
            "transitions": [{"id": "t1", "from": ["1"], "to": ["2"], "cond": "x & k < 3"},
                            {"id": "t2", "from": ["2"], "to": ["1"], "cond": "x & k < 3"}],
            "actions": [{"kind": "stored", "step": s, "var": "k", "value": "k + 1",
                         "cond": "x & k < 3"} for s in ("1", "2")],
        }],
    }
    spec = parse_spec(doc)
    assert calls == [("parse_condition", "x & k < 3"), ("parse_arith", "k + 1")]
    t1, t2 = spec.partials[0].transitions
    assert t1.condition is t2.condition
    # A bad text fails where it first occurs, as it did before the memo.
    doc["partials"][0]["transitions"][0]["cond"] = "x &"
    doc["partials"][0]["actions"][1]["cond"] = "x &"
    with pytest.raises(SpecSyntaxError, match=re.escape(
            "<spec>: partials[0].transitions[0]: bad condition 'x &'")):
        parse_spec(doc)


def test_semantic_errors_carry_findings():
    doc = json.loads(json.dumps(MINIMAL))
    doc["partials"][0]["transitions"] = [{"id": "t", "from": ["1"], "to": ["zz"]}]
    with pytest.raises(SpecSemanticError) as exc:
        parse_spec(doc)
    assert any(f.kind == "model-error" for f in exc.value.findings)


def test_unknown_action_kind():
    doc = json.loads(json.dumps(MINIMAL))
    doc["partials"][0]["actions"] = [{"kind": "pulse", "step": "1"}]
    with pytest.raises(SpecSchemaError, match="unknown action kind"):
        parse_spec(doc)


def test_forcing_situation_forms():
    doc = json.loads(json.dumps(MINIMAL))
    doc["partials"].append({"id": "Q", "steps": [{"id": "q", "marked": True}]})
    doc["partials"][0]["actions"] = [
        {"kind": "forcing", "step": "1", "target": "Q", "situation": "*"}]
    spec = parse_spec(doc)
    assert spec.partials[0].forcings[0].situation == "*"
    doc["partials"][0]["actions"][0]["situation"] = "frozen"
    with pytest.raises(SpecSchemaError):
        parse_spec(doc)


@pytest.mark.parametrize("name", [
    "fig1", "fig2_g1", "fig2_g2", "fig2_g3", "fig2_g4", "fig2_g5",
    "fig2_g6", "fig2_g7", "fig2_g8", "fig4", "fig5", "g_rit",
])
def test_corpus_roundtrip(corpus, name):
    spec = load_spec(corpus(f"{name}.grafcet.json"))
    again = parse_spec(serialize(spec))
    assert again == spec


def test_random_specs_roundtrip():
    rng = random.Random(7)
    for _ in range(50):
        spec = random_spec(rng)
        assert parse_spec(serialize(spec)) == spec


def test_grouped_conditions_roundtrip():
    spec = parse_spec({
        "name": "grouped",
        "variables": [{"name": v, "kind": "input", "type": "bool"} for v in "abc"],
        "partials": [{
            "id": "P",
            "steps": [{"id": "1", "initial": True}, {"id": "2"}],
            "transitions": [{"id": "t1", "from": ["1"], "to": ["2"], "cond": "(a | b) | c"},
                            {"id": "t2", "from": ["2"], "to": ["1"], "cond": "a & (b & !c)"}],
        }],
    })
    assert parse_spec(serialize(spec)) == spec


def _readme_json_blocks():
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    return [json.loads(block) for block in re.findall(r"```json\n(.*?)```", text, re.S)]


def test_readme_examples_parse():
    [spec_doc] = [b for b in _readme_json_blocks() if "partials" in b]
    [query_doc] = [b for b in _readme_json_blocks() if "queries" in b]
    spec = parse_spec(spec_doc)
    assert analyze_spec(spec).findings == []
    assert [c.id for c in spec.partials] == ["G1", "G2", "G3"]
    assert spec.partial_map["G1"].enclosings == (("2", "G2"),)
    assert [type(a).__name__ for a in spec.partial_map["G1"].actions] == \
        ["StoredAction", "ForcingAction"]
    assert [q.kind for q in parse_queries(query_doc["queries"])] == \
        ["never-concurrent", "never-coactive"]
    # G3's continuous action on lamp has a cond, which serialize writes back.
    assert parse_spec(serialize(spec)) == spec
