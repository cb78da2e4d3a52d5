"""Mutation fuzzing of the corpus: whatever the input, ``analyze`` keeps the
exit-code contract (0 clean, 1 findings, 2 usage or input error) and raises
nothing.

Each example takes a corpus spec, or the rotary table's query sidecar, and
applies one to three mutations at paths chosen by walking down from the root
(in the sidecar, from a node below it): replace the value there, delete its
key, or duplicate it inside its list. The replacement pool holds values of
every JSON type, integers beyond the signed 64-bit range and beyond Python's
4,300-digit conversion limit, non-list values and ``null``.
"""

import contextlib
import copy
import io
import json

from conftest import corpus_path
from hypothesis import HealthCheck, given, settings, strategies as st

from grafcet_lint.cli import main

DOCS = {p.name: json.loads(p.read_text())
        for p in sorted(corpus_path("").glob("*.grafcet.json"))}

# json.dumps cannot write an integer of over 4,300 digits, so the document
# carries this placeholder string and the digits replace it in the text.
HUGE = "<5000-digit integer>"
POOL = [None, True, False, 0, -1, 2, 1.5, 2**63, 10**400 // 9, HUGE, "", "x", "*", "init",
        "k + 1", "XG1.1", [], [1], ["1"], {}, {"id": "1"}]


def _value(data):
    return copy.deepcopy(data.draw(st.sampled_from(POOL)))


def _children(node):
    if isinstance(node, dict):
        return list(node)
    if isinstance(node, list):
        return list(range(len(node)))
    return []


def _mutate(data, doc):
    """Apply one mutation at a path drawn from the root down; shallow paths are likelier."""
    parent, key = None, None
    node = doc
    while _children(node) and data.draw(st.booleans()):
        parent, key = node, data.draw(st.sampled_from(_children(node)))
        node = node[key]
    if parent is None:
        return _value(data)
    operation = data.draw(st.sampled_from(["replace", "delete", "duplicate"]))
    if operation == "delete" and isinstance(parent, dict):
        del parent[key]
    elif operation == "duplicate" and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(node))
    else:
        parent[key] = _value(data)
    return doc


def _assert_contract(data, path, doc, argv):
    path.write_text(json.dumps(doc).replace(json.dumps(HUGE), "7" * 5000))
    argv = argv + ["--no-timings"] + data.draw(
        st.sampled_from([[], ["--format", "json"], ["--naive"]]))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert len(err.getvalue().splitlines()) == 1


FUZZ = dict(deadline=None, derandomize=True, database=None,
            suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])


@settings(max_examples=150, **FUZZ)
@given(data=st.data())
def test_mutated_corpus_keeps_exit_code_contract(tmp_path, data):
    doc = copy.deepcopy(DOCS[data.draw(st.sampled_from(sorted(DOCS)))])
    for _ in range(data.draw(st.integers(1, 3))):
        doc = _mutate(data, doc)
    path = tmp_path / "spec.grafcet.json"
    _assert_contract(data, path, doc, ["analyze", str(path)])


def _positions(node):
    """(parent, key) of every node below ``node``."""
    for key in _children(node):
        yield node, key
        yield from _positions(node[key])


# Each example analyses the rotary table, so 100 examples (0.9 s on a 2-vCPU host).
@settings(max_examples=100, **FUZZ)
@given(data=st.data())
def test_mutated_queries_keep_exit_code_contract(tmp_path, data):
    doc = json.loads(corpus_path("g_rit.queries.json").read_text())
    # From the root, nine in ten examples replaced the whole document and ended
    # at "'queries' must be a list of objects"; so each mutation walks down
    # from a node drawn anywhere below the root.
    for _ in range(data.draw(st.integers(1, 3))):
        positions = list(_positions(doc))
        if positions:
            parent, key = data.draw(st.sampled_from(positions))
            parent[key] = _mutate(data, parent[key])
    path = tmp_path / "q.json"
    _assert_contract(data, path, doc, ["analyze", str(corpus_path("g_rit.grafcet.json")),
                                       "--queries", str(path)])
