"""``Record`` keeps the behaviour of the frozen dataclasses it replaced."""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import corpus_path

import grafcet_lint
from grafcet_lint import analyze_spec, load_spec
from grafcet_lint.checks import parse_queries
from grafcet_lint.conditions import BoolLit, NaryOp, Not, StepRef, Term, VarRef, parse_condition
from grafcet_lint.hierarchy import build_hierarchy
from grafcet_lint.model import GrafcetSpec, StoredAction, Transition
from grafcet_lint.record import Record


def _records(value, found):
    """The first record of each class reachable from ``value``."""
    if isinstance(value, Record):
        found.setdefault(type(value), value)
        children = [getattr(value, n) for n in value._fields]
    elif isinstance(value, dict):
        children = [*value, *value.values()]
    elif isinstance(value, (tuple, list, set, frozenset)):
        children = value
    else:
        return found
    for child in children:
        _records(child, found)
    return found


def _corpus_records():
    found = {}
    for path in sorted(corpus_path("").glob("*.grafcet.json")):
        spec = load_spec(path)
        result = analyze_spec(spec)
        _records([list(vars(result).values()), build_hierarchy(spec)[0]], found)
    sidecar = json.loads(corpus_path("g_rit.queries.json").read_text())
    # The corpus's conditions are single variables and negations.
    cond = parse_condition("XP.1 & (k + 1 >= 2 | true) & re(x)")
    return _records([parse_queries(sidecar["queries"]), cond], found)


def _hash(value):
    try:
        return hash(value)
    except TypeError:
        return TypeError


def test_every_record_class_matches_its_frozen_dataclass():
    found = _corpus_records()
    assert set(found) == {cls for cls in Record.__subclasses__()
                          if cls.__module__.startswith("grafcet_lint.")}
    for cls, record in found.items():
        values = [getattr(record, n) for n in cls._fields]
        twin_cls = dataclasses.make_dataclass(
            cls.__name__, [(n, object, dataclasses.field(compare=n not in cls._uncompared))
                           for n in cls._fields], frozen=True)
        twin = twin_cls(*values)
        assert repr(record) == repr(twin)
        assert record == cls(*values) and not record != cls(*values)
        assert record != twin and twin != record
        compared = tuple(v for n, v in zip(cls._fields, values) if n not in cls._uncompared)
        assert _hash(record) == _hash(twin) == _hash(compared), cls.__name__


def test_positional_keyword_and_default_construction():
    up, down = frozenset({"a"}), frozenset({"b"})
    t = Transition("t1", up, down)
    assert t == Transition(downstream=down, id="t1", upstream=up, condition=None)
    assert (t.id, t.upstream, t.downstream, t.condition) == ("t1", up, down, None)
    stored = StoredAction("s", "v", True)
    assert (stored.trigger, stored.condition) == ("activation", None)
    assert Term(3) == Term(coeff=3, var=None)


def test_missing_or_unknown_argument_is_a_type_error():
    with pytest.raises(TypeError, match="missing 1 required"):
        Transition("t1", frozenset())
    with pytest.raises(TypeError, match="unexpected keyword argument 'kind'"):
        VarRef(name="x", kind="input")
    with pytest.raises(TypeError):
        VarRef("x", "y")


def test_every_class_has_its_own_init_from_creation():
    for cls in Record.__subclasses__():
        assert "__init__" in vars(cls), cls.__name__

    class Base(Record):
        a: int

    class Derived(Base):
        a: int
        b: int = 2

    # Base compiles its __init__ first; Derived must not inherit it.
    assert Base(1).a == 1 and "__init__" in vars(Derived)
    assert vars(Derived(1)) == {"a": 1, "b": 2} and Derived(1, 3).b == 3
    with pytest.raises(TypeError, match="Base.__init__"):
        Base(1, 2)


def test_first_construction_errors_as_later_ones_do():
    # In a fresh process each construction below is its class's first, the
    # one that compiles its __init__; the retry runs the compiled one.
    src = str(Path(grafcet_lint.__file__).parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1])\n"
            "from grafcet_lint.conditions import VarRef\n"
            "from grafcet_lint.model import Transition\n"
            "for make in (lambda: Transition('t1', frozenset()),\n"
            "             lambda: VarRef(name='x', kind='input')):\n"
            "    for _ in range(2):\n"
            "        try:\n"
            "            make()\n"
            "        except TypeError as exc:\n"
            "            print(exc)\n"
            "print(Transition('t1', frozenset(), frozenset()).condition, VarRef('x').name)\n")
    proc = subprocess.run([sys.executable, "-S", "-c", code, src],
                          capture_output=True, text=True, check=True)
    missing = "Transition.__init__() missing 1 required positional argument: 'downstream'"
    unknown = "VarRef.__init__() got an unexpected keyword argument 'kind'"
    assert proc.stdout.splitlines() == [missing, missing, unknown, unknown, "None x"]


def test_assignment_and_deletion_raise_attribute_error():
    v = VarRef("x")
    with pytest.raises(AttributeError):
        v.name = "y"
    with pytest.raises(AttributeError):
        v.unknown = 1
    with pytest.raises(AttributeError):
        del v.name
    assert v == VarRef("x") and vars(v) == {"name": "x"}


def test_records_of_two_classes_with_equal_fields_differ():
    assert VarRef("x") != BoolLit("x")
    assert VarRef("x") != ("x",) and ("x",) != VarRef("x")
    assert VarRef("x").__eq__(BoolLit("x")) is NotImplemented
    assert len({VarRef("x"), BoolLit("x")}) == 2


def test_hash_is_the_hash_of_the_compared_fields():
    cond = NaryOp("&", (VarRef("a"), Not(StepRef("P", "1"))))
    same = NaryOp("&", (VarRef("a"), Not(StepRef("P", "1"))))
    assert cond == same and cond is not same
    assert hash(cond) == hash(("&", (VarRef("a"), Not(StepRef("P", "1")))))
    assert hash(Not(StepRef("P", "1"))) == hash((StepRef("P", "1"),))
    assert hash(StepRef("P", "1")) == hash(("P", "1"))
    assert cond != NaryOp("|", cond.items)


def test_spec_equality_ignores_queries_and_sha256():
    spec = load_spec(corpus_path("g_rit.grafcet.json"))
    fields = (spec.name, spec.inputs, spec.internals, spec.outputs, spec.partials)
    bare = GrafcetSpec(*fields)
    assert spec.sha256 is not None and bare.sha256 is None and bare.queries == ()
    assert bare == spec and hash(bare) == hash(spec)
    assert GrafcetSpec(*fields, queries=({"kind": "x"},), source=b"{}") == spec
    assert GrafcetSpec(spec.name + "'", *fields[1:]) != spec


def test_cached_property_on_a_record():
    spec = load_spec(corpus_path("fig5.grafcet.json"))
    partial = spec.partials[0]
    table = partial.downstream_of
    assert partial.downstream_of is table
    assert vars(partial)["downstream_of"] is table
    assert partial == type(partial)(*(getattr(partial, n) for n in partial._fields))
