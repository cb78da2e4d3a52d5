"""Condition parser, serializer and evaluators."""

import math

import pytest
from hypothesis import given, strategies as st

from grafcet_lint.conditions import (
    BOTH,
    Arith,
    BoolLit,
    Cmp,
    CondParseError,
    CondTypeError,
    Edge,
    NaryOp,
    Not,
    ONLY_FALSE,
    ONLY_TRUE,
    StepRef,
    Term,
    VarRef,
    abstract_eval,
    concrete_eval,
    parse_arith,
    parse_condition,
    to_text,
    typecheck,
    variables_read,
    walk,
)

TYPES = {"a": "bool", "b": "bool", "x": "bool", "k": "int", "n": "int"}
STEPS = {("G1", "2"), ("G2", "7")}


class TestParsing:
    def test_bare_variable(self):
        assert parse_condition("a") == VarRef("a")

    def test_literals(self):
        assert parse_condition("true") == BoolLit(True)
        assert parse_condition("false") == BoolLit(False)

    def test_edge_and_comparison(self):
        cond = parse_condition("re(x) & k >= 3")
        typecheck(cond, TYPES)
        assert cond == NaryOp("&", (
            Edge("re", VarRef("x")),
            Cmp(">=", Arith((Term(1, "k"),)), Arith((Term(3),))),
        ))

    def test_step_variable_and_negated_edge(self):
        cond = parse_condition("XG1.2 & !fe(b)")
        typecheck(cond, TYPES, STEPS)
        assert cond == NaryOp("&", (StepRef("G1", "2"), Not(Edge("fe", VarRef("b")))))

    def test_precedence_or_binds_weakest(self):
        cond = parse_condition("a | b & x")
        assert isinstance(cond, NaryOp) and cond.op == "|"
        assert cond.items[1] == NaryOp("&", (VarRef("b"), VarRef("x")))

    def test_parentheses(self):
        cond = parse_condition("(a | b) & x")
        assert cond.op == "&"

    def test_linear_expression(self):
        cond = parse_condition("2*k - n + 1 = 0")
        assert cond.left == Arith((Term(2, "k"), Term(-1, "n"), Term(1)))

    @pytest.mark.parametrize("text", [
        "", "a &", "re(", "re(3)", "k >", "((a)", "a b", "1 +", "@", "re(true)",
        pytest.param("(" * 3000 + "a" + ")" * 3000, id="deep-parentheses"),
        pytest.param("!" * 3000 + "a", id="deep-negation"),
    ])
    def test_syntax_errors(self, text):
        with pytest.raises(CondParseError):
            parse_condition(text)

    def test_error_position(self):
        with pytest.raises(CondParseError) as exc:
            parse_condition("a & $")
        assert exc.value.pos == 4

    def test_edge_of_integer_is_type_error(self):
        with pytest.raises(CondTypeError):
            typecheck(parse_condition("re(k)"), TYPES)

    def test_bool_in_arithmetic_is_type_error(self):
        with pytest.raises(CondTypeError):
            typecheck(parse_condition("a + 1 = 2"), TYPES)

    def test_unknown_variable(self):
        with pytest.raises(CondTypeError):
            typecheck(parse_condition("zz"), TYPES)

    def test_unknown_step(self):
        with pytest.raises(CondTypeError):
            typecheck(parse_condition("XG9.1"), TYPES, STEPS)

    def test_parse_arith(self):
        assert parse_arith("k + 1") == Arith((Term(1, "k"), Term(1)))
        assert parse_arith("-2*k") == Arith((Term(-2, "k"),))
        with pytest.raises(CondParseError):
            parse_arith("k >")


class TestWalk:
    def test_pre_order_left_to_right(self):
        cond = parse_condition("!a & (re(b) | XG1.2) & k = 1")
        re_b = Edge("re", VarRef("b"))
        either = NaryOp("|", (re_b, StepRef("G1", "2")))
        cmp = Cmp("=", Arith((Term(1, "k"),)), Arith((Term(1),)))
        assert list(walk(cond)) == [
            cond, Not(VarRef("a")), VarRef("a"), either, re_b, VarRef("b"),
            StepRef("G1", "2"), cmp,
        ]

    @pytest.mark.parametrize("text, message", [
        ("k & a + 1 = 2", "integer variable 'k' used as Boolean"),
        ("a + 1 = 2 & k", "Boolean variable 'a' used in arithmetic"),
        ("!(zz | k) & b", "undeclared variable 'zz'"),
        ("n + x = zz", "Boolean variable 'x' used in arithmetic"),
        ("XG9.1 | re(k)", "unknown step variable 'XG9.1'"),
    ])
    def test_typecheck_reports_first_violation_in_pre_order(self, text, message):
        with pytest.raises(CondTypeError) as exc:
            typecheck(parse_condition(text), TYPES, STEPS)
        assert str(exc.value) == message


class TestVariablesRead:
    def test_collects_names_and_steps(self):
        names, refs = variables_read(parse_condition("re(a) | XG1.2 & k = n"))
        assert names == {"a", "k", "n"}
        assert refs == {StepRef("G1", "2")}


# --- round-trip property ----------------------------------------------------

_names = st.sampled_from(["a", "b", "x"])
_ints = st.sampled_from(["k", "n"])


def _ariths():
    terms = st.one_of(
        st.builds(Term, st.integers(-9, 9).filter(bool), st.none()),
        st.builds(Term, st.integers(-9, 9).filter(bool), _ints),
    )
    return st.builds(Arith, st.lists(terms, min_size=1, max_size=3).map(tuple))


def _nary(op, items):
    # The parser flattens associative chains, so build in that canonical form.
    flat = []
    for item in items:
        if isinstance(item, NaryOp) and item.op == op:
            flat.extend(item.items)
        else:
            flat.append(item)
    return NaryOp(op, tuple(flat))


def _conditions():
    leaves = st.one_of(
        st.builds(BoolLit, st.booleans()),
        st.builds(VarRef, _names),
        st.builds(StepRef, st.sampled_from(["G1"]), st.sampled_from(["2", "s9"])),
        st.builds(Edge, st.sampled_from(["re", "fe"]), st.builds(VarRef, _names)),
        st.builds(Cmp, st.sampled_from(["=", "<>", "<", "<=", ">", ">="]),
                  _ariths(), _ariths()),
    )
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.builds(Not, children),
            st.builds(_nary, st.sampled_from(["&", "|"]),
                      st.lists(children, min_size=2, max_size=3)),
        ),
        max_leaves=8,
    )


@given(_conditions())
def test_roundtrip(cond):
    assert parse_condition(to_text(cond)) == cond


@given(st.text(max_size=30))
def test_parser_never_panics(text):
    try:
        parse_condition(text)
    except CondParseError:
        pass


# --- evaluation -------------------------------------------------------------

def _env(bools=None, ints=None):
    bools = bools or {}
    ints = ints or {}

    def env(ref):
        if isinstance(ref, StepRef):
            return bools.get(ref.text, BOTH)
        if ref.name in ints:
            return ints[ref.name]
        return bools.get(ref.name, BOTH)

    return env


class TestAbstractEval:
    def test_interval_comparison(self):
        cond = parse_condition("k = 7")
        assert abstract_eval(cond, _env(ints={"k": (0, 4)})) == ONLY_FALSE
        assert abstract_eval(cond, _env(ints={"k": (7, 7)})) == ONLY_TRUE
        assert abstract_eval(cond, _env(ints={"k": (0, 9)})) == BOTH

    def test_and_short_circuit(self):
        cond = parse_condition("a & k = 7")
        assert abstract_eval(cond, _env(ints={"k": (0, 4)})) == ONLY_FALSE

    def test_or(self):
        cond = parse_condition("a | true")
        assert abstract_eval(cond, _env()) == ONLY_TRUE

    def test_edge_of_constant_is_false(self):
        cond = parse_condition("re(a)")
        assert abstract_eval(cond, _env(bools={"a": ONLY_TRUE})) == ONLY_FALSE
        assert abstract_eval(cond, _env(bools={"a": BOTH})) == BOTH

    def test_strict_orders(self):
        assert abstract_eval(parse_condition("k < n"),
                             _env(ints={"k": (0, 2), "n": (3, 9)})) == ONLY_TRUE
        assert abstract_eval(parse_condition("k > n"),
                             _env(ints={"k": (0, 2), "n": (3, 9)})) == ONLY_FALSE


    def test_zero_coefficient_on_unbounded_variable(self):
        unbounded = _env(ints={"n": (-math.inf, math.inf)})
        assert abstract_eval(parse_condition("0*n = 1"), unbounded) == ONLY_FALSE
        assert abstract_eval(parse_condition("0*n < 1"), unbounded) == ONLY_TRUE


class TestConcreteEval:
    def test_arith_and_compare(self):
        cond = parse_condition("2*k + 1 >= n")
        lookup = lambda ref: {"k": 3, "n": 7}[ref.name]
        assert concrete_eval(cond, lookup) is True

    def test_edges_use_previous_cycle(self):
        cond = parse_condition("re(a)")
        now = lambda ref: True
        assert concrete_eval(cond, now, prev=lambda ref: False) is True
        assert concrete_eval(cond, now, prev=lambda ref: True) is False
        with pytest.raises(ValueError):
            concrete_eval(cond, now)


@given(_conditions(), st.booleans(), st.booleans(), st.booleans(),
       st.integers(-5, 5), st.integers(-5, 5))
def test_abstract_eval_overapproximates_concrete(cond, va, vb, vx, vk, vn):
    """Whatever a concrete valuation yields is contained in the abstract result."""
    vals = {"a": va, "b": vb, "x": vx, "k": vk, "n": vn}

    def lookup(ref):
        if isinstance(ref, StepRef):
            return va
        return vals[ref.name]

    def env(ref):
        if isinstance(ref, StepRef):
            return BOTH
        if ref.name in ("k", "n"):
            return (vals[ref.name], vals[ref.name])
        return frozenset({vals[ref.name]})

    # Previous-cycle values equal current ones, matching the single-value
    # abstraction (a constant variable can never produce an edge).
    concrete = concrete_eval(cond, lookup, prev=lookup)
    assert concrete in abstract_eval(cond, env)
