"""Condition expression trees: parsing, serialization and evaluation.

The ASCII grammar used in ``.grafcet.json`` files:

    expr   := or
    or     := and ("|" and)*
    and    := unary ("&" unary)*
    unary  := "!" unary | atom
    atom   := comparison | boolref | "(" expr ")" | "re(" boolref ")" | "fe(" boolref ")"
    comparison := sum ("="|"<>"|"<"|"<="|">"|">=") sum
    sum    := term (("+"|"-") term)*
    term   := ["-"] (INT ["*" var] | var)

Step-activity variables are written ``X<partial>.<step>`` (e.g. ``XG1.2``);
the step id must be made of letters, digits and ``_``, so a step whose id
holds ``.`` or ``-`` (both allowed in step ids) cannot be named here.
Edge events use ``re(x)`` / ``fe(x)`` for rising / falling edges.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable, Iterator, Mapping

from .record import Record

__all__ = [
    "Arith",
    "BoolLit",
    "Cmp",
    "CondParseError",
    "CondTypeError",
    "Condition",
    "Edge",
    "Interval",
    "Not",
    "NaryOp",
    "StepRef",
    "Term",
    "VarRef",
    "abstract_eval",
    "arith_to_text",
    "concrete_eval",
    "parse_arith",
    "parse_condition",
    "to_text",
    "typecheck",
    "variables_read",
    "walk",
]


class CondParseError(ValueError):
    """Lexical or syntactic error in a condition string."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class CondTypeError(ValueError):
    """Type error in a condition (e.g. an edge of an integer variable)."""


class BoolLit(Record):
    value: bool


class VarRef(Record):
    name: str


class StepRef(Record):
    partial: str
    step: str

    @property
    def text(self) -> str:
        return f"X{self.partial}.{self.step}"


class Term(Record):
    """One summand of a linear integer expression: coeff * var, or a constant."""

    coeff: int
    var: str | None = None


class Arith(Record):
    """A linear integer expression, kept as an ordered sum of terms."""

    terms: tuple[Term, ...]

    def constant_value(self) -> int | None:
        """The expression's value if it reads no variables, else None."""
        if any(t.var is not None for t in self.terms):
            return None
        return sum(t.coeff for t in self.terms)


class Cmp(Record):
    op: str  # one of = <> < <= > >=
    left: Arith
    right: Arith


class Not(Record):
    operand: "Condition"


class NaryOp(Record):
    """n-ary conjunction ('&') or disjunction ('|')."""

    op: str
    items: tuple["Condition", ...]


class Edge(Record):
    kind: str  # 're' or 'fe'
    operand: VarRef | StepRef


Condition = BoolLit | VarRef | StepRef | Cmp | Not | NaryOp | Edge

_CMP_OPS = ("<=", ">=", "<>", "=", "<", ">")

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<int>\d+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z0-9_]+)?)"
    r"|(?P<op><=|>=|<>|[()&|!=<>+\-*])"
)


def _tokenize(text: str) -> Iterator[tuple[str, str, int]]:
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise CondParseError(f"unexpected character {text[pos]!r}", pos)
        pos = m.end()
        if m.lastgroup == "ws":
            continue
        yield m.lastgroup, m.group(), m.start()
    yield "eof", "", len(text)


# Deepest nesting of parentheses and negations; the parser and the evaluators
# recurse a few frames per level, far below the interpreter's recursion limit.
MAX_NESTING = 100

# Integer literals and init values must fit IEC 61131-3's LINT (signed 64-bit).
INT_MIN, INT_MAX = -2**63, 2**63 - 1


class _Parser:
    def __init__(self, text: str):
        self.tokens = list(_tokenize(text))
        self.i = 0
        self.depth = 0

    @property
    def cur(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def accept(self, value: str) -> bool:
        kind, val, _ = self.cur
        if kind == "op" and val == value:
            self.i += 1
            return True
        return False

    def expect(self, value: str) -> None:
        kind, val, pos = self.cur
        if kind != "op" or val != value:
            raise CondParseError(f"expected {value!r}, found {val or 'end of input'!r}", pos)
        self.i += 1

    # expr := or
    def parse_expr(self) -> Condition:
        return self._chain("|", self.parse_and)

    def parse_and(self) -> Condition:
        return self._chain("&", self.parse_unary)

    def _chain(self, op: str, parse_item: Callable[[], Condition]) -> Condition:
        items = [parse_item()]
        while self.accept(op):
            items.append(parse_item())
        if len(items) == 1:
            return items[0]
        # Only a parenthesised group can be a chain of the same operator;
        # splicing it in keeps the tree flat, as ``to_text`` prints it.
        return NaryOp(op, tuple(x for item in items for x in (
            item.items if isinstance(item, NaryOp) and item.op == op else (item,))))

    def parse_unary(self) -> Condition:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise CondParseError(f"nesting deeper than {MAX_NESTING} levels", self.cur[2])
        node = Not(self.parse_unary()) if self.accept("!") else self.parse_atom()
        self.depth -= 1
        return node

    def parse_atom(self) -> Condition:
        kind, val, start = self.cur
        if kind == "op" and val == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if kind == "ident" and val in ("re", "fe"):
            self.advance()
            self.expect("(")
            ref = self._parse_boolref()
            self.expect(")")
            return Edge(val, ref)
        if kind == "ident" and val in ("true", "false"):
            self.advance()
            return BoolLit(val == "true")
        if kind == "ident" and "." in val:
            # Dotted names are step-activity variables, always Boolean.
            self.advance()
            return self._to_ref(val, start)
        # Either a comparison or a bare Boolean reference; decide by lookahead.
        left = self.parse_sum()
        kind, val, pos = self.cur
        if kind == "op" and val in _CMP_OPS:
            self.advance()
            right = self.parse_sum()
            return Cmp(val, left, right)
        if len(left.terms) == 1 and left.terms[0].var is not None and left.terms[0].coeff == 1:
            return self._to_ref(left.terms[0].var, start)
        raise CondParseError("expected a comparison operator", pos)

    def _parse_boolref(self) -> VarRef | StepRef:
        kind, val, pos = self.cur
        if kind != "ident" or val in ("re", "fe", "true", "false"):
            raise CondParseError("expected a variable reference", pos)
        self.advance()
        return self._to_ref(val, pos)

    @staticmethod
    def _to_ref(name: str, pos: int) -> VarRef | StepRef:
        if "." in name:
            if not name.startswith("X"):
                raise CondParseError(f"dotted name {name!r} is not a step reference", pos)
            partial, step = name[1:].split(".", 1)
            return StepRef(partial, step)
        return VarRef(name)

    def parse_sum(self) -> Arith:
        terms = [self.parse_term()]
        while True:
            if self.accept("+"):
                terms.append(self.parse_term())
            elif self.accept("-"):
                t = self.parse_term()
                terms.append(Term(-t.coeff, t.var))
            else:
                break
        return Arith(tuple(terms))

    def parse_term(self) -> Term:
        sign = -1 if self.accept("-") else 1
        kind, val, pos = self.cur
        if kind == "int":
            self.advance()
            # More than 19 significant digits is out of range; int() refuses
            # strings of over 4,300 digits, so test the length first.
            if len(val.lstrip("0")) > 19 or not INT_MIN <= sign * int(val) <= INT_MAX:
                raise CondParseError("integer literal outside the signed 64-bit range", pos)
            coeff = sign * int(val)
            if self.accept("*"):
                kind, val, pos = self.cur
                if kind != "ident" or "." in val:
                    raise CondParseError("expected a variable after '*'", pos)
                self.advance()
                return Term(coeff, val)
            return Term(coeff, None)
        if kind == "ident" and val not in ("re", "fe", "true", "false"):
            if "." in val:
                raise CondParseError("step variables are Boolean, not integers", pos)
            self.advance()
            return Term(sign, val)
        raise CondParseError(f"expected a term, found {val or 'end of input'!r}", pos)


def parse_condition(text: str) -> Condition:
    """Parse a condition string into an expression tree."""
    parser = _Parser(text)
    cond = parser.parse_expr()
    kind, val, pos = parser.cur
    if kind != "eof":
        raise CondParseError(f"trailing input {val!r}", pos)
    return cond


def parse_arith(text: str) -> Arith:
    """Parse a linear integer expression (a stored action's value)."""
    parser = _Parser(text)
    expr = parser.parse_sum()
    kind, val, pos = parser.cur
    if kind != "eof":
        raise CondParseError(f"trailing input {val!r}", pos)
    return expr


def walk(cond: Condition) -> Iterator[Condition]:
    """Every node of a condition tree in pre-order, left to right.

    A ``Not``'s or an ``Edge``'s operand and a ``NaryOp``'s items are visited.
    Every other node, a ``Cmp`` included, is a leaf; callers read a ``Cmp``'s
    ``left`` and ``right`` themselves.
    """
    stack = [cond]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (Not, Edge)):
            stack.append(node.operand)
        elif isinstance(node, NaryOp):
            stack.extend(reversed(node.items))


def typecheck(
    expr: Condition | Arith,
    types: Mapping[str, str],
    steps: "set[tuple[str, str]] | None" = None,
) -> None:
    """Verify Boolean/integer discipline and that every name is declared in
    ``types`` (and each step reference in ``steps``, if given); raises
    CondTypeError on the first violation in pre-order."""

    def var_type(name: str) -> str:
        if name not in types:
            raise CondTypeError(f"undeclared variable {name!r}")
        return types[name]

    for node in walk(expr):  # an Arith is a one-node tree
        if isinstance(node, VarRef):
            if var_type(node.name) != "bool":
                raise CondTypeError(f"integer variable {node.name!r} used as Boolean")
        elif isinstance(node, StepRef):
            if steps is not None and (node.partial, node.step) not in steps:
                raise CondTypeError(f"unknown step variable {node.text!r}")
        elif isinstance(node, (Cmp, Arith)):
            terms = node.left.terms + node.right.terms if isinstance(node, Cmp) else node.terms
            for term in terms:
                if term.var is not None and var_type(term.var) != "int":
                    raise CondTypeError(f"Boolean variable {term.var!r} used in arithmetic")


def variables_read(cond: Condition) -> tuple[set[str], set[StepRef]]:
    """All variable names and step references occurring in a condition."""
    names: set[str] = set()
    refs: set[StepRef] = set()
    for node in walk(cond):
        if isinstance(node, VarRef):
            names.add(node.name)
        elif isinstance(node, StepRef):
            refs.add(node)
        elif isinstance(node, Cmp):
            names.update(t.var for t in node.left.terms + node.right.terms if t.var is not None)
    return names, refs


# --- serialization ---------------------------------------------------------

def arith_to_text(expr: Arith) -> str:
    parts: list[str] = []
    for i, term in enumerate(expr.terms):
        coeff, var = term.coeff, term.var
        if i == 0:
            sign = "-" if coeff < 0 else ""
        else:
            sign = " - " if coeff < 0 else " + "
        mag = abs(coeff)
        if var is None:
            body = str(mag)
        elif mag == 1:
            body = var
        else:
            body = f"{mag}*{var}"
        parts.append(sign + body)
    return "".join(parts)


def to_text(cond: Condition) -> str:
    """Render a condition back to the grammar's concrete syntax."""
    if isinstance(cond, BoolLit):
        return "true" if cond.value else "false"
    if isinstance(cond, VarRef):
        return cond.name
    if isinstance(cond, StepRef):
        return cond.text
    if isinstance(cond, Edge):
        return f"{cond.kind}({to_text(cond.operand)})"
    if isinstance(cond, Cmp):
        return f"{arith_to_text(cond.left)} {cond.op} {arith_to_text(cond.right)}"
    if isinstance(cond, Not):
        inner = to_text(cond.operand)
        if isinstance(cond.operand, (NaryOp, Cmp)):
            inner = f"({inner})"
        return f"!{inner}"
    if isinstance(cond, NaryOp):
        parts = []
        for item in cond.items:
            text = to_text(item)
            if isinstance(item, NaryOp) and cond.op == "&" and item.op == "|":
                text = f"({text})"
            elif isinstance(item, Cmp) and cond.op in ("&", "|"):
                text = f"({text})"
            parts.append(text)
        return f" {cond.op} ".join(parts)
    raise TypeError(f"not a condition node: {cond!r}")


# --- evaluation ------------------------------------------------------------

Interval = tuple[float, float]  # ends are ints or +-inf
BOTH = frozenset({False, True})
ONLY_TRUE = frozenset({True})
ONLY_FALSE = frozenset({False})


def abstract_eval(cond: Condition, env: Callable[[VarRef | StepRef], object]) -> frozenset:
    """Three-valued evaluation over abstract values.

    ``env`` maps a VarRef/StepRef to either a frozenset of bools (Boolean
    variables) or an (lo, hi) interval (integer variables). Returns the set
    of Boolean outcomes the condition can take.
    """
    if isinstance(cond, BoolLit):
        return frozenset({cond.value})
    if isinstance(cond, (VarRef, StepRef)):
        value = env(cond)
        assert isinstance(value, frozenset)
        return value
    if isinstance(cond, Not):
        return frozenset({not v for v in abstract_eval(cond.operand, env)})
    if isinstance(cond, NaryOp):
        results = [abstract_eval(item, env) for item in cond.items]
        if cond.op == "&":
            if any(r == ONLY_FALSE for r in results):
                return ONLY_FALSE
            if all(r == ONLY_TRUE for r in results):
                return ONLY_TRUE
            return BOTH
        if any(r == ONLY_TRUE for r in results):
            return ONLY_TRUE
        if all(r == ONLY_FALSE for r in results):
            return ONLY_FALSE
        return BOTH
    if isinstance(cond, Edge):
        operand = abstract_eval(cond.operand, env)
        # A variable with a single possible value can never produce an edge.
        if len(operand) == 1:
            return ONLY_FALSE
        return BOTH
    if isinstance(cond, Cmp):
        lo1, hi1 = _eval_arith(cond.left, env)
        lo2, hi2 = _eval_arith(cond.right, env)
        return _compare_intervals(cond.op, lo1, hi1, lo2, hi2)
    raise TypeError(f"not a condition node: {cond!r}")


def _eval_arith(expr: Arith, env) -> Interval:
    lo = hi = 0
    for term in expr.terms:
        if term.var is None:
            lo += term.coeff
            hi += term.coeff
        elif term.coeff:  # a zero term is 0, even on an unbounded variable
            vlo, vhi = env(VarRef(term.var))
            a, b = term.coeff * vlo, term.coeff * vhi
            lo += min(a, b)
            hi += max(a, b)
    return lo, hi


def _compare_intervals(op: str, lo1, hi1, lo2, hi2) -> frozenset:
    if op == "=":
        if hi1 < lo2 or hi2 < lo1:
            return ONLY_FALSE
        if lo1 == hi1 == lo2 == hi2:
            return ONLY_TRUE
        return BOTH
    if op == "<>":
        result = _compare_intervals("=", lo1, hi1, lo2, hi2)
        return frozenset({not v for v in result})
    if op == "<":
        if hi1 < lo2:
            return ONLY_TRUE
        if lo1 >= hi2:
            return ONLY_FALSE
        return BOTH
    if op == "<=":
        if hi1 <= lo2:
            return ONLY_TRUE
        if lo1 > hi2:
            return ONLY_FALSE
        return BOTH
    if op == ">":
        return _compare_intervals("<", lo2, hi2, lo1, hi1)
    if op == ">=":
        return _compare_intervals("<=", lo2, hi2, lo1, hi1)
    raise ValueError(f"unknown comparison operator {op!r}")


def concrete_eval(
    cond: Condition,
    lookup: Callable[[VarRef | StepRef], object],
    prev: Callable[[VarRef | StepRef], object] | None = None,
) -> bool:
    """Concrete evaluation; ``prev`` supplies the previous-cycle value for edges."""
    if isinstance(cond, BoolLit):
        return cond.value
    if isinstance(cond, (VarRef, StepRef)):
        return bool(lookup(cond))
    if isinstance(cond, Not):
        return not concrete_eval(cond.operand, lookup, prev)
    if isinstance(cond, NaryOp):
        if cond.op == "&":
            return all(concrete_eval(item, lookup, prev) for item in cond.items)
        return any(concrete_eval(item, lookup, prev) for item in cond.items)
    if isinstance(cond, Edge):
        if prev is None:
            raise ValueError("edge evaluation requires previous-cycle values")
        now = bool(lookup(cond.operand))
        before = bool(prev(cond.operand))
        return (not before and now) if cond.kind == "re" else (before and not now)
    if isinstance(cond, Cmp):
        left = _concrete_arith(cond.left, lookup)
        right = _concrete_arith(cond.right, lookup)
        return {
            "=": left == right,
            "<>": left != right,
            "<": left < right,
            "<=": left <= right,
            ">": left > right,
            ">=": left >= right,
        }[cond.op]
    raise TypeError(f"not a condition node: {cond!r}")


def _concrete_arith(expr: Arith, lookup) -> int:
    total = 0
    for term in expr.terms:
        if term.var is None:
            total += term.coeff
        else:
            total += term.coeff * int(lookup(VarRef(term.var)))
    return total


TOP_INT: Interval = (-math.inf, math.inf)
