"""Parse and serialize the on-disk ``.grafcet.json`` specification format."""

from __future__ import annotations

import json
import os

from . import conditions
from .conditions import INT_MAX, INT_MIN, CondParseError, parse_arith, parse_condition
from .findings import Finding
from .model import (
    ContinuousAction,
    ForcingAction,
    GrafcetSpec,
    PartialGrafcet,
    StoredAction,
    Transition,
    VariableDecl,
    validate,
)

__all__ = [
    "SpecError",
    "SpecSchemaError",
    "SpecSemanticError",
    "SpecSyntaxError",
    "load_spec",
    "parse_spec",
    "serialize",
]


class SpecError(ValueError):
    pass


class SpecSyntaxError(SpecError):
    """The document is not valid JSON (or a condition fails to parse)."""


class SpecSchemaError(SpecError):
    """The document deviates from the file schema (unknown field, wrong type)."""


class SpecSemanticError(SpecError):
    """The document parses but violates model invariants."""

    def __init__(self, findings: list[Finding]):
        super().__init__("; ".join(f.message for f in findings))
        self.findings = findings


def load_spec(path: str | os.PathLike) -> GrafcetSpec:
    """Read a spec file once; the result carries its bytes, and so their sha256."""
    with open(path, "rb") as f:
        data = f.read()
    return parse_spec(data, source=os.fspath(path))


def parse_spec(doc: str | bytes | dict, source: str = "<spec>") -> GrafcetSpec:
    """Parse a spec document and validate it; raises on errors.

    Bytes are decoded as UTF-8 and kept as the spec's ``source`` field, from
    which its ``sha256`` is computed on first read. The ``source`` argument is
    only the name that error messages give the document.
    """
    raw = None
    if isinstance(doc, bytes):
        raw = doc
        try:
            doc = doc.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SpecSyntaxError(f"{source}: not valid UTF-8: {exc}") from exc
    if isinstance(doc, str):
        try:
            data = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise SpecSyntaxError(
                f"{source}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
        except ValueError as exc:  # an integer literal of over 4,300 digits
            raise SpecSyntaxError(f"{source}: invalid JSON: {exc}") from exc
        except RecursionError as exc:
            raise SpecSyntaxError(f"{source}: JSON nested too deeply") from exc
    else:
        data = doc
    spec = _build_spec(data, source, raw)
    errors = validate(spec)
    if errors:
        raise SpecSemanticError(errors)
    return spec


_VARIABLE_FIELDS = {"name", "kind", "type", "init"}
_PARTIAL_FIELDS = {"id", "steps", "enclosings", "transitions", "actions"}
_STEP_FIELDS = {"id", "initial", "marked"}
_ENCLOSING_FIELDS = {"step", "target"}
_TRANSITION_FIELDS = {"id", "from", "to", "cond"}
_ACTION_FIELDS = {
    "continuous": {"kind", "step", "var", "cond"},
    "stored": {"kind", "step", "var", "value", "trigger", "cond"},
    "forcing": {"kind", "step", "target", "situation"},
}
_TOP_FIELDS = {"name", "variables", "partials", "queries"}


def _require(data, field, types, where):
    if field not in data:
        raise SpecSchemaError(f"{where}: missing field {field!r}")
    value = data[field]
    if not isinstance(value, types):
        raise SpecSchemaError(f"{where}: field {field!r} has wrong type")
    return value


def _no_unknown(data, allowed, where):
    if not isinstance(data, dict):
        raise SpecSchemaError(f"{where}: expected an object")
    for key in data:
        if key not in allowed:
            raise SpecSchemaError(f"{where}: unknown field {key!r}")


def _flag(data, field, where):
    value = data.get(field, False)
    if not isinstance(value, bool):
        raise SpecSchemaError(f"{where}: field {field!r} must be true or false")
    return value


def _list(data, field, where):
    value = data.get(field, [])
    if not isinstance(value, list):
        raise SpecSchemaError(f"{where}: {field!r} must be a list")
    return value


def _str_list(value, where):
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise SpecSchemaError(f"{where}: expected a list of strings")
    return value


def _build_spec(data, source, raw) -> GrafcetSpec:
    _no_unknown(data, _TOP_FIELDS, source)
    name = _require(data, "name", str, source)
    variables = _list(data, "variables", source)
    decls = {"input": [], "internal": [], "output": []}
    for i, v in enumerate(variables):
        where = f"{source}: variables[{i}]"
        _no_unknown(v, _VARIABLE_FIELDS, where)
        vname = _require(v, "name", str, where)
        kind = _require(v, "kind", str, where)
        vtype = _require(v, "type", str, where)
        if kind not in decls:
            raise SpecSchemaError(f"{where}: kind must be input, internal or output")
        if vtype not in ("bool", "int"):
            raise SpecSchemaError(f"{where}: type must be bool or int")
        init = v.get("init")
        if init is not None and (not isinstance(init, int) or isinstance(init, bool)):
            raise SpecSchemaError(f"{where}: init must be an integer")
        if init is not None and not INT_MIN <= init <= INT_MAX:
            raise SpecSchemaError(f"{where}: init must fit in a signed 64-bit integer")
        decls[kind].append(VariableDecl(vname, kind, vtype, init))

    queries = data.get("queries", [])
    if not isinstance(queries, list) or not all(isinstance(q, dict) for q in queries):
        raise SpecSchemaError(f"{source}: 'queries' must be a list of objects")

    partials_data = _require(data, "partials", list, source)
    if not partials_data:
        raise SpecSchemaError(f"{source}: 'partials' must be non-empty")
    # Texts repeat across a spec, so each distinct one is parsed once.
    parsed = {}
    partials = tuple(
        _build_partial(p, f"{source}: partials[{i}]", parsed)
        for i, p in enumerate(partials_data)
    )
    return GrafcetSpec(
        name=name,
        inputs=tuple(decls["input"]),
        internals=tuple(decls["internal"]),
        outputs=tuple(decls["output"]),
        partials=partials,
        queries=tuple(queries),
        source=raw,
    )


def _build_partial(data, where, parsed) -> PartialGrafcet:
    _no_unknown(data, _PARTIAL_FIELDS, where)
    pid = _require(data, "id", str, where)
    steps: list[str] = []
    initial: set[str] = set()
    marked: set[str] = set()
    for i, s in enumerate(_require(data, "steps", list, where)):
        swhere = f"{where}.steps[{i}]"
        _no_unknown(s, _STEP_FIELDS, swhere)
        sid = _require(s, "id", str, swhere)
        steps.append(sid)
        if _flag(s, "initial", swhere):
            initial.add(sid)
        if _flag(s, "marked", swhere):
            marked.add(sid)

    enclosings = []
    for i, e in enumerate(_list(data, "enclosings", where)):
        ewhere = f"{where}.enclosings[{i}]"
        _no_unknown(e, _ENCLOSING_FIELDS, ewhere)
        enclosings.append((_require(e, "step", str, ewhere), _require(e, "target", str, ewhere)))

    transitions = []
    for i, t in enumerate(_list(data, "transitions", where)):
        twhere = f"{where}.transitions[{i}]"
        _no_unknown(t, _TRANSITION_FIELDS, twhere)
        transitions.append(
            Transition(
                id=_require(t, "id", str, twhere),
                upstream=frozenset(_str_list(_require(t, "from", list, twhere), twhere)),
                downstream=frozenset(_str_list(_require(t, "to", list, twhere), twhere)),
                condition=_parse_cond(t.get("cond"), twhere, parsed),
            )
        )

    actions = []
    for i, a in enumerate(_list(data, "actions", where)):
        actions.append(_build_action(a, f"{where}.actions[{i}]", parsed))

    return PartialGrafcet(
        id=pid,
        steps=tuple(steps),
        initial=frozenset(initial),
        marked=frozenset(marked),
        enclosings=tuple(enclosings),
        transitions=tuple(transitions),
        actions=tuple(actions),
    )


def _build_action(a, where, parsed):
    if not isinstance(a, dict):
        raise SpecSchemaError(f"{where}: expected an object")
    kind = _require(a, "kind", str, where)
    if kind not in _ACTION_FIELDS:
        raise SpecSchemaError(f"{where}: unknown action kind {kind!r}")
    _no_unknown(a, _ACTION_FIELDS[kind], f"{where} ({kind} action)")
    step = _require(a, "step", str, where)
    if kind == "continuous":
        return ContinuousAction(
            step=step,
            var=_require(a, "var", str, where),
            condition=_parse_cond(a.get("cond"), where, parsed),
        )
    if kind == "stored":
        return StoredAction(
            step=step,
            var=_require(a, "var", str, where),
            value=_parse_value(_require(a, "value", str, where), where, parsed),
            trigger=a.get("trigger", "activation"),
            condition=_parse_cond(a.get("cond"), where, parsed),
        )
    situation = _require(a, "situation", (list, str), where)
    if isinstance(situation, list):
        situation = frozenset(_str_list(situation, where))
    elif situation not in ("*", "init"):
        raise SpecSchemaError(f"{where}: situation must be a step list, '*' or 'init'")
    return ForcingAction(step=step, target=_require(a, "target", str, where),
                         situation=situation)


def _parse_cond(text, where, parsed):
    if text is None:
        return None
    if not isinstance(text, str):
        raise SpecSchemaError(f"{where}: condition must be a string")
    return _parse(parse_condition, text, "condition", where, parsed)


def _parse_value(text, where, parsed):
    if text in ("true", "false"):
        return text == "true"
    return _parse(parse_arith, text, "value expression", where, parsed)


def _parse(parser, text, what, where, parsed):
    """``parsed`` maps (parser, text) to the tree of a text parsed before in
    this spec; trees are immutable, so they are shared."""
    key = (parser, text)
    if key not in parsed:
        try:
            parsed[key] = parser(text)
        except CondParseError as exc:
            raise SpecSyntaxError(f"{where}: bad {what} {text!r}: {exc}") from exc
    return parsed[key]


# --- serialization ---------------------------------------------------------

def serialize(spec: GrafcetSpec) -> dict:
    """Serialize a model back to the file schema; parse(serialize(m)) == m."""
    return {
        "name": spec.name,
        "variables": [
            _var_dict(v) for v in spec.inputs + spec.internals + spec.outputs
        ],
        "partials": [_partial_dict(c) for c in spec.partials],
    }


def _var_dict(v: VariableDecl) -> dict:
    out = {"name": v.name, "kind": v.kind, "type": v.type}
    if v.init is not None:
        out["init"] = v.init
    return out


def _partial_dict(c: PartialGrafcet) -> dict:
    out = {
        "id": c.id,
        "steps": [
            {
                "id": s,
                **({"initial": True} if s in c.initial else {}),
                **({"marked": True} if s in c.marked else {}),
            }
            for s in c.steps
        ],
    }
    if c.enclosings:
        out["enclosings"] = [{"step": s, "target": t} for s, t in c.enclosings]
    if c.transitions:
        out["transitions"] = [_transition_dict(t) for t in c.transitions]
    if c.actions:
        out["actions"] = [_action_dict(a) for a in c.actions]
    return out


def _transition_dict(t: Transition) -> dict:
    out = {"id": t.id, "from": sorted(t.upstream), "to": sorted(t.downstream)}
    if t.condition is not None:
        out["cond"] = conditions.to_text(t.condition)
    return out


def _action_dict(a) -> dict:
    if isinstance(a, ContinuousAction):
        out = {"kind": "continuous", "step": a.step, "var": a.var}
        if a.condition is not None:
            out["cond"] = conditions.to_text(a.condition)
        return out
    if isinstance(a, StoredAction):
        if isinstance(a.value, bool):
            value = "true" if a.value else "false"
        else:
            value = conditions.arith_to_text(a.value)
        out = {"kind": "stored", "step": a.step, "var": a.var, "value": value,
               "trigger": a.trigger}
        if a.condition is not None:
            out["cond"] = conditions.to_text(a.condition)
        return out
    situation = a.situation if isinstance(a.situation, str) else sorted(a.situation)
    return {"kind": "forcing", "step": a.step, "target": a.target, "situation": situation}
