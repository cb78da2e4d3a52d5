"""In-memory domain model for a complete GRAFCET specification.

A specification is a set of partial Grafcets plus global variable
declarations. Each partial Grafcet owns steps, transitions, actions and
its hierarchy anchors (enclosing steps, forcing orders). Step identifiers
are namespaced by partial Grafcet; a global step is written "partial.step",
and only ``GrafcetSpec.global_step`` writes it. Partial ids contain no ".",
so the first "." of a global id ends its partial id.
"""

from __future__ import annotations

from functools import cached_property

from .conditions import Arith, CondTypeError, Condition, typecheck
from .findings import Finding, finding, sort_findings
from .record import Record

__all__ = [
    "ContinuousAction",
    "ForcingAction",
    "GrafcetSpec",
    "PartialGrafcet",
    "StoredAction",
    "Transition",
    "VariableDecl",
    "validate",
]


class VariableDecl(Record):
    name: str
    kind: str  # input | internal | output
    type: str  # bool | int
    init: int | None = None  # None for inputs (unconstrained)

    @property
    def init_value(self) -> int:
        return 0 if self.init is None else self.init


class Transition(Record):
    id: str
    upstream: frozenset[str]
    downstream: frozenset[str]
    condition: Condition | None = None  # None means constant true

    @property
    def is_source(self) -> bool:
        return not self.upstream


class ContinuousAction(Record):
    step: str
    var: str  # Boolean output, level-assigned while the step is active
    condition: Condition | None = None


class StoredAction(Record):
    step: str
    var: str  # internal or output variable
    value: Arith | bool  # Arith for int variables, literal for bools
    trigger: str = "activation"  # activation | deactivation | during
    condition: Condition | None = None


class ForcingAction(Record):
    step: str
    target: str  # partial Grafcet forced by this order
    situation: frozenset[str] | str  # explicit step set, "*" or "init"


Action = ContinuousAction | StoredAction | ForcingAction

TRIGGERS = ("activation", "deactivation", "during")


class PartialGrafcet(Record):
    id: str
    steps: tuple[str, ...]  # declaration order fixes invariant-vector indexing
    initial: frozenset[str]
    marked: frozenset[str]
    enclosings: tuple[tuple[str, str], ...]  # (step, target partial)
    transitions: tuple[Transition, ...]
    actions: tuple[Action, ...]

    @cached_property
    def step_set(self) -> frozenset[str]:
        return frozenset(self.steps)

    @cached_property
    def downstream_of(self) -> dict[str, tuple[Transition, ...]]:
        """s -> transitions with s in their upstream (the set s-dot)."""
        table: dict[str, list[Transition]] = {s: [] for s in self.steps}
        for t in self.transitions:
            for s in t.upstream:
                table[s].append(t)
        return {s: tuple(ts) for s, ts in table.items()}

    @cached_property
    def upstream_of(self) -> dict[str, tuple[Transition, ...]]:
        """s -> transitions with s in their downstream (the set dot-s)."""
        table: dict[str, list[Transition]] = {s: [] for s in self.steps}
        for t in self.transitions:
            for s in t.downstream:
                table[s].append(t)
        return {s: tuple(ts) for s, ts in table.items()}

    @cached_property
    def forcings(self) -> tuple[ForcingAction, ...]:
        return tuple(a for a in self.actions if isinstance(a, ForcingAction))


class GrafcetSpec(Record):
    name: str
    inputs: tuple[VariableDecl, ...]
    internals: tuple[VariableDecl, ...]
    outputs: tuple[VariableDecl, ...]
    partials: tuple[PartialGrafcet, ...]
    # Carried from the file, not part of the model: equality ignores them.
    queries: tuple[dict, ...] = ()  # raw embedded queries
    source: bytes | None = None  # the bytes parse_spec was given, if any
    _uncompared = ("queries", "source")

    @cached_property
    def sha256(self) -> str | None:
        """Hex sha256 of ``source``, computed on first read; None without source bytes.

        ``hashlib`` loads OpenSSL, so it is imported here, by the reports that
        print the digest, and not by every start.
        """
        if self.source is None:
            return None
        import hashlib

        return hashlib.sha256(self.source).hexdigest()

    @cached_property
    def variables(self) -> dict[str, VariableDecl]:
        table = {}
        for decl in self.inputs + self.internals + self.outputs:
            table[decl.name] = decl
        return table

    @cached_property
    def var_types(self) -> dict[str, str]:
        return {name: decl.type for name, decl in self.variables.items()}

    @cached_property
    def writers(self) -> dict[str, list[tuple[str, int, Action]]]:
        """Variable -> (partial id, action index, action) of each continuous and
        stored action writing it, in declaration order."""
        table: dict[str, list[tuple[str, int, Action]]] = {}
        for c in self.partials:
            for i, a in enumerate(c.actions):
                if not isinstance(a, ForcingAction):
                    table.setdefault(a.var, []).append((c.id, i, a))
        return table

    @cached_property
    def partial_map(self) -> dict[str, PartialGrafcet]:
        return {c.id: c for c in self.partials}

    @cached_property
    def step_refs(self) -> set[tuple[str, str]]:
        return {(c.id, s) for c in self.partials for s in c.steps}

    def global_step(self, partial_id: str, step: str) -> str:
        """The global id of a step; distinct steps get distinct ids, because
        validation keeps "." out of partial ids."""
        return f"{partial_id}.{step}"


def validate(spec: GrafcetSpec) -> list[Finding]:
    """Check every model invariant; returns error findings, empty iff well-formed."""
    out: list[Finding] = []

    def err(message, partial=None, element=None, **evidence):
        out.append(finding("model-error", "error", message, partial, element, **evidence))

    _check_variables(spec, err)
    _check_partials(spec, err)
    _check_actions(spec, err)
    _check_conditions(spec, err)
    return sort_findings(out)


def _check_variables(spec, err):
    seen: set[str] = set()
    for decl in spec.inputs + spec.internals + spec.outputs:
        if decl.name in seen:
            err(f"duplicate variable name {decl.name!r}")
        seen.add(decl.name)
        if decl.kind == "input":
            if decl.init is not None:
                err(f"input variable {decl.name!r} must not declare an init value")
        else:
            if decl.type == "bool" and decl.init_value not in (0, 1):
                err(f"bool variable {decl.name!r} has init {decl.init} outside {{0, 1}}")


def _check_partials(spec, err):
    seen: set[str] = set()
    for c in spec.partials:
        if c.id in seen:
            err(f"duplicate partial Grafcet id {c.id!r}")
        seen.add(c.id)
        if "." in c.id:
            err(f"partial Grafcet id {c.id!r} must not contain '.'", partial=c.id)
        steps = c.step_set
        if len(c.steps) != len(steps):
            err("duplicate step ids", partial=c.id)
        for s in c.initial - steps:
            err(f"initial step {s!r} is not a step", partial=c.id)
        for s in c.marked - steps:
            err(f"marked step {s!r} is not a step", partial=c.id)
        for step, target in c.enclosings:
            if step not in steps:
                err(f"enclosing step {step!r} is not a step", partial=c.id, element=step)
            if target == c.id:
                err("a partial Grafcet cannot enclose itself", partial=c.id, element=step)
            elif target not in spec.partial_map:
                err(f"enclosing target {target!r} is not a partial Grafcet",
                    partial=c.id, element=step)
        seen_t: set[str] = set()
        for t in c.transitions:
            if t.id in seen_t:
                err(f"duplicate transition id {t.id!r}", partial=c.id)
            seen_t.add(t.id)
            if not t.upstream and not t.downstream:
                err("empty transition: upstream and downstream are both empty",
                    partial=c.id, element=t.id)
            for s in (t.upstream | t.downstream) - steps:
                err(f"transition references unknown step {s!r}", partial=c.id, element=t.id)


def _check_actions(spec, err):
    for c in spec.partials:
        for i, a in enumerate(c.actions):
            element = f"actions[{i}]"
            if a.step not in c.step_set:
                err(f"action attached to unknown step {a.step!r}", partial=c.id, element=element)
            if isinstance(a, ContinuousAction):
                decl = spec.variables.get(a.var)
                if decl is None:
                    err(f"continuous action writes undeclared variable {a.var!r}",
                        partial=c.id, element=element)
                elif decl.kind != "output" or decl.type != "bool":
                    err(f"continuous action target {a.var!r} must be a Boolean output",
                        partial=c.id, element=element)
            elif isinstance(a, StoredAction):
                decl = spec.variables.get(a.var)
                if decl is None:
                    err(f"stored action writes undeclared variable {a.var!r}",
                        partial=c.id, element=element)
                else:
                    if decl.kind not in ("internal", "output"):
                        err(f"stored action target {a.var!r} must be internal or output",
                            partial=c.id, element=element)
                    if decl.type == "bool" and not isinstance(a.value, bool):
                        err(f"stored value for Boolean {a.var!r} must be a literal",
                            partial=c.id, element=element)
                    if decl.type == "int" and not isinstance(a.value, Arith):
                        err(f"stored value for integer {a.var!r} must be an integer expression",
                            partial=c.id, element=element)
                if a.trigger not in TRIGGERS:
                    err(f"unknown trigger {a.trigger!r}", partial=c.id, element=element)
            else:
                target = spec.partial_map.get(a.target)
                if target is None:
                    err(f"forcing targets unknown partial Grafcet {a.target!r}",
                        partial=c.id, element=element)
                elif a.target == c.id:
                    err("a partial Grafcet cannot force itself", partial=c.id, element=element)
                elif isinstance(a.situation, frozenset):
                    for s in a.situation - target.step_set:
                        err(f"forced situation contains unknown step {s!r} of {a.target!r}",
                            partial=c.id, element=element)
    for v, writers in spec.writers.items():
        if len({type(a) for _, _, a in writers}) > 1:
            err(f"output {v!r} is written by both continuous and stored actions", element=v)


def _check_conditions(spec, err):
    """Type-check every condition and integer stored value with ``typecheck``."""
    types = spec.var_types
    steps = spec.step_refs

    def check(expr, what, partial, element):
        try:
            typecheck(expr, types, steps)
        except CondTypeError as exc:
            err(f"{what}: {exc}", partial=partial, element=element)

    for c in spec.partials:
        for t in c.transitions:
            if t.condition is not None:
                check(t.condition, "condition", c.id, t.id)
        for i, a in enumerate(c.actions):
            element = f"actions[{i}]"
            cond = getattr(a, "condition", None)
            if cond is not None:
                check(cond, "condition", c.id, element)
            if isinstance(a, StoredAction) and isinstance(a.value, Arith):
                check(a.value, "stored value", c.id, element)
