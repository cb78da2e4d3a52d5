"""Turn analysis results into findings: races, condition satisfiability,
unreachable steps, unbounded activations and user-declared safety queries."""

from __future__ import annotations

import math

from .conditions import BOTH, ONLY_FALSE, ONLY_TRUE, StepRef, TOP_INT, VarRef, abstract_eval, to_text, variables_read
from .findings import Finding, finding, sort_findings
from .model import ContinuousAction, GrafcetSpec, StoredAction
from .reachconc import concurrent
from .record import Record
from .varapprox import ExecutionBound, VarApprox

__all__ = [
    "SafetyQuery",
    "check_conditions",
    "detect_races",
    "parse_queries",
    "run_queries",
    "unbounded_findings",
    "unreachable_findings",
]


def detect_races(
    spec: GrafcetSpec,
    global_conc: dict[str, list[str]],
    reachable: set[str],
) -> list[Finding]:
    """Stored writes of one variable from (potentially) concurrent steps.

    Two distinct stored actions on the same step also race: their execution
    order within one activation is non-deterministic. A continuous write
    races with nothing: validation keeps its Boolean output away from every
    stored action, as target and as operand of an integer value.
    """
    out: list[Finding] = []
    for var, actions in sorted(spec.writers.items()):
        # Validation makes all writers of one variable the same kind.
        if not isinstance(actions[0][2], StoredAction):
            continue
        for i, (p1, i1, a1) in enumerate(actions):
            g1 = spec.global_step(p1, a1.step)
            for p2, i2, a2 in actions[i + 1:]:
                g2 = spec.global_step(p2, a2.step)
                if g1 not in reachable or g2 not in reachable:
                    continue
                if g1 == g2 or concurrent(global_conc, g1, g2):
                    out.append(
                        finding(
                            "race", "error",
                            f"stored actions at {g1} and {g2} both write {var!r} "
                            "from concurrent steps",
                            partial=p1, element=f"actions[{i1}]",
                            variable=var,
                            actions=((p1, i1), (p2, i2)),
                            steps=(g1, g2),
                        )
                    )
    return out


def _abstract_env(spec, var_approx, reachable):
    inputs = {d.name: d for d in spec.inputs}

    def env(ref: VarRef | StepRef):
        if isinstance(ref, StepRef):
            gid = spec.global_step(ref.partial, ref.step)
            return BOTH if gid in reachable else ONLY_FALSE
        decl = inputs.get(ref.name)
        if decl is not None:
            return BOTH if decl.type == "bool" else TOP_INT
        approx = var_approx[ref.name]
        if approx.type == "bool":
            return approx.values
        return approx.interval

    return env


def check_conditions(
    spec: GrafcetSpec,
    var_approx: dict[str, VarApprox],
    reachable: set[str],
) -> list[Finding]:
    """Three-valued satisfiability of every transition and action condition."""
    env = _abstract_env(spec, var_approx, reachable)
    out: list[Finding] = []

    def check(cond, partial, element):
        if cond is None:
            return
        result = abstract_eval(cond, env)
        if result == ONLY_FALSE:
            out.append(
                finding("unsat-condition", "error",
                        f"condition {to_text(cond)!r} can never be true",
                        partial=partial, element=element, condition=to_text(cond))
            )
        elif result == ONLY_TRUE:
            names, refs = variables_read(cond)
            if not names and not refs:
                out.append(
                    finding("always-true-condition", "info",
                            f"condition {to_text(cond)!r} is constantly true",
                            partial=partial, element=element, condition=to_text(cond))
                )

    for c in spec.partials:
        for t in c.transitions:
            check(t.condition, c.id, t.id)
        for i, a in enumerate(c.actions):
            check(getattr(a, "condition", None), c.id, f"actions[{i}]")
    return out


def unreachable_findings(spec: GrafcetSpec, reachable: set[str]) -> list[Finding]:
    out = []
    for c in spec.partials:
        for s in c.steps:
            if spec.global_step(c.id, s) not in reachable:
                out.append(
                    finding("unreachable-step", "warning",
                            f"step {s!r} is unreachable in every initial situation",
                            partial=c.id, element=s)
                )
    return out


def unbounded_findings(spec: GrafcetSpec,
                       bounds: dict[tuple[str, int], ExecutionBound]) -> list[Finding]:
    out = []
    for (pid, idx), bound in sorted(bounds.items()):
        if bound.count == math.inf:
            out.append(
                finding("unbounded-activation", "warning",
                        f"action at step {bound.step!r} may execute unboundedly often "
                        f"({', '.join(bound.reasons)})",
                        partial=pid, element=f"actions[{idx}]",
                        reasons=bound.reasons)
            )
    return out


# --- safety queries --------------------------------------------------------

class SafetyQuery(Record):
    name: str
    kind: str  # "never-concurrent" | "never-coactive"
    steps: tuple[str, str] | None = None  # global step ids
    terms: tuple[tuple[str, bool], ...] | None = None  # ((var, literal), (var, literal))


def parse_queries(data: list[dict]) -> list[SafetyQuery]:
    """Parse query objects as found in a spec or a sidecar; ValueError if malformed."""
    if not isinstance(data, (list, tuple)) or not all(isinstance(q, dict) for q in data):
        raise ValueError("'queries' must be a list of objects")
    out = []
    for i, q in enumerate(data):
        kind = q.get("kind")
        name = q.get("name", f"query-{i}")
        if not isinstance(name, str):
            raise ValueError(f"query {i}: 'name' must be a string")
        if kind == "never-concurrent":
            _no_unknown(q, ("name", "kind", "steps"), f"query {name!r}")
            steps = q.get("steps")
            if not isinstance(steps, list) or len(steps) != 2 or \
                    not all(isinstance(g, str) for g in steps):
                raise ValueError(f"query {name!r}: 'steps' must list two global step ids")
            if steps[0] == steps[1]:
                raise ValueError(f"query {name!r}: 'steps' names {steps[0]!r} twice")
            out.append(SafetyQuery(name, kind, steps=(steps[0], steps[1])))
        elif kind == "never-coactive":
            _no_unknown(q, ("name", "kind", "a", "b"), f"query {name!r}")
            terms = []
            for side in ("a", "b"):
                term = q.get(side)
                if not isinstance(term, dict) or not isinstance(term.get("var"), str):
                    raise ValueError(f"query {name!r}: missing term {side!r}")
                _no_unknown(term, ("var", "value"), f"query {name!r}: term {side!r}")
                value = term.get("value", True)
                if not isinstance(value, bool):
                    raise ValueError(f"query {name!r}: term {side!r} value must be true or false")
                terms.append((term["var"], value))
            out.append(SafetyQuery(name, kind, terms=tuple(terms)))
        else:
            raise ValueError(f"query {name!r}: unknown kind {kind!r}")
    return out


def _no_unknown(obj: dict, allowed: tuple[str, ...], where: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ValueError(f"{where}: unknown field {key!r}")


def run_queries(
    spec: GrafcetSpec,
    global_conc: dict[str, list[str]],
    reachable: set[str],
    var_approx: dict[str, VarApprox],
    queries: list[SafetyQuery],
    naive: bool = False,
) -> list[Finding]:
    """Evaluate safety queries.

    never-coactive is judged from the concurrency of the writing steps; the
    ``naive`` flag switches to value sets alone, which cannot distinguish
    sequential from simultaneous values and is prone to false alarms.
    """
    out = []
    global_steps = {spec.global_step(c.id, s) for c in spec.partials for s in c.steps}
    for q in queries:
        if q.kind == "never-concurrent":
            a, b = q.steps
            for g in (a, b):
                if g not in global_steps:
                    raise ValueError(f"query {q.name!r}: unknown step {g!r}")
            if concurrent(global_conc, a, b):
                out.append(
                    finding("query-violation", "error",
                            f"query {q.name!r}: steps {a} and {b} can be concurrent",
                            element=q.name, steps=(a, b))
                )
        else:
            violated, evidence = _coactive(spec, global_conc, reachable, var_approx, q, naive)
            if violated:
                out.append(
                    finding("query-violation", "error",
                            f"query {q.name!r}: " + evidence, element=q.name)
                )
    return sort_findings(out)


def _coactive(spec, global_conc, reachable, var_approx, q: SafetyQuery, naive: bool):
    (var_a, lit_a), (var_b, lit_b) = q.terms
    for var in (var_a, var_b):
        decl = spec.variables.get(var)
        if decl is None:
            raise ValueError(f"query {q.name!r}: unknown variable {var!r}")
        if decl.type != "bool":
            raise ValueError(f"query {q.name!r}: never-coactive requires Boolean variables, "
                             f"got {var!r}")
    steps_a = _holding_steps(spec, reachable, var_approx, var_a, lit_a, naive)
    steps_b = _holding_steps(spec, reachable, var_approx, var_b, lit_b, naive)
    if steps_a is None and steps_b is None:
        return True, (f"{var_a}={str(lit_a).lower()} and {var_b}={str(lit_b).lower()} "
                      "are both possible values (value-set approximation)")
    for ga in [None] if steps_a is None else steps_a:
        for gb in [None] if steps_b is None else steps_b:
            if None in (ga, gb) or ga == gb or concurrent(global_conc, ga, gb):
                return True, (f"{var_a}={str(lit_a).lower()} ({_when(ga)}) and "
                              f"{var_b}={str(lit_b).lower()} ({_when(gb)}) can hold "
                              "simultaneously")
    return False, ""


def _holding_steps(spec, reachable, var_approx, var, literal, naive) -> list[str] | None:
    """The sorted reachable steps at which ``var`` can equal ``literal``, or
    None if it can at any time.

    Only a continuous output's true value is tied to steps (unless ``naive``):
    it holds exactly while a writing step is active. Any other value persists
    between writes, so it can hold at any time its value set contains it; an
    input's can always.
    """
    writers = spec.writers.get(var, ())
    if literal and not naive and writers and isinstance(writers[0][2], ContinuousAction):
        return sorted({g for pid, _, a in writers
                       if (g := spec.global_step(pid, a.step)) in reachable})
    approx = var_approx.get(var)
    return None if approx is None or literal in approx.values else []


def _when(step: str | None) -> str:
    return "any time" if step is None else f"step {step}"
