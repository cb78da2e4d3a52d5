"""Execution-count bounding and interval/value-set variable approximation.

Per stored/continuous action, the number of possible executions is bounded
in three steps: S-invariant coverage (uncovered partial => unbounded),
T-invariant loops through the action's step (=> unbounded), otherwise
n * |S^I| per initial situation. The bounds then drive a sound hull of the
values each internal/output variable can take.
"""

from __future__ import annotations

import math

from .invariants import InvariantSet
from .model import ContinuousAction, GrafcetSpec, StoredAction
from .reachconc import ReachConcResult
from .record import Record

__all__ = ["ExecutionBound", "VarApprox", "approximate_variables", "bound_executions"]

ActionKey = tuple[str, int]  # (partial id, action index)


class ExecutionBound(Record):
    step: str
    count: float  # non-negative int, or math.inf
    reasons: tuple[str, ...]


class VarApprox(Record):
    type: str
    interval: tuple[float, float] | None = None  # int variables
    values: frozenset[bool] | None = None  # bool variables

    def to_dict(self) -> dict:
        if self.type == "int":
            lo, hi = self.interval
            return {
                "type": "int",
                "lo": "-inf" if lo == -math.inf else int(lo),
                "hi": "+inf" if hi == math.inf else int(hi),
            }
        return {"type": "bool", "values": sorted(self.values)}


def bound_executions(
    spec: GrafcetSpec,
    invariants: dict[str, InvariantSet],
    results: dict[str, list[ReachConcResult]],
) -> dict[ActionKey, ExecutionBound]:
    """Bound how often each action's step can become active.

    An enclosed or forced partial Grafcet restarts whenever its anchor step
    re-activates, so each entry mode's contribution is weighted by the
    anchor step's own activation bound, resolved recursively through the
    hierarchy (the dependency graph is a partial order, so this terminates;
    on a cyclic hierarchy the weight degrades to infinity).
    """
    loops = {c.id: _loop_transitions(c, invariants[c.id]) for c in spec.partials}
    cache: dict[tuple[str, str], tuple[float, tuple[str, ...]]] = {}
    visiting: set[tuple[str, str]] = set()

    def step_bound(pid: str, step: str) -> tuple[float, tuple[str, ...]]:
        key = (pid, step)
        if key in cache:
            return cache[key]
        if key in visiting:
            return math.inf, ("hierarchy-cycle",)
        visiting.add(key)
        result = _step_bound(pid, step)
        visiting.discard(key)
        cache[key] = result
        return result

    def _step_bound(pid: str, step: str) -> tuple[float, tuple[str, ...]]:
        c = spec.partial_map[pid]
        inv = invariants[pid]
        reachable_in = [r for r in results.get(pid, []) if step in r.reachable]
        if not reachable_in:
            return 0, ("unreachable",)
        if not inv.covered:
            # An uncovered partial Grafcet is treated as unbounded as a
            # whole; its activation counts cannot be certified.
            return math.inf, ("uncovered-s-invariant" if step in inv.uncovered_steps
                              else "uncovered-partial",)
        if any(t.id in loops[pid] for t in c.upstream_of[step]):
            return math.inf, ("t-invariant-loop",)
        total = 0.0
        for r in reachable_in:
            sit = r.situation
            if sit.source == "initial-steps":
                entries: float = 1
            else:
                entries, _ = step_bound(sit.from_partial, sit.from_step)
            total += entries * inv.bound * len(sit.steps)
        if total == math.inf:
            return math.inf, ("unbounded-entry",)
        return total, ("bound-times-initial",)

    bounds: dict[ActionKey, ExecutionBound] = {}
    for c in spec.partials:
        for i, a in enumerate(c.actions):
            count, reasons = step_bound(c.id, a.step)
            bounds[(c.id, i)] = ExecutionBound(a.step, count, reasons)
    return bounds


def _loop_transitions(c, inv: InvariantSet) -> set[str]:
    """Transitions with a positive entry in some T-invariant."""
    covered: set[str] = set()
    for x in inv.t_invariants:
        for j, entry in enumerate(x):
            if entry > 0:
                covered.add(c.transitions[j].id)
    return covered


def classify_stored_value(action: StoredAction) -> tuple[str, int | None]:
    """('const', k) | ('shift', c) | ('opaque', None) for an integer write."""
    value = action.value
    constant = value.constant_value()
    if constant is not None:
        return "const", constant
    var_terms = [t for t in value.terms if t.var is not None]
    if len(var_terms) == 1 and var_terms[0].var == action.var and var_terms[0].coeff == 1:
        shift = sum(t.coeff for t in value.terms if t.var is None)
        return "shift", shift
    return "opaque", None


def approximate_variables(
    spec: GrafcetSpec,
    bounds: dict[ActionKey, ExecutionBound],
) -> dict[str, VarApprox]:
    """Value approximation for every internal and output variable."""
    out: dict[str, VarApprox] = {}
    for decl in spec.internals + spec.outputs:
        writers = spec.writers.get(decl.name, ())
        if decl.type == "bool":
            out[decl.name] = _approx_bool(decl, writers, bounds)
        else:
            out[decl.name] = _approx_int(decl, writers, bounds)
    return out


def _approx_bool(decl, writers, bounds) -> VarApprox:
    values = {bool(decl.init_value)}
    for pid, i, action in writers:
        live = bounds[(pid, i)].count > 0
        if isinstance(action, ContinuousAction):
            # A continuous output is false whenever no associated step is active.
            values.add(False)
            if live:
                values.add(True)
        elif live:
            values.add(action.value)
    return VarApprox("bool", values=frozenset(values))


def _approx_int(decl, writers, bounds) -> VarApprox:
    init = decl.init_value
    lo = hi = init
    neg_shift = pos_shift = 0.0
    for pid, i, action in writers:
        count = bounds[(pid, i)].count
        if count == 0:
            continue
        kind, value = classify_stored_value(action)
        if kind == "opaque":
            lo, hi = -math.inf, math.inf
            break
        if kind == "const":
            lo = min(lo, value)
            hi = max(hi, value)
        else:  # shift by +-c, applied up to `count` times in any order
            if value > 0:
                pos_shift += value * count
            elif value < 0:
                neg_shift += value * count
    lo, hi = lo + neg_shift, hi + pos_shift
    # The interval always hulls the initialization value zero.
    return VarApprox("int", interval=(min(lo, 0), max(hi, 0)))
