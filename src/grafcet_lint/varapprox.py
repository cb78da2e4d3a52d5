"""Execution-count bounding and interval/value-set variable approximation.

Per stored/continuous action, the number of possible executions is bounded
in three steps: S-invariant coverage (uncovered partial => unbounded),
T-invariant loops through the action's step (=> unbounded), otherwise
n * |S^I| per initial situation. The bounds then drive a sound hull of the
values each internal/output variable can take.
"""

from __future__ import annotations

import math

from .conditions import add_ends
from .hierarchy import HierarchyGraph
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
    graph: HierarchyGraph,
    invariants: dict[str, InvariantSet],
    results: dict[str, list[ReachConcResult]],
) -> dict[ActionKey, ExecutionBound]:
    """Bound how often each action's step can become active.

    An enclosed or forced partial Grafcet restarts whenever its anchor step
    re-activates, so each entry mode's contribution is weighted by the
    anchor step's own activation bound. Partials are bounded in
    ``graph.order``, so on a partial order every anchor is bounded before
    the partials it enters. On a cyclic hierarchy that order is declaration
    order, and an anchor that is not bounded yet counts as unbounded.
    """
    done: dict[str, dict[str, tuple[float, tuple[str, ...]]]] = {}
    for pid in graph.order:
        c = spec.partial_map[pid]
        inv = invariants[pid]
        loops = _loop_transitions(c, inv)
        own = done[pid] = {}
        # Only action steps (forcing orders are actions) and anchors are read.
        for step in {a.step for a in c.actions} | {s for s, _ in c.enclosings}:
            entered_by = [r.situation for r in results[pid] if step in r.reachable]
            if not entered_by:
                own[step] = 0, ("unreachable",)
            elif not inv.covered:
                # An uncovered partial Grafcet is treated as unbounded as a
                # whole; its activation counts cannot be certified.
                own[step] = math.inf, ("uncovered-s-invariant" if step in inv.uncovered_steps
                                       else "uncovered-partial",)
            elif any(t.id in loops for t in c.upstream_of[step]):
                own[step] = math.inf, ("t-invariant-loop",)
            else:
                total = 0
                for sit in entered_by:
                    entries = (1 if sit.source == "initial-steps" else
                               done.get(sit.from_partial, {}).get(sit.from_step, (math.inf,))[0])
                    total = add_ends(total, entries * inv.bound * len(sit.steps))
                own[step] = ((math.inf, ("unbounded-entry",)) if total == math.inf
                             else (total, ("bound-times-initial",)))
    return {(c.id, i): ExecutionBound(a.step, *done[c.id][a.step])
            for c in spec.partials for i, a in enumerate(c.actions)}


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
    neg_shift = pos_shift = 0
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
                pos_shift = add_ends(pos_shift, value * count)
            elif value < 0:
                neg_shift = add_ends(neg_shift, value * count)
    lo, hi = add_ends(lo, neg_shift), add_ends(hi, pos_shift)
    # The interval always hulls the initialization value zero.
    return VarApprox("int", interval=(min(lo, 0), max(hi, 0)))
