"""Explicit-state interpreter for small specifications, used as a testing
oracle for the soundness of the structural analyses.

States track the set of active steps per partial Grafcet (step activity is
Boolean: activating an already active step maintains it without producing a
new activation event) plus the valuation of stored variables. In
``structural`` mode transition and action conditions are havocked (any
Boolean outcome is possible), matching the relaxation the structural
analysis performs; ``semantic`` mode evaluates them over enumerated Boolean
input valuations with one-step history for edge events.

Exploration both fires single transitions and simultaneous non-conflicting
sets (no two fired transitions share an upstream step), unioning the
observed facts, so the oracle stays conservative with respect to either
interpretation of GRAFCET's evolution rules.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import combinations, permutations, product

from .conditions import Edge, StepRef, VarRef, concrete_eval, walk
from .model import ContinuousAction, ForcingAction, GrafcetSpec, PartialGrafcet, StoredAction

__all__ = ["OracleFacts", "explore", "explore_partial"]

ActionKey = tuple[str, int]


@dataclass
class OracleFacts:
    reachable: set[str] = field(default_factory=set)  # global step ids
    pairs: set[frozenset[str]] = field(default_factory=set)  # co-active distinct steps
    var_values: dict[str, set] = field(default_factory=dict)
    conflicts: set[frozenset[ActionKey]] = field(default_factory=set)
    activations: dict[str, int] = field(default_factory=dict)  # tracked steps: max count
    states_seen: int = 0
    inconclusive: bool = False


class _World:
    """Static tables shared by the whole exploration."""

    def __init__(self, spec: GrafcetSpec, partials: list[PartialGrafcet], mode: str):
        self.spec = spec
        self.partials = partials
        self.mode = mode
        self.transitions = [(c, t) for c in partials for t in c.transitions]
        self.stored: list[tuple[ActionKey, str, StoredAction]] = []
        self.continuous: list[tuple[str, ContinuousAction]] = []
        self.enclosings: list[tuple[str, str, PartialGrafcet]] = []  # (anchor gid, pid, target)
        self.forcings: list[tuple[str, ForcingAction, PartialGrafcet]] = []
        pmap = {c.id: c for c in partials}
        for c in partials:
            for i, a in enumerate(c.actions):
                gid = f"{c.id}.{a.step}"
                if isinstance(a, StoredAction):
                    self.stored.append(((c.id, i), gid, a))
                elif isinstance(a, ContinuousAction):
                    self.continuous.append((gid, a))
                elif a.target in pmap:
                    self.forcings.append((gid, a, pmap[a.target]))
            for step, target in c.enclosings:
                if target in pmap:
                    self.enclosings.append((f"{c.id}.{step}", c.id, pmap[target]))
        self.stored_vars = sorted({a.var for _, _, a in self.stored})
        self.cont_vars = sorted({a.var for _, a in self.continuous})
        self.defaults = {d.name: d.init_value for d in spec.internals + spec.outputs}
        if mode == "semantic":
            self.bool_inputs = [d.name for d in spec.inputs if d.type == "bool"]
            if any(d.type == "int" for d in spec.inputs):
                raise ValueError("semantic mode does not support integer inputs")
            conds = [t.condition for c in partials for t in c.transitions]
            conds += [getattr(a, "condition", None) for c in partials for a in c.actions]
            self.edge_operands = sorted({
                node.operand.name if isinstance(node.operand, VarRef) else
                f"{node.operand.partial}.{node.operand.step}"
                for cond in conds if cond is not None
                for node in walk(cond) if isinstance(node, Edge)
            })


def explore(
    spec: GrafcetSpec,
    mode: str = "structural",
    max_states: int = 100_000,
    value_cap: int = 64,
    track_activations: tuple[str, ...] = (),
    activation_cap: int = 12,
) -> OracleFacts:
    """BFS over the evolutions of the whole specification."""
    return _explore(spec, list(spec.partials), None, mode, max_states,
                    value_cap, track_activations, activation_cap)


def explore_partial(
    spec: GrafcetSpec,
    partial_id: str,
    initial_steps: frozenset[str],
    mode: str = "structural",
    max_states: int = 100_000,
    value_cap: int = 64,
    track_activations: tuple[str, ...] = (),
    activation_cap: int = 12,
) -> OracleFacts:
    """Explore a single partial Grafcet from a given initial situation,
    ignoring hierarchy (the per-situation view the analyses use)."""
    c = spec.partial_map[partial_id]
    return _explore(spec, [c], initial_steps, mode, max_states,
                    value_cap, track_activations, activation_cap)


def _explore(spec, partials, initial_override, mode, max_states,
             value_cap, track_activations, activation_cap) -> OracleFacts:
    world = _World(spec, partials, mode)
    facts = OracleFacts()
    facts.var_values = {v: set() for v in world.stored_vars + world.cont_vars}

    init_active: dict[str, int] = {}
    if initial_override is not None:
        for s in initial_override:
            init_active[f"{partials[0].id}.{s}"] = 1
    else:
        for c in partials:
            for s in c.initial:
                init_active[f"{c.id}.{s}"] = 1
    init_vars = {}
    for decl in spec.internals + spec.outputs:
        if decl.name in world.stored_vars:
            init_vars[decl.name] = decl.init_value

    active, events = _settle_hierarchy(world, {}, dict(init_active), facts)
    if active is None:
        return facts
    track = {s: 0 for s in track_activations}
    for step, delta in events:
        if delta > 0 and step in track:
            track[step] += 1

    initial_states = _run_triggers(world, active, init_vars, events, value_cap, facts,
                                   None)
    frontier = deque()
    seen = set()
    for active2, vars2 in initial_states:
        state = _freeze(active2, vars2, track, None)
        if state not in seen:
            seen.add(state)
            frontier.append((active2, vars2, dict(track), None))
            _record(world, active2, vars2, facts, dict(track))

    while frontier:
        active, varvals, trackmap, prev = frontier.popleft()
        successors = _successors(world, active, varvals, trackmap, prev,
                                 value_cap, activation_cap, facts)
        for active2, vars2, track2, prev2 in successors:
            state = _freeze(active2, vars2, track2, prev2)
            if state in seen:
                continue
            if len(seen) >= max_states:
                facts.inconclusive = True
                return facts
            seen.add(state)
            frontier.append((active2, vars2, track2, prev2))
            _record(world, active2, vars2, facts, track2)
    facts.states_seen = len(seen)
    return facts


def _freeze(active, varvals, track, prev):
    return (
        tuple(sorted(s for s, v in active.items() if v)),
        tuple(sorted(varvals.items())),
        tuple(sorted(track.items())),
        prev,
    )


def _record(world, active, varvals, facts, track):
    live = [s for s, v in active.items() if v]
    facts.reachable.update(live)
    for a, b in combinations(sorted(live), 2):
        facts.pairs.add(frozenset((a, b)))
    for name, value in varvals.items():
        facts.var_values[name].add(value)
    for gid, action in world.continuous:
        facts.var_values[action.var].add(False)
        if active.get(gid, 0):
            facts.var_values[action.var].add(True)
    # Write-write conflicts: two distinct stored writers of one variable
    # attached to co-active steps.
    by_var: dict[str, list] = {}
    for key, gid, action in world.stored:
        if active.get(gid, 0):
            by_var.setdefault(action.var, []).append(key)
    for keys in by_var.values():
        for k1, k2 in combinations(keys, 2):
            facts.conflicts.add(frozenset((k1, k2)))
    for step, n in track.items():
        facts.activations[step] = max(facts.activations.get(step, 0), n)


def _settle_hierarchy(world, prev_active, active, facts):
    """Apply enclosing activations/deactivations and forcing orders until
    stable; returns (active, events) or (None, ...) when the iteration cap
    is hit. Events are +-1 per step whose activity actually changed."""
    events: list[tuple[str, int]] = []
    for step in set(prev_active) | set(active):
        delta = active.get(step, 0) - prev_active.get(step, 0)
        if delta:
            events.append((step, delta))
    was_active = {s for s, v in prev_active.items() if v}
    for _ in range(10 * (len(world.enclosings) + len(world.forcings) + 1)):
        changed = False
        for anchor, _pid, target in world.enclosings:
            now = active.get(anchor, 0) > 0
            if now and anchor not in was_active:
                was_active.add(anchor)
                for m in target.marked:
                    gid = f"{target.id}.{m}"
                    if not active.get(gid, 0):
                        active[gid] = 1
                        events.append((gid, 1))
                changed = True
            elif not now and anchor in was_active:
                was_active.discard(anchor)
                for s in target.steps:
                    gid = f"{target.id}.{s}"
                    if active.get(gid, 0):
                        events.append((gid, -1))
                        active[gid] = 0
                changed = True
        for anchor, forcing, target in world.forcings:
            if active.get(anchor, 0) <= 0 or forcing.situation == "*":
                if anchor in was_active and active.get(anchor, 0) <= 0:
                    was_active.discard(anchor)
                    changed = True
                continue
            wanted = forcing.situation if isinstance(forcing.situation, frozenset) \
                else target.initial
            was_active.add(anchor)
            for s in target.steps:
                gid = f"{target.id}.{s}"
                want = 1 if s in wanted else 0
                have = active.get(gid, 0)
                if have != want:
                    events.append((gid, want - have))
                    active[gid] = want
                    changed = True
        if not changed:
            return active, events
    facts.inconclusive = True
    return None, events


def _frozen_partials(world, active) -> set[str]:
    """Partials currently pinned by an active forcing order."""
    frozen = set()
    for anchor, forcing, target in world.forcings:
        if active.get(anchor, 0):
            frozen.add(target.id)
    return frozen


def _enabled(world, active, varvals, prev, inputs) -> list[tuple[PartialGrafcet, object]]:
    frozen = _frozen_partials(world, active)
    out = []
    for c, t in world.transitions:
        if c.id in frozen:
            continue
        if t.is_source:
            # Source transitions of an inactive enclosed module stay silent.
            if not c.initial and not any(active.get(g, 0)
                                         for g in (f"{c.id}.{s}" for s in c.steps)) \
                    and not _anchor_active(world, active, c.id):
                continue
        elif not all(active.get(f"{c.id}.{s}", 0) for s in t.upstream):
            continue
        if world.mode == "semantic" and t.condition is not None:
            if not _eval_cond(world, t.condition, active, varvals, prev, inputs):
                continue
        out.append((c, t))
    return out


def _anchor_active(world, active, pid) -> bool:
    for anchor, _p, target in world.enclosings:
        if target.id == pid and active.get(anchor, 0):
            return True
    for anchor, forcing, target in world.forcings:
        if target.id == pid and active.get(anchor, 0):
            return True
    return False


def _eval_cond(world, cond, active, varvals, prev, inputs) -> bool:
    prev_map = dict(prev or ())

    def lookup(ref):
        if isinstance(ref, StepRef):
            return active.get(f"{ref.partial}.{ref.step}", 0) > 0
        if ref.name in inputs:
            return inputs[ref.name]
        return varvals.get(ref.name, world.defaults.get(ref.name, 0))

    def prev_lookup(ref):
        key = f"{ref.partial}.{ref.step}" if isinstance(ref, StepRef) else ref.name
        return prev_map.get(key, lookup(ref))

    return concrete_eval(cond, lookup, prev_lookup)


def _successors(world, active, varvals, track, prev, value_cap,
                activation_cap, facts):
    input_choices = [{}]
    if world.mode == "semantic":
        names = world.bool_inputs
        if len(names) > 6:
            raise ValueError("too many Boolean inputs for semantic exploration")
        input_choices = [dict(zip(names, bits))
                         for bits in product((False, True), repeat=len(names))]
    out = []
    for inputs in input_choices:
        enabled = _enabled(world, active, varvals, prev, inputs)
        for subset in _firing_subsets(enabled, active):
            new_active = dict(active)
            # All upstream steps deactivate, then all downstream steps
            # activate; a step on both sides is maintained without events.
            for c, t in subset:
                for s in t.upstream:
                    new_active[f"{c.id}.{s}"] = 0
            for c, t in subset:
                for s in t.downstream:
                    new_active[f"{c.id}.{s}"] = 1
            settled, events = _settle_hierarchy(world, active, new_active, facts)
            if settled is None:
                continue
            track2 = dict(track)
            overflow = False
            for step, delta in events:
                if delta > 0 and step in track2:
                    track2[step] += 1
                    if track2[step] > activation_cap:
                        facts.inconclusive = True
                        overflow = True
            if overflow:
                continue
            prev2 = _snapshot_prev(world, active, varvals, inputs) \
                if world.mode == "semantic" else None
            for active3, vars3 in _run_triggers(world, settled, varvals, events,
                                                value_cap, facts, prev,
                                                inputs=inputs):
                out.append((active3, vars3, track2, prev2))
        if world.mode == "semantic":
            # Stutter: a cycle in which no transition fires still records the
            # input valuation, so edge conditions can observe input changes.
            out.append((dict(active), dict(varvals), dict(track),
                        _snapshot_prev(world, active, varvals, inputs)))
    return out


def _snapshot_prev(world, active, varvals, inputs):
    snap = []
    for name in world.edge_operands:
        if "." in name:
            snap.append((name, active.get(name, 0) > 0))
        elif name in inputs:
            snap.append((name, inputs[name]))
        else:
            snap.append((name, bool(varvals.get(name, 0))))
    return tuple(snap)


def _firing_subsets(enabled, active):
    """All non-empty subsets of enabled transitions in which no two fired
    transitions share an upstream step."""
    if len(enabled) > 10:
        # Fall back to single firings plus the full set.
        candidates = [[e] for e in enabled]
        candidates.append(list(enabled))
    else:
        candidates = []
        for r in range(1, len(enabled) + 1):
            candidates.extend(list(s) for s in combinations(enabled, r))
    for subset in candidates:
        used = set()
        ok = True
        for c, t in subset:
            for s in t.upstream:
                gid = f"{c.id}.{s}"
                if gid in used or not active.get(gid, 0):
                    ok = False
                    break
                used.add(gid)
            if not ok:
                break
        if ok:
            yield subset


def _run_triggers(world, active, varvals, events, value_cap, facts, prev,
                  inputs=None):
    """Execute triggered stored actions in every subset and order.

    'during' actions run once per activation, like activation triggers
    (without time, repeated execution inside one activation cannot be told
    apart). In structural mode every triggered action may also be skipped.
    """
    triggered: list[tuple[ActionKey, StoredAction]] = []
    for step, delta in events:
        for key, gid, action in world.stored:
            if gid != step:
                continue
            if delta > 0 and action.trigger in ("activation", "during"):
                triggered.append((key, action))
            elif delta < 0 and action.trigger == "deactivation":
                triggered.append((key, action))
    if not triggered:
        return [(active, dict(varvals))]

    if world.mode == "semantic":
        kept = []
        for key, action in triggered:
            if action.condition is None or _eval_cond(world, action.condition, active,
                                                      varvals, prev, inputs or {}):
                kept.append((key, action))
        pools = [kept] if kept else []
        if not pools:
            return [(active, dict(varvals))]
    else:
        # Conditions havocked: any subset of the triggered actions may run.
        pools = []
        for r in range(len(triggered) + 1):
            pools.extend(list(s) for s in combinations(triggered, r))

    results = {}
    for pool in pools:
        orders = list(permutations(pool)) if len(pool) <= 4 else [tuple(pool),
                                                                 tuple(reversed(pool))]
        for order in orders:
            vals = dict(varvals)
            ok = True
            for _key, action in order:
                if isinstance(action.value, bool):
                    vals[action.var] = 1 if action.value else 0
                else:
                    new = sum(t.coeff * (vals.get(t.var, world.defaults.get(t.var, 0))
                                         if t.var else 1)
                              for t in action.value.terms)
                    if abs(new) > value_cap:
                        facts.inconclusive = True
                        ok = False
                        break
                    vals[action.var] = new
            if ok:
                results[tuple(sorted(vals.items()))] = vals
    if not results:
        return [(active, dict(varvals))]
    return [(active, vals) for vals in results.values()]
