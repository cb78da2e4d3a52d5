"""Explicit-state interpreter for small specifications, used as a testing
oracle for the soundness of the structural analyses.

A state holds its active steps as one ``int`` bitset over dense step
indices (partials in declaration order, then each partial's steps in
declaration order) plus the valuation of stored variables. Step activity is
Boolean: activating an already active step maintains it without producing
a new activation event. In ``structural`` mode transition and action
conditions are havocked (any Boolean outcome is possible), matching the
relaxation the structural analysis performs; ``semantic`` mode evaluates
them over enumerated Boolean input valuations with one-step history for
edge events. Semantic mode refuses what it does not model: integer inputs,
and conditions that read a continuously written output.

Exploration both fires single transitions and simultaneous non-conflicting
sets (no two fired transitions share an upstream step), unioning the
observed facts, so the oracle stays conservative with respect to either
interpretation of GRAFCET's evolution rules. Activation events are visited
in step-index order, so the results do not depend on string hashing. Each
transition is indexed under its lowest upstream step, so a state tests only
the transitions of its active steps (and the source transitions), still in
declaration order.

Every move, the initial one from no active step included, goes through one
step: the hierarchy settles, tracked activations are counted and triggered
stored actions run. An enclosing acts when its anchor's activity changes: it
activates the enclosed partials' marked steps, or clears those partials. A
forcing order acts while its anchor is active and wins over an enclosing
into the same partial. A freeze order ("*") only holds its target. The caps
past which a run is inconclusive are fixed constants.

Most moves skip that step. A move is quiet when it changes no watched step
(one that triggers stored actions or counts activations), changes no
enclosing anchor and leaves no forcing anchor active: then no event arises
and no enclosing or forcing order acts, so the moved mask is already the
settled one, and the search yields it as it is.
"""

from __future__ import annotations

from collections import deque
from functools import cache
from itertools import combinations, permutations, product

from .conditions import Edge, StepRef, VarRef, concrete_eval, walk
from .model import ContinuousAction, GrafcetSpec, PartialGrafcet, StoredAction

__all__ = ["OracleFacts", "explore", "explore_partial"]

ActionKey = tuple[str, int]

# Semantic mode enumerates every valuation of the Boolean inputs per state.
MAX_BOOL_INPUTS = 6
# A run is inconclusive past these caps: |stored value|, tracked activations,
# transitions enabled at once (past which not every firing subset is tried).
VALUE_CAP = 64
ACTIVATION_CAP = 12
ENABLED_CAP = 10


class OracleFacts:
    def __init__(self):
        self.reachable: set[str] = set()  # global step ids
        self.pairs: set[frozenset[str]] = set()  # co-active distinct steps
        self.var_values: dict[str, set] = {}
        self.conflicts: set[frozenset[ActionKey]] = set()
        self.activations: dict[str, int] = {}  # tracked steps: max count
        self.states_seen = 0
        self.inconclusive = False


def _bits(mask: int):
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _World:
    """Static tables shared by the whole exploration, plus the stored-action
    results it memoises. Step ``i`` of the dense numbering is bit ``1 << i``
    of a state's active mask."""

    def __init__(self, spec: GrafcetSpec, partials: list[PartialGrafcet], mode: str,
                 track_activations: tuple[str, ...] = ()):
        self.mode = mode
        self.input_choices = [{}]
        self.edge_operands = ()
        if mode == "semantic":
            if any(d.type == "int" for d in spec.inputs):
                raise ValueError("semantic mode does not support integer inputs")
            names = [d.name for d in spec.inputs]
            if len(names) > MAX_BOOL_INPUTS:
                raise ValueError(f"semantic mode supports at most {MAX_BOOL_INPUTS} "
                                 f"Boolean inputs, got {len(names)}")
            self.input_choices = [dict(zip(names, bits))
                                  for bits in product((False, True), repeat=len(names))]
            conds = [t.condition for c in partials for t in c.transitions]
            conds += [getattr(a, "condition", None) for c in partials for a in c.actions]
            nodes = [node for cond in conds if cond is not None for node in walk(cond)]
            # A continuous output holds while a writing step is active, which
            # ``_value`` does not model; it would read the init value instead.
            continuous = {a.var for c in spec.partials for a in c.actions
                          if isinstance(a, ContinuousAction)}
            for node in nodes:
                if isinstance(node, VarRef) and node.name in continuous:
                    raise ValueError("semantic mode does not support conditions on the "
                                     f"continuously written output {node.name!r}")
            # The operands whose previous value a state keeps, in walk order.
            self.edge_operands = tuple(dict.fromkeys(
                node.operand for node in nodes if isinstance(node, Edge)))
        steps = [(c.id, s) for c in partials for s in c.steps]
        self.gids = [spec.global_step(*step) for step in steps]
        self.bit = {step: 1 << i for i, step in enumerate(steps)}  # (partial, step) -> bit
        pmap = {c.id: c for c in partials}

        def mask(c, steps):
            return sum(self.bit[c.id, s] for s in steps)

        enclosed: dict[int, tuple[int, int]] = {}  # anchor -> (targets' marked, targets)
        self.forcings: list[tuple[int, int, int]] = []  # (anchor, wanted, target)
        anchors = dict.fromkeys(pmap, 0)  # partial -> anchors of edges into it
        holds = dict.fromkeys(pmap, 0)  # partial -> anchors of forcing orders on it
        stored: list[tuple[ActionKey, int, StoredAction]] = []  # (key, step bit, action)
        self.continuous: list[tuple[int, str]] = []  # (step bit, output)
        for c in partials:
            for i, a in enumerate(c.actions):
                anchor = self.bit[c.id, a.step]
                if isinstance(a, StoredAction):
                    stored.append(((c.id, i), anchor, a))
                elif isinstance(a, ContinuousAction):
                    self.continuous.append((anchor, a.var))
                elif a.target in pmap:
                    t = pmap[a.target]
                    anchors[t.id] |= anchor
                    holds[t.id] |= anchor
                    # A freeze order ("*") only holds its target.
                    if a.situation != "*":
                        wanted = mask(t, a.situation if isinstance(a.situation, frozenset)
                                      else t.initial)
                        self.forcings.append((anchor, wanted, mask(t, t.steps)))
            for step, target in c.enclosings:
                if target in pmap:
                    t = pmap[target]
                    anchor = self.bit[c.id, step]
                    marked, steps = enclosed.get(anchor, (0, 0))
                    enclosed[anchor] = (marked | mask(t, t.marked), steps | mask(t, t.steps))
                    anchors[t.id] |= anchor
        # One entry per anchor, so a step enclosing several partials
        # activates and clears all of them at once.
        self.enclosings = [(anchor, marked, steps)
                           for anchor, (marked, steps) in enclosed.items()]
        self.settle_rounds = 10 * (len(self.enclosings) + len(self.forcings) + 1)

        # (upstream, downstream, hold, wake, condition): a transition is
        # enabled when its upstream steps are active and no forcing order on
        # its partial is (hold); a source transition of a partial without
        # initial steps stays silent until one of its steps or anchors is
        # active (wake). Conditions are kept only where they are evaluated.
        self.transitions: list[tuple[int, int, int, int, object]] = []
        for c in partials:
            wake = 0 if c.initial else mask(c, c.steps) | anchors[c.id]
            for t in c.transitions:
                self.transitions.append((
                    mask(c, t.upstream), mask(c, t.downstream), holds[c.id],
                    wake if t.is_source else 0,
                    t.condition if mode == "semantic" else None))
        # Transition ``n`` is bit ``1 << n``, in declaration order:
        # candidates[i] holds the transitions whose lowest upstream step is
        # ``i``, so only those of active steps are tested; sources holds the
        # transitions without upstream steps.
        self.candidates = [0] * len(self.gids)
        self.sources = 0
        for n, (up, *_) in enumerate(self.transitions):
            if up:
                self.candidates[(up & -up).bit_length() - 1] |= 1 << n
            else:
                self.sources |= 1 << n

        self.stored_vars = sorted({a.var for _, _, a in stored})
        self.cont_vars = sorted({var for _, var in self.continuous})
        self.defaults = {d.name: d.init_value for d in spec.internals + spec.outputs}
        self.stored_pos = {v: i for i, v in enumerate(self.stored_vars)}
        self.initial_vals = tuple(self.defaults[v] for v in self.stored_vars)
        # Stored actions by the step index whose activation or deactivation
        # triggers them, as (var position, constant, ((coeff, var position),
        # ...), condition); a Boolean literal is the constant 0 or 1.
        self.on_activation: dict[int, list] = {}
        self.on_deactivation: dict[int, list] = {}
        writers: dict[str, list[tuple[int, ActionKey]]] = {}
        for key, anchor, a in stored:
            if isinstance(a.value, bool):
                const, terms = int(a.value), ()
            else:
                const = sum(t.coeff * (1 if t.var is None else self.defaults.get(t.var, 0))
                            for t in a.value.terms if t.var not in self.stored_pos)
                terms = tuple((t.coeff, self.stored_pos[t.var])
                              for t in a.value.terms if t.var in self.stored_pos)
            table = self.on_deactivation if a.trigger == "deactivation" else self.on_activation
            table.setdefault(anchor.bit_length() - 1, []).append(
                (self.stored_pos[a.var], const, terms, a.condition))
            writers.setdefault(a.var, []).append((anchor, key))
        # Write-write conflicts: two distinct stored writers of one variable
        # attached to co-active steps.
        self.writers = [w for w in writers.values() if len(w) > 1]
        # Tracked steps count their activations; a tracked name that is not
        # a step of the world keeps the count 0.
        self.tracked = list(dict.fromkeys(track_activations))
        index = {gid: i for i, gid in enumerate(self.gids)}
        self.track_at = {index[gid]: n for n, gid in enumerate(self.tracked) if gid in index}
        # Only changes of these steps are events: they trigger stored actions
        # or count activations.
        self.watched = sum(1 << i for i in {*self.on_activation, *self.on_deactivation,
                                             *self.track_at})
        # A move that changes no watched step and no enclosing anchor is
        # quiet, unless a forcing anchor is active after it.
        self.noticed = self.watched | sum(enclosed)
        self.forcing_anchors = sum({anchor for anchor, _, _ in self.forcings})
        # (values, events, which triggered actions run in semantic mode) ->
        # the valuations ``_run_triggers`` returns; filled while exploring.
        self.trigger_results: dict[tuple, list[tuple]] = {}


def explore(
    spec: GrafcetSpec,
    mode: str = "structural",
    max_states: int = 100_000,
    track_activations: tuple[str, ...] = (),
) -> OracleFacts:
    """BFS over the evolutions of the whole specification."""
    return _explore(spec, list(spec.partials), None, mode, max_states, track_activations)


def explore_partial(
    spec: GrafcetSpec,
    partial_id: str,
    initial_steps: frozenset[str],
    mode: str = "structural",
    max_states: int = 100_000,
    track_activations: tuple[str, ...] = (),
) -> OracleFacts:
    """Explore a single partial Grafcet from a given initial situation,
    ignoring hierarchy (the per-situation view the analyses use)."""
    c = spec.partial_map[partial_id]
    return _explore(spec, [c], initial_steps, mode, max_states, track_activations)


def _explore(spec, partials, initial_override, mode, max_states,
             track_activations) -> OracleFacts:
    world = _World(spec, partials, mode, track_activations)
    facts = OracleFacts()
    facts.var_values = {v: set() for v in world.stored_vars + world.cont_vars}

    if initial_override is not None:
        entry = [(partials[0].id, s) for s in initial_override]
    else:
        entry = [(c.id, s) for c in partials for s in c.initial]
    initial = sum(world.bit[step] for step in entry)

    # A state is (active mask, stored values, activation counts, previous
    # edge-operand values or None); it is also its own seen-set key.
    seen = set()
    frontier = deque()
    for inputs in world.input_choices:
        for state in _move(world, facts, 0, initial, world.initial_vals,
                           (0,) * len(world.tracked), None, None, inputs):
            if state not in seen:
                seen.add(state)
                frontier.append(state)
    while frontier:
        for state in _successors(world, *frontier.popleft(), facts):
            if state in seen:
                continue
            if len(seen) >= max_states:
                facts.inconclusive = True
                _record(world, facts, seen)
                return facts
            seen.add(state)
            frontier.append(state)
    _record(world, facts, seen)
    facts.states_seen = len(seen)
    return facts


def _record(world, facts, states):
    """Fill ``facts`` from the visited states; the step facts are derived once
    per distinct active mask, and step ids are rebuilt from indices here."""
    masks = {s[0] for s in states}
    union = 0
    index_pairs = set()
    for m in masks:
        union |= m
        index_pairs.update(combinations(_bits(m), 2))
        for writers in world.writers:
            keys = [key for anchor, key in writers if m & anchor]
            for k1, k2 in combinations(keys, 2):
                facts.conflicts.add(frozenset((k1, k2)))
    gids = world.gids
    facts.reachable.update(gids[i] for i in _bits(union))
    facts.pairs.update(frozenset((gids[i], gids[j])) for i, j in index_pairs)
    for vals in {s[1] for s in states}:
        for name, value in zip(world.stored_vars, vals):
            facts.var_values[name].add(value)
    if masks:
        for anchor, var in world.continuous:
            facts.var_values[var].add(False)
            if union & anchor:
                facts.var_values[var].add(True)
    for counts in {s[2] for s in states}:
        for step, n in zip(world.tracked, counts):
            facts.activations[step] = max(facts.activations.get(step, 0), n)


def _settle_hierarchy(world, prev_active, active):
    """Apply enclosing activations/deactivations and forcing orders until
    stable; returns (active, events), with active None when the iteration cap
    is hit. Events are (step index, +-1) per change of a watched step's
    activity: the fired changes in index order, then the hierarchy's in the
    order applied."""
    watched = world.watched
    changed = (prev_active ^ active) & watched
    events = [(i, 1 if active >> i & 1 else -1) for i in _bits(changed)] if changed else []
    was_active = prev_active
    for _ in range(world.settle_rounds):
        changed = False
        for anchor, marked, target in world.enclosings:
            if active & anchor:
                if not was_active & anchor:
                    was_active |= anchor
                    events += [(i, 1) for i in _bits(marked & ~active & watched)]
                    active |= marked
                    changed = True
            elif was_active & anchor:
                was_active &= ~anchor
                events += [(i, -1) for i in _bits(active & target & watched)]
                active &= ~target
                changed = True
        for anchor, wanted, target in world.forcings:
            if not active & anchor:
                continue
            forced = (active & ~target) | wanted
            if forced != active:
                events += [(i, 1 if forced >> i & 1 else -1)
                           for i in _bits((forced ^ active) & watched)]
                active = forced
                changed = True
        if not changed:
            return active, events
    return None, events


def _enabled(world, active, vals, prev, inputs) -> list[tuple[int, int]]:
    """The enabled transitions' (upstream, downstream), in declaration order."""
    candidates = world.sources
    index = world.candidates
    rest = active
    while rest:
        low = rest & -rest
        candidates |= index[low.bit_length() - 1]
        rest ^= low
    transitions = world.transitions
    out = []
    while candidates:
        low = candidates & -candidates
        candidates ^= low
        up, down, hold, wake, cond = transitions[low.bit_length() - 1]
        if active & up != up or active & hold or (wake and not active & wake):
            continue
        if cond is not None and not _eval_cond(world, cond, active, vals, prev, inputs):
            continue
        out.append((up, down))
    return out


def _value(world, ref, active, vals, inputs):
    """The value of a variable or step reference in a state under one input
    valuation, which covers every Boolean input (the initial situation's
    triggers too run under each). A variable no stored action writes keeps
    its init value."""
    if isinstance(ref, StepRef):
        return active & world.bit.get((ref.partial, ref.step), 0) > 0
    if ref.name in inputs:
        return inputs[ref.name]
    if ref.name in world.stored_pos:
        return vals[world.stored_pos[ref.name]]
    return world.defaults[ref.name]


def _eval_cond(world, cond, active, vals, prev, inputs) -> bool:
    """``prev`` holds the edge operands' values one cycle earlier; without it
    (the initial state) every edge operand reads its current value."""
    def now(ref):
        return _value(world, ref, active, vals, inputs)

    before = now if prev is None else dict(zip(world.edge_operands, prev)).__getitem__
    return concrete_eval(cond, now, before)


def _successors(world, active, vals, track, prev, facts):
    semantic = world.mode == "semantic"
    noticed, forcing = world.noticed, world.forcing_anchors
    for inputs in world.input_choices:
        prev2 = tuple(_value(world, ref, active, vals, inputs)
                      for ref in world.edge_operands) if world.edge_operands else None
        enabled = _enabled(world, active, vals, prev, inputs)
        if len(enabled) > ENABLED_CAP:
            facts.inconclusive = True
        for up, down in _firing_subsets(enabled):
            # All upstream steps deactivate, then all downstream steps
            # activate; a step on both sides is maintained without events.
            fired = (active & ~up) | down
            if not ((active ^ fired) & noticed or fired & forcing):
                # Quiet: already settled, and nothing is triggered.
                yield fired, vals, track, prev2
                continue
            yield from _move(world, facts, active, fired, vals, track, prev, prev2, inputs)
        if semantic:
            # Stutter: a cycle in which no transition fires still records the
            # input valuation, so edge conditions can observe input changes.
            yield active, vals, track, prev2


def _move(world, facts, before, after, vals, track, prev, prev2, inputs):
    """Settle the moved mask ``after``, count tracked activations and yield the
    states the triggered stored actions give; a move that never settles or
    overflows a count yields nothing and makes the run inconclusive."""
    settled, events = _settle_hierarchy(world, before, after)
    if settled is None:
        facts.inconclusive = True
        return
    if world.track_at:
        counts = list(track)
        for i, delta in events:
            if delta > 0 and i in world.track_at:
                n = world.track_at[i]
                counts[n] += 1
                if counts[n] > ACTIVATION_CAP:
                    facts.inconclusive = True
                    return
        track = tuple(counts)
    for vals2 in _run_triggers(world, settled, vals, events, facts, prev, inputs):
        yield settled, vals2, track, prev2


@cache
def _subset_plan(n) -> tuple[tuple[int, int], ...]:
    """For ``n`` enabled transitions, one (prefix position, last index) per
    subset of two or more, in ``combinations`` order by size; positions
    count the singles first, then the pairs, and so on."""
    position = {(j,): j for j in range(n)}
    plan = []
    for r in range(2, n + 1):
        for subset in combinations(range(n), r):
            position[subset] = len(position)
            plan.append((position[subset[:-1]], subset[-1]))
    return tuple(plan)


def _firing_subsets(enabled) -> list[tuple[int, int]]:
    """(upstream, downstream) unions of the non-empty subsets of enabled
    transitions in which no two fired transitions share an upstream step,
    by size, then in the order of ``combinations``."""
    if len(enabled) > ENABLED_CAP:
        # Fall back to single firings plus the full set.
        used = down = 0
        for up, d in enabled:
            if used & up:
                return enabled
            used |= up
            down |= d
        return [*enabled, (used, down)]
    # Each subset of two or more is its prefix subset plus one last member,
    # and it is valid when its prefix is and the last member's upstream
    # steps miss those the prefix uses. ``unions`` holds every subset in
    # ``combinations`` order, None for an invalid one.
    unions = list(enabled)
    for prefix, last in _subset_plan(len(enabled)):
        union = unions[prefix]
        if union is not None:
            used, down = union
            up, d = enabled[last]
            if not used & up:
                unions.append((used | up, down | d))
                continue
        unions.append(None)
    return [union for union in unions if union is not None]


def _run_triggers(world, active, vals, events, facts, prev, inputs):
    """Execute triggered stored actions in every subset and order; returns the
    distinct resulting valuations.

    'during' actions run once per activation, like activation triggers
    (without time, repeated execution inside one activation cannot be told
    apart). In structural mode every triggered action may also be skipped.
    """
    # The result depends only on the values and the actions that may run,
    # never on the rest of the state. In structural mode the events fix
    # those actions, so the memo is read before they are listed (events that
    # trigger nothing are memoised too); semantic mode keys it by which
    # triggered actions' conditions hold.
    runs = None
    if world.mode == "semantic":
        triggered = _triggered(world, events)
        runs = tuple(a[3] is None or _eval_cond(world, a[3], active, vals, prev, inputs)
                     for a in triggered)
        if not any(runs):
            return [vals]
    key = (vals, tuple(events), runs)
    known = world.trigger_results.get(key)
    if known is not None:
        return known
    if runs is not None:
        pools = [[a for a, run in zip(triggered, runs) if run]]
    else:
        triggered = _triggered(world, events)
        # Conditions havocked: any subset of the triggered actions may run.
        pools = [s for r in range(len(triggered) + 1) for s in combinations(triggered, r)]

    results = {}
    for pool in pools:
        orders = permutations(pool) if len(pool) <= 4 else (pool, pool[::-1])
        for order in orders:
            new = list(vals)
            for pos, const, terms, _cond in order:
                value = const + sum(coeff * new[p] for coeff, p in terms)
                if abs(value) > VALUE_CAP:
                    facts.inconclusive = True
                    break
                new[pos] = value
            else:
                results[tuple(new)] = None
    # An overflow set ``facts.inconclusive`` above, which holds for the
    # whole exploration, so a memoised result needs no flag.
    out = world.trigger_results[key] = list(results) or [vals]
    return out


def _triggered(world, events) -> list:
    """The stored actions that the events trigger, in event order."""
    return [action for i, delta in events
            for action in (world.on_activation if delta > 0
                           else world.on_deactivation).get(i, ())]
