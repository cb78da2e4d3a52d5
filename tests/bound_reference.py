"""Reference execution bounds, resolved by recursion through the hierarchy.

Each step's bound asks for its anchors' bounds on demand, with a memo and a
set of the steps still being resolved; a step met again while it is being
resolved counts as unbounded. ``varapprox.bound_executions`` bounds the
partials in hierarchy order instead; the tests compare the two.
"""

import math

from grafcet_lint.varapprox import ExecutionBound


def _loop_transitions(c, inv):
    return {c.transitions[j].id for x in inv.t_invariants
            for j, entry in enumerate(x) if entry > 0}


def bound_executions_reference(spec, invariants, results):
    """(partial id, action index) -> ExecutionBound, as the recursion gives it."""
    loops = {c.id: _loop_transitions(c, invariants[c.id]) for c in spec.partials}
    cache = {}
    visiting = set()

    def step_bound(pid, step):
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

    def _step_bound(pid, step):
        c = spec.partial_map[pid]
        inv = invariants[pid]
        reachable_in = [r for r in results.get(pid, []) if step in r.reachable]
        if not reachable_in:
            return 0, ("unreachable",)
        if not inv.covered:
            return math.inf, ("uncovered-s-invariant" if step in inv.uncovered_steps
                              else "uncovered-partial",)
        if any(t.id in loops[pid] for t in c.upstream_of[step]):
            return math.inf, ("t-invariant-loop",)
        total = 0
        for r in reachable_in:
            sit = r.situation
            if sit.source == "initial-steps":
                entries = 1
            else:
                entries, _ = step_bound(sit.from_partial, sit.from_step)
            total += entries * inv.bound * len(sit.steps)
        if total == math.inf:
            return math.inf, ("unbounded-entry",)
        return total, ("bound-times-initial",)

    bounds = {}
    for c in spec.partials:
        for i, a in enumerate(c.actions):
            count, reasons = step_bound(c.id, a.step)
            bounds[(c.id, i)] = ExecutionBound(a.step, count, reasons)
    return bounds
