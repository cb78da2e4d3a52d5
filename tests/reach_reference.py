"""Reference reachability and concurrency fixpoint in two passes.

The first pass computes S^R while it fires transitions; the second re-runs
the whole worklist with the first pass's S^R as the seed of the source
transitions' downstream steps, and as the set those transitions use in place
of the intersection term. ``reachconc.reach_analysis`` computes S^R once and
then runs one concurrency worklist; the tests compare the two.
"""

from collections import deque


def _grow(conc, s, others):
    new = set(others - conc[s])
    new.discard(s)
    conc[s] |= new
    for s2 in new:
        conc[s2].add(s)
    return new | {s} if new else new


def _pass(c, initial, source_seed):
    conc = {s: set(initial - {s}) if s in initial else set() for s in c.steps}
    for t in c.source_transitions:
        for s in t.downstream:
            _grow(conc, s, source_seed)
    reachable = set(initial)
    queue = deque(c.source_transitions)
    pending = {t.id for t in queue}

    def enqueue(steps):
        for s in steps:
            for t in c.downstream_of[s]:
                if t.id not in pending:
                    pending.add(t.id)
                    queue.append(t)

    enqueue(initial)
    while queue:
        t = queue.popleft()
        pending.discard(t.id)
        if not t.upstream <= reachable:
            continue
        if t.upstream:
            shared = set.intersection(*(conc[s] for s in t.upstream))
        else:
            shared = source_seed
        others = t.downstream | shared
        enqueue(t.downstream - reachable)
        reachable |= t.downstream
        for s in t.downstream:
            enqueue(_grow(conc, s, others))
    return reachable, conc


def reach_analysis_reference(c, initial):
    """(S^R, concurrency sets) of partial ``c`` from the steps ``initial``."""
    reachable, conc = _pass(c, initial, frozenset())
    if c.source_transitions:
        reachable, conc = _pass(c, initial, frozenset(reachable))
    return reachable, conc
