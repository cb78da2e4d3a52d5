"""Sweep fixpoint for reachable steps and per-step concurrency sets.

For one partial Grafcet and one initial situation the analysis computes an
over-approximation of the reachable steps S^R and, for every step s, the
set S^C_s of steps that can be active at the same time as s. Transition
conditions are ignored (assumed satisfiable), which makes the result
independent of variable values.

Because conditions are ignored, S^R does not depend on the concurrency sets:
it is computed first, as a closure, and sweeps over the transitions that can
fire then compute the concurrency sets. A source transition can fire in any
situation, so its downstream steps become concurrent to all of S^R, the
intersection over its empty set of upstream steps. A transition with an
unreachable upstream step never fires, however the sets of its reachable
upstream steps grow.

Every fact is added one set at a time by ``grow``, which reports whether a
set grew. Each sweep applies every fireable transition once, in the order
the closure found them, and the sweeps stop after the first one that adds
nothing. Every sweep but the last adds at least one unordered pair of steps,
which bounds the number of sweeps.

``lift_concurrency`` lifts the per-partial results to one global relation
over "partial.step" ids. It works on ``int`` bitsets over the sorted ids and
returns each step's partners as a sorted list, which ``concurrent`` searches.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import compress

from .hierarchy import HierarchyGraph, InitialSituation
from .model import GrafcetSpec, PartialGrafcet, Transition
from .record import Record

__all__ = [
    "ReachConcResult",
    "analyze_partial",
    "concurrent",
    "init_concurrency",
    "lift_concurrency",
    "reach_analysis",
]

# Maps the digits of ``format(mask, "b")`` to a falsy and a truthy byte, the
# selectors ``itertools.compress`` reads.
_SELECT = bytes.maketrans(b"01", b"\0\1")


class ReachConcResult(Record):
    situation: InitialSituation
    reachable: frozenset[str]
    concurrency: dict[str, frozenset[str]]

    def check_invariants(self) -> None:
        for s, conc in self.concurrency.items():
            assert s not in conc, f"{s} concurrent to itself"
            for s2 in conc:
                assert s in self.concurrency[s2], f"asymmetric pair ({s}, {s2})"
            if conc:
                assert s in self.reachable, f"{s} has concurrency but is unreachable"
        assert self.situation.steps <= self.reachable


def init_concurrency(c: PartialGrafcet, initial: frozenset[str]) -> dict[str, set[str]]:
    """All initially active steps are concurrent to each other."""
    return {s: set(initial - {s}) if s in initial else set() for s in c.steps}


def grow(conc: dict[str, set[str]], s: str, others: set[str] | frozenset[str]) -> bool:
    """Make ``s`` concurrent to every step of ``others`` but itself (both ways).

    Returns whether a set grew. This is the only writer of the concurrency
    sets after initialization.
    """
    new = set(others - conc[s])
    new.discard(s)
    conc[s] |= new
    for s2 in new:
        conc[s2].add(s)
    return bool(new)


def reach_analysis(
    c: PartialGrafcet,
    initial: frozenset[str],
    rng=None,
) -> tuple[set[str], dict[str, set[str]]]:
    """Returns (S^R, concurrency sets) from the initial steps ``initial``.

    ``rng``, a ``random.Random`` when given, shuffles the order before each
    sweep; the fixpoint is confluent so the result is unchanged.
    """
    # S^R: a transition fires once all its upstream steps are reachable, so a
    # source transition always can.
    reachable = set(initial)
    fireable: dict[str, Transition] = {}
    stack = list(c.transitions)
    while stack:
        t = stack.pop()
        if t.id not in fireable and t.upstream <= reachable:
            fireable[t.id] = t
            for s in t.downstream - reachable:
                reachable.add(s)
                stack += c.downstream_of[s]

    conc = init_concurrency(c, initial)
    order = list(fireable.values())
    nsteps = len(c.steps)
    for _ in range(nsteps * (nsteps - 1) // 2 + 1):
        if rng is not None:
            rng.shuffle(order)
        grew = False
        for t in order:
            # Downstream steps of a parallel activation become mutually
            # concurrent, then inherit the intersection of the upstream
            # steps' concurrency.
            others = t.downstream | reachable.intersection(*(conc[s] for s in t.upstream))
            for d in t.downstream:
                grew |= grow(conc, d, others)
        if not grew:
            return reachable, conc
    raise AssertionError("fixpoint failed to stabilize within bound")


def analyze_partial(
    c: PartialGrafcet,
    situation: InitialSituation,
    rng=None,
) -> ReachConcResult:
    """Full analysis for one initial situation."""
    reachable, conc = reach_analysis(c, situation.steps, rng=rng)
    result = ReachConcResult(
        situation=situation,
        reachable=frozenset(reachable),
        concurrency={s: frozenset(v) for s, v in conc.items()},
    )
    result.check_invariants()
    return result


def union_results(c: PartialGrafcet, results: list[ReachConcResult]
                  ) -> tuple[frozenset[str], dict[str, frozenset[str]]]:
    """Per-partial union over all initial situations."""
    reachable: set[str] = set()
    conc: dict[str, set[str]] = {s: set() for s in c.steps}
    for r in results:
        reachable |= r.reachable
        for s, v in r.concurrency.items():
            conc[s] |= v
    return frozenset(reachable), {s: frozenset(v) for s, v in conc.items()}


def lift_concurrency(
    spec: GrafcetSpec,
    graph: HierarchyGraph,
    reachable_by_partial: dict[str, frozenset[str]],
    conc_by_partial: dict[str, dict[str, frozenset[str]]],
) -> dict[str, list[str]]:
    """Global concurrency relation over "partial.step" identifiers.

    Rules, applied in topological order of the hierarchy DAG:
      (a) intra-partial pairs from each partial's (situation-union) S^C;
      (c) the reachable steps of an activated partial are concurrent with
          its activating step and with everything concurrent to it.
    Partials with their own initial steps are all active from the start, so
    their reachable steps are additionally pairwise concurrent (the roots
    rule).

    Rule (b), sibling partials activated by one step of a common superior or
    by two concurrent ones are concurrent as wholes, needs no code of its
    own. Rule (c) reads an anchor's partners after the superior's earlier
    edges: by then the first sibling's steps are in the row of every step
    near its anchor, the second anchor among them, so rule (c) pairs them
    with the second sibling's steps.

    Returns each step's partners as a sorted list; no step is paired with
    itself, and only steps with a partner are keys.

    The pairs are kept as ``int`` bitsets over the sorted global ids: id
    ``i`` of ``n`` is bit ``n - 1 - i``, so ``format(mask, f"0{n}b")`` spells
    a mask in id order, and ``itertools.compress`` turns it into a sorted
    list in C. A partial id holds no ".", so the prefix "P." belongs to the
    steps of P alone and is no prefix of another partial's "Q.": one
    partial's steps are contiguous in this order, and sorting the partials
    by "P." and then each partial's step ids yields it. A product with a
    whole partial (the roots, the activated side of rule (c)) is one OR into
    that partial's ``whole`` mask, which holds for each of its reachable
    steps; rule (c) ORs it in when it reads an anchor.
    """
    n = sum(len(c.steps) for c in spec.partials)
    names: list[str] = []  # the global ids in sorted order
    bit: dict[str, dict[str, int]] = {}
    for c in sorted(spec.partials, key=lambda c: c.id + "."):
        steps = sorted(c.steps)
        top = n - 1 - len(names)
        bit[c.id] = {s: 1 << (top - k) for k, s in enumerate(steps)}
        names += [spec.global_step(c.id, s) for s in steps]
    rows = [0] * n  # by id (bit b is id n - b.bit_length()): that step's own partners
    reach = {pid: sum(map(bit[pid].__getitem__, steps))
             for pid, steps in reachable_by_partial.items()}
    whole = dict.fromkeys(reach, 0)  # partners of every reachable step of a partial
    spelling = f"0{n}b"

    def members(mask: int, items):
        # The items, one per id, whose bits are set in the mask.
        return compress(items, format(mask, spelling).encode().translate(_SELECT))

    for pid, conc in conc_by_partial.items():
        to_bit = bit[pid].__getitem__
        for s, others in conc.items():
            if others:
                rows[n - to_bit(s).bit_length()] = sum(map(to_bit, others))

    # Initially active root partials all run concurrently from the start.
    roots = [c.id for c in spec.partials if c.initial]
    active = sum(reach[pid] for pid in roots)
    for pid in roots:
        whole[pid] |= active & ~reach[pid]

    edges_by_source: dict[str, list] = {}
    for e in graph.edges:
        edges_by_source.setdefault(e.source, []).append(e)

    for pid in graph.order:
        # Rule (c): activated steps are concurrent with the activating step
        # and with everything concurrent to it (read before adding the edge).
        for e in edges_by_source.get(pid, []):
            anchor = bit[pid][e.step]
            near = rows[n - anchor.bit_length()] | anchor
            if e.step in reachable_by_partial[pid]:
                near |= whole[pid]
            whole[e.target] |= near
            if reach[e.target]:
                for i in members(near, range(n)):
                    rows[i] |= reach[e.target]

    for pid, mask in whole.items():
        if mask:
            to_bit = bit[pid].__getitem__
            for s in reachable_by_partial[pid]:
                rows[n - to_bit(s).bit_length()] |= mask
    relation = {}
    for i, mask in enumerate(rows):
        if mask:
            mask &= ~(1 << (n - 1 - i))
            if mask:
                relation[names[i]] = list(members(mask, names))
    return relation


def concurrent(relation: dict[str, list[str]], a: str, b: str) -> bool:
    """Whether steps ``a`` and ``b`` are paired in a relation from
    ``lift_concurrency``: a binary search of ``a``'s sorted partners."""
    partners = relation.get(a, ())
    i = bisect_left(partners, b)
    return i < len(partners) and partners[i] == b
