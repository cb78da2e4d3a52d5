"""Reference lift of the global concurrency relation over string sets.

Each lifted pair is written into per-step sets of "partial.step" ids, one
pair at a time. ``reachconc.lift_concurrency`` computes the same relation on
bitsets; the tests compare the two.
"""


def lift_concurrency_reference(spec, graph, reachable_by_partial, conc_by_partial):
    """Global concurrency relation as ``{step: set of partners}``.

    Rules, applied in topological order of the hierarchy DAG:
      (a) intra-partial pairs from each partial's (situation-union) S^C;
      (b) partial Grafcets activated by concurrent steps of a common
          superior (or by one and the same step) are concurrent as wholes;
      (c) the reachable steps of an activated partial are concurrent with
          its activating step and with everything concurrent to it.
    Partials with their own initial steps are all active from the start, so
    their reachable steps are additionally pairwise concurrent.
    No step is paired with itself, and only steps with a partner are keys.
    """
    gid = {c.id: {s: spec.global_step(c.id, s) for s in c.steps} for c in spec.partials}
    reach = {pid: {gid[pid][s] for s in steps} for pid, steps in reachable_by_partial.items()}
    relation: dict[str, set[str]] = {}

    def connect(group_a: set[str], group_b: set[str]) -> None:
        # Pair every step of one group with every other step of the other.
        for xs, ys in ((group_a, group_b), (group_b, group_a)):
            for x in xs:
                if len(ys) > (x in ys):
                    partners = relation.setdefault(x, set())
                    partners |= ys
                    partners.discard(x)

    for pid, conc in conc_by_partial.items():
        ids = gid[pid]
        for s, others in conc.items():
            if others:
                relation.setdefault(ids[s], set()).update(ids[s2] for s2 in others)

    # Initially active root partials all run concurrently from the start.
    roots = [c.id for c in spec.partials if c.initial]
    for i, p1 in enumerate(roots):
        for p2 in roots[i + 1:]:
            connect(reach[p1], reach[p2])

    edges_by_source: dict[str, list] = {}
    for e in graph.edges:
        edges_by_source.setdefault(e.source, []).append(e)

    for pid in graph.order:
        edges = edges_by_source.get(pid, [])
        # Rule (b): sibling partials activated concurrently.
        for i, e1 in enumerate(edges):
            g1 = gid[pid][e1.step]
            for e2 in edges[i + 1:]:
                if e1.target != e2.target and (
                        e1.step == e2.step or gid[pid][e2.step] in relation.get(g1, ())):
                    connect(reach[e1.target], reach[e2.target])
        # Rule (c): activated steps are concurrent with the activating step
        # and with everything concurrent to it (read before adding the edge).
        for e in edges:
            anchor = gid[pid][e.step]
            connect(reach[e.target], relation.get(anchor, set()) | {anchor})
    return relation
