"""Random specification generator for soundness testing.

Generates small well-formed specifications (at most 8 steps and 8
transitions over at most 2 partial Grafcets). Most generated machines
conserve step activity (single-upstream/single-downstream transitions,
plus occasional balanced split/join pairs and sinks), so the explicit-state
oracle usually terminates; a small fraction carries a source transition or
an unbalanced split, which the oracle may report as inconclusive.
``random_spec`` leaves forcing orders out; ``random_forcing_spec`` adds one
to a two-partial spec. ``random_hierarchy_spec`` joins 2-7 partials by
enclosings and forcing orders; the oracle is not meant to explore those.
"""

import random

from grafcet_lint import parse_spec, serialize

INT_VALUES = ("0", "1", "k + 1", "k - 1", "5")
BOOL_VALUES = ("true", "false")
TRIGGERS = ("activation", "activation", "deactivation", "during")


def random_spec(rng: random.Random):
    """A random well-formed GrafcetSpec."""
    two_partials = rng.random() < 0.4
    enclosed = two_partials and rng.random() < 0.5

    n1 = rng.randint(2, 5 if two_partials else 6)
    p1 = _random_partial(rng, "P1", "s", n1, initial=True, max_transitions=6)

    if two_partials:
        n2 = rng.randint(2, min(4, 8 - n1))
        p2 = _random_partial(rng, "P2", "u", n2, initial=not enclosed,
                             max_transitions=3)
        if enclosed:
            anchor = rng.choice([s["id"] for s in p1["steps"]])
            p1["enclosings"] = [{"step": anchor, "target": "P2"}]
        partials = [p1, p2]
    else:
        partials = [p1]

    for p in partials:
        _add_actions(rng, p)

    doc = {
        "name": "random",
        "variables": [
            {"name": "x", "kind": "input", "type": "bool"},
            {"name": "k", "kind": "internal", "type": "int", "init": 0},
            {"name": "flag", "kind": "internal", "type": "bool", "init": 0},
        ],
        "partials": partials,
    }
    return parse_spec(doc)


def random_forcing_spec(rng: random.Random):
    """A two-partial ``random_spec`` whose random step forces the other
    partial into ``*``, ``init``, the empty situation or one of its steps."""
    while len((spec := random_spec(rng)).partials) < 2:
        pass
    doc = serialize(spec)
    source, target = rng.sample(doc["partials"], 2)
    situation = rng.choice(("*", "init", [], [rng.choice(target["steps"])["id"]]))
    source.setdefault("actions", []).append({
        "kind": "forcing", "step": rng.choice(source["steps"])["id"],
        "target": target["id"], "situation": situation})
    return parse_spec(doc)


def random_hierarchy_spec(rng: random.Random):
    """2-7 partials joined by random enclosings and forcing orders (into
    ``*``, ``init`` or a step list), declared in shuffled order. Each partial
    after the first has a superior earlier in the draw; about one spec in
    four also gets an edge back to such a superior, which closes a cycle."""
    n = rng.randint(2, 7)
    partials = []
    for i in range(n):
        p = _random_partial(rng, f"P{i}", "s", rng.randint(2, 4),
                            initial=i == 0 or rng.random() < 0.3, max_transitions=4)
        rng.choice(p["steps"])["marked"] = True
        _add_actions(rng, p)
        partials.append(p)
    pairs = [(rng.randrange(j), j) for j in range(1, n)]
    pairs += [(rng.randrange(j), j) for j in range(1, n) if rng.random() < 0.3]
    if rng.random() < 0.25:
        pairs.append(rng.choice(pairs)[::-1])
    for i, j in pairs:
        source, target = partials[i], partials[j]
        step = rng.choice(source["steps"])["id"]
        if rng.random() < 0.5:
            source.setdefault("enclosings", []).append({"step": step, "target": target["id"]})
            continue
        situation = rng.choice(("*", "init", [], [rng.choice(target["steps"])["id"]]))
        source.setdefault("actions", []).append({
            "kind": "forcing", "step": step, "target": target["id"],
            "situation": situation})
    rng.shuffle(partials)
    doc = {
        "name": "hierarchy",
        "variables": [
            {"name": "x", "kind": "input", "type": "bool"},
            {"name": "k", "kind": "internal", "type": "int", "init": 0},
            {"name": "flag", "kind": "internal", "type": "bool", "init": 0},
        ],
        "partials": partials,
    }
    return parse_spec(doc)


def _random_partial(rng, pid, prefix, n, initial, max_transitions):
    step_ids = [f"{prefix}{i}" for i in range(1, n + 1)]
    entry = rng.sample(step_ids, rng.randint(1, min(2, n)))
    steps = []
    for s in step_ids:
        d = {"id": s}
        if s in entry:
            d["initial" if initial else "marked"] = True
        steps.append(d)

    transitions = []
    tid = iter(range(100))

    def add(upstream, downstream):
        t = {"id": f"t{next(tid)}", "from": upstream, "to": downstream}
        if rng.random() < 0.3:
            t["cond"] = rng.choice(("x", "!x", "k >= 1"))
        transitions.append(t)

    shape = rng.random()
    if shape < 0.15 and n >= 4:
        # Balanced parallel branch: split into two steps, join them again.
        s, a, b, j = rng.sample(step_ids, 4)
        add([s], [a, b])
        add([a, b], [j])
    elif shape < 0.19:
        # Activity injection from outside the partial.
        add([], [rng.choice(step_ids)])

    while len(transitions) < rng.randint(1, max_transitions):
        kind = rng.random()
        if kind < 0.1 and n >= 2:
            # Synchronizing join: consumes more than it produces.
            upstream = rng.sample(step_ids, 2)
            add(upstream, [rng.choice(step_ids)])
        elif kind < 0.15:
            # Sink: activity leaves the partial.
            add([rng.choice(step_ids)], [])
        else:
            src = rng.choice(step_ids)
            dst = rng.choice([s for s in step_ids if s != src] or step_ids)
            add([src], [dst])
    return {"id": pid, "steps": steps, "transitions": transitions}


def _add_actions(rng, partial):
    actions = []
    step_ids = [s["id"] for s in partial["steps"]]
    for _ in range(rng.randint(0, 3)):
        step = rng.choice(step_ids)
        if rng.random() < 0.3:
            actions.append({"kind": "stored", "step": step, "var": "flag",
                            "value": rng.choice(BOOL_VALUES),
                            "trigger": rng.choice(TRIGGERS)})
        else:
            actions.append({"kind": "stored", "step": step, "var": "k",
                            "value": rng.choice(INT_VALUES),
                            "trigger": rng.choice(TRIGGERS)})
    if actions:
        partial["actions"] = actions
