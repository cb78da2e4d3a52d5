"""Seeded spec generators for the benchmark workloads.

Every generated spec carries the facts its shape implies, derived in closed
form rather than by running the analyzer: reachable steps, global
concurrency pairs, coverage and bound per partial, the number of minimal
S-invariants, findings by kind and the expected exit code. The shapes are
chosen so that the analysis is exact on them (the one over-approximation,
a forced root partial, is noted where it is built), so a sound fix to the
analyzer cannot change these facts:

- a cyclic chain of n steps is covered with bound 1, has one S-invariant
  and no concurrency pairs;
- a split of w 3-step branches (then a join) has w minimal S-invariants
  and 9*C(w, 2) cross-branch pairs;
- initially active root partials are pairwise concurrent as wholes; an
  enclosed partial is concurrent with its anchor step, its anchor's own
  ancestors' anchors and everything outside its root's tree;
- every action on a cyclic partial lies on a T-invariant loop, so it
  yields one ``unbounded-activation`` warning.

Safety queries are only ``never-concurrent`` or ``never-coactive`` on
continuous outputs (value ``true``), whose verdicts follow from step
concurrency alone; verdicts on stored values are avoided on purpose.
Sizes are fixed per workload slot and the seed varies structure details
(conditions, actions, writers, queries, order), so the cost of a workload
stays comparable across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import comb, prod

# Each generated workload holds 15 or 25 specs per pass, in tiers of about
# equal cost: with whole passes, the median and the 90th percentile then fall
# in the middle of a tier's pooled samples rather than on the edge between
# two specs of different cost. For 15 specs: 5 cheap, 5 at the median, 1,
# then 4 at the 90th percentile.
CHAIN_SIZES = (80, 100, 104, 168, 172, 176, 180)
LADDER_WIDTHS = (16, 18, 20, 22, 26, 27, 28, 36)

# (plain root cycles, enclosing trees, depth-3 trees, forced roots, split
# widths, clean); a clean spec has no actions and only passing queries.
HIERARCHY_SLOTS = (
    *[(6, 3, 1, 1, (4, 5), i < 2) for i in range(5)],
    *[(10, 4, 2, 2, (5, 6), False)] * 5,
    (13, 6, 3, 3, (6, 7), False),
    *[(16, 7, 3, 3, (7, 8), False)] * 4,
)

# 20 small random specs, then 5 products of three cycles with 1.9k-2.1k
# oracle states each (one tier: the seed picks their cycle lengths).
ORACLE_SMALL = 20
ORACLE_PRODUCTS = (
    (8, 15, 16), (10, 12, 16), (9, 12, 18), (10, 14, 14), (11, 12, 15), (10, 11, 18),
    (12, 12, 14), (9, 14, 16), (11, 13, 14), (10, 12, 17), (10, 13, 16), (10, 14, 15),
)
ORACLE_LARGE = 5


@dataclass
class Facts:
    """Expected results; ``None`` marks a fact the workload does not fix."""

    partials: dict[str, tuple[int, bool, object]] | None  # pid -> (reachable, covered, bound)
    pairs: int | None
    s_invariants: int | None
    findings: dict[str, int] | None  # kind -> exact count (absent kinds: 0)
    exit: int | None
    states: int | None = None  # structural oracle states
    json_paths: list[tuple[tuple, object]] = field(default_factory=list)


@dataclass
class Case:
    name: str
    doc: dict | str  # the spec document, or its file text
    facts: Facts
    fmt: str = "json"
    sidecar: str | None = None  # text of a queries file passed with --queries
    oracle: bool = False


# --- building blocks -------------------------------------------------------

def _bool(name, kind, init=None):
    d = {"name": name, "kind": kind, "type": "bool"}
    if init is not None:
        d["init"] = init
    return d


def _cycle(pid, n, entry="initial"):
    steps = [{"id": str(i)} for i in range(1, n + 1)]
    if entry:
        steps[0][entry] = True
    transitions = [{"id": f"t{i}", "from": [str(i)], "to": [str(i % n + 1)]}
                   for i in range(1, n + 1)]
    return {"id": pid, "steps": steps, "transitions": transitions}


def _split(pid, w):
    steps = [{"id": "0", "initial": True}]
    steps += [{"id": f"b{i}_{j}"} for i in range(w) for j in (1, 2, 3)]
    transitions = [{"id": "split", "from": ["0"], "to": [f"b{i}_1" for i in range(w)]}]
    for i in range(w):
        transitions.append({"id": f"t{i}_1", "from": [f"b{i}_1"], "to": [f"b{i}_2"]})
        transitions.append({"id": f"t{i}_2", "from": [f"b{i}_2"], "to": [f"b{i}_3"]})
    transitions.append({"id": "join", "from": [f"b{i}_3" for i in range(w)], "to": ["0"]})
    return {"id": pid, "steps": steps, "transitions": transitions}


def _add_conditions(rng, partial, step_refs=()):
    """Input- or step-driven conditions: satisfiable and never constant."""
    choices = ["x", "!x", "re(x)", "fe(y)", "x & !y", "x | y"]
    choices += [f"X{ref}" for ref in step_refs]
    for t in partial["transitions"]:
        if rng.random() < 0.5:
            t["cond"] = rng.choice(choices)


def _continuous(rng, doc, partial, count):
    """``count`` continuous actions on distinct new outputs."""
    steps = [s["id"] for s in partial["steps"]]
    for _ in range(count):
        var = f"o{len(doc['variables'])}"
        doc["variables"].append(_bool(var, "output"))
        partial.setdefault("actions", []).append(
            {"kind": "continuous", "step": rng.choice(steps), "var": var})


def _pairs(tree_sizes, intra):
    """Concurrency pairs when trees are pairwise concurrent as wholes."""
    total = sum(tree_sizes)
    return (total * total - sum(s * s for s in tree_sizes)) // 2 + intra


def _doc(name):
    return {"name": name,
            "variables": [_bool("x", "input"), _bool("y", "input")],
            "partials": []}


def _findings(counts):
    return {k: v for k, v in counts.items() if v}


def _exit(findings):
    return 1 if findings else 0


# --- invariants-heavy ------------------------------------------------------

def invariants_heavy(seed: int) -> list[Case]:
    """Cyclic chains and wide split/join ladders: Farkas elimination dominates."""
    rng = random.Random(seed)
    cases = [chain_case(rng, n) for n in CHAIN_SIZES]
    cases += [ladder_case(rng, w) for w in LADDER_WIDTHS]
    rng.shuffle(cases)
    return cases


def chain_case(rng, n: int) -> Case:
    doc = _doc(f"chain{n}")
    part = _cycle("C", n)
    _add_conditions(rng, part)
    actions = rng.randint(0, 3)
    _continuous(rng, doc, part, actions)
    doc["partials"].append(part)
    found = _findings({"unbounded-activation": actions})
    return Case(doc["name"], doc, Facts({"C": (n, True, 1)}, 0, 1, found, _exit(found)))


def ladder_case(rng, w: int) -> Case:
    doc = _doc(f"ladder{w}")
    part = _split("L", w)
    _add_conditions(rng, part)
    actions = rng.randint(0, 3)
    _continuous(rng, doc, part, actions)
    doc["partials"].append(part)
    found = _findings({"unbounded-activation": actions})
    return Case(doc["name"], doc, Facts({"L": (1 + 3 * w, True, 1)}, 9 * comb(w, 2), w,
                                        found, _exit(found)))


# --- hierarchy-wide --------------------------------------------------------

def hierarchy_wide(seed: int) -> list[Case]:
    """Many concurrent roots, enclosing trees and forcings: lifting dominates."""
    rng = random.Random(seed)
    cases = [hierarchy_case(rng, f"hier{i}", *slot) for i, slot in enumerate(HIERARCHY_SLOTS)]
    rng.shuffle(cases)
    return cases


def hierarchy_case(rng, name, n_plain, n_trees, n_deep, n_forced, widths, clean,
                   cycle=6, leaf=4) -> Case:
    """Root cycles of ``cycle`` steps, enclosing trees, forced roots, splits.

    ``clean`` leaves out every action and violated query, so the expected
    exit code is 0.
    """
    doc = _doc(name)
    tree_sizes: list[int] = []
    intra = 0
    s_inv = 0
    partials: dict[str, tuple[int, bool, object]] = {}
    actions = 0
    steps = range(1, cycle + 1)

    def add(part, n):
        nonlocal s_inv
        doc["partials"].append(part)
        partials[part["id"]] = (n, True, 1)
        s_inv += 1

    plain = []
    for i in range(n_plain):
        part = _cycle(f"P{i}", cycle)
        add(part, cycle)
        tree_sizes.append(cycle)
        plain.append(part)

    # Enclosing trees: R.2 encloses C, and in deep trees C.3 encloses D.
    # C is concurrent only with R.2 inside its tree, D only with R.2 and C.3.
    trees = []
    for i in range(n_trees):
        root, child = _cycle(f"R{i}", cycle), _cycle(f"C{i}", cycle, entry="marked")
        root["enclosings"] = [{"step": "2", "target": child["id"]}]
        add(root, cycle)
        add(child, cycle)
        size, pairs_in = 2 * cycle, cycle
        if i < n_deep:
            deep = _cycle(f"D{i}", leaf, entry="marked")
            child["enclosings"] = [{"step": "3", "target": deep["id"]}]
            add(deep, leaf)
            size, pairs_in = 2 * cycle + leaf, cycle + 2 * leaf
        tree_sizes.append(size)
        intra += pairs_in
        trees.append((root, child))

    # Forced roots: initially active cycles that R.1 forces back to their
    # initial situation. Being roots, they are concurrent with every other
    # tree already. Lifting also pairs the forced partial with its anchor's
    # neighbours, which include the partial's own steps, so its steps come
    # out pairwise concurrent: a sound over-approximation.
    for i in range(n_forced):
        forced = _cycle(f"F{i}", cycle)
        add(forced, cycle)
        tree_sizes.append(cycle)
        if not clean:
            trees[i][0].setdefault("actions", []).append(
                {"kind": "forcing", "step": "1", "target": forced["id"],
                 "situation": "init"})
            actions += 1
            intra += comb(cycle, 2)

    for i, w in enumerate(widths):
        part = _split(f"S{i}", w)
        doc["partials"].append(part)
        partials[part["id"]] = (1 + 3 * w, True, 1)
        s_inv += w
        tree_sizes.append(1 + 3 * w)
        intra += 9 * comb(w, 2)

    refs = [f"{p['id']}.{rng.choice(steps)}" for p in rng.sample(plain, 3)]
    for part in doc["partials"]:
        _add_conditions(rng, part, refs)

    races = 0
    violations = 0
    queries = []

    def step_of(part):
        return f"{part['id']}.{rng.choice(steps)}"

    # Passing queries: two steps of one sequential cycle, or an enclosed
    # step against a non-anchor step of its root.
    for _ in range(3):
        p = rng.choice(plain)
        a, b = rng.sample(steps, 2)
        queries.append({"kind": "never-concurrent",
                        "steps": [f"{p['id']}.{a}", f"{p['id']}.{b}"]})
    root, child = rng.choice(trees)
    queries.append({"kind": "never-concurrent",
                    "steps": [step_of(child),
                              f"{root['id']}.{rng.choice([s for s in steps if s != 2])}"]})

    if not clean:
        # Violated queries: steps of two different trees, or an enclosed
        # step against its anchor.
        p, q = rng.sample(plain, 2)
        queries.append({"kind": "never-concurrent", "steps": [step_of(p), step_of(q)]})
        root, child = rng.choice(trees)
        queries.append({"kind": "never-concurrent",
                        "steps": [step_of(child), f"{root['id']}.2"]})
        violations += 2

        # Continuous outputs on plain cycles; one never-coactive query per
        # kind of verdict.
        first, second = rng.sample(plain, 2)
        outs = []
        for part, step in ((first, 1), (first, 2), (second, rng.choice(steps))):
            var = f"o{len(doc['variables'])}"
            doc["variables"].append(_bool(var, "output"))
            part.setdefault("actions", []).append(
                {"kind": "continuous", "step": str(step), "var": var})
            outs.append(var)
            actions += 1
        queries.append({"kind": "never-coactive",
                        "a": {"var": outs[0], "value": True},
                        "b": {"var": outs[1], "value": True}})
        queries.append({"kind": "never-coactive",
                        "a": {"var": outs[0], "value": True},
                        "b": {"var": outs[2], "value": True}})
        violations += 1

        # Stored writers of shared variables, each on a different plain
        # cycle, so every pair of writers of one variable races.
        for v in range(rng.randint(1, 3)):
            var = f"w{v}"
            doc["variables"].append(_bool(var, "internal", init=0))
            writers = rng.sample(plain, rng.randint(2, min(3, n_plain)))
            for part in writers:
                part.setdefault("actions", []).append(
                    {"kind": "stored", "step": str(rng.choice(steps)), "var": var,
                     "value": rng.choice(("true", "false")), "trigger": "activation"})
                actions += 1
            races += comb(len(writers), 2)

    for i, q in enumerate(queries):
        q["name"] = f"q{i}"
    rng.shuffle(queries)
    doc["queries"] = queries
    found = _findings({"race": races, "unbounded-activation": actions,
                       "query-violation": violations})
    return Case(name, doc, Facts(partials, _pairs(tree_sizes, intra), s_inv, found,
                                 _exit(found)))


# --- oracle-explore --------------------------------------------------------

def oracle_explore(seed: int) -> list[Case]:
    """Small random specs plus step-conserving specs of about 2k oracle states."""
    rng = random.Random(seed)
    cases = [random_case(rng, f"random{i}", random.Random(i)) for i in range(ORACLE_SMALL)]
    cases += [product_case(rng, lengths) for lengths in rng.sample(ORACLE_PRODUCTS, ORACLE_LARGE)]
    rng.shuffle(cases)
    return cases


def product_case(rng, lengths) -> Case:
    """Independent initial cycles: every combination of positions is a state."""
    doc = _doc("product-" + "x".join(map(str, lengths)))
    partials = {}
    for i, n in enumerate(lengths):
        part = _cycle(f"P{i}", n)
        _add_conditions(rng, part)
        doc["partials"].append(part)
        partials[part["id"]] = (n, True, 1)
    found = _findings({"unbounded-activation": _oracle_outputs(rng, doc)})
    return Case(doc["name"], doc, Facts(partials, _pairs(lengths, 0), len(lengths), found,
                                        _exit(found), states=prod(lengths)), oracle=True)


def _oracle_outputs(rng, doc):
    """One continuous output: recorded by the oracle without adding states.
    The count is fixed because each output adds to the oracle's cost per
    state."""
    _continuous(rng, doc, rng.choice(doc["partials"]), 1)
    return 1


def random_case(rng, name: str, size) -> Case:
    """A small spec shaped like the test suite's random soundness corpus,
    restricted to step-conserving transitions and constant stored values so
    the oracle's state space stays small. ``size`` draws the counts (of
    partials, steps, transitions and actions), ``rng`` everything else."""
    two = size.random() < 0.4
    enclosed = two and size.random() < 0.5
    n1 = size.randint(2, 5 if two else 6)
    parts = [_random_partial(rng, "P1", "s", n1, "initial", size.randint(1, 6))]
    if two:
        n2 = size.randint(2, min(4, 8 - n1))
        parts.append(_random_partial(rng, "P2", "u", n2,
                                     "marked" if enclosed else "initial", size.randint(1, 3)))
        if enclosed:
            anchor = rng.choice([s["id"] for s in parts[0]["steps"]])
            parts[0]["enclosings"] = [{"step": anchor, "target": "P2"}]
    for part in parts:
        steps = [s["id"] for s in part["steps"]]
        actions = []
        for step in rng.sample(steps, min(len(steps), size.randint(0, 3))):
            trigger = rng.choice(("activation", "activation", "deactivation", "during"))
            if rng.random() < 0.3:
                actions.append({"kind": "stored", "step": step, "var": "flag",
                                "value": rng.choice(("true", "false")), "trigger": trigger})
            else:
                actions.append({"kind": "stored", "step": step, "var": "k",
                                "value": rng.choice(("0", "1", "5")), "trigger": trigger})
        if actions:
            part["actions"] = actions
    doc = {"name": name,
           "variables": [_bool("x", "input"),
                         {"name": "k", "kind": "internal", "type": "int", "init": 0},
                         _bool("flag", "internal", init=0)],
           "partials": parts}
    return Case(doc["name"], doc, Facts(None, None, None, None, None), oracle=True)


def _random_partial(rng, pid, prefix, n, entry, transitions_wanted):
    ids = [f"{prefix}{i}" for i in range(1, n + 1)]
    marked = rng.sample(ids, rng.randint(1, min(2, n)))
    steps = [dict({"id": s}, **({entry: True} if s in marked else {})) for s in ids]
    transitions = []

    def add(upstream, downstream):
        t = {"id": f"t{len(transitions)}", "from": upstream, "to": downstream}
        if rng.random() < 0.3:
            t["cond"] = rng.choice(("x", "!x", "k >= 1"))
        transitions.append(t)

    if n >= 4 and rng.random() < 0.15:
        s, a, b, j = rng.sample(ids, 4)
        add([s], [a, b])
        add([a, b], [j])
    while len(transitions) < transitions_wanted:
        src = rng.choice(ids)
        add([src], [rng.choice([s for s in ids if s != src])])
    return {"id": pid, "steps": steps, "transitions": transitions}
