"""The oracle's facts on random corpora against stored digests.

``oracle_digests.json`` maps each corpus and mode to the sha256 over every
``OracleFacts`` field of every run, ``states_seen`` and ``inconclusive``
included, with every step tracked and ``max_states`` 8000. Each entry also
lists every spec's own digest (12 hex characters of its record's sha256) in
draw order, so a failure names the spec indices whose facts changed.
Inconclusive runs count too: their facts cover only the states seen before
the search stopped, so they pin the search order (breadth-first, transitions
in declaration order, firing sets by size). A spec that semantic mode refuses
enters as its ``ValueError`` message. A change to how the oracle searches
must leave every entry unchanged. When a change of the oracle's results is
intended, regenerate the file and commit it with the change that explains
it::

    PYTHONPATH=src python tests/test_oracle_digests.py

The regenerated file's diff then shows one changed line per changed spec,
and its index is that line's position in the entry's ``specs`` list.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest
import randspec

from grafcet_lint.oracle import explore

DIGESTS = Path(__file__).with_name("oracle_digests.json")
MAX_STATES = 8000
# (generator, seed, specs)
CORPORA = {
    "random_spec": (randspec.random_spec, 7, 300),
    "random_forcing_spec": (randspec.random_forcing_spec, 2026, 300),
    "random_hierarchy_spec": (randspec.random_hierarchy_spec, 15, 200),
}
MODES = ("structural", "semantic")


def _facts_record(spec, mode) -> dict:
    """Every field of one run's facts, in an order that does not depend on
    hashing."""
    steps = tuple(spec.global_step(c.id, s) for c in spec.partials for s in c.steps)
    try:
        facts = explore(spec, mode=mode, max_states=MAX_STATES, track_activations=steps)
    except ValueError as exc:
        return {"refused": str(exc)}
    return {
        "reachable": sorted(facts.reachable),
        "pairs": sorted(sorted(p) for p in facts.pairs),
        "var_values": {v: sorted(values, key=lambda x: (type(x).__name__, x))
                       for v, values in sorted(facts.var_values.items())},
        "conflicts": sorted(sorted(map(list, c)) for c in facts.conflicts),
        "activations": dict(sorted(facts.activations.items())),
        "states_seen": facts.states_seen,
        "inconclusive": facts.inconclusive,
    }


def _digest(corpus: str, mode: str) -> dict:
    generate, seed, count = CORPORA[corpus]
    rng = random.Random(seed)
    sha = hashlib.sha256()
    inconclusive = refused = 0
    specs = []
    for _ in range(count):
        record = _facts_record(generate(rng), mode)
        inconclusive += record.get("inconclusive", False)
        refused += "refused" in record
        line = json.dumps(record, sort_keys=True).encode() + b"\n"
        sha.update(line)
        specs.append(hashlib.sha256(line).hexdigest()[:12])
    return {"sha256": sha.hexdigest(), "inconclusive": inconclusive, "refused": refused,
            "specs": specs}


def _keys() -> list[str]:
    return [f"{corpus} {mode}" for corpus in CORPORA for mode in MODES]


def test_digests_cover_every_corpus():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(_keys())


@pytest.mark.parametrize("key", _keys())
def test_oracle_facts_are_unchanged(key):
    got, want = _digest(*key.split()), json.loads(DIGESTS.read_text())[key]
    changed = [n for n, (a, b) in enumerate(zip(got["specs"], want["specs"])) if a != b]
    assert not changed, f"facts changed on specs {changed}"
    assert got == want


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps({k: _digest(*k.split()) for k in _keys()},
                                  indent=1, sort_keys=True) + "\n")
