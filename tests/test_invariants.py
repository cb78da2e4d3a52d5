"""Incidence matrices and minimal semi-positive invariants."""

import json
import math
import random
from pathlib import Path

import pytest
from conftest import corpus_path
from farkas_reference import minimal_invariants_reference
from invariant_oracle import brute_force_invariants
from randspec import random_spec

from grafcet_lint import analyze_spec, invariants, load_spec, parse_spec
from grafcet_lint.invariants import (
    DEFAULT_CAP,
    InvariantCapExceeded,
    InvariantSet,
    classify_boundedness,
    compute_invariants,
    incidence,
    minimal_invariants,
)


def test_incidence_matrix(load_fixture):
    spec = load_fixture("fig5.grafcet.json")
    c = spec.partial_map["c"]
    assert incidence(c) == [
        [-1, 0, 0, 0],
        [1, -1, 0, 0],
        [0, 1, -1, 0],
        [0, 1, 0, -1],
        [0, 0, 1, 1],
    ]


def test_self_loop_nets_zero(load_fixture):
    spec = load_fixture("fig2_g4.grafcet.json")
    c = spec.partial_map["G4"]
    # Step 1 is both consumed and produced by t1, so its column entry is 0.
    assert incidence(c) == [[0, 0], [1, -1], [0, 1]]


class TestWorkedExamples:
    def test_g4_uncovered(self, load_fixture):
        spec = load_fixture("fig2_g4.grafcet.json")
        inv, findings = compute_invariants(spec.partial_map["G4"])
        assert findings == []
        assert inv.s_invariants == ((1, 0, 0),)
        assert not inv.covered
        assert inv.uncovered_steps == frozenset({"2", "3"})
        assert inv.bound == math.inf

    def test_g5_no_s_invariant(self, load_fixture):
        spec = load_fixture("fig2_g5.grafcet.json")
        inv, _ = compute_invariants(spec.partial_map["G5"])
        assert inv.s_invariants == ()
        assert not inv.covered

    def test_g6_two_invariants(self, load_fixture):
        spec = load_fixture("fig2_g6.grafcet.json")
        inv, _ = compute_invariants(spec.partial_map["G6"])
        assert set(inv.s_invariants) == {(1, 1, 0, 1, 0), (1, 0, 1, 0, 1)}
        assert inv.covered and inv.bound == 1

    def test_g7_loop_t_invariant(self, load_fixture):
        spec = load_fixture("fig2_g7.grafcet.json")
        inv, _ = compute_invariants(spec.partial_map["G7"])
        assert inv.t_invariants == ((1, 1),)
        assert inv.covered

    def test_fig5_weighted_invariant(self, load_fixture):
        spec = load_fixture("fig5.grafcet.json")
        inv, _ = compute_invariants(spec.partial_map["c"])
        assert inv.s_invariants == ((2, 2, 1, 1, 1),)
        assert inv.t_invariants == ()
        assert inv.covered and inv.bound == 2

    def test_g_rit_station_triples(self, load_fixture):
        spec = load_fixture("g_rit.grafcet.json")
        c = spec.partial_map["G_RIT"]
        inv, _ = compute_invariants(c)
        assert len(inv.s_invariants) == 6
        idx = {s: i for i, s in enumerate(c.steps)}
        for i in range(1, 7):
            triple = tuple(1 if j in (idx["10"], idx[str(10 + i)], idx[str(16 + i)])
                           else 0 for j in range(len(c.steps)))
            assert triple in inv.s_invariants
        assert inv.t_invariants == ((1,) * 8,)


def _substitute(matrix, vector):
    ncols = len(matrix[0]) if matrix else 0
    return all(
        sum(vector[i] * matrix[i][j] for i in range(len(matrix))) == 0
        for j in range(ncols)
    )


def _random_matrix(rng):
    nrows = rng.randint(1, 6)
    ncols = rng.randint(1, 6)
    return [[rng.choice((-1, -1, 0, 0, 0, 1, 1)) for _ in range(ncols)]
            for _ in range(nrows)]


def test_matches_brute_force_on_random_matrices():
    rng = random.Random(3)
    for _ in range(120):
        matrix = _random_matrix(rng)
        computed = minimal_invariants(matrix)
        if any(max(v) > 6 for v in computed):
            # Outside the exhaustive oracle's range; checked by substitution only.
            assert all(_substitute(matrix, v) for v in computed)
            continue
        assert computed == brute_force_invariants(matrix), matrix


def test_solutions_substitute_to_zero():
    rng = random.Random(4)
    for _ in range(60):
        matrix = _random_matrix(rng)
        for v in minimal_invariants(matrix):
            assert _substitute(matrix, v)
            assert all(x >= 0 for x in v) and any(x > 0 for x in v)
            assert math.gcd(*v) == 1 if len(v) > 1 else v[0] == 1


def test_supports_are_incomparable():
    rng = random.Random(5)
    for _ in range(40):
        matrix = _random_matrix(rng)
        vectors = minimal_invariants(matrix)
        supports = [frozenset(i for i, x in enumerate(v) if x) for v in vectors]
        for i, a in enumerate(supports):
            for j, b in enumerate(supports):
                assert i == j or not a < b


def test_cap_raises():
    matrix = [[(-1) ** (i + j) for j in range(8)] for i in range(8)]
    with pytest.raises(InvariantCapExceeded):
        minimal_invariants(matrix, cap=15)
    minimal_invariants(matrix, cap=16)


def _smallest_passing_cap(matrix):
    cap = 0
    while True:
        try:
            minimal_invariants(matrix, cap=cap)
            return cap
        except InvariantCapExceeded:
            cap += 1


def test_cap_counts_kept_and_combined_rows():
    # While a column is eliminated, the cap bounds the rows kept from the
    # previous column plus every combined row so far, repeats included.
    rng = random.Random(11)
    matrices = [[[rng.randint(-2, 2) for _ in range(6)] for _ in range(6)]
                for _ in range(5)]
    assert [_smallest_passing_cap(m) for m in matrices] == [13, 10, 9, 28, 21]


def _cycle(n):
    """Incidence matrix of a cyclic chain: t_j moves the token from s_j to s_j+1."""
    matrix = [[0] * n for _ in range(n)]
    for j in range(n):
        matrix[j][j] -= 1
        matrix[(j + 1) % n][j] += 1
    return matrix


def test_long_cycle_within_default_cap():
    matrix = _cycle(600)
    assert minimal_invariants(matrix) == [(1,) * 600]
    assert minimal_invariants([list(col) for col in zip(*matrix)]) == [(1,) * 600]


def test_cap_surfaces_as_incomplete_finding(load_fixture):
    spec = load_fixture("fig2_g6.grafcet.json")
    inv, findings = compute_invariants(spec.partial_map["G6"], cap=1)
    assert not inv.covered and inv.bound == math.inf
    assert [f.kind for f in findings] == ["analysis-incomplete"]


def test_classify_boundedness_empty(load_fixture):
    spec = load_fixture("fig2_g1.grafcet.json")
    c = spec.partial_map["G1"]
    per_step = classify_boundedness(((1,),), c)
    assert per_step == {"1": 1}
    inv = InvariantSet(((1,),), (), per_step)
    assert inv.covered and inv.bound == 1 and not inv.uncovered_steps


def _solution(solver, matrix):
    """The solver's vectors and its smallest passing cap, or None if even
    DEFAULT_CAP does not pass. A cap that passes passes every larger cap."""
    try:
        vectors = solver(matrix)
    except InvariantCapExceeded:
        return None
    low, high = 0, DEFAULT_CAP
    while low < high:
        cap = (low + high) // 2
        try:
            solver(matrix, cap=cap)
            high = cap
        except InvariantCapExceeded:
            low = cap + 1
    return vectors, low


def _s_and_t(c):
    matrix = incidence(c)
    return [matrix, [list(col) for col in zip(*matrix)]]


def _reference_matrices():
    rng = random.Random(16)
    for _ in range(520):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        yield [[rng.randint(-2, 2) for _ in range(ncols)] for _ in range(nrows)]
    compound = Path(__file__).with_name("compound.grafcet.json")
    for path in sorted(corpus_path("").glob("*.grafcet.json")) + [compound]:
        for c in load_spec(path).partials:
            yield from _s_and_t(c)
    rng = random.Random(17)
    partials = []
    while len(partials) < 200:
        partials.extend(random_spec(rng).partials)
    for c in partials[:200]:
        yield from _s_and_t(c)


def test_sparse_elimination_matches_dense_reference():
    # Same vectors, same rows counted against the cap: the sparse rows must
    # eliminate the same columns in the same order and keep the same rows.
    for matrix in _reference_matrices():
        assert _solution(minimal_invariants, matrix) == \
            _solution(minimal_invariants_reference, matrix), matrix


def _counting(monkeypatch):
    calls = []
    solve = invariants.minimal_invariants

    def counted(matrix, cap=DEFAULT_CAP):
        calls.append(len(matrix))
        return solve(matrix, cap)

    monkeypatch.setattr(invariants, "minimal_invariants", counted)
    return calls


def test_g_rit_solves_each_distinct_matrix_once(monkeypatch, load_fixture):
    # Nine partials: G_RIT and eight 2-step cycles with one incidence matrix.
    calls = _counting(monkeypatch)
    result = analyze_spec(load_fixture("g_rit.grafcet.json"))
    assert len(calls) == 4
    for c in result.spec.partials:
        assert list(result.invariants[c.id].per_step_bound) == list(c.steps)
    assert result.invariants["G_OM"].per_step_bound == {"1": 1, "3": 1}


def _fig5_twice():
    """fig5 with a second root partial "d" whose incidence matrix equals c's."""
    doc = json.loads(corpus_path("fig5.grafcet.json").read_text())
    c = doc["partials"][0]
    rename = {step["id"]: "u" + step["id"][1:] for step in c["steps"]}
    doc["partials"].append({
        "id": "d",
        "steps": [dict(step, id=rename[step["id"]]) for step in c["steps"]],
        "transitions": [
            {"id": "v" + t["id"][1:], "from": [rename[s] for s in t["from"]],
             "to": [rename[s] for s in t["to"]]}
            for t in c["transitions"]
        ],
    })
    return parse_spec(doc)


def test_equal_matrices_keep_their_own_step_bounds(monkeypatch):
    calls = _counting(monkeypatch)
    result = analyze_spec(_fig5_twice())
    assert len(calls) == 2
    assert result.invariants["c"].per_step_bound == \
        {"s1": 2, "s2": 2, "s3": 1, "s4": 1, "s5": 1}
    assert result.invariants["d"].per_step_bound == \
        {"u1": 2, "u2": 2, "u3": 1, "u4": 1, "u5": 1}


def test_shared_cap_hit_names_each_partial(monkeypatch):
    calls = _counting(monkeypatch)
    compute = invariants.compute_invariants
    monkeypatch.setattr(invariants, "compute_invariants",
                        lambda c, **kw: compute(c, cap=1, **kw))
    result = analyze_spec(_fig5_twice())
    assert len(calls) == 1  # the S matrix exceeds the cap; c and d share it
    incomplete = [f for f in result.findings if f.kind == "analysis-incomplete"]
    assert sorted(f.partial for f in incomplete) == ["c", "d"]
    assert all(inv.per_step_bound == dict.fromkeys(result.spec.partial_map[pid].steps,
                                                   math.inf)
               for pid, inv in result.invariants.items())
