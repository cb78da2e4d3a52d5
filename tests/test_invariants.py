"""Incidence matrices and minimal semi-positive invariants."""

import math
import random

import pytest
from invariant_oracle import brute_force_invariants

from grafcet_lint.invariants import (
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
