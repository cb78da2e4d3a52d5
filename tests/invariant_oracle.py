"""Exhaustive test oracle for minimal semi-positive invariants.

Meet in the middle: the vectors over the first half of the rows are indexed
by their column sums, and each vector over the other half looks up the
negation of its own sums, so ``(k + 1) ** (n / 2)`` vectors are enumerated
per half instead of ``(k + 1) ** n`` in all.
"""

from itertools import product
from math import gcd


def brute_force_invariants(matrix: list[list[int]], max_entry: int = 6) -> list[tuple[int, ...]]:
    """All minimal-support solutions with entries <= max_entry, GCD 1, in the
    order ``minimal_invariants`` returns them."""
    nrows = len(matrix)
    if nrows == 0:
        return []
    ncols, half = len(matrix[0]), nrows // 2
    entries = range(max_entry + 1)

    def sums(vector, rows):
        return tuple(sum(x * row[j] for x, row in zip(vector, rows)) for j in range(ncols))

    by_sums: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for head in product(entries, repeat=half):
        by_sums.setdefault(sums(head, matrix[:half]), []).append(head)
    solutions = set()
    for tail in product(entries, repeat=nrows - half):
        negated = tuple(-x for x in sums(tail, matrix[half:]))
        for head in by_sums.get(negated, ()):
            v = head + tail
            if any(v):
                g = gcd(*v)
                solutions.add(tuple(x // g for x in v))
    supports = {v: frozenset(i for i, x in enumerate(v) if x) for v in solutions}
    minimal = [v for v in solutions if not any(s < supports[v] for s in supports.values())]
    return sorted(minimal, key=lambda v: (sorted(supports[v]), v))
