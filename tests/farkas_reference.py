"""Reference Farkas elimination over dense rows.

Each row is one tuple of the matrix part followed by the identity part, and
the rows live in one insertion-ordered dict. ``invariants.minimal_invariants``
computes the same vectors on sparse rows and must count the same rows against
the cap; the tests compare the two.
"""

from math import gcd
from operator import add

from grafcet_lint.invariants import DEFAULT_CAP, InvariantCapExceeded


def minimal_invariants_reference(matrix: list[list[int]], cap: int = DEFAULT_CAP
                                 ) -> list[tuple[int, ...]]:
    """Minimal-support semi-positive integer vectors y with y . rows(matrix) = 0.

    Farkas elimination: rows of [matrix | I] are combined pairwise to cancel
    each column; identity parts of surviving rows are the invariants.
    """
    nrows = len(matrix)
    if nrows == 0:
        return []
    ncols = len(matrix[0])
    zeros = (0,) * nrows
    # Insertion order is row order; a repeat keeps its first-seen place.
    rows = dict.fromkeys(tuple(matrix[i]) + zeros[:i] + (1,) + zeros[i + 1:]
                         for i in range(nrows))
    for j in range(ncols):
        positive = [r for r in rows if r[j] > 0]
        negative = [r for r in rows if r[j] < 0]
        for r in positive + negative:
            del rows[r]
        count = len(rows)  # kept rows plus combined rows so far, repeats included
        for rp in positive:
            b = rp[j]
            for rn in negative:
                a = -rn[j]
                sp = rp if a == 1 else map(a.__mul__, rp)
                sn = rn if b == 1 else map(b.__mul__, rn)
                rows.setdefault(_normalize(tuple(map(add, sp, sn))))
                count += 1
                if count > cap:
                    raise InvariantCapExceeded(
                        f"more than {cap} intermediate invariant rows"
                    )
    # Every row is normalized and its matrix part is now zero, so its identity
    # part is a nonzero vector with GCD 1.
    return _minimal_support({r[ncols:] for r in rows})


def _normalize(vector: tuple[int, ...]) -> tuple[int, ...]:
    """Divide a nonzero vector by its entries' GCD. Farkas rows are never zero:
    each identity part starts as a unit vector, and a*rp + b*rn with a, b > 0
    of two nonzero semi-positive parts is nonzero."""
    g = gcd(*vector)
    if g == 1:
        return vector
    return tuple(v // g for v in vector)


def _support(v):
    return frozenset(i for i, x in enumerate(v) if x)


def _minimal_support(vectors: set[tuple[int, ...]]) -> list[tuple[int, ...]]:
    vectors = sorted(vectors)
    supports = [_support(v) for v in vectors]
    out = []
    for i, v in enumerate(vectors):
        if any(j != i and supports[j] < supports[i] for j in range(len(vectors))):
            continue
        out.append(v)
    # Canonical order: lexicographic by support, then by entries.
    out.sort(key=lambda v: (sorted(_support(v)), v))
    return out
