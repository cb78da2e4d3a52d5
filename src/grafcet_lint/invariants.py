"""Incidence matrix and minimal semi-positive S-/T-invariants.

The incidence matrix of a partial Grafcet (hierarchy elements ignored) has
one row per step and one column per transition, entries in {-1, 0, +1}.
Invariants are computed with Farkas-style elimination over exact integers:
S-invariants are semi-positive vectors y with y^T N = 0, T-invariants are
semi-positive x with N x = 0, both reduced to minimal support and GCD 1.
The rows live in one insertion-ordered dict: eliminating a column deletes
the rows it combines and inserts the combined ones, so only new rows are
hashed, and the cost on a cyclic chain grows quadratically, not cubically.
"""

from __future__ import annotations

import math
from functools import cached_property
from math import gcd
from operator import add

from .findings import Finding, finding
from .model import PartialGrafcet
from .record import Record

__all__ = [
    "InvariantCapExceeded",
    "InvariantSet",
    "classify_boundedness",
    "compute_invariants",
    "incidence",
    "minimal_invariants",
]

DEFAULT_CAP = 10_000


class InvariantCapExceeded(Exception):
    """Raised when intermediate Farkas rows exceed the configured limit."""


def incidence(c: PartialGrafcet) -> list[list[int]]:
    """|S| x |T| incidence matrix; rows follow step declaration order."""
    index = {s: i for i, s in enumerate(c.steps)}
    matrix = [[0] * len(c.transitions) for _ in c.steps]
    for j, t in enumerate(c.transitions):
        for s in t.upstream:
            matrix[index[s]][j] -= 1
        for s in t.downstream:
            matrix[index[s]][j] += 1
    return matrix


def minimal_invariants(matrix: list[list[int]], cap: int = DEFAULT_CAP) -> list[tuple[int, ...]]:
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


class InvariantSet(Record):
    s_invariants: tuple[tuple[int, ...], ...]  # indexed like c.steps
    t_invariants: tuple[tuple[int, ...], ...]  # indexed like c.transitions
    per_step_bound: dict[str, float]  # math.inf for a step no S-invariant covers

    @cached_property
    def uncovered_steps(self) -> frozenset[str]:
        return frozenset(s for s, b in self.per_step_bound.items() if b == math.inf)

    @cached_property
    def covered(self) -> bool:
        return not self.uncovered_steps

    @cached_property
    def bound(self) -> float:
        """The largest entry of any minimal S-invariant if every step is covered,
        else math.inf; 1 for a partial without steps."""
        return max(self.per_step_bound.values(), default=1)


def compute_invariants(c: PartialGrafcet, cap: int = DEFAULT_CAP
                       ) -> tuple[InvariantSet, list[Finding]]:
    matrix = incidence(c)
    try:
        s_invs = tuple(minimal_invariants(matrix, cap))
        t_invs = tuple(minimal_invariants([list(col) for col in zip(*matrix)], cap))
    except InvariantCapExceeded as exc:
        return (
            InvariantSet((), (), {s: math.inf for s in c.steps}),
            [finding("analysis-incomplete", "warning",
                     f"invariant computation exceeded resource cap: {exc}", partial=c.id)],
        )
    return InvariantSet(s_invs, t_invs, classify_boundedness(s_invs, c)), []


def classify_boundedness(s_invariants, c: PartialGrafcet) -> dict[str, float]:
    """Per-step activation bound: the step's largest entry in a minimal
    S-invariant, math.inf if no S-invariant covers it."""
    per_step: dict[str, float] = {}
    for i, s in enumerate(c.steps):
        entries = [y[i] for y in s_invariants if y[i] > 0]
        per_step[s] = max(entries) if entries else math.inf
    return per_step
