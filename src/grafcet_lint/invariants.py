"""Incidence matrix and minimal semi-positive S-/T-invariants.

The incidence matrix of a partial Grafcet (hierarchy elements ignored) has
one row per step and one column per transition, entries in {-1, 0, +1}.
Invariants are computed with Farkas-style elimination over exact integers:
S-invariants are semi-positive vectors y with y^T N = 0, T-invariants are
semi-positive x with N x = 0, both reduced to minimal support and GCD 1.
Each Farkas row is sparse: a dict of its nonzero identity entries and one of
its nonzero matrix entries. A column-to-row index finds the rows a column
combines without scanning the others, a combination walks the smaller of its
two rows (in place when no other combination reads the larger), and equal
rows are dropped by a fingerprint of the identity part. Columns are still
eliminated in order, so the cap counts what a dense elimination would: the
rows kept plus every combined row. A cyclic chain of n steps costs O(n) row
updates after the O(n^2) read of its dense matrix.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import cached_property
from itertools import compress
from math import gcd

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


def minimal_invariants(matrix: Sequence[Sequence[int]], cap: int = DEFAULT_CAP
                       ) -> list[tuple[int, ...]]:
    """Minimal-support semi-positive integer vectors y with y . rows(matrix) = 0.

    Farkas elimination: rows of [matrix | I] are combined pairwise to cancel
    each column in turn; identity parts of surviving rows are the invariants.
    """
    nrows = len(matrix)
    if nrows == 0:
        return []
    columns = list(range(len(matrix[0])))  # a list: compress then reuses its ints
    # Live rows by id, each [identity part, matrix part, fingerprint]. The
    # fingerprint is the identity part's dot product with fixed pseudo-random
    # weights (the hashes of 1-tuples, which no hash seed changes), so it
    # follows every combination in O(1) and equal identity parts have equal
    # fingerprints; rows with equal fingerprints are compared in full.
    rows: dict[int, list] = {}
    by_column: list = [[] for _ in columns]  # ids of rows nonzero there, dead ones too
    by_print: dict[int, list[int]] = {}  # ids of live rows by fingerprint
    for i, line in enumerate(matrix):
        part = {}
        for j in compress(columns, line):
            part[j] = line[j]
            by_column[j].append(i)
        weight = hash((i,))
        rows[i] = [{i: 1}, part, weight]
        by_print.setdefault(weight, []).append(i)
    next_id = nrows
    for j in columns:
        positive, negative = [], []
        # An id can be listed twice: a row updated in place can lose a column
        # and regain it.
        for i in dict.fromkeys(by_column[j]):
            row = rows.get(i)
            if row is not None and (v := row[1].get(j)):
                (positive if v > 0 else negative).append((i, row))
        by_column[j] = None
        for i, row in positive + negative:
            del rows[i]
            same = by_print[row[2]]
            if len(same) == 1:
                del by_print[row[2]]
            else:
                same.remove(i)
        if not (positive and negative):
            continue
        # Kept rows plus every combined row, repeats included.
        if len(rows) + len(positive) * len(negative) > cap:
            raise InvariantCapExceeded(f"more than {cap} intermediate invariant rows")
        positive_once = len(negative) == 1  # read by one combination only
        negative_once = len(positive) == 1
        for pi, rp in positive:
            b = rp[1][j]
            for ni, rn in negative:
                a = -rn[1][j]
                # a*rp + b*rn: start from the larger row and walk the smaller;
                # a row no other combination reads is updated in place.
                if len(rp[0]) + len(rp[1]) >= len(rn[0]) + len(rn[1]):
                    x, cx, y, cy, i, own = rp, a, rn, b, pi, positive_once
                else:
                    x, cx, y, cy, i, own = rn, b, rp, a, ni, negative_once
                if cx != 1:
                    ident = {k: cx * v for k, v in x[0].items()}
                    part = {k: cx * v for k, v in x[1].items()}
                elif own:
                    ident, part = x[0], x[1]
                else:
                    ident, part = x[0].copy(), x[1].copy()
                for k, v in y[0].items():
                    ident[k] = ident.get(k, 0) + cy * v
                added = []
                for k, v in y[1].items():
                    w = part.get(k)
                    if w is None:
                        part[k] = cy * v
                        added.append(k)
                    elif w + cy * v:
                        part[k] = w + cy * v
                    else:
                        del part[k]
                fingerprint = cx * x[2] + cy * y[2]
                # The matrix part is a combination of the matrix rows with the
                # identity part as weights, so the identity's GCD divides it.
                values = ident.values()
                if 1 not in values:
                    g = gcd(*values)
                    if g > 1:
                        for k in ident:
                            ident[k] //= g
                        for k in part:
                            part[k] //= g
                        fingerprint //= g
                same = by_print.get(fingerprint)
                if same is not None and any(rows[s][0] == ident for s in same):
                    continue
                if own:
                    x[0], x[1], x[2] = ident, part, fingerprint
                else:
                    i = next_id
                    next_id += 1
                    x = [ident, part, fingerprint]
                    added = part
                rows[i] = x
                if same is None:
                    by_print[fingerprint] = [i]
                else:
                    same.append(i)
                for k in added:
                    by_column[k].append(i)
    # Every matrix part is now zero; identity parts are nonzero with GCD 1.
    # Keep the rows whose support holds no other row's support.
    masks = [sum(map((1).__lshift__, ident)) for ident, _, _ in rows.values()]
    supports = set(masks)
    found = []
    for (ident, _, _), mask in zip(rows.values(), masks):
        if any(m != mask and m & mask == m for m in supports):
            continue
        vector = [0] * nrows
        for k, v in ident.items():
            vector[k] = v
        # Canonical order: lexicographic by support, then by entries.
        found.append((sorted(ident), tuple(vector)))
    found.sort()
    return [vector for _, vector in found]


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


def compute_invariants(c: PartialGrafcet, cap: int = DEFAULT_CAP,
                       solved: dict | None = None) -> tuple[InvariantSet, list[Finding]]:
    """S- and T-invariants of one partial and its per-step bounds.

    ``solved`` maps an incidence matrix (a tuple of row tuples) to its S- and
    T-invariants, or to the message of the cap it exceeded, for one ``cap``.
    Passing one dict for every partial of a spec solves each distinct matrix
    once; the bounds and the finding are still the partial's own.
    """
    if solved is None:
        solved = {}
    matrix = tuple(map(tuple, incidence(c)))
    result = solved.get(matrix)
    if result is None:
        try:
            result = (tuple(minimal_invariants(matrix, cap)),
                      tuple(minimal_invariants(tuple(zip(*matrix)), cap)))
        except InvariantCapExceeded as exc:
            result = str(exc)
        solved[matrix] = result
    if isinstance(result, str):
        return (
            InvariantSet((), (), {s: math.inf for s in c.steps}),
            [finding("analysis-incomplete", "warning",
                     f"invariant computation exceeded resource cap: {result}", partial=c.id)],
        )
    s_invs, t_invs = result
    return InvariantSet(s_invs, t_invs, classify_boundedness(s_invs, c)), []


def classify_boundedness(s_invariants, c: PartialGrafcet) -> dict[str, float]:
    """Per-step activation bound: the step's largest entry in a minimal
    S-invariant, math.inf if no S-invariant covers it."""
    per_step: dict[str, float] = {}
    for i, s in enumerate(c.steps):
        entries = [y[i] for y in s_invariants if y[i] > 0]
        per_step[s] = max(entries) if entries else math.inf
    return per_step
