"""Reference successor enumeration of the explicit-state oracle.

``enabled_reference`` scans every transition of the world; the oracle's
``_enabled`` visits only the transitions whose lowest upstream step is
active, plus the source transitions. ``firing_subsets_reference`` yields the
firing sets from ``combinations`` alone. The tests require both pairs to
give the same list in the same order.
"""

from itertools import combinations

from grafcet_lint.oracle import _eval_cond


def enabled_reference(world, active, vals, prev, inputs) -> list[tuple[int, int]]:
    out = []
    for up, down, hold, wake, cond in world.transitions:
        if active & up != up or active & hold or (wake and not active & wake):
            continue
        if cond is not None and not _eval_cond(world, cond, active, vals, prev, inputs):
            continue
        out.append((up, down))
    return out


def firing_subsets_reference(enabled):
    """(upstream, downstream) unions of the non-empty subsets of enabled
    transitions in which no two fired transitions share an upstream step."""
    if len(enabled) > 10:
        # Fall back to single firings plus the full set.
        candidates = [[e] for e in enabled]
        candidates.append(enabled)
    else:
        candidates = (s for r in range(1, len(enabled) + 1)
                      for s in combinations(enabled, r))
    for subset in candidates:
        used = down = 0
        for up, d in subset:
            if used & up:
                break
            used |= up
            down |= d
        else:
            yield used, down
