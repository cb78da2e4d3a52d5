"""Acceptance suite: end-to-end checks of the analyzer's headline results.

Each criterion prints a single PASS/FAIL line (run pytest with ``-s`` or
check the captured output) in addition to the usual pytest verdict.
"""

import functools
import json
import math
import random
import sys
import time

from grafcet_lint import analyze_spec, load_spec
from grafcet_lint.cli import main
from grafcet_lint.invariants import minimal_invariants
from grafcet_lint.oracle import explore, explore_partial
from grafcet_lint.reachconc import analyze_partial
from grafcet_lint.hierarchy import InitialSituation
from conftest import corpus_path
from invariant_oracle import brute_force_invariants
from randspec import random_forcing_spec, random_spec


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} ({title}): FAIL", file=sys.stderr)
                raise
            print(f"criterion {number} ({title}): PASS")
        return run
    return wrap


def _analyze(name):
    return analyze_spec(load_spec(corpus_path(name)))


@criterion(1, "small-structure invariant corpus")
def test_criterion_1_invariant_corpus():
    t0 = time.perf_counter()

    g4 = _analyze("fig2_g4.grafcet.json")
    inv = g4.invariants["G4"]
    assert (1, 0, 0) in inv.s_invariants
    assert inv.uncovered_steps == frozenset({"2", "3"})

    g5 = _analyze("fig2_g5.grafcet.json")
    assert g5.invariants["G5"].s_invariants == ()

    g6 = _analyze("fig2_g6.grafcet.json")
    assert set(g6.invariants["G6"].s_invariants) == {(1, 1, 0, 1, 0),
                                                     (1, 0, 1, 0, 1)}

    g7 = _analyze("fig2_g7.grafcet.json")
    assert g7.invariants["G7"].t_invariants == ((1, 1),)
    assert g7.bounds[("G7", 0)].count == math.inf
    assert g7.bounds[("G7", 1)].count == math.inf

    assert time.perf_counter() - t0 < 1.0, "criterion 1 exceeded 1 s"


@criterion(2, "weighted invariant, execution bound and interval")
def test_criterion_2_fig5():
    result = _analyze("fig5.grafcet.json")
    inv = result.invariants["c"]
    assert inv.covered
    assert inv.bound == 2
    assert inv.t_invariants == ()
    assert result.bounds[("c", 0)].count == 4
    assert result.variables["k"].interval == (0, 4)


@criterion(3, "forced-situation concurrency fixpoint")
def test_criterion_3_fig4():
    spec = load_spec(corpus_path("fig4.grafcet.json"))
    c = spec.partial_map["c"]
    situation = InitialSituation("c", "forcing", "m1", "main",
                                 frozenset({"s3", "s4", "s5"}))
    expected = {
        "s1": {"s2", "s4", "s5", "s6"},
        "s2": {"s1", "s3"},
        "s3": {"s2", "s4", "s5", "s6"},
        "s4": {"s1", "s3", "s5"},
        "s5": {"s1", "s3", "s4"},
        "s6": {"s1", "s3"},
    }
    baseline = analyze_partial(c, situation)
    assert baseline.concurrency["s3"] >= {"s4", "s5"}, "initialization"
    assert "s6" in baseline.concurrency["s3"]
    assert {s: set(v) for s, v in baseline.concurrency.items()} == expected
    for seed in range(5):
        randomized = analyze_partial(c, situation, rng=random.Random(seed))
        assert randomized.concurrency == baseline.concurrency
        assert randomized.reachable == baseline.reachable


@criterion(4, "reconstructed rotary table spec")
def test_criterion_4_g_rit():
    t0 = time.perf_counter()
    spec = load_spec(corpus_path("g_rit.grafcet.json"))
    result = analyze_spec(spec)
    elapsed = time.perf_counter() - t0

    for c in spec.partials:
        assert result.reachable_by_partial[c.id] == c.step_set

    conc = result.conc_by_partial["G_RIT"]
    assert conc["10"] == frozenset()
    others = {str(s) for s in range(11, 23)} - {"11", "17"}
    assert conc["11"] == frozenset(others)
    assert conc["17"] == frozenset(others)

    rit = result.invariants["G_RIT"]
    idx = {s: i for i, s in enumerate(spec.partial_map["G_RIT"].steps)}
    for i in range(1, 7):
        triple = tuple(1 if j in (idx["10"], idx[str(10 + i)], idx[str(16 + i)])
                       else 0 for j in range(13))
        assert triple in rit.s_invariants
    assert rit.t_invariants == ((1, 1, 1, 1, 1, 1, 1, 1),)

    assert result.variables["conveyorBelt"].values == frozenset({False, True})
    assert result.variables["rotateTable"].values == frozenset({False, True})
    assert [f for f in result.findings if f.kind == "race"] == []

    gc = result.global_concurrency
    for i in range(1, 8):
        for j in range(i + 1, 8):
            assert f"G{j}0.a" in gc[f"G{i}0.a"], (i, j)

    assert elapsed < 0.1, f"pipeline took {elapsed * 1000:.1f} ms"


@criterion(5, "soundness against the explicit-state oracle")
def test_criterion_5_random_soundness():
    rng = random.Random(20260825)
    total, inconclusive = 0, 0
    while total < 200:
        spec = random_spec(rng)
        total += 1
        facts = explore(spec, mode="structural", max_states=8000)
        if facts.inconclusive:
            inconclusive += 1
            print(f"  excluded inconclusive case {total} "
                  f"(caps hit during exploration)")
            continue
        result = analyze_spec(spec)

        missing = facts.reachable - result.global_reachable
        assert not missing, f"oracle reached unpredicted steps {missing}"

        for pair in facts.pairs:
            a, b = sorted(pair)
            assert b in result.global_concurrency.get(a, set()), \
                f"oracle pair ({a}, {b}) missing from concurrency relation"

        for name, values in facts.var_values.items():
            approx = result.variables[name]
            for v in values:
                if approx.type == "bool":
                    assert bool(v) in approx.values, (name, v)
                else:
                    lo, hi = approx.interval
                    assert lo <= v <= hi, (name, v, approx.interval)

        reported = {
            frozenset(dict(f.evidence)["actions"])
            for f in result.findings
            if f.kind == "race" and f.severity == "error"
        }
        for conflict in facts.conflicts:
            assert conflict in reported, f"unreported write-write race {conflict}"

    rate = inconclusive / total
    print(f"  {total} random specs, {inconclusive} inconclusive ({rate:.1%})")
    assert rate <= 0.10, f"too many inconclusive runs: {rate:.1%}"


def test_situations_sound_against_oracle():
    # Each entry situation's reachable steps and pairs, as the report lists
    # them, must contain what the oracle finds from that situation alone.
    rng = random.Random(7)
    total, inconclusive = 0, 0
    for n in range(600):
        spec = random_forcing_spec(rng) if n % 3 == 2 else random_spec(rng)
        for pid, results in analyze_spec(spec).results.items():
            gid = {s: spec.global_step(pid, s) for s in spec.partial_map[pid].steps}
            for r in results:
                total += 1
                facts = explore_partial(spec, pid, r.situation.steps, max_states=8000)
                if facts.inconclusive:
                    inconclusive += 1
                    continue
                where = (n, pid, r.situation.label)
                assert facts.reachable <= {gid[s] for s in r.reachable}, where
                assert facts.pairs <= {frozenset((gid[a], gid[b]))
                                       for a, partners in r.concurrency.items()
                                       for b in partners}, where
    rate = inconclusive / total
    print(f"  {total} situations, {inconclusive} inconclusive ({rate:.1%})")
    assert rate <= 0.10, f"too many inconclusive runs: {rate:.1%}"


def test_execution_bounds_sound_against_oracle():
    # Every finite ExecutionBound.count bounds how often the oracle activates
    # the action's step, forcing orders included.
    rng7, rng2026 = random.Random(7), random.Random(2026)
    specs = [random_spec(rng7) for _ in range(300)]
    specs += [random_forcing_spec(rng2026) for _ in range(300)]
    explored, inconclusive, checked = 0, 0, 0
    for n, spec in enumerate(specs):
        bounds = {key: b for key, b in analyze_spec(spec).bounds.items() if b.count < math.inf}
        if not bounds:
            continue
        explored += 1
        steps = {key: spec.global_step(key[0], b.step) for key, b in bounds.items()}
        facts = explore(spec, max_states=8000, track_activations=tuple(steps.values()))
        if facts.inconclusive:
            inconclusive += 1
            continue
        for key, b in bounds.items():
            assert facts.activations[steps[key]] <= b.count, (n, key, b)
            checked += 1
    rate = inconclusive / explored
    print(f"  {checked} bounds on {explored} specs, {inconclusive} inconclusive ({rate:.1%})")
    assert checked >= 700
    assert rate <= 0.10, f"too many inconclusive runs: {rate:.1%}"


# The forcing corpus below holds two specs whose oracle pairs the analysis
# misses. In both, one step of P1 encloses P2 and another step forces it.
# The analysis pairs P2's steps only with the steps that enclose or force
# it, but once the forcing order ends, P2 keeps evolving from the forced
# situation: beside P1's later steps (spec 38), and joined by its marked
# steps when the enclosing step activates (spec 64). The set may only
# shrink: a new unsound spec fails the test, and so does a fixed one until
# it is taken off.
KNOWN_UNSOUND_FORCING = {38, 64}


def test_forcing_orders_sound_against_oracle():
    rng = random.Random(2026)
    unsound, conclusive = set(), 0
    for n in range(200):
        spec = random_forcing_spec(rng)
        facts = explore(spec, mode="structural", max_states=8000)
        if facts.inconclusive:
            continue
        conclusive += 1
        result = analyze_spec(spec)
        missing = facts.reachable - result.global_reachable
        missing |= {pair for pair in facts.pairs
                    if max(pair) not in result.global_concurrency.get(min(pair), ())}
        if missing:
            unsound.add(n)
    assert conclusive >= 160
    assert unsound == KNOWN_UNSOUND_FORCING


@criterion(6, "invariant solver equals exhaustive enumeration")
def test_criterion_6_solver_oracle():
    rng = random.Random(6)
    checked = 0
    while checked < 100:
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        matrix = [[rng.choice((-1, -1, 0, 0, 0, 1, 1)) for _ in range(ncols)]
                  for _ in range(nrows)]
        computed = minimal_invariants(matrix)
        if any(max(v) > 6 for v in computed):
            continue  # outside the enumeration's range
        assert computed == brute_force_invariants(matrix), matrix
        checked += 1


@criterion(7, "query refinement: concurrency beats value sets")
def test_criterion_7_query_refinement(capsys):
    spec = str(corpus_path("g_rit.grafcet.json"))
    queries = str(corpus_path("g_rit.queries.json"))

    code = main(["analyze", spec, "--queries", queries, "--fail-on", "error"])
    out = capsys.readouterr().out
    assert code == 0
    assert "query-violation" not in out

    code = main(["analyze", spec, "--queries", queries, "--naive",
                 "--fail-on", "error", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    violations = [f for f in report["findings"] if f["kind"] == "query-violation"]
    assert len(violations) == 1
    assert "value-set approximation" in violations[0]["message"]
