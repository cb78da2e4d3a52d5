"""Expected results for the bundled corpus, copied by hand.

The facts restate the acceptance suite's assertions (criteria 1-4 and 7)
in terms of the CLI's ``--format json`` report, plus each spec's exit code
and findings by kind. ``json_paths`` entries are (path into the report,
expected value); a string key into a list tests membership, and ``None``
expects the key to be absent.
"""

from __future__ import annotations

import random
from pathlib import Path

from specs import Case, Facts

INF = "inf"

_G_RIT_OTHERS = ["12", "13", "14", "15", "16", "18", "19", "20", "21", "22"]

FACTS = {
    "fig1": Facts({"G0": (2, True, 1), "G1": (2, True, 1)}, None, None,
                  {"unbounded-activation": 2}, 1),
    "fig2_g1": Facts({"G1": (1, True, 1)}, None, None, {"race": 1}, 1),
    "fig2_g2": Facts({"G2": (3, True, 1)}, None, None, {"race": 1}, 1),
    "fig2_g3": Facts({"G3": (4, True, 1)}, None, None, {"race": 1}, 1),
    "fig2_g4": Facts({"G4": (3, False, INF)}, None, None,
                     {"race": 1, "unbounded-activation": 2}, 1,
                     json_paths=[(("partials", "G4", "boundedness", "uncovered_steps"),
                                  ["2", "3"]),
                                 (("partials", "G4", "boundedness", "per_step_bound", "1"),
                                  1)]),
    "fig2_g5": Facts({"G5": (2, False, INF)}, None, None,
                     {"race": 1, "unbounded-activation": 2}, 1,
                     json_paths=[(("partials", "G5", "boundedness", "uncovered_steps"),
                                  ["1", "2"])]),
    "fig2_g6": Facts({"G6": (5, True, 1)}, None, None, {"race": 1}, 1,
                     json_paths=[(("partials", "G6", "boundedness", "per_step_bound"),
                                  {s: 1 for s in "12345"})]),
    "fig2_g7": Facts({"G7": (2, True, 1)}, None, None, {"unbounded-activation": 2}, 1,
                     json_paths=[(("execution_bounds", f"G7.actions[{i}]"),
                                  {"step": s, "count": INF, "reasons": ["t-invariant-loop"]})
                                 for i, s in ((0, "1"), (1, "2"))]),
    "fig2_g8": Facts({"G7": (2, True, 1), "G8": (2, True, 1)}, None, None,
                     {"race": 1, "unbounded-activation": 2}, 1),
    "fig4": Facts({"main": (1, True, 1), "c": (6, True, 1)}, None, None, {}, 0,
                  json_paths=[(("partials", "c", "situations", 0, "concurrency"), {
                      "s1": ["s2", "s4", "s5", "s6"],
                      "s2": ["s1", "s3"],
                      "s3": ["s2", "s4", "s5", "s6"],
                      "s4": ["s1", "s3", "s5"],
                      "s5": ["s1", "s3", "s4"],
                      "s6": ["s1", "s3"],
                  })]),
    "fig5": Facts({"c": (5, True, 2)}, None, None, {}, 0,
                  json_paths=[(("variables", "k"), {"type": "int", "lo": 0, "hi": 4}),
                              (("execution_bounds", "c.actions[0]", "count"), 4)]),
    "g_rit": Facts({"G_OM": (2, True, 1), "G_RIT": (13, True, 1),
                    **{f"G{i}0": (2, True, 1) for i in range(1, 8)}},
                   None, None, {"unbounded-activation": 23}, 1,
                   json_paths=[
                       (("partials", "G_RIT", "concurrency", "11"), _G_RIT_OTHERS),
                       (("partials", "G_RIT", "concurrency", "17"), _G_RIT_OTHERS),
                       (("partials", "G_RIT", "concurrency", "10"), None),
                       (("variables", "conveyorBelt", "values"), [False, True]),
                       (("variables", "rotateTable", "values"), [False, True]),
                   ] + [
                       (("global_concurrency", f"G{i}0.a", f"G{j}0.a"), True)
                       for i in range(1, 8) for j in range(1, 8) if i != j
                   ]),
}

SIDECARS = {"g_rit": "g_rit.queries.json"}


def corpus_cases(src: Path, seed: int) -> list[Case]:
    """Each bundled spec once as text and once as JSON, in seeded order."""
    corpus = src / "grafcet_lint" / "corpus"
    cases = []
    for name, facts in FACTS.items():
        doc = (corpus / f"{name}.grafcet.json").read_text(encoding="utf-8")
        sidecar = None
        if name in SIDECARS:
            sidecar = (corpus / SIDECARS[name]).read_text(encoding="utf-8")
        for fmt in ("text", "json"):
            cases.append(Case(name, doc, facts, fmt=fmt, sidecar=sidecar))
    random.Random(seed).shuffle(cases)
    return cases

