"""Output checks: CLI reports against expected facts, analysis against oracle.

Each check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import json
import re
from collections import Counter

from specs import Case

EXIT_USAGE = 2
_MISSING = object()
_PARTIAL_LINE = re.compile(
    r"^  (\S+): (\d+)/(\d+) steps reachable, covered=(True|False), bound=(\S+)$")


def _expected_exit(case: Case, code) -> list[str]:
    if not isinstance(code, int):
        return [f"raised {code!r}"]
    if code == EXIT_USAGE:
        return ["exit code 2 (usage or input error)"]
    if case.facts.exit is not None and code != case.facts.exit:
        return [f"exit code {code}, expected {case.facts.exit}"]
    if code not in (0, 1):
        return [f"exit code {code} outside the CLI contract"]
    return []


def check_output(case: Case, code, out: str) -> tuple[list[str], dict | None]:
    """Check one ``analyze`` run; returns (problems, parsed JSON report)."""
    problems = _expected_exit(case, code)
    if problems:
        return problems, None
    if case.fmt == "text":
        return _check_text(case, code, out), None
    try:
        report = json.loads(out)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"], None
    return _check_json(case, code, report), report


def _check_text(case: Case, code, out: str) -> list[str]:
    facts = case.facts
    lines = out.splitlines()
    problems = []
    seen = {}
    for line in lines:
        m = _PARTIAL_LINE.match(line)
        if m:
            pid, reach, _steps, covered, bound = m.groups()
            seen[pid] = (int(reach), covered == "True", bound if bound == "inf" else int(bound))
    if facts.partials is not None and seen != facts.partials:
        problems.append(f"partials {seen} != expected {facts.partials}")
    if facts.findings is not None:
        want = sum(facts.findings.values())
        header = f"{want} finding(s):" if want else "no findings"
        if header not in lines:
            problems.append(f"missing line {header!r}")
    if "no findings" in lines and code != 0:
        problems.append("exit code 1 without findings")
    return problems


def _check_json(case: Case, code, report: dict) -> list[str]:
    facts = case.facts
    problems = []
    partials = {
        pid: (len(e["reachable"]), e["boundedness"]["covered"], e["boundedness"]["bound"])
        for pid, e in report["partials"].items()
    }
    if facts.partials is not None and partials != facts.partials:
        problems.append(f"partials {partials} != expected {facts.partials}")
    pairs = global_pairs(report)
    if facts.pairs is not None and len(pairs) != facts.pairs:
        problems.append(f"{len(pairs)} concurrency pairs, expected {facts.pairs}")
    kinds = Counter(f["kind"] for f in report["findings"])
    if facts.findings is not None and kinds != Counter(facts.findings):
        problems.append(f"findings {dict(kinds)} != expected {facts.findings}")
    failing = any(f["severity"] in ("error", "warning") for f in report["findings"])
    if failing != (code == 1):
        problems.append(f"exit code {code} disagrees with the reported findings")
    for path, want in facts.json_paths:
        got = _lookup(report, path)
        if (want is None and got is not _MISSING) or (want is not None and got != want):
            problems.append(f"{'/'.join(map(str, path))} = {got!r}, expected {want!r}")
    return problems


def _lookup(node, path):
    for key in path:
        if isinstance(node, dict):
            node = node.get(key, _MISSING)
        elif isinstance(node, list) and isinstance(key, int):
            node = node[key] if key < len(node) else _MISSING
        elif isinstance(node, list):
            node = key in node
        else:
            return _MISSING
        if node is _MISSING:
            return _MISSING
    return node


def global_pairs(report: dict) -> set[frozenset]:
    return {frozenset((a, b)) for a, others in report["global_concurrency"].items()
            for b in others}


def reachable_steps(report: dict) -> set[str]:
    return {f"{pid}.{s}" for pid, e in report["partials"].items() for s in e["reachable"]}


def check_oracle(case: Case, report: dict | None, facts) -> list[str]:
    """Soundness of the analysis against one structural oracle run."""
    if facts.inconclusive:
        return [f"oracle inconclusive (states_seen={facts.states_seen}; "
                "a max_states hit leaves it 0)"]
    problems = []
    if case.facts.states is not None and facts.states_seen != case.facts.states:
        problems.append(f"oracle saw {facts.states_seen} states, expected {case.facts.states}")
    if report is None:
        return problems
    missing = facts.reachable - reachable_steps(report)
    if missing:
        problems.append(f"unsound: oracle reached unpredicted steps {sorted(missing)}")
    unpredicted = facts.pairs - global_pairs(report)
    if unpredicted:
        problems.append(f"unsound: {len(unpredicted)} oracle pairs missing from the analysis")
    if case.facts.pairs is not None and len(facts.pairs) != case.facts.pairs:
        problems.append(f"oracle saw {len(facts.pairs)} pairs, expected {case.facts.pairs}")
    return problems
