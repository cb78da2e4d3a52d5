"""Findings: the analyzer's uniform diagnostic record."""

from __future__ import annotations

from .record import Record

SEVERITIES = ("error", "warning", "info")


class Finding(Record):
    kind: str
    severity: str
    partial: str | None
    element: str | None
    message: str
    evidence: tuple[tuple[str, object], ...] = ()

    @property
    def stable_id(self) -> str:
        """Content hash of kind + location, stable across runs for CI diffs."""
        import hashlib  # loads OpenSSL, which only the JSON report's ids need

        raw = f"{self.kind}:{self.partial or ''}:{self.element or ''}:{self.message}"
        return hashlib.sha256(raw.encode()).hexdigest()[:12]

    def to_dict(self) -> dict:
        return {
            "id": self.stable_id,
            "kind": self.kind,
            "severity": self.severity,
            "partial": self.partial,
            "element": self.element,
            "message": self.message,
            "evidence": {k: _jsonable(v) for k, v in self.evidence},
        }


def _jsonable(value):
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return value


def finding(kind, severity, message, partial=None, element=None, **evidence) -> Finding:
    return Finding(kind, severity, partial, element, message, tuple(sorted(evidence.items())))


def sort_findings(findings: list[Finding]) -> list[Finding]:
    """Canonical deterministic order: severity first, then location."""
    rank = {s: i for i, s in enumerate(SEVERITIES)}
    return sorted(
        findings,
        key=lambda f: (rank[f.severity], f.kind, f.partial or "", f.element or "", f.message),
    )
