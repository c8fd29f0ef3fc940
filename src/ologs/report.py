"""Validation reports: a flat list of findings, empty means valid."""

from __future__ import annotations

from dataclasses import dataclass, field

from .records import record


@record
class Finding:
    code: str
    message: str


def json_report(ok: bool, findings: list[Finding]) -> dict:
    """The document that every command prints under --json."""
    return {"ok": ok, "findings": [{"code": f.code, "message": f.message}
                                   for f in findings]}


@dataclass
class ValidationReport:
    findings: list[Finding] = field(default_factory=list)
    warnings: list[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Warnings do not make a report fail."""
        return not self.findings

    def add(self, code: str, message: str) -> None:
        self.findings.append(Finding(code, message))

    def warn(self, code: str, message: str) -> None:
        self.warnings.append(Finding(code, message))

    def extend(self, other: "ValidationReport") -> None:
        self.findings.extend(other.findings)
        self.warnings.extend(other.warnings)

    def to_json(self) -> dict:
        return json_report(self.ok, self.findings + self.warnings)

    def __str__(self) -> str:
        lines = [f"{f.code}: {f.message}" for f in self.findings]
        lines += [f"warning {f.code}: {f.message}" for f in self.warnings]
        return "\n".join(lines) if lines else "ok"
