"""Uniform pass/fail results for the axiom validators and the certificates.

Validators never raise on a violated law; they return a report naming the
first (and any further) broken laws together with concrete witnesses, so a
caller can print them or assert on them.  A certificate that cannot be
issued comes back as a single ``Failure``; both shapes answer ``ok``.
"""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Failure:
    law: str
    witness: str

    @property
    def ok(self) -> bool:
        return False

    def __str__(self) -> str:
        return f"{self.law}: {self.witness}"


@dataclass(frozen=True)
class ValidationReport:
    subject: str
    failures: tuple[Failure, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.failures

    def first(self) -> Failure | None:
        return self.failures[0] if self.failures else None

    def describe(self) -> str:
        if self.ok:
            return f"{self.subject}: PASS"
        lines = [f"{self.subject}: FAIL"] + [f"  {f}" for f in self.failures]
        return "\n".join(lines)

    def __bool__(self) -> bool:
        return self.ok
