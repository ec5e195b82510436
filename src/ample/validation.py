"""The one result shape of every validator and certificate.

Validators and certificates never raise on a violated law; they return a
``ValidationReport`` naming the first (and any further) broken laws together
with concrete witnesses, so a caller can print them or assert on them.  A
certificate also carries ``value``, what it certifies: the construction it
checked, so a failed report still holds as much of it as was built.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class Failure:
    law: str
    witness: str

    def __str__(self) -> str:
        return f"{self.law}: {self.witness}"


@dataclass(frozen=True)
class ValidationReport:
    subject: str
    failures: tuple[Failure, ...] = field(default_factory=tuple)
    value: Any = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def first(self) -> Failure | None:
        return self.failures[0] if self.failures else None

    def __bool__(self) -> bool:
        return self.ok
