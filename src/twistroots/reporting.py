"""Shared verdict types for exhaustive checks and suites."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Failure:
    check: str
    witness: str

    def to_json(self) -> dict:
        return {"check": self.check, "witness": self.witness}


@dataclass
class Verdict:
    """Outcome of an exhaustive check: how many cases ran, which ones failed."""

    checks: int = 0
    failures: list[Failure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(
        self, passed: bool, check: str, witness: str | Callable[[], str] = ""
    ) -> None:
        """Count one case.  A callable witness is called only when the case
        fails, so passing cases never pay for formatting it."""
        self.checks += 1
        if not passed:
            self.failures.append(Failure(check, witness() if callable(witness) else witness))

    def extend(self, other: Verdict) -> None:
        self.checks += other.checks
        self.failures.extend(other.failures)

    def to_json(self) -> dict:
        """The one serialization of a verdict's outcome."""
        return {"checks": self.checks, "failures": [f.to_json() for f in self.failures]}

    def summary(self) -> str:
        if self.ok:
            return f"pass ({self.checks} checks)"
        first = self.failures[0]
        return (
            f"FAIL {len(self.failures)}/{self.checks} checks; "
            f"first: {first.check} [{first.witness}]"
        )
