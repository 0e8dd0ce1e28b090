"""Diagnostics: the errors and warnings the environment shows the user.

Paper §4: "Any errors are flagged as soon as they are detected" — in the
prototype they appear in the message strip across the top of the display
window (Fig. 5).  Each diagnostic carries the rule that produced it and a
*subject* string locating the offending object (a pad, a unit, a plane), so
the editor can highlight it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, NamedTuple


class Severity(enum.Enum):
    ERROR = "error"      # must be fixed before microcode generation
    WARNING = "warning"  # suspicious but codegen may proceed
    INFO = "info"        # advisory

    # members are singletons: hash by identity in C (see Opcode)
    __hash__ = object.__hash__

    @property
    def is_error(self) -> bool:
        return self is Severity.ERROR


class Diagnostic(NamedTuple):
    """One finding from a checker rule."""

    severity: Severity
    rule: str
    message: str
    subject: str = ""
    pipeline: int = -1

    def format(self) -> str:
        where = f" [{self.subject}]" if self.subject else ""
        pipe = f" (pipeline {self.pipeline})" if self.pipeline >= 0 else ""
        return f"{self.severity.value.upper()} {self.rule}{pipe}{where}: {self.message}"

    def __str__(self) -> str:
        return self.format()


@dataclass
class CheckReport:
    """An ordered collection of diagnostics from one checking pass."""

    diagnostics: List[Diagnostic] = field(default_factory=list)

    def add(self, diag: Diagnostic) -> None:
        self.diagnostics.append(diag)

    def extend(self, diags: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(diags)

    def merge(self, other: "CheckReport") -> None:
        self.diagnostics.extend(other.diagnostics)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        """True when no errors are present (warnings do not block)."""
        return not self.errors

    def __bool__(self) -> bool:
        return self.ok

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def format(self) -> str:
        if not self.diagnostics:
            return "clean"
        return "\n".join(d.format() for d in self.diagnostics)

    def first_error_message(self) -> str:
        """What the message strip shows: the first error, or empty."""
        errs = self.errors
        return errs[0].format() if errs else ""


def error(rule: str, message: str, subject: str = "", pipeline: int = -1) -> Diagnostic:
    return Diagnostic(Severity.ERROR, rule, message, subject, pipeline)


def warning(rule: str, message: str, subject: str = "", pipeline: int = -1) -> Diagnostic:
    return Diagnostic(Severity.WARNING, rule, message, subject, pipeline)


def info(rule: str, message: str, subject: str = "", pipeline: int = -1) -> Diagnostic:
    return Diagnostic(Severity.INFO, rule, message, subject, pipeline)


__all__ = [
    "Severity",
    "Diagnostic",
    "CheckReport",
    "error",
    "warning",
    "info",
]
