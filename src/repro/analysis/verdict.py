"""Finding and verdict types: what the static analyzer reports.

A :class:`Finding` is one defect or suspicion, located by storage site
and issue; an :class:`AnalysisVerdict` is the program-level roll-up the
cache records and ``nsc-vpe analyze`` prints.  Severities are ordered —
``error`` findings are proven-wrong-on-this-machine defects (the
dynamic checker or the simulator would fault, or the result would be
timing-dependent on real hardware); ``warning`` findings are wasted or
suspicious work that still executes deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

#: Severity names, least to most severe.
SEVERITIES: Tuple[str, ...] = ("info", "warning", "error")


def severity_rank(severity: str) -> int:
    """Position of *severity* in :data:`SEVERITIES` (higher = worse)."""
    try:
        return SEVERITIES.index(severity)
    except ValueError:
        raise ValueError(
            f"unknown severity {severity!r}; expected one of {SEVERITIES}"
        ) from None


@dataclass(frozen=True)
class Finding:
    """One analysis result: a rule violation at a site in an issue.

    ``rule`` is the analysis that fired (``double-write``,
    ``uninit-read``, ``raw-race``, ``waw-overwrite``, ``dead-write``,
    ``dead-code``, ``port-conflict``, ``control``); ``site`` names the
    storage or structural site (``mem[0]``, ``cache[1]``, ``fu3``,
    ``sd[0].tap2``, ``control``); ``issue`` locates the first control
    step that exhibits it (empty for whole-program findings).
    """

    rule: str
    severity: str
    site: str
    issue: str
    message: str

    def __post_init__(self) -> None:
        severity_rank(self.severity)  # validates

    def format(self) -> str:
        where = f" at {self.issue}" if self.issue else ""
        return f"[{self.severity}] {self.rule} {self.site}{where}: " \
               f"{self.message}"

    def to_dict(self) -> Dict[str, str]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "site": self.site,
            "issue": self.issue,
            "message": self.message,
        }


class FindingCollector:
    """Accumulates findings, deduplicating repeats.

    The dataflow walk unrolls loop bodies a bounded number of times, so
    the same static defect can surface once per unrolled iteration; the
    dedup key is the static location (rule, site, message) and the first
    occurrence's issue label wins.
    """

    def __init__(self) -> None:
        self._findings: List[Finding] = []
        self._seen: set[Tuple[str, str, str]] = set()

    def add(
        self,
        rule: str,
        severity: str,
        site: str,
        message: str,
        issue: str = "",
    ) -> None:
        key = (rule, site, message)
        if key in self._seen:
            return
        self._seen.add(key)
        self._findings.append(
            Finding(rule=rule, severity=severity, site=site, issue=issue,
                    message=message)
        )

    def __len__(self) -> int:
        return len(self._findings)

    def sorted(self) -> Tuple[Finding, ...]:
        """Findings most-severe first, then by site and rule (stable)."""
        return tuple(
            sorted(
                self._findings,
                key=lambda f: (-severity_rank(f.severity), f.site, f.rule,
                               f.message),
            )
        )


@dataclass(frozen=True)
class AnalysisVerdict:
    """The program-level verdict: ``ok`` or a ranked finding list.

    ``ok`` means no *error*-severity findings (the bar
    ``run_checker="static"`` gates on); ``clean`` means no findings at
    all (the bar the seed-corpus regression pins).  ``fusion_eligible``
    / ``fusion_reasons`` mirror the batch engine's static declines —
    advisory metadata, never findings, because an unfusable program is
    still a correct one.
    """

    program: str
    fingerprint: str
    findings: Tuple[Finding, ...] = ()
    fusion_eligible: bool = True
    fusion_reasons: Tuple[str, ...] = ()
    issues_walked: int = 0
    sites_tracked: int = 0

    @property
    def ok(self) -> bool:
        return not any(f.severity == "error" for f in self.findings)

    @property
    def clean(self) -> bool:
        return not self.findings

    @property
    def worst_severity(self) -> str:
        """The highest severity present, or ``""`` when clean."""
        if not self.findings:
            return ""
        return max(
            (f.severity for f in self.findings), key=severity_rank
        )

    def counts(self) -> Dict[str, int]:
        out = {severity: 0 for severity in SEVERITIES}
        for finding in self.findings:
            out[finding.severity] += 1
        return out

    def at_or_above(self, severity: str) -> Tuple[Finding, ...]:
        """Findings whose severity reaches *severity*."""
        floor = severity_rank(severity)
        return tuple(
            f for f in self.findings if severity_rank(f.severity) >= floor
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "program": self.program,
            "fingerprint": self.fingerprint,
            "ok": self.ok,
            "clean": self.clean,
            "counts": self.counts(),
            "findings": [f.to_dict() for f in self.findings],
            "fusion_eligible": self.fusion_eligible,
            "fusion_reasons": list(self.fusion_reasons),
            "issues_walked": self.issues_walked,
            "sites_tracked": self.sites_tracked,
        }

    def format(self) -> str:
        """Human-readable multi-line report."""
        head = f"{self.program}: "
        if self.clean:
            lines = [head + "ok (no findings)"]
        else:
            counts = ", ".join(
                f"{n} {sev}" + ("s" if n != 1 else "")
                for sev, n in reversed(list(self.counts().items()))
                if n
            )
            lines = [head + counts]
            lines.extend("  " + f.format() for f in self.findings)
        if not self.fusion_eligible:
            lines.append(
                "  (not batch-fusable: "
                + "; ".join(self.fusion_reasons) + ")"
            )
        return "\n".join(lines)


def merge_findings(
    collectors: Iterable[FindingCollector],
) -> Tuple[Finding, ...]:
    """Concatenate several collectors' sorted output (test helper)."""
    merged = FindingCollector()
    for collector in collectors:
        for finding in collector.sorted():
            merged.add(finding.rule, finding.severity, finding.site,
                       finding.message, finding.issue)
    return merged.sorted()


__all__ = [
    "SEVERITIES",
    "severity_rank",
    "Finding",
    "FindingCollector",
    "AnalysisVerdict",
    "merge_findings",
]
