"""The checker: architectural knowledge plus constraint rules.

Paper §4: "The checker contains, in a knowledge base or other suitable
representation, detailed information about the architecture of the NSC ...
More importantly, the checker also knows all of the rules about conflicts,
constraints, asymmetries and other restrictions."  It is called by the
editor *during* interaction (incremental checks, errors flagged as soon as
detected) and again by the microcode generator for "a thorough check of
global constraints".
"""

from repro._lazy import lazy_exports

__all__ = [
    "Diagnostic",
    "Severity",
    "CheckReport",
    "MachineKnowledge",
    "Checker",
    "Rule",
    "ALL_RULES",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "diagnostics": ("Diagnostic", "Severity", "CheckReport"),
        "knowledge": ("MachineKnowledge",),
        "checker": ("Checker",),
        "rules": ("ALL_RULES", "Rule"),
    },
)
