""":func:`analyze_program` — the static analyzer's entry point.

One call runs every analysis the package knows over a compiled
:class:`~repro.codegen.generator.MachineProgram`:

1. per-issue structural hazards (:mod:`repro.analysis.hazards`) on each
   distinct pipeline image;
2. the whole-program dataflow walk (:mod:`repro.analysis.dataflow`) over
   the control script;
3. plan-safety metadata (:mod:`repro.analysis.plansafety`): batch-fusion
   eligibility.

The result is an :class:`~repro.analysis.verdict.AnalysisVerdict` —
pure data, serializable, recordable by the program cache.  The analyzer
never executes a stream and never mutates the program; ``analyze`` spans
and per-severity counters flow through :mod:`repro.obs`.
"""

from __future__ import annotations

from repro.codegen.generator import MachineProgram
from repro.obs import tracer as obs
from repro.analysis.dataflow import walk_program
from repro.analysis.hazards import check_image
from repro.analysis.plansafety import fusion_eligibility
from repro.analysis.verdict import AnalysisVerdict, FindingCollector


def analyze_program(program: MachineProgram) -> AnalysisVerdict:
    """Statically analyze *program*; never executes anything."""
    with obs.span("analyze", program=program.name):
        params = program.layout.params
        n_fus = program.layout.n_fus
        collector = FindingCollector()

        for index, image in enumerate(program.images):
            check_image(
                image, params, n_fus, collector,
                issue=f"pipeline {image.number}",
            )
        issues_walked = walk_program(program, collector)

        eligible, reasons = fusion_eligibility(program)
        sites = set()
        for image in program.images:
            for ep in image.read_programs:
                sites.add((ep.kind, ep.device))
            for _driver, sink, _prog in image.write_programs:
                sites.add((sink.kind, sink.device))

        verdict = AnalysisVerdict(
            program=program.name,
            fingerprint=program.fingerprint(),
            findings=collector.sorted(),
            fusion_eligible=eligible,
            fusion_reasons=reasons,
            issues_walked=issues_walked,
            sites_tracked=len(sites),
        )
        obs.count("analysis.run")
        for severity, n in verdict.counts().items():
            if n:
                obs.count(f"analysis.finding.{severity}", n)
        return verdict


__all__ = ["analyze_program"]
