"""The checker's diagnostics over a corpus of real and broken programs.

``data/checker_golden.json`` pins, in order, every diagnostic (rule,
severity, message, subject, pipeline) the production rule set reports
for

- each registry solver's program at n = 4..9 on the default machine
  (``Checker.check_program``), and
- every single-edit mutant of those programs (``Checker.check_pipeline``
  on the edited pipeline): one drawn wire, one input mod, one FU
  operation, one DMA specification or one shift/delay tap deleted, or
  one wire's sink given a second driver (the next wire's source).

The file keeps each distinct diagnostic once (``rows``) and every case
as a list of indices into it.

A rule rewrite must reproduce the corpus exactly.  Regenerate the file
(only when a diagnostic is meant to change) with::

    PYTHONPATH=src python tests/checker/test_checker_golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

import pytest

from repro.arch.node import node_config
from repro.arch.params import NSCParameters
from repro.checker.checker import Checker
from repro.compose.registry import SOLVERS

GOLDEN_PATH = Path(__file__).with_name("data") / "checker_golden.json"
SIZES = range(4, 10)

Row = List[object]


def _rows(report) -> List[Row]:
    return [
        [d.rule, d.severity.value, d.message, d.subject, d.pipeline]
        for d in report.diagnostics
    ]


def _mutants(diagram) -> Iterator[Tuple[str, object]]:
    """``(label, edited copy)`` for each single edit of *diagram*.

    Each edit is made on a fresh ``copy()`` whose containers keep the
    original insertion order."""
    for i, (src, sink) in enumerate(diagram.connections):
        mutant = diagram.copy()
        del mutant.connections[i]
        yield f"wire {src}->{sink}", mutant
    for name in ("input_mods", "fu_ops", "dma", "sd_taps"):
        for key in list(getattr(diagram, name)):
            mutant = diagram.copy()
            del getattr(mutant, name)[key]
            yield f"{name} {key}", mutant
    wires = diagram.connections
    for i, (_src, sink) in enumerate(wires):
        extra = wires[(i + 1) % len(wires)][0]
        mutant = diagram.copy()
        mutant.connections.append((extra, sink))
        yield f"extra {extra}->{sink}", mutant


def corpus() -> Dict[str, Dict[str, List[Row]]]:
    """``{program: {case: diagnostics}}`` for the whole corpus."""
    node = node_config(NSCParameters())
    checker = Checker(node)
    out: Dict[str, Dict[str, List[Row]]] = {}
    for method in SOLVERS:
        for n in SIZES:
            setup = SOLVERS[method].build_setup(
                node, (n, n, n), eps=1e-3, max_iterations=2000, omega=1.5
            )
            program = setup.program
            cases = {"program": _rows(checker.check_program(program))}
            for index, diagram in enumerate(program.pipelines):
                for label, mutant in _mutants(diagram):
                    report = checker.check_pipeline(
                        mutant, program.declarations
                    )
                    cases[f"pipeline {index}: {label}"] = _rows(report)
            out[f"{method}/{n}"] = cases
    return out


def pack(programs: Dict[str, Dict[str, List[Row]]]) -> Dict[str, object]:
    """The file layout: distinct rows once, cases as row indices."""
    index: Dict[str, int] = {}
    rows: List[Row] = []

    def ref(row: Row) -> int:
        key = json.dumps(row)
        if key not in index:
            index[key] = len(rows)
            rows.append(row)
        return index[key]

    return {
        "rows": rows,
        "programs": {
            name: {case: [ref(r) for r in diags] for case, diags in cases.items()}
            for name, cases in programs.items()
        },
    }


def dump(data: Dict[str, object]) -> str:
    """The packed corpus as JSON text, one row or one case per line."""
    rows = ",\n".join(json.dumps(row) for row in data["rows"])
    programs = ",\n".join(
        json.dumps(name) + ": {\n" + ",\n".join(
            f"{json.dumps(case)}: {json.dumps(refs)}"
            for case, refs in cases.items()
        ) + "\n}"
        for name, cases in data["programs"].items()
    )
    return f'{{"rows": [\n{rows}\n],\n"programs": {{\n{programs}\n}}}}\n'


def unpack(data: Dict[str, object]) -> Dict[str, Dict[str, List[Row]]]:
    rows = data["rows"]
    return {
        name: {case: [rows[i] for i in refs] for case, refs in cases.items()}
        for name, cases in data["programs"].items()
    }


@pytest.fixture(scope="module")
def golden() -> Dict[str, Dict[str, List[Row]]]:
    return unpack(json.loads(GOLDEN_PATH.read_text()))


@pytest.fixture(scope="module")
def current() -> Dict[str, Dict[str, List[Row]]]:
    return corpus()


def test_corpus_covers_every_solver_and_size(golden):
    assert set(golden) == {f"{m}/{n}" for m in SOLVERS for n in SIZES}


def test_corpus_exercises_the_rules(golden):
    """The mutants must actually trip rules, or the golden pins little."""
    rules = {
        row[0]
        for cases in golden.values()
        for rows in cases.values()
        for row in rows
    }
    assert {"inputs-fed", "dma-spec", "unused-output", "shift-delay",
            "condition", "feedback", "internal-route", "sink-unique",
            "plane-one-writer"} <= rules


@pytest.mark.parametrize("key", [f"{m}/{n}" for m in SOLVERS for n in SIZES])
def test_diagnostics_match_golden(key, golden, current):
    want, got = golden[key], current[key]
    assert list(got) == list(want)
    for case in want:
        assert got[case] == want[case], case


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(dump(pack(corpus())))
    print(f"wrote {GOLDEN_PATH}")
