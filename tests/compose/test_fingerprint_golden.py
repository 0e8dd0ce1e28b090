"""Registry programs compile to pinned microcode on both machines.

``golden_fingerprints.json`` holds the program fingerprints the
linear-scan FU allocator and per-generator microword layouts produced
for every registry solver at n = 3..9 on the default machine and on
``SUBSET_PARAMS``.  The shared machine tables and the indexed allocator
must reproduce them bit for bit.
"""

import json
from pathlib import Path

import pytest

from repro.arch.node import node_config
from repro.arch.params import NSCParameters, SUBSET_PARAMS
from repro.codegen.generator import MicrocodeGenerator
from repro.compose.registry import SOLVERS

GOLDEN = json.loads(
    (Path(__file__).with_name("golden_fingerprints.json")).read_text()
)
PARAMS = {"default": NSCParameters(), "subset": SUBSET_PARAMS}


def compile_fingerprint(params, method: str, n: int) -> str:
    node = node_config(params)
    setup = SOLVERS[method].build_setup(
        node, (n, n, n), eps=1e-3, max_iterations=2000, omega=1.5
    )
    return MicrocodeGenerator(node).generate(setup.program).fingerprint()


def test_golden_list_covers_every_solver_size_and_machine():
    assert set(GOLDEN) == {
        f"{name}/{method}/{n}"
        for name in PARAMS for method in SOLVERS for n in range(3, 10)
    }


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_fingerprint_matches_golden(key):
    name, method, n = key.split("/")
    assert compile_fingerprint(PARAMS[name], method, int(n)) == GOLDEN[key]
