"""Registry programs compile to pinned pipeline images on both machines.

A program fingerprint hashes the encoded microwords only.  The executable
half of each :class:`~repro.codegen.generator.PipelineImage` (the
resolved inputs with their delays and residual skews, the timing totals,
the DMA programs and the shift/delay tables) is what the simulators run,
and none of it is in the microword: an ablation build's residual skew,
for one, never reaches a fingerprint.

``data/image_golden.json`` pins a digest of those fields for every
registry solver at n = 3..9 on the default machine and on
``SUBSET_PARAMS``, with automatic delay balancing on and off.  A
generator rewrite must reproduce them exactly.  Regenerate the file
(only when an image is meant to change) with::

    PYTHONPATH=src python tests/codegen/test_image_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List

import pytest

from repro.arch.node import node_config
from repro.arch.params import NSCParameters, SUBSET_PARAMS
from repro.codegen.generator import MicrocodeGenerator, PipelineImage
from repro.compose.registry import SOLVERS

GOLDEN_PATH = Path(__file__).with_name("data") / "image_golden.json"
PARAMS = {"default": NSCParameters(), "subset": SUBSET_PARAMS}
SIZES = range(3, 10)
BALANCE = {"balanced": True, "skewed": False}


def _ep(ep) -> List[object]:
    return list(ep.key)


def _dma(prog) -> List[object]:
    spec = prog.spec
    return [spec.device_kind.value, spec.device, spec.direction.value,
            spec.variable, spec.offset, spec.stride, spec.count,
            prog.base_offset, prog.count]


def image_state(image: PipelineImage) -> Dict[str, object]:
    """The image's fields the microword does not encode, in their
    insertion order, as JSON values."""
    return {
        "inputs": [
            [fu, port, ri.kind, _ep(ri.endpoint) if ri.endpoint else None,
             ri.src_fu, repr(ri.value), ri.delay, ri.skew]
            for (fu, port), ri in image.inputs.items()
        ],
        "fu_order": list(image.fu_order),
        "fu_ops": [[fu, op.value, repr(const)]
                   for fu, (op, const) in image.fu_ops.items()],
        "vector_length": image.vector_length,
        "fill_cycles": image.fill_cycles,
        "total_cycles": image.total_cycles,
        "flops_per_element": image.flops_per_element,
        "read_programs": [[_ep(ep), _dma(prog)]
                          for ep, prog in image.read_programs.items()],
        "write_programs": [[_ep(drv), _ep(sink), _dma(prog)]
                           for drv, sink, prog in image.write_programs],
        "sd_feeders": [[unit, _ep(ep)] for unit, ep in image.sd_feeders.items()],
        "sd_shifts": [[list(key), shift] for key, shift in image.sd_shifts.items()],
        "condition": (None if image.condition is None
                      else [image.condition.fu, image.condition.comparison,
                            repr(image.condition.threshold)]),
    }


def image_digest(key: str) -> str:
    """The digest of ``machine/method/n/balance``'s images."""
    machine, method, n, balance = key.split("/")
    n = int(n)
    node = node_config(PARAMS[machine])
    setup = SOLVERS[method].build_setup(
        node, (n, n, n), eps=1e-3, max_iterations=2000, omega=1.5
    )
    program = MicrocodeGenerator(
        node, auto_balance=BALANCE[balance]).generate(setup.program)
    state = [image_state(image) for image in program.images]
    text = json.dumps(state, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def keys() -> List[str]:
    return [f"{machine}/{method}/{n}/{balance}"
            for machine in PARAMS for method in SOLVERS for n in SIZES
            for balance in BALANCE]


def _golden() -> Dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_list_covers_every_solver_size_machine_and_balance():
    assert set(_golden()) == set(keys())


def test_skewed_builds_carry_residual_skew():
    """The fixture pins what no fingerprint sees: an ablation build's
    inputs carry a nonzero residual skew, a balanced build's none."""
    node = node_config(PARAMS["default"])
    setup = SOLVERS["jacobi"].build_setup(
        node, (5, 5, 5), eps=1e-3, max_iterations=2000, omega=1.5)
    for auto_balance in (True, False):
        program = MicrocodeGenerator(
            node, auto_balance=auto_balance).generate(setup.program)
        skews = [ri.skew for image in program.images
                 for ri in image.inputs.values()]
        assert any(skews) is not auto_balance


@pytest.mark.parametrize("key", keys())
def test_image_matches_golden(key):
    assert image_digest(key) == _golden()[key]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_image_golden.py --write")
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(
        {key: image_digest(key) for key in keys()},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
