"""Disk entries holding records in their frozen-dataclass layout are misses.

The immutable records a compiled program holds (declarations, control
ops, DMA specs, conditions, microword fields, machine parameters, the
builder's setup) were frozen dataclasses, pickled as the class plus a
``__dict__`` state.  They are NamedTuples now, which cannot be built
empty and have no ``__dict__`` to take that state, so such an entry must
fail to load, count as a cache miss and be recompiled: a cache directory
written by the earlier build never serves a wrong program.

The earlier layout is reproduced with a pickler that writes those
records the way the default reduction wrote a frozen dataclass.
"""

import copyreg
import io
import pickle

import pytest

from repro.arch.dma import DMASpec
from repro.arch.params import NSCParameters
from repro.codegen.microword import Field
from repro.compose.iterative import RBSORSetup
from repro.compose.jacobi import JacobiSetup
from repro.diagram.pipeline import ConditionSpec
from repro.diagram.program import (
    CacheSwap,
    Declaration,
    ExecPipeline,
    Halt,
    LoopUntil,
    Repeat,
    SwapVars,
)
from repro.service.cache import ProgramCache
from repro.service.jobs import SimJob
from repro.service.results import canonical_record
from repro.service.runner import BatchRunner
from repro.sim.fastpath import PLAN_CACHE

SPECS = [
    {"method": "jacobi", "shape": [5, 5, 5]},
    {"method": "rb-sor", "shape": [5, 5, 5], "omega": 1.3},
    {"method": "jacobi", "shape": [4, 4, 8], "hypercube_dim": 1},
]

#: records a cached program reaches that were frozen dataclasses
FORMER_DATACLASSES = (
    CacheSwap, ConditionSpec, Declaration, DMASpec, ExecPipeline, Field,
    Halt, JacobiSetup, LoopUntil, NSCParameters, RBSORSetup, Repeat,
    SwapVars,
)


def _jobs():
    return [SimJob.from_dict({"eps": 1e-3, "max_sweeps": 200,
                              "backend": "fast", **spec})
            for spec in SPECS]


def _run(cache):
    records, _summary = BatchRunner(workers=1, cache=cache).run(_jobs())
    assert all(record["ok"] for record in records)
    return records


def _served(records):
    """Canonical records minus how the program was obtained."""
    return [{k: v for k, v in canonical_record(r).items()
             if k not in ("cache_hit", "checker")} for r in records]


class _DataclassLayout(pickle.Pickler):
    """Pickles the former dataclasses with a dataclass's ``__dict__``
    state (``None`` when empty, as for ``Halt()``)."""

    def __init__(self, fh):
        super().__init__(fh)
        self.written = set()

    def reducer_override(self, obj):
        if type(obj) in FORMER_DATACLASSES:
            self.written.add(type(obj))
            return copyreg.__newobj__, (type(obj),), obj._asdict() or None
        return NotImplemented


def _rewrite_in_dataclass_layout(cache_dir):
    paths = sorted(cache_dir.glob("*.pkl"))
    assert len(paths) == len(SPECS)
    written = set()
    for path in paths:
        buf = io.BytesIO()
        pickler = _DataclassLayout(buf)
        pickler.dump(pickle.loads(path.read_bytes()))
        written |= pickler.written
        path.write_bytes(buf.getvalue())
        with pytest.raises((TypeError, AttributeError)):
            pickle.loads(path.read_bytes())
    return written


def test_dataclass_layout_entries_are_misses_and_recompile(tmp_path):
    PLAN_CACHE.clear()
    fresh = _run(ProgramCache())
    _run(ProgramCache(str(tmp_path)))
    written = _rewrite_in_dataclass_layout(tmp_path)
    assert {Declaration, DMASpec, ExecPipeline, Field, NSCParameters,
            JacobiSetup, RBSORSetup, LoopUntil, Halt} <= written

    cache = ProgramCache(str(tmp_path))
    recompiled = _run(cache)
    assert cache.stats.misses == len(SPECS)
    assert cache.stats.disk_hits == 0
    assert _served(recompiled) == _served(fresh)

    # the recompiles replaced the entries in the current layout
    again = ProgramCache(str(tmp_path))
    assert _served(_run(again)) == _served(fresh)
    assert again.stats.disk_hits == len(SPECS)
