"""Disk entries pickled in the earlier class layout load into identical programs.

Earlier builds pickled ``ResolvedInput`` and ``DMAProgram`` with a
``__dict__`` state, and every microword with its ``_values`` field dict
(plus ``_encoded`` once something had encoded it).  The records are
slotted now and a finished microword keeps only its bits.  A plain
``slots=True`` change would load such a dict state with every field set
to its own name (``ResolvedInput(kind='kind', src_fu='src_fu', ...)``),
silently; a cache directory written by an earlier build must instead
load into programs equal to a fresh compile's, or count as misses.

The earlier layout is reproduced with a pickler that writes those three
classes the way the default reduction wrote their dict-backed past.
"""

import copyreg
import dataclasses
import io
import pickle

import pytest

from repro.arch.dma import DMAProgram
from repro.codegen.generator import ResolvedInput
from repro.codegen.microword import Microword
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


class _EarlierLayout(pickle.Pickler):
    """Pickles the records and microwords with their earlier dict state."""

    def __init__(self, fh, encoded):
        super().__init__(fh)
        self.encoded = encoded

    def reducer_override(self, obj):
        if isinstance(obj, (ResolvedInput, DMAProgram)):
            state = {f.name: getattr(obj, f.name)
                     for f in dataclasses.fields(obj)}
            return copyreg.__newobj__, (type(obj),), state
        if isinstance(obj, Microword):
            state = {"layout": obj.layout,
                     "_values": dict(obj.nonzero_fields())}
            if self.encoded:
                state["_encoded"] = obj.encode()
            return copyreg.__newobj__, (type(obj),), state
        return NotImplemented


def _rewrite_in_earlier_layout(cache_dir, encoded):
    paths = sorted(cache_dir.glob("*.pkl"))
    assert len(paths) == len(SPECS)
    for path in paths:
        value = pickle.loads(path.read_bytes())
        buf = io.BytesIO()
        _EarlierLayout(buf, encoded).dump(value)
        raw = buf.getvalue()
        assert b"_values" in raw
        path.write_bytes(raw)


def _facts(program):
    return (
        program.fingerprint(),
        repr(program.control),
        program.variable_layout,
        program.declarations,
        [image.inputs for image in program.images],
        [image.fu_ops for image in program.images],
        [[(ep, prog) for ep, prog in image.read_programs.items()]
         for image in program.images],
        [image.write_programs for image in program.images],
        [image.microword.nonzero_fields() for image in program.images],
    )


@pytest.mark.parametrize("encoded", [False, True],
                         ids=["values-only", "values-and-bits"])
def test_earlier_layout_entries_load_into_identical_programs(tmp_path,
                                                             encoded):
    PLAN_CACHE.clear()
    fresh_cache = ProgramCache()
    fresh = _run(fresh_cache)
    _run(ProgramCache(str(tmp_path)))
    _rewrite_in_earlier_layout(tmp_path, encoded)

    # plans key by program object: the loaded programs compile their own
    cache = ProgramCache(str(tmp_path))
    loaded = _run(cache)
    assert cache.stats.disk_hits == len(SPECS)
    assert cache.stats.misses == 0
    for job in _jobs():
        _setup, want = fresh_cache._mem.get(job.cache_key())
        _setup, got = cache._mem.get(job.cache_key())
        assert got is not want
        assert _facts(got) == _facts(want)
    assert _served(loaded) == _served(fresh)
