"""Program-cache entries keep generated code, not source diagrams.

``_compile_single`` and ``_compile_multinode`` return their solver setup
with ``program=None``: after code generation nothing on the run path
reads the diagram.  These tests pin that no cached value (and no cached
plan) reaches a :class:`VisualProgram`, a :class:`PipelineDiagram` or
the transient :class:`DiagramView` codegen compiles from, that the disk layer
serves slim entries and still loads entries pickled with a diagram, and
that dropping the diagram changes no record.

Each fact is held once, compactly: a cached microword keeps its bits
alone, no image holds a plan (a program plan lowers each image once,
into its kernel's step tuples), and the per-unit records carry no
``__dict__``.
"""

import gc
import types

from repro.arch.dma import DMAProgram
from repro.codegen.generator import ResolvedInput
from repro.diagram.pipeline import DiagramView, PipelineDiagram
from repro.diagram.program import VisualProgram
from repro.service import runner
from repro.service.cache import ProgramCache
from repro.service.jobs import SimJob
from repro.service.results import canonical_record
from repro.service.runner import BatchRunner
from repro.sim.fastpath import PLAN_CACHE
from repro.sim.progplan import ImageKernel, ProgramPlan

SPECS = [
    {"method": "jacobi", "shape": [5, 5, 5]},
    {"method": "rb-gs", "shape": [5, 5, 5]},
    {"method": "rb-sor", "shape": [5, 5, 5], "omega": 1.3},
    {"method": "jacobi", "shape": [4, 4, 8], "hypercube_dim": 1},
    # two seeded members of one program: a slab under batch_fusion="auto"
    {"method": "jacobi", "shape": [6, 6, 6], "u0_seed": 1},
    {"method": "jacobi", "shape": [6, 6, 6], "u0_seed": 2},
]

_OPAQUE = (type, types.ModuleType, types.FunctionType,
           types.BuiltinFunctionType, types.CodeType)


def _jobs():
    return [SimJob.from_dict({"eps": 1e-3, "max_sweeps": 200,
                              "backend": "fast", **spec})
            for spec in SPECS]


def _run(cache):
    records, _summary = BatchRunner(
        workers=1, cache=cache, batch_fusion="auto"
    ).run(_jobs())
    assert all(record["ok"] for record in records)
    assert {record["tier"] for record in records} >= {"fused",
                                                      "batch_fused"}
    return records


def _reached(root, kinds):
    """Instances of *kinds* reachable from *root*, not through classes,
    modules or functions (whose globals reach the whole process)."""
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _OPAQUE):
            continue
        seen.add(id(obj))
        if isinstance(obj, kinds):
            found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


def _diagrams_reached(root):
    return _reached(root, (VisualProgram, PipelineDiagram, DiagramView))


def _keep_diagrams(monkeypatch):
    """Make the compile stage cache setups whole, as it once did."""
    monkeypatch.setattr(runner, "_slim", lambda setup: setup)


def test_cache_values_hold_no_diagram():
    PLAN_CACHE.clear()
    cache = ProgramCache()
    _run(cache)
    values = list(cache._mem._data.values())
    assert len(values) == 5
    for setup, _program in values:
        assert setup.program is None
    assert [found for value in values
            if (found := _diagrams_reached(value))] == []
    plans = list(PLAN_CACHE._data.values())
    assert plans and _diagrams_reached(plans) == []


def test_reachability_walk_sees_a_stashed_view():
    cache = ProgramCache()
    _run(cache)
    (setup, program), *_rest = cache._mem._data.values()
    diagram = PipelineDiagram()
    program._view = diagram.freeze()
    assert _diagrams_reached((setup, program)) == [program._view]


def test_reachability_walk_sees_a_kept_diagram(monkeypatch):
    _keep_diagrams(monkeypatch)
    cache = ProgramCache()
    _run(cache)
    for value in cache._mem._data.values():
        assert _diagrams_reached(value)


def test_records_match_runs_that_keep_diagrams(monkeypatch):
    slim = _run(ProgramCache())
    with monkeypatch.context() as patch:
        _keep_diagrams(patch)
        whole = _run(ProgramCache())
    assert [canonical_record(r) for r in slim] \
        == [canonical_record(r) for r in whole]
    assert [r["program_fingerprint"] for r in slim] \
        == [r["program_fingerprint"] for r in whole]


def _served(records):
    """Canonical records minus the keys that say how a program was
    obtained (a disk hit vs a compile), not what the job computed."""
    return [{k: v for k, v in canonical_record(r).items()
             if k not in ("cache_hit", "checker")} for r in records]


def test_disk_layer_serves_slim_entries(tmp_path):
    first = _run(ProgramCache(str(tmp_path)))
    cache = ProgramCache(str(tmp_path))
    second = _run(cache)
    assert cache.stats.disk_hits == 5
    for setup, _program in cache._mem._data.values():
        assert setup.program is None
    assert _served(second) == _served(first)


def test_legacy_pickle_with_diagram_loads_and_runs(tmp_path, monkeypatch):
    with monkeypatch.context() as patch:
        _keep_diagrams(patch)
        _run(ProgramCache(str(tmp_path)))
    cache = ProgramCache(str(tmp_path))
    records = _run(cache)
    assert cache.stats.disk_hits == 5
    for setup, _program in cache._mem._data.values():
        assert setup.program is not None
    assert _served(records) == _served(_run(ProgramCache()))


def test_entries_hold_each_fact_once():
    PLAN_CACHE.clear()
    cache = ProgramCache()
    _run(cache)
    programs = [program for _setup, program in cache._mem._data.values()]
    plans = [p for p in PLAN_CACHE._data.values() if isinstance(p, ProgramPlan)]
    assert programs and plans
    images = [image for program in programs for image in program.images]
    for image in images:
        assert image.microword._values is None  # packed: bits only
    assert _reached(images, (ProgramPlan, ImageKernel)) == []
    kernels = [k for plan in plans for k in plan.kernels.values()]
    # a lowered unit is a tuple of refs, never a record of its own
    assert all(type(step) is tuple for k in kernels for step in k.steps)
    records = _reached([programs, plans], (ResolvedInput, DMAProgram))
    assert {type(r) for r in records} == {ResolvedInput, DMAProgram}
    assert not any(hasattr(record, "__dict__") for record in records)
