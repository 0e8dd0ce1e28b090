"""The per-parameter-set machine tables and the runner code map are safe
to share: they never leak one machine's state into another's program,
survive the disk cache, and stay at their bound."""


import pytest

from repro.arch.node import MACHINE_TABLES_SIZE, _shared_node, node_config
from repro.arch.params import NSCParameters, SUBSET_PARAMS
from repro.codegen.generator import MicrocodeGenerator
from repro.codegen.microword import Microword, layout_for
from repro.compose.builders import _fu_table
from repro.compose.registry import SOLVERS
from repro.service.cache import ProgramCache
from repro.service.jobs import SimJob
from repro.service.runner import BatchRunner
from repro.sim.fastpath import PLAN_CACHE
from repro.sim.progplan import RUNNER_CODE_SIZE, _runner_code

TABLES = (_shared_node, layout_for, _fu_table)


def clear_tables() -> None:
    for table in TABLES:
        table.cache_clear()


def jobs():
    """Registry jobs alternating between the default and subset machine."""
    return [
        SimJob(method=method, shape=(n, n, n), eps=1e-3, max_sweeps=50,
               subset=subset, backend="fast")
        for method in SOLVERS for n in (4, 5) for subset in (False, True)
    ]


def outcome(record):
    return (record["program_fingerprint"], record["cycles"], record["sweeps"])


def test_alternating_machines_match_fresh_tables_per_job():
    clear_tables()
    records, _ = BatchRunner(workers=1).run(jobs())
    shared = [outcome(r) for r in records]
    fresh = []
    for job in jobs():
        clear_tables()
        (record,), _ = BatchRunner(workers=1).run([job])
        fresh.append(outcome(record))
    assert shared == fresh
    assert len({fp for fp, _, _ in shared}) == len(shared)


def test_node_config_is_shared_per_parameter_set():
    assert node_config() is node_config(NSCParameters())
    assert node_config(SUBSET_PARAMS) is node_config(SUBSET_PARAMS.subset())
    assert node_config(SUBSET_PARAMS) is not node_config()
    assert layout_for(SUBSET_PARAMS).n_fus == SUBSET_PARAMS.n_functional_units


def test_disk_round_trip_still_decodes(tmp_path):
    node = node_config(SUBSET_PARAMS)
    setup = SOLVERS["rb-sor"].build_setup(
        node, (5, 5, 5), eps=1e-3, max_iterations=100, omega=1.5)
    compiled = MicrocodeGenerator(node).generate(setup.program)
    ProgramCache(str(tmp_path)).get_or_compile("k", lambda: compiled)

    reader = ProgramCache(str(tmp_path))
    loaded = reader.get_or_compile("k", lambda: pytest.fail("recompiled"))
    assert reader.stats.disk_hits == 1
    assert loaded.fingerprint() == compiled.fingerprint()
    shared = layout_for(SUBSET_PARAMS)
    for word in loaded.microwords:
        raw = word.encode()
        assert Microword.decode(loaded.layout, raw) == word
        assert Microword.decode(shared, raw).encode() == raw


def test_machine_tables_stay_at_their_bound():
    clear_tables()
    variants = [NSCParameters(regfile_words=32 + k)
                for k in range(MACHINE_TABLES_SIZE + 4)]
    for params in variants:
        node_config(params)
        layout_for(params)
        _fu_table(params)
    for table in TABLES:
        assert table.cache_info().currsize == MACHINE_TABLES_SIZE
    # the newest sets stay resident, the oldest were evicted
    assert node_config(variants[-1]) is node_config(variants[-1])
    misses = _shared_node.cache_info().misses
    node_config(variants[0])
    assert _shared_node.cache_info().misses == misses + 1


def test_runner_code_map_stays_at_its_bound():
    _runner_code.cache_clear()
    for k in range(RUNNER_CODE_SIZE + 8):
        code = _runner_code((k, "", 0))  # k tap loads, no steps or writes
        assert code.co_name == "_runner"
        assert code.co_argcount == 1 + 2 * k
    assert _runner_code.cache_info().currsize == RUNNER_CODE_SIZE


def _fused_jacobi(eps: float) -> dict:
    job = SimJob(method="jacobi", shape=(6, 6, 6), eps=eps,
                 max_sweeps=200, backend="fast")
    (record,), _ = BatchRunner(workers=1).run([job])
    assert record["tier"] == "fused"
    return record


def test_same_structure_programs_share_runner_code():
    """A second program differing only in tolerance has the first one's
    kernel shapes: its binds format no runner source (no miss) and reuse
    the code objects."""
    _runner_code.cache_clear()
    _fused_jacobi(1e-3)
    misses = _runner_code.cache_info().misses
    assert misses > 0
    _fused_jacobi(2e-3)
    info = _runner_code.cache_info()
    assert info.misses == misses
    assert info.hits > 0


def test_same_structure_kernels_share_parameter_names():
    """Two kernels of one shape hold one code object, and with it one
    parameter-name tuple (the code object's own), not a name list each."""
    def kernel_runner(eps: float):
        record = _fused_jacobi(eps)
        (plan,) = [p for p in PLAN_CACHE._data.values()
                   if p.program.fingerprint() == record["program_fingerprint"]]
        return _runner_code(plan.kernels[1].runner_shape)

    PLAN_CACHE.clear()
    code_a = kernel_runner(1e-3)
    code_b = kernel_runner(3e-3)
    assert code_a is code_b
    names = code_a.co_varnames[: code_a.co_argcount]
    assert names[0] == "_copyto" and len(set(names)) == len(names)
