"""Immutable records are NamedTuples: checked construction and the
semantics each record kept from its frozen-dataclass past."""

import copy
import pickle

import pytest

from repro.arch.dma import DMASpec, DMASpecError, Direction
from repro.arch.interrupts import Interrupt, InterruptKind
from repro.arch.params import NSCParameters
from repro.arch.switch import DeviceKind
from repro.codegen.microword import Field
from repro.compose.builders import ConstOperand, FeedbackOperand
from repro.diagram.pipeline import PipelineDiagram
from repro.diagram.program import (
    Declaration,
    ExecPipeline,
    Halt,
    ProgramError,
    VisualProgram,
)
from repro.service.faults import FaultPlan, FaultRule
from repro.service.jobs import JobSpecError, SimJob
from repro.service.retry import RetryPolicy
from repro.sim.progplan import _Unfusable


class TestCheckedConstruction:
    def test_calls_copies_and_unpickling_all_check(self):
        decl = Declaration("u", 0, 8)
        assert pickle.loads(pickle.dumps(decl)) == decl
        assert copy.copy(decl) == decl and copy.deepcopy(decl) == decl
        with pytest.raises(ProgramError):
            Declaration("u", 0, 0)
        unchecked = decl._replace(length=0)  # _replace does not check
        with pytest.raises(ProgramError):
            pickle.loads(pickle.dumps(unchecked))

    def test_subset_checks_the_variant(self):
        with pytest.raises(ValueError, match="n_caches must be positive"):
            NSCParameters().subset(n_caches=0)
        with pytest.raises(ValueError):
            NSCParameters().subset(no_such_field=1)

    def test_normalising_records_store_normalised_fields(self):
        job = SimJob(shape=[4, 5, 6], u0_seed=3.0, max_attempts=2.0,
                     param_overrides=[("clock_mhz", 10.0)])
        assert job.shape == (4, 5, 6) and type(job.u0_seed) is int
        assert type(job.max_attempts) is int
        assert job.param_overrides == (("clock_mhz", 10.0),)
        policy = RetryPolicy(max_attempts=3.0, backoff_base=1)
        assert policy == (3, 1.0) and type(policy.backoff_base) is float
        plan = FaultPlan(rules=({"site": "worker.exec", "attempts": [1, 2]},))
        assert plan.rules == (FaultRule("worker.exec", attempts=(1, 2)),)

    def test_checks_raise_their_own_errors(self):
        with pytest.raises(DMASpecError):
            DMASpec(DeviceKind.MEMORY, 0, Direction.READ, stride=0)
        with pytest.raises(JobSpecError):
            SimJob(method="nope")


class TestKeptSemantics:
    def test_records_pickle_without_a_dict(self):
        spec = DMASpec(DeviceKind.CACHE, 1, Direction.WRITE, count=4)
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert not hasattr(spec, "__dict__")
        assert repr(spec) == (
            "DMASpec(device_kind=<DeviceKind.CACHE: 'cache'>, device=1, "
            "direction=<Direction.WRITE: 'write'>, variable=None, offset=0, "
            "stride=1, count=4)"
        )

    def test_sim_job_memos_live_in_its_dict_and_travel(self):
        job = SimJob(method="jacobi", shape=(5, 5, 5))
        key = job.program_key()
        assert job.__dict__["_program_key"] == key
        clone = pickle.loads(pickle.dumps(job))
        assert clone == job and clone.program_key() == key
        assert job._replace(eps=1e-3).__dict__ == {}

    def test_interrupts_compare_and_hash_by_cycle(self):
        early = Interrupt(3, InterruptKind.CONDITION_TRUE, "x", 1.0)
        late = Interrupt(5, InterruptKind.PIPELINE_COMPLETE)
        twin = Interrupt(3, InterruptKind.PIPELINE_COMPLETE)
        assert early < late and late > early and early <= twin >= early
        assert early == twin and hash(early) == hash(twin)
        assert early != late
        assert early != (3, InterruptKind.CONDITION_TRUE, "x", 1.0)

    def test_fields_compare_and_hash_by_identity(self):
        a, b = Field("op", 0, 5), Field("op", 0, 5)
        assert a != b and a == a and len({a: 1, b: 2}) == 2
        assert a.max_value == 31

    def test_unfusable_compares_by_reason_and_hides_its_program(self):
        first, second = _Unfusable("no", object()), _Unfusable("no", object())
        assert first == second and hash(first) == hash(second)
        assert repr(first) == "_Unfusable(reason='no')"
        assert first != ("no", first.program)

    def test_halt_is_falsy_but_kept_in_the_control_script(self):
        prog = VisualProgram()
        prog.insert_pipeline(PipelineDiagram())
        prog.add_control(ExecPipeline(0))
        prog.add_control(Halt())
        assert not Halt()
        assert prog.control == [ExecPipeline(0), Halt()]

    def test_operands_of_equal_fields_compare_equal(self):
        # the builder dispatches on type and never compares or hashes
        # operands, so the tuple equality across the two is harmless
        assert ConstOperand(1.0) == FeedbackOperand(1.0)
        assert type(ConstOperand(1.0)) is not type(FeedbackOperand(1.0))
