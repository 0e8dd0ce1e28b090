"""The indexed FU allocator picks exactly the unit the linear scan picks."""

from typing import List, Sequence, Set, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.als import ALS_CLASSES
from repro.arch.funcunit import OPCODES, FUCapability
from repro.arch.node import NodeConfig, node_config
from repro.arch.params import NSCParameters, SUBSET_PARAMS
from repro.arch.switch import fu_out, mem_read
from repro.compose.builders import (
    BuilderError,
    ConstOperand,
    FeedbackOperand,
    FURef,
    MemSource,
    Operand,
    PipelineBuilder,
    _capability_richness,
)
from repro.diagram.program import VisualProgram

PARAMS = {"default": NSCParameters(), "subset": SUBSET_PARAMS}
CAPABILITIES = sorted({info.capability for info in OPCODES.values()},
                      key=lambda cap: cap.value)


def linear_choose_fu(
    node: NodeConfig, used: Set[int], capability: FUCapability,
    operands: Sequence[Operand],
) -> int:
    """The reference allocator: score every free capable unit by
    ``(-colocate, richness, fu)`` and take the minimum."""
    src_fus = {op.fu for op in operands if isinstance(op, FURef)}
    candidates: List[Tuple[int, int, int]] = []
    for fu in range(node.n_fus):
        if fu in used:
            continue
        cap = node.fu_capability(fu)
        if capability not in cap:
            continue
        colocate = 0
        als = node.als_of_fu(fu)
        my_slot = fu - als.first_fu
        for src in src_fus:
            if node.als_of_fu(src).als_id == als.als_id:
                src_slot = src - als.first_fu
                for edge in ALS_CLASSES[als.kind].internal_edges:
                    if edge.src_slot == src_slot and edge.dst_slot == my_slot:
                        colocate += 1
        candidates.append((-colocate, _capability_richness(cap), fu))
    if not candidates:
        raise BuilderError("no free functional unit")
    return min(candidates)[2]


@st.composite
def allocation_request(draw):
    name = draw(st.sampled_from(sorted(PARAMS)))
    n_fus = PARAMS[name].n_functional_units
    used = draw(st.sets(st.integers(0, n_fus - 1)))
    operand = st.one_of(
        st.integers(0, n_fus - 1).map(lambda fu: FURef(fu=fu, endpoint=fu_out(fu))),
        st.just(ConstOperand(value=1.0)),
        st.just(FeedbackOperand(init=0.0)),
        st.just(MemSource(variable="x", plane=0, offset=0, stride=1,
                          endpoint=mem_read(0))),
    )
    operands = draw(st.lists(operand, min_size=1, max_size=2))
    capability = draw(st.sampled_from(CAPABILITIES))
    return name, used, capability, operands


def _outcome(fn):
    try:
        return fn()
    except BuilderError:
        return "exhausted"


@settings(max_examples=300, deadline=None)
@given(request=allocation_request())
def test_ranked_choose_fu_matches_linear_scan(request):
    name, used, capability, operands = request
    params = PARAMS[name]
    builder = PipelineBuilder(node_config(params), VisualProgram())
    builder._used_fus = set(used)
    fresh = NodeConfig(params)
    expected = _outcome(
        lambda: linear_choose_fu(fresh, used, capability, operands))
    assert _outcome(lambda: builder._choose_fu(capability, operands)) == expected


@pytest.mark.parametrize("name", sorted(PARAMS))
def test_exhausting_every_capability_follows_linear_scan(name):
    """Allocate until each capability runs out, chaining every unit to
    the previous one so colocation decides as often as possible."""
    params = PARAMS[name]
    fresh = NodeConfig(params)
    for capability in CAPABILITIES:
        builder = PipelineBuilder(node_config(params), VisualProgram())
        previous: List[Operand] = [ConstOperand(value=0.0)]
        while True:
            want = _outcome(lambda: linear_choose_fu(
                fresh, builder._used_fus, capability, previous))
            got = _outcome(lambda: builder._choose_fu(capability, previous))
            assert got == want
            if got == "exhausted":
                break
            builder._used_fus.add(got)
            previous = [FURef(fu=got, endpoint=fu_out(got))]
