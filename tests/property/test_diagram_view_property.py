"""A frozen diagram answers every query like a scan of the diagram does.

Random diagrams are built through the editor API (``add_als``,
``connect``, ``set_fu_op``, ``set_input_mod``, ``set_dma``...), then
edited by ``remove_als``, ``disconnect`` and direct edits of the
containers (appended duplicate wires, deleted entries, extra ALS uses).
Every answer of the :class:`DiagramView` and of the live diagram's
delegating queries must equal a brute-force definition written here: a
linear scan of ``connections``, and Kahn's sort over a sorted ready
list, with the identical :class:`DiagramError` text on a cycle.  The
checker's rubber-band plane check, which reads a view plus one new
wire, must agree with drawing that wire on a copy.

Example counts follow the active hypothesis profile: a few dozen under
the default, the ``ci`` profile's count under ``--hypothesis-profile=ci``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.arch.als import ALSKind
from repro.arch.dma import DMASpec, Direction
from repro.arch.funcunit import OPCODES, Opcode
from repro.arch.switch import (
    DeviceKind,
    Endpoint,
    cache_read,
    cache_write,
    fu_in,
    fu_out,
    mem_read,
    mem_write,
    sd_in,
    sd_tap,
)
from repro.checker.checker import Checker
from repro.diagram.pipeline import (
    ALSUse,
    DiagramError,
    InputMod,
    InputModKind,
    PipelineDiagram,
)

_EXAMPLES = (
    settings.default.max_examples
    if settings.get_current_profile_name() == "ci" else 40
)

#: (als_id, kind, first_fu): overlapping placements are allowed on purpose
PLACEMENTS = [
    (0, ALSKind.SINGLET, 0),
    (1, ALSKind.DOUBLET, 1),
    (2, ALSKind.TRIPLET, 3),
    (3, ALSKind.DOUBLET, 2),
    (4, ALSKind.SINGLET, 6),
]
FUS = range(7)
SOURCES = (
    [fu_out(fu) for fu in FUS]
    + [mem_read(p) for p in range(3)]
    + [cache_read(c) for c in range(2)]
    + [sd_tap(u, t) for u in range(2) for t in range(2)]
)
SINKS = (
    [fu_in(fu, port) for fu in FUS for port in ("a", "b")]
    + [mem_write(p) for p in range(3)]
    + [cache_write(c) for c in range(2)]
    + [sd_in(u) for u in range(2)]
)
PADS = [ep for ep in SOURCES + SINKS
        if ep.kind in (DeviceKind.MEMORY, DeviceKind.CACHE)]
OPS = [Opcode.FADD, Opcode.FMUL, Opcode.FABS, Opcode.FSCALE, Opcode.MAX]

CYCLE = (
    "pipeline contains a combinational cycle (feedback must use "
    "the FEEDBACK input mod, not a drawn wire loop)"
)


# ----------------------------------------------------------------------
# brute-force definitions
# ----------------------------------------------------------------------
def bf_driver(d: PipelineDiagram, sink: Endpoint) -> Optional[Endpoint]:
    for s, k in d.connections:
        if k == sink:
            return s
    return None


def bf_sinks(d: PipelineDiagram, source: Endpoint) -> List[Endpoint]:
    return [k for s, k in d.connections if s == source]


def bf_als(d: PipelineDiagram, fu: int):
    found = None
    for use in d.als_uses.values():
        if use.first_fu <= fu < use.first_fu + use.kind.n_units:
            found = use
    return found


def bf_input_source(d: PipelineDiagram, fu: int, port: str):
    if (fu, port) in d.input_mods:
        return ("mod", d.input_mods[(fu, port)])
    drv = bf_driver(d, fu_in(fu, port))
    return None if drv is None else ("switch", drv)


def bf_planes(d: PipelineDiagram, fu: int) -> Set[int]:
    planes: Set[int] = set()
    for port in ("a", "b"):
        src = bf_driver(d, fu_in(fu, port))
        if src is not None and src.kind is DeviceKind.SHIFT_DELAY:
            src = bf_driver(d, sd_in(src.device))
        if src is not None and src.kind is DeviceKind.MEMORY:
            planes.add(src.device)
    for s, k in d.connections:
        if s == fu_out(fu) and k.kind is DeviceKind.MEMORY:
            planes.add(k.device)
    return planes


def bf_writers(d: PipelineDiagram) -> Dict[int, List[Endpoint]]:
    writers: Dict[int, List[Endpoint]] = {}
    for s, k in d.connections:
        if k.kind is DeviceKind.MEMORY and k.port == "write":
            writers.setdefault(k.device, []).append(s)
    return writers


def bf_used(d: PipelineDiagram) -> Set[Endpoint]:
    return {ep for wire in d.connections for ep in wire} | set(d.dma)


def bf_order(d: PipelineDiagram) -> List[int]:
    fus = set(d.fu_ops)
    edges: List[Tuple[int, int]] = [
        (s.device, k.device) for s, k in d.connections
        if s.kind is DeviceKind.FU and k.kind is DeviceKind.FU
    ]
    for (fu, _port), mod in d.input_mods.items():
        use = bf_als(d, fu)
        if mod.kind is InputModKind.INTERNAL and use is not None:
            edges.append((use.first_fu + mod.src_slot, fu))
    indeg = {fu: 0 for fu in fus}
    for u, v in edges:
        if u in fus and v in fus and u != v:
            indeg[v] += 1
    ready = sorted(fu for fu, n in indeg.items() if n == 0)
    order: List[int] = []
    while ready:
        fu = ready.pop(0)
        order.append(fu)
        for u, v in edges:
            if u == fu and v in fus and u != v:
                indeg[v] -= 1
                if indeg[v] == 0:
                    ready.append(v)
        ready.sort()
    if len(order) != len(fus):
        raise DiagramError(CYCLE)
    return order


def bf_mod_words(d: PipelineDiagram, fu: int) -> int:
    words = int(OPCODES[d.fu_ops[fu].opcode].uses_constant)
    for port in ("a", "b"):
        mod = d.input_mods.get((fu, port))
        if mod is not None and mod.kind is not InputModKind.INTERNAL:
            words += 1
    return words


# ----------------------------------------------------------------------
# random diagrams
# ----------------------------------------------------------------------
mods = st.one_of(
    st.builds(InputMod, st.just(InputModKind.CONSTANT), st.floats(-2, 2)),
    st.builds(InputMod, st.just(InputModKind.FEEDBACK), st.floats(-2, 2)),
    st.builds(InputMod, st.just(InputModKind.INTERNAL), st.just(0.0),
              st.integers(0, 2)),
)


@st.composite
def diagrams(draw) -> PipelineDiagram:
    d = PipelineDiagram(number=draw(st.integers(0, 3)))
    for als_id, kind, first in draw(
        st.lists(st.sampled_from(PLACEMENTS), unique=True, max_size=4)
    ):
        bypass = draw(st.sets(st.integers(0, kind.n_units - 1),
                              max_size=kind.n_units - 1))
        d.add_als(als_id, kind, first, tuple(bypass))
    for fu in draw(st.lists(st.sampled_from(list(FUS)), max_size=6)):
        use = d.als_use_of_fu(fu)
        if use is not None and fu in use.active_fus:
            d.set_fu_op(fu, draw(st.sampled_from(OPS)))
    for _ in range(draw(st.integers(0, 14))):
        wire = (draw(st.sampled_from(SOURCES)), draw(st.sampled_from(SINKS)))
        if draw(st.booleans()):
            d.connections.append(wire)  # direct edit: duplicates allowed
        elif wire not in d.connections:
            d.connect(*wire)
    for _ in range(draw(st.integers(0, 4))):
        fu, port = draw(st.sampled_from(list(FUS))), draw(st.sampled_from("ab"))
        use = d.als_use_of_fu(fu)
        if use is not None and fu in use.active_fus:
            d.set_input_mod(fu, port, draw(mods))
        else:
            d.input_mods[(fu, port)] = draw(mods)  # direct edit
    for pad in draw(st.lists(st.sampled_from(PADS), max_size=3)):
        direction = Direction.READ if pad.port == "read" else Direction.WRITE
        d.set_dma(pad, DMASpec(pad.kind, pad.device, direction, "x"))
    # edits after the build
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(
            ["remove_als", "disconnect", "del_wire", "del_op", "del_mod",
             "extra_als"]
        ))
        if edit == "remove_als" and d.als_uses:
            d.remove_als(draw(st.sampled_from(sorted(d.als_uses))))
        elif edit == "disconnect" and d.connections:
            d.disconnect(*draw(st.sampled_from(d.connections)))
        elif edit == "del_wire" and d.connections:
            del d.connections[draw(st.integers(0, len(d.connections) - 1))]
        elif edit == "del_op" and d.fu_ops:
            del d.fu_ops[draw(st.sampled_from(sorted(d.fu_ops)))]
        elif edit == "del_mod" and d.input_mods:
            del d.input_mods[draw(st.sampled_from(sorted(d.input_mods)))]
        elif edit == "extra_als":
            als_id, kind, first = draw(st.sampled_from(PLACEMENTS))
            d.als_uses[als_id + 10] = ALSUse(als_id + 10, kind, first)
    return d


def _check(d: PipelineDiagram) -> None:
    view = d.freeze()
    for sink in SINKS + SOURCES:
        assert view.driver_of(sink) == bf_driver(d, sink)
        assert d.driver_of(sink) == bf_driver(d, sink)
    for source in SOURCES + SINKS:
        assert view.sinks_of(source) == bf_sinks(d, source)
    for fu in FUS:
        assert view.fu_als.get(fu) is bf_als(d, fu)
        for port in ("a", "b"):
            assert view.input_source(fu, port) == bf_input_source(d, fu, port)
            assert d.input_source(fu, port) == bf_input_source(d, fu, port)
        assert view.planes_touched_by_fu(fu) == bf_planes(d, fu)
        assert d.planes_touched_by_fu(fu) == bf_planes(d, fu)
    assert view.plane_writers() == bf_writers(d)
    assert view.used_endpoints() == bf_used(d) == d.used_endpoints()
    assert d.memory_endpoints() == sorted(
        (e for e in bf_used(d) if e.kind is DeviceKind.MEMORY),
        key=lambda e: e.key,
    )
    assert list(view.pads) == sorted(
        (e for e in bf_used(d)
         if e.kind in (DeviceKind.MEMORY, DeviceKind.CACHE)),
        key=lambda e: e.key,
    )
    # the rules' tables
    assert view.active == tuple(sorted(d.fu_ops))
    assert view.wired_fus == {
        ep.device for wire in d.connections for ep in wire
        if ep.kind is DeviceKind.FU
    }
    assert view.driving_fus == {
        fu for fu in FUS if bf_sinks(d, fu_out(fu))
    }
    assert view.sd_feeder == {
        u: bf_driver(d, sd_in(u)) for u in range(2)
        if bf_driver(d, sd_in(u)) is not None
    }
    assert list(view.pad_wires) == [
        (s, k) for s, k in d.connections
        if k.kind in (DeviceKind.MEMORY, DeviceKind.CACHE)
    ]
    assert list(view.tap_wires) == [
        s for s, _k in d.connections
        if s.kind is DeviceKind.SHIFT_DELAY and s.port.startswith("tap")
    ]
    for fu in view.active:
        assert view.mod_words.get(fu, 0) == bf_mod_words(d, fu)
    assert [k for k, _m in view.internal_mods] == sorted(
        k for k, m in d.input_mods.items() if m.kind is InputModKind.INTERNAL
    )
    assert [k for k, _m in view.feedback_mods] == sorted(
        k for k, m in d.input_mods.items() if m.kind is InputModKind.FEEDBACK
    )
    # the dataflow order, or the identical cycle error
    try:
        want = bf_order(d)
    except DiagramError as exc:
        for source in (view, d):
            with pytest.raises(DiagramError) as got:
                source.topological_order()
            assert str(got.value) == str(exc)
    else:
        assert view.topological_order() == want == d.topological_order()


@settings(max_examples=_EXAMPLES, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(diagrams())
def test_view_answers_like_a_scan(d):
    _check(d)


def _snapshot(view) -> tuple:
    order = None if view.order is None else view.topological_order()
    return (list(view.connections), order, dict(view.driver),
            dict(view.feeds), dict(view.fu_ops))


@settings(max_examples=_EXAMPLES, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(diagrams(), st.data())
def test_view_is_a_snapshot(d, data):
    """Edits after a freeze reach neither the view nor its answers."""
    view = d.freeze()
    before = _snapshot(view)
    d.connections.append(
        (data.draw(st.sampled_from(SOURCES)), data.draw(st.sampled_from(SINKS)))
    )
    d.input_mods[(0, "a")] = InputMod(InputModKind.CONSTANT, 1.0)
    d.fu_ops.clear()
    assert _snapshot(view) == before
    _check(d)


@settings(max_examples=_EXAMPLES, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(diagrams())
def test_single_plane_probe_matches_a_drawn_copy(d):
    """The editor's rubber-band check reads the view plus the one new
    wire; drawing each candidate wire on a copy must agree."""
    view = d.freeze()
    for source in SOURCES:
        for sink in SINKS:
            probe = d.copy()
            try:
                probe.connect(source, sink)
            except DiagramError:
                want = False
            else:
                want = any(
                    len(bf_planes(probe, ep.device)) > 1
                    for ep in (source, sink) if ep.kind is DeviceKind.FU
                )
            got = Checker._would_violate_single_plane(view, source, sink)
            assert got == want, (source, sink)


def test_cycle_error_text_is_unchanged():
    d = PipelineDiagram()
    d.add_als(1, ALSKind.DOUBLET, first_fu=1)
    d.set_fu_op(1, Opcode.FADD)
    d.set_fu_op(2, Opcode.FADD)
    d.connect(fu_out(1), fu_in(2, "a"))
    d.connect(fu_out(2), fu_in(1, "a"))
    with pytest.raises(DiagramError) as exc:
        d.freeze().topological_order()
    assert str(exc.value) == CYCLE
    assert d.freeze().order is None
