"""Switch network: endpoint inventory and crosspoint derivation."""

import copy
import pickle
import re
from pathlib import Path

import pytest

from repro.arch.params import NSCParameters
from repro.arch.switch import (
    DeviceKind,
    Endpoint,
    SwitchNetwork,
    SwitchRouteError,
    cache_read,
    cache_write,
    endpoint,
    fu_in,
    fu_out,
    mem_read,
    mem_write,
    sd_in,
    sd_tap,
)


@pytest.fixture(scope="module")
def switch() -> SwitchNetwork:
    return SwitchNetwork(NSCParameters(), n_fus=32)


class TestInventory:
    def test_source_count(self, switch):
        p = NSCParameters()
        expected = 32 + p.n_memory_planes + p.n_caches + (
            p.n_shift_delay_units * p.shift_delay_taps
        )
        assert len(switch.sources) == expected

    def test_sink_count(self, switch):
        p = NSCParameters()
        expected = 64 + p.n_memory_planes + p.n_caches + p.n_shift_delay_units
        assert len(switch.sinks) == expected

    def test_fu_out_is_source_not_sink(self, switch):
        assert switch.is_source(fu_out(0))
        assert not switch.is_sink(fu_out(0))

    def test_fu_in_is_sink_not_source(self, switch):
        assert switch.is_sink(fu_in(0, "a"))
        assert not switch.is_source(fu_in(0, "a"))

    def test_memory_ports(self, switch):
        assert switch.is_source(mem_read(15))
        assert switch.is_sink(mem_write(15))
        assert not switch.is_source(mem_read(16))

    def test_cache_and_sd_ports(self, switch):
        assert switch.is_source(cache_read(0))
        assert switch.is_sink(cache_write(0))
        assert switch.is_sink(sd_in(1))
        assert switch.is_source(sd_tap(1, 7))
        assert not switch.is_source(sd_tap(2, 0))


class TestEndpointType:
    def test_str_forms(self):
        assert str(fu_out(3)) == "fu3.out"
        assert str(mem_read(2)) == "mem[2].read"
        assert str(sd_tap(0, 1)) == "sd[0].tap1"

    def test_ordering_is_stable(self):
        eps = [mem_read(2), fu_out(1), cache_read(0)]
        assert sorted(eps) == sorted(eps, key=lambda e: e.key)

    def test_bad_fu_port_rejected(self):
        with pytest.raises(ValueError):
            fu_in(0, "c")

    def test_hashable(self):
        assert len({fu_out(0), fu_out(0), fu_out(1)}) == 2


class TestRouting:
    def test_derive_simple_route(self, switch):
        settings = switch.derive_settings([(mem_read(0), fu_in(0, "a"))])
        assert len(settings) == 1
        assert str(settings[0]) == "mem[0].read -> fu0.a"

    def test_unknown_source_rejected(self, switch):
        with pytest.raises(SwitchRouteError, match="not a switch source"):
            switch.derive_settings([(fu_in(0, "a"), fu_in(0, "b"))])

    def test_unknown_sink_rejected(self, switch):
        with pytest.raises(SwitchRouteError, match="not a switch sink"):
            switch.derive_settings([(fu_out(0), fu_out(1))])

    def test_doubly_driven_sink_rejected(self, switch):
        with pytest.raises(SwitchRouteError, match="already driven"):
            switch.derive_settings(
                [
                    (mem_read(0), fu_in(0, "a")),
                    (mem_read(1), fu_in(0, "a")),
                ]
            )

    def test_fanout_limit(self, switch):
        limit = NSCParameters().switch_max_fanout
        conns = [(fu_out(0), fu_in(i + 1, "a")) for i in range(limit)]
        switch.derive_settings(conns)  # at the limit: fine
        conns.append((fu_out(0), fu_in(limit + 1, "b")))
        with pytest.raises(SwitchRouteError, match="fan-out"):
            switch.derive_settings(conns)

    def test_fanout_counted_per_source(self, switch):
        conns = [
            (fu_out(0), fu_in(1, "a")),
            (fu_out(2), fu_in(1, "b")),
        ]
        assert len(switch.derive_settings(conns)) == 2


class TestCanonicalEndpoints:
    """One shared instance per (kind, device, port); values stay values."""

    CONSTRUCTORS = [
        (lambda: fu_in(3, "a"), (DeviceKind.FU, 3, "a")),
        (lambda: fu_in(3, "b"), (DeviceKind.FU, 3, "b")),
        (lambda: fu_out(3), (DeviceKind.FU, 3, "out")),
        (lambda: mem_read(2), (DeviceKind.MEMORY, 2, "read")),
        (lambda: mem_write(2), (DeviceKind.MEMORY, 2, "write")),
        (lambda: cache_read(1), (DeviceKind.CACHE, 1, "read")),
        (lambda: cache_write(1), (DeviceKind.CACHE, 1, "write")),
        (lambda: sd_in(0), (DeviceKind.SHIFT_DELAY, 0, "in")),
        (lambda: sd_tap(0, 2), (DeviceKind.SHIFT_DELAY, 0, "tap2")),
    ]

    @pytest.mark.parametrize("make, fields", CONSTRUCTORS)
    def test_constructor_returns_identical_object(self, make, fields):
        assert make() is make()
        assert make() is endpoint(*fields)

    @pytest.mark.parametrize("make, fields", CONSTRUCTORS)
    def test_direct_instance_is_a_value_twin(self, make, fields):
        canonical = make()
        direct = Endpoint(*fields)
        assert direct is not canonical
        assert direct == canonical and not direct != canonical
        assert hash(direct) == hash(canonical)
        assert hash(direct) == hash(fields)
        assert direct.key == canonical.key and str(direct) == str(canonical)
        # interchangeable as keys in either direction
        assert {canonical: 1}[direct] == 1 and {direct: 1}[canonical] == 1
        others = [mem_read(0), fu_out(31), sd_tap(3, 0)]
        assert sorted(others + [direct]) == sorted(others + [canonical])

    def test_pickle_and_copy_return_the_canonical_instance(self):
        ep = mem_write(5)
        assert pickle.loads(pickle.dumps(ep)) is ep
        assert copy.copy(ep) is ep and copy.deepcopy(ep) is ep
        twin = pickle.loads(pickle.dumps(Endpoint(DeviceKind.MEMORY, 5, "write")))
        assert twin is ep

    def test_old_pickle_state_rehashes(self):
        """State pickled before endpoints reduced by value carries the
        writer's hash; loading re-derives it."""
        ep = Endpoint.__new__(Endpoint)
        ep.__setstate__({"kind": DeviceKind.CACHE, "device": 4,
                         "port": "read", "_hash": 12345})
        assert hash(ep) == hash(cache_read(4)) and ep == cache_read(4)

    def test_bad_fu_port_still_rejected(self):
        with pytest.raises(ValueError, match="'a' or 'b'"):
            fu_in(0, "out")

    def test_no_direct_construction_outside_switch(self):
        """Every endpoint the program builds goes through the canonical
        constructors, so a new call site cannot bypass the table."""
        import repro

        root = Path(repro.__file__).resolve().parent
        pattern = re.compile(r"Endpoint\(\s*DeviceKind\.")
        offenders = []
        for path in sorted(root.rglob("*.py")):
            if path == root / "arch" / "switch.py":
                continue
            text = path.read_text()
            for match in pattern.finditer(text):
                line = text.count("\n", 0, match.start()) + 1
                offenders.append(f"{path.relative_to(root)}:{line}")
        assert offenders == []
