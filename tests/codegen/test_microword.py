"""Microword layout and encoding: the few-thousand-bit claim of §3."""

import pytest

from repro.arch.node import NodeConfig
from repro.arch.params import SUBSET_PARAMS
from repro.arch.switch import (
    cache_read,
    cache_write,
    fu_in,
    mem_read,
    mem_write,
)
from repro.codegen.microword import (
    CMP_CODES,
    FieldError,
    Microword,
    MicrowordLayout,
    bits_to_float,
    float_to_bits,
)


@pytest.fixture(scope="module")
def layout() -> MicrowordLayout:
    node = NodeConfig()
    return MicrowordLayout(node.params, node.n_fus, sorted(node.switch.sources))


class TestLayout:
    def test_a_few_thousand_bits(self, layout):
        """§3: 'a few thousand bits of information per instruction'."""
        assert 2_000 <= layout.total_bits <= 8_000

    def test_dozens_of_field_groups(self, layout):
        """§3: 'encoded in dozens of separate fields'."""
        groups = layout.field_groups()
        assert len(groups) >= 36  # 32 FU groups + mem + cache + sd + seq

    def test_fields_are_disjoint_and_cover_word(self, layout):
        cursor = 0
        for field in layout.fields:
            assert field.offset == cursor
            cursor += field.width
        assert cursor == layout.total_bits

    def test_unknown_field_rejected(self, layout):
        with pytest.raises(FieldError):
            layout.field("fu99.opcode")

    def test_subset_machine_has_smaller_word(self, layout):
        node = NodeConfig(SUBSET_PARAMS)
        small = MicrowordLayout(node.params, node.n_fus, sorted(node.switch.sources))
        assert small.total_bits < layout.total_bits


class TestSourceTable:
    def test_zero_means_none(self, layout):
        assert layout.source_table.id_of(None) == 0
        assert layout.source_table.endpoint_of(0) is None

    def test_round_trip(self, layout):
        from repro.arch.switch import fu_out

        sel = layout.source_table.id_of(fu_out(5))
        assert layout.source_table.endpoint_of(sel) == fu_out(5)

    def test_unknown_endpoint_rejected(self, layout):
        from repro.arch.switch import fu_in

        with pytest.raises(FieldError):
            layout.source_table.id_of(fu_in(0, "a"))

    def test_unknown_selector_rejected(self, layout):
        with pytest.raises(FieldError):
            layout.source_table.endpoint_of(9999)

    def test_width_covers_all_sources(self, layout):
        table = layout.source_table
        assert (1 << table.width) > len(table)


class TestWordValues:
    def test_set_get(self, layout):
        word = layout.new_word()
        word.set("fu0.opcode", 5)
        assert word.get("fu0.opcode") == 5
        assert word.get("fu1.opcode") == 0  # unset defaults to zero

    def test_range_enforced(self, layout):
        word = layout.new_word()
        with pytest.raises(FieldError):
            word.set("fu0.opcode", 64)  # 6-bit field
        with pytest.raises(FieldError):
            word.set("fu0.opcode", -1)

    def test_signed_round_trip(self, layout):
        word = layout.new_word()
        word.set_signed("mem0.dma.stride", -36)
        assert word.get_signed("mem0.dma.stride") == -36

    def test_signed_range_enforced(self, layout):
        word = layout.new_word()
        with pytest.raises(FieldError):
            word.set_signed("mem0.dma.stride", 1 << 20)

    def test_float_round_trip(self, layout):
        word = layout.new_word()
        word.set_float("seq.cond.threshold", 1e-6)
        assert word.get_float("seq.cond.threshold") == 1e-6

    def test_float_bits_helpers(self):
        for v in (0.0, 1.5, -2.25, 1e-300):
            assert bits_to_float(float_to_bits(v)) == v


class TestFieldHandles:
    """Handles resolved once per layout are the layout's own fields."""

    PORT_PARTS = ("src", "delay", "internal", "feedback", "constant")

    def test_fu_handles_are_layout_fields(self, layout):
        for fu in range(layout.n_fus):
            handles = layout.fu_fields(fu)
            assert handles.opcode is layout.field(f"fu{fu}.opcode")
            assert handles.const_sel is layout.field(f"fu{fu}.const_sel")
            for port, fields in zip(("a", "b"), handles.ports):
                assert fields.sink is fu_in(fu, port)
                for part in self.PORT_PARTS:
                    assert getattr(fields, part) is layout.field(
                        f"fu{fu}.{port}.{part}"
                    )

    def test_sink_handles_are_layout_fields(self, layout):
        sinks = list(layout.non_fu_sinks())
        assert len(layout.sink_fields) == len(sinks)
        for (sink, field), (name, ep) in zip(layout.sink_fields.items(), sinks):
            assert field is layout.field(f"switch.{name}.src")
            assert sink is ep

    def test_group_handles_are_layout_fields(self, layout):
        params = layout.params
        for pads, prefix, n in (((mem_read, mem_write), "mem",
                                 params.n_memory_planes),
                                ((cache_read, cache_write), "cache",
                                 params.n_caches)):
            for device in range(n):
                for pad in pads:
                    handles = layout.dma_fields(pad(device))
                    for part, field in zip(handles._fields, handles):
                        assert field is layout.field(
                            f"{prefix}{device}.dma.{part}"
                        )
            with pytest.raises(FieldError, match=f"{prefix}{n}.dma"):
                layout.dma_fields(pads[0](n))
        for unit in range(params.n_shift_delay_units):
            for tap in range(params.shift_delay_taps):
                enable, shift = layout.tap_fields(unit, tap)
                assert enable is layout.field(f"sd{unit}.tap{tap}.enable")
                assert shift is layout.field(f"sd{unit}.tap{tap}.shift")
        with pytest.raises(FieldError, match="sd0.tap99"):
            layout.tap_fields(0, 99)
        for part, field in zip(layout.seq_fields._fields, layout.seq_fields):
            assert field is layout.field(
                "seq.vector_length" if part == "vector_length"
                else "seq." + part.replace("_", ".", 1)
            )

    def test_unknown_fu_rejected(self, layout):
        with pytest.raises(FieldError):
            layout.fu_fields(layout.n_fus)
        with pytest.raises(FieldError):
            layout.fu_fields(-1)

    @pytest.mark.parametrize("value", [-1, 64, 1 << 40])
    def test_set_field_raises_like_set(self, layout, value):
        handle = layout.fu_fields(0).opcode
        with pytest.raises(FieldError) as by_name:
            layout.new_word().set("fu0.opcode", value)
        with pytest.raises(FieldError) as by_handle:
            layout.new_word().set_field(handle, value)
        assert str(by_handle.value) == str(by_name.value)

    def test_handle_writes_encode_like_named_writes(self, layout):
        by_name, by_handle = layout.new_word(), layout.new_word()
        by_name.set("fu2.b.delay", 9)
        by_name.set("switch.mem1.write.src", 5)
        by_handle.set_field(layout.fu_fields(2).ports[1].delay, 9)
        by_handle.set_field(layout.sink_fields[mem_write(1)], 5)
        assert by_handle == by_name
        assert by_handle.encode() == by_name.encode()

    def test_pack_encodes_like_named_writes(self, layout):
        values = {"fu2.b.delay": 9, "switch.mem1.write.src": 5,
                  "mem0.dma.dir": 0, "seq.vector_length": 64}
        by_name = layout.new_word()
        for name, value in values.items():
            by_name.set(name, value)
        packed = Microword.pack(layout, values)
        assert packed._values is None  # born packed: bits only
        assert packed.encode() == by_name.encode()
        assert packed.get("fu2.b.delay") == 9

    @pytest.mark.parametrize("value", [-1, 64])
    def test_pack_rejects_a_misfit_like_set(self, layout, value):
        with pytest.raises(FieldError) as by_name:
            layout.new_word().set("fu0.opcode", value)
        with pytest.raises(FieldError) as by_pack:
            Microword.pack(layout, {"fu0.opcode": value})
        assert str(by_pack.value) == str(by_name.value)

    def test_write_after_encode_reencodes(self, layout):
        word = layout.new_word()
        word.set("fu0.opcode", 3)
        first = word.encode()
        word.set_field(layout.fu_fields(0).opcode, 4)
        assert word.encode() != first
        assert Microword.decode(layout, word.encode()).get("fu0.opcode") == 4


class TestEncoding:
    def test_encode_decode_round_trip(self, layout):
        word = layout.new_word()
        word.set("fu3.opcode", 7)
        word.set("fu3.a.delay", 12)
        word.set_signed("sd0.tap1.shift", -36)
        word.set("seq.vector_length", 4096)
        word.set_float("seq.cond.threshold", 1e-6)
        raw = word.encode()
        back = Microword.decode(layout, raw)
        assert back == word
        assert back.get_signed("sd0.tap1.shift") == -36
        assert back.get_float("seq.cond.threshold") == 1e-6

    def test_encoded_size(self, layout):
        raw = layout.new_word().encode()
        assert len(raw) == (layout.total_bits + 7) // 8

    def test_nonzero_fields(self, layout):
        word = layout.new_word()
        word.set("fu0.opcode", 1)
        word.set("fu1.opcode", 0)
        assert word.nonzero_fields() == [("fu0.opcode", 1)]

    def test_encoded_word_keeps_only_its_bits(self, layout):
        """A finished word holds its encoding, not a field dict; reads
        decode from the bits and a later write unpacks them again."""
        word = layout.new_word()
        word.set("fu3.opcode", 7)
        word.set_signed("sd0.tap1.shift", -36)
        word.set("seq.vector_length", 4096)
        fields = word.nonzero_fields()
        raw = word.encode()
        assert word._values is None and not hasattr(word, "__dict__")
        assert word.get("fu3.opcode") == 7
        assert word.get("fu3.a.delay") == 0
        assert word.get_signed("sd0.tap1.shift") == -36
        assert word.nonzero_fields() == fields
        assert word == Microword.decode(layout, raw)
        assert Microword.decode(layout, raw).encode() == raw
        assert word._values is None  # reading left it packed

        word.set("fu3.a.delay", 12)
        fresh = layout.new_word()
        fresh.set("fu3.opcode", 7)
        fresh.set_signed("sd0.tap1.shift", -36)
        fresh.set("seq.vector_length", 4096)
        fresh.set("fu3.a.delay", 12)
        assert word.encode() == fresh.encode()
        assert word == fresh

    def test_cmp_codes_complete(self):
        assert set(CMP_CODES) == {"lt", "le", "gt", "ge"}
