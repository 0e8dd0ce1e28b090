"""Property-based microword encoding: arbitrary field values round-trip,
and a word behaves like a dict of its written fields."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.node import NodeConfig
from repro.codegen.microword import FieldError, Microword, MicrowordLayout

_node = NodeConfig()
LAYOUT = MicrowordLayout(_node.params, _node.n_fus, sorted(_node.switch.sources))
FIELDS = LAYOUT.fields


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_random_words_round_trip(data):
    """Fill a random subset of fields with random in-range values; the raw
    bit encoding must decode to exactly the same assignment."""
    n_fields = data.draw(st.integers(1, 30))
    indices = data.draw(
        st.lists(
            st.integers(0, len(FIELDS) - 1),
            min_size=n_fields,
            max_size=n_fields,
            unique=True,
        )
    )
    word = LAYOUT.new_word()
    expected = {}
    for idx in indices:
        field = FIELDS[idx]
        value = data.draw(st.integers(0, field.max_value))
        word.set(field.name, value)
        expected[field.name] = value
    back = Microword.decode(LAYOUT, word.encode())
    assert back == word
    for name, value in expected.items():
        assert back.get(name) == value


@settings(max_examples=60, deadline=None)
@given(value=st.integers(-(1 << 15), (1 << 15) - 1))
def test_signed_fields_round_trip(value):
    word = LAYOUT.new_word()
    word.set_signed("mem3.dma.stride", value)
    back = Microword.decode(LAYOUT, word.encode())
    assert back.get_signed("mem3.dma.stride") == value


@settings(max_examples=60, deadline=None)
@given(
    value=st.floats(allow_nan=False, allow_infinity=True, width=64)
)
def test_float_threshold_round_trips(value):
    word = LAYOUT.new_word()
    word.set_float("seq.cond.threshold", value)
    back = Microword.decode(LAYOUT, word.encode())
    assert back.get_float("seq.cond.threshold") == value


def _model_bits(model):
    """The encoding of a dict-backed word: each value at its offset."""
    word = 0
    for name, value in model.items():
        word |= value << LAYOUT.field(name).offset
    return word.to_bytes((LAYOUT.total_bits + 7) // 8, "little")


def _value(field):
    """Values in range, at its edges and just past them."""
    return st.one_of(
        st.integers(0, field.max_value),
        st.sampled_from([-1, field.max_value + 1, 1 << field.width + 3]),
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_set_encode_get_sequences_match_a_dict_backed_word(data):
    """Random ``set``/``encode``/``get`` sequences on a word behave like a
    plain ``{name: value}`` dict: a read sees the last write, an encode
    packs exactly the written values, a write after an encode unpacks
    the bits first, and an out-of-range write raises and changes nothing."""
    word = LAYOUT.new_word()
    model = {}
    for _ in range(data.draw(st.integers(1, 25))):
        op = data.draw(st.sampled_from(["set", "set", "encode", "get"]))
        field = FIELDS[data.draw(st.integers(0, len(FIELDS) - 1))]
        if op == "set":
            value = data.draw(_value(field))
            if 0 <= value <= field.max_value:
                word.set(field.name, value)
                model[field.name] = value
            else:
                with pytest.raises(FieldError, match=(
                        rf"^value {value} does not fit field "
                        rf"{re.escape(field.name)} \({field.width} bits\)$")):
                    word.set(field.name, value)
        elif op == "encode":
            assert word.encode() == _model_bits(model)
        else:
            assert word.get(field.name) == model.get(field.name, 0)
    assert word.encode() == _model_bits(model)
    assert Microword.decode(LAYOUT, word.encode()) == word


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_pack_matches_field_by_field_writes(data):
    """``Microword.pack`` equals ``set_field`` of each value in turn plus
    ``encode``, and raises the same ``FieldError`` for a misfit."""
    indices = data.draw(st.lists(st.integers(0, len(FIELDS) - 1),
                                 min_size=0, max_size=20, unique=True))
    values = {FIELDS[i]: data.draw(_value(FIELDS[i])) for i in indices}
    word = LAYOUT.new_word()
    try:
        for field, value in values.items():
            word.set_field(field, value)
        expected = word.encode()
    except FieldError as exc:
        with pytest.raises(FieldError) as packed:
            Microword.pack(LAYOUT, values)
        assert str(packed.value) == str(exc)
    else:
        packed = Microword.pack(LAYOUT, values)
        assert packed.encode() == expected
        assert packed == word
