import pytest
from hypothesis import given
from hypothesis import strategies as st

from radiolab.errors import MalformedCodeword
from radiolab.labels import (
    add_mode,
    bits_to_int,
    decode_blocks,
    encode_blocks,
    int_to_bits,
    split_mode,
)

bitstrings = st.text(alphabet="01", max_size=24)


class TestEncode:
    def test_two_blocks(self):
        assert encode_blocks(["1", "0"]) == "100001"

    def test_empty_blocks(self):
        assert encode_blocks(["", ""]) == "00"

    def test_single_block(self):
        assert encode_blocks(["11"]) == "1010"

    @given(st.lists(bitstrings, min_size=1, max_size=8))
    def test_length_formula(self, blocks):
        total = sum(len(b) for b in blocks)
        assert len(encode_blocks(blocks)) == 2 * total + 2 * (len(blocks) - 1)

    @pytest.mark.parametrize("blocks", [["2a", "1"], ["1", "0 "], ["01x1"], ["", "\u00b9"]])
    def test_non_bit_block_rejected(self, blocks):
        with pytest.raises(MalformedCodeword):
            encode_blocks(blocks)


class TestDecode:
    def test_inverse_of_example(self):
        assert decode_blocks("100001") == ["1", "0"]

    def test_empty_string(self):
        assert decode_blocks("") == [""]

    def test_invalid_pair(self):
        with pytest.raises(MalformedCodeword):
            decode_blocks("1100")

    def test_odd_length(self):
        with pytest.raises(MalformedCodeword):
            decode_blocks("100")

    @given(st.lists(bitstrings, min_size=1, max_size=8))
    def test_round_trip(self, blocks):
        assert decode_blocks(encode_blocks(blocks)) == blocks


class TestModePrefix:
    @given(st.sampled_from("01"), st.lists(bitstrings, min_size=1, max_size=8))
    def test_same_as_reencoding(self, bit, blocks):
        label = encode_blocks(blocks)
        assert add_mode(bit, label) == encode_blocks([bit] + blocks)
        assert split_mode(add_mode(bit, label)) == (bit, label)

    @pytest.mark.parametrize("label", ["", "10", "1001", "0000", "1010", "0110", "1100"])
    def test_missing_prefix_rejected(self, label):
        with pytest.raises(MalformedCodeword):
            split_mode(label)


class TestIntBits:
    def test_fixed_width(self):
        assert int_to_bits(5, 6) == "000101"
        assert bits_to_int("000101") == 5
        assert bits_to_int("") == 0

    def test_width_overflow(self):
        with pytest.raises(ValueError):
            int_to_bits(8, 3)

    @given(st.integers(0, 10**9))
    def test_round_trip(self, x):
        assert bits_to_int(int_to_bits(x)) == x
