"""The label block code, checked against the pairwise decoder and the
per-block encoder it replaced (kept here as test-only references)."""

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


def reference_encode_blocks(blocks):
    """The per-block encoder the one-pass `encode_blocks` replaced."""
    code = str.maketrans({"0": "01", "1": "10"})
    pieces = []
    for block in blocks:
        piece = block.translate(code)
        if len(piece) != 2 * len(block):
            raise MalformedCodeword(f"block {block!r} is not a bit string")
        pieces.append(piece)
    return "00".join(pieces)


def reference_decode_blocks(bits):
    """The pairwise decoder the one-pass `decode_blocks` replaced."""
    if len(bits) % 2 != 0:
        raise MalformedCodeword(f"odd bit length {len(bits)}")
    blocks = [[]]
    for i in range(0, len(bits), 2):
        pair = bits[i : i + 2]
        if pair == "10":
            blocks[-1].append("1")
        elif pair == "01":
            blocks[-1].append("0")
        elif pair == "00":
            blocks.append([])
        else:
            raise MalformedCodeword(f"invalid codeword '11' at offset {i}")
    return ["".join(b) for b in blocks]


def outcome(fn, arg):
    """`fn(arg)`, or the MalformedCodeword type if it raises one."""
    try:
        return fn(arg)
    except MalformedCodeword:
        return MalformedCodeword


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

    def test_separator_inside_block_named(self):
        with pytest.raises(MalformedCodeword, match=r"block 0 \('1\|0'\)"):
            encode_blocks(["1|0"])

    def test_non_bit_block_named(self):
        with pytest.raises(MalformedCodeword, match=r"block 1 \('2'\)"):
            encode_blocks(["1", "2"])

    def test_no_blocks(self):
        assert encode_blocks([]) == ""

    def test_one_empty_block(self):
        assert encode_blocks([""]) == ""


class TestDecode:
    def test_inverse_of_example(self):
        assert decode_blocks("100001") == ["1", "0"]

    def test_empty_string(self):
        assert decode_blocks("") == [""]

    def test_invalid_pair(self):
        with pytest.raises(MalformedCodeword):
            decode_blocks("1100")

    def test_foreign_pair_named(self):
        with pytest.raises(MalformedCodeword, match="invalid codeword 'x0' at offset 0"):
            decode_blocks("x0")
        with pytest.raises(MalformedCodeword, match="invalid codeword '11' at offset 4"):
            decode_blocks("100111")

    def test_odd_length(self):
        with pytest.raises(MalformedCodeword):
            decode_blocks("100")

    @given(st.lists(bitstrings, min_size=1, max_size=8))
    def test_round_trip(self, blocks):
        assert decode_blocks(encode_blocks(blocks)) == blocks


class TestAgainstReference:
    @given(st.lists(bitstrings, max_size=8))
    def test_block_lists_round_trip_alike(self, blocks):
        bits = encode_blocks(blocks)
        assert bits == reference_encode_blocks(blocks)
        assert decode_blocks(bits) == reference_decode_blocks(bits)

    @given(st.lists(st.text(alphabet="01x|", max_size=6), max_size=6))
    def test_foreign_blocks_alike(self, blocks):
        assert outcome(encode_blocks, blocks) == outcome(reference_encode_blocks, blocks)

    @given(st.text(alphabet="01x|", max_size=24))
    def test_foreign_strings_alike(self, bits):
        assert outcome(decode_blocks, bits) == outcome(reference_decode_blocks, bits)


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
