"""The label block code, checked against the pairwise decoder and the
per-block encoder it replaced (kept here as test-only references)."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from radiolab import labels as labels_mod
from radiolab.corpus import corpus, toprec_corpus
from radiolab.errors import MalformedCodeword
from radiolab.labels import (
    Layout,
    SchemeBundle,
    bit_table,
    bits_to_int,
    decode_blocks,
    encode_blocks,
    encode_labels,
    int_to_bits,
    split_mode,
)
from radiolab.schemes import build_bundle

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
        """A mode bit is a leading column of `Layout.encode`: the label is
        the block code of the mode block and the blocks, and `split_mode`
        returns the bit and the label the layout encodes without it."""
        columns = {f"b{i}": [block] for i, block in enumerate(blocks)}
        layout = Layout("test", **dict.fromkeys(columns))
        [label] = layout.encode([bit], **columns)
        assert label == encode_blocks([bit] + blocks)
        assert split_mode(label) == (bit, *layout.encode(**columns))

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

    @pytest.mark.parametrize("width", range(1, 13))
    def test_table_is_int_to_bits(self, width):
        """Up to the widest value that fits, the table holds `int_to_bits`
        of each value; one past it, both raise."""
        fits = (1 << width) - 1
        assert bit_table(fits, width) == [int_to_bits(x, width) for x in range(fits + 1)]
        for top in (0, fits // 2, fits):
            assert bit_table(top, width) == [int_to_bits(x, width) for x in range(top + 1)]
        for top in (fits + 1, 3 * fits + 7):
            with pytest.raises(ValueError, match="does not fit"):
                int_to_bits(top, width)
            with pytest.raises(ValueError, match="does not fit"):
                bit_table(top, width)
        with pytest.raises(ValueError, match="negative"):
            bit_table(-1, width)


# ---------------------------------------------------------------------------
# Whole-bundle encoder
# ---------------------------------------------------------------------------

rows_of_blocks = st.lists(st.lists(bitstrings, max_size=6), max_size=6)


class TestEncodeLabels:
    @given(rows_of_blocks)
    @example([])
    @example([[]])
    @example([[""]])
    @example([["1", "0"]])
    @example([[], [""], ["", ""], []])
    def test_same_as_encoding_each_row(self, rows):
        labels = encode_labels(rows)
        assert labels == [encode_blocks(r) for r in rows]
        assert [decode_blocks(l) for l in labels] == [list(r) or [""] for r in rows]

    def test_rows_of_tuples(self):
        assert encode_labels([("1", "0"), ("11",)]) == ["100001", "1010"]

    def test_rows_across_chunks(self):
        """A generator of more rows than one pass takes: the labels come in
        row order, and a bad block past the first pass is named by its row
        in the whole input."""
        rows = [[format(v, "b"), "1" * (v % 5), ""][: 1 + v % 3] for v in range(2500)]
        assert encode_labels(iter(rows)) == [encode_blocks(r) for r in rows]
        rows[2100] = ["1", "0|1"]
        with pytest.raises(MalformedCodeword, match=r"row 2100, block 1 \('0\|1'\)"):
            encode_labels(r for r in rows)

    @given(
        rows_of_blocks.filter(lambda rows: any(rows)),
        st.sampled_from(["2", "|", "\n", "¹"]),
        st.data(),
    )
    def test_foreign_character_in_any_block_named(self, rows, bad, data):
        """A foreign character, a separator or a row break inside any block
        raises MalformedCodeword naming the first bad block."""
        r = data.draw(st.sampled_from([i for i, row in enumerate(rows) if row]))
        i = data.draw(st.integers(0, len(rows[r]) - 1))
        at = data.draw(st.integers(0, len(rows[r][i])))
        rows = [list(row) for row in rows]
        rows[r][i] = rows[r][i][:at] + bad + rows[r][i][at:]
        with pytest.raises(MalformedCodeword, match=rf"row {r}, block {i} \("):
            encode_labels(rows)

    @pytest.mark.parametrize(
        "rows,named",
        [
            ([["1"], ["0", "2"]], "row 1, block 1"),
            ([["1|0"], ["0"]], "row 0, block 0"),
            ([["1"], [], ["0\n1"]], "row 2, block 0"),
            ([["\n"]], "row 0, block 0"),
            ([["1", ""], ["", "|"]], "row 1, block 1"),
        ],
    )
    def test_malformed_block_named(self, rows, named):
        with pytest.raises(MalformedCodeword, match=named):
            encode_labels(rows)


def recorded_rows(monkeypatch, build):
    """What `build()` returned, and the rows of every `encode_labels` call
    that it makes, each with what that call returned."""
    calls = []

    def recording(rows):
        rows = list(rows)
        labels = encode_labels(rows)
        calls.append((rows, labels))
        return labels

    monkeypatch.setattr(labels_mod, "encode_labels", recording)
    return build(), calls


SIZE_SCHEMES = ("compact", "general", "fastsd")


@pytest.mark.parametrize(
    "gid,g,schemes",
    [(gid, g, SIZE_SCHEMES) for gid, g in corpus()]
    + [(gid, g, ("toprec",)) for gid, g in toprec_corpus()],
    ids=[f"size-{gid}" for gid, _ in corpus()] + [f"toprec-{gid}" for gid, _ in toprec_corpus()],
)
def test_bundle_rows_encode_as_each_row(monkeypatch, gid, g, schemes):
    """Across both corpora, every bundle's labels are the list that one
    `encode_labels` call returned, mode bits included, each row encoded the
    same as `encode_blocks` on that row alone; no bundle holds another in
    its meta."""
    for scheme in schemes:
        bundle, calls = recorded_rows(monkeypatch, lambda: build_bundle(scheme, g))
        assert len(calls) == 1, scheme
        [(rows, labels)] = calls
        assert labels == [encode_blocks(r) for r in rows], scheme
        assert bundle.labels is labels, scheme
        assert not any(isinstance(v, SchemeBundle) for v in bundle.meta.values()), scheme
