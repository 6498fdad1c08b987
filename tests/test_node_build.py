"""Node programs are built per distinct label: the nodes of a run that share
a label share one parse of it, and a malformed label still fails with a
typed error."""

import pytest

from radiolab import labels
from radiolab.broadcast import ExecCore
from radiolab.errors import MalformedCodeword
from radiolab.graphs import gen_lb_family, gen_path
from radiolab.labels import decode_blocks, encode_blocks, label_blocks
from radiolab.schemes import build_bundle, program_for

G784 = gen_lb_family(784)[0]


@pytest.mark.parametrize("scheme", ["compact", "general"])
def test_each_distinct_label_is_decoded_at_most_once(scheme, monkeypatch):
    """Building every program of a G_784 bundle from a cold memo decodes
    each distinct label at most once; the labels repeat (O(log log Delta)
    bits), which is what makes this pay."""
    bundle = build_bundle(scheme, G784)
    decoded = []
    decode = labels.decode_blocks

    def counted(bits):
        decoded.append(bits)
        return decode(bits)

    monkeypatch.setattr(labels, "decode_blocks", counted)
    label_blocks.cache_clear()
    program = program_for(scheme)
    nodes = [program(label) for label in bundle.labels]
    distinct = len(set(bundle.labels))
    assert len(decoded) <= distinct
    assert distinct * 10 < len(nodes)


def test_memo_returns_tuples_and_decode_blocks_lists():
    label = encode_blocks(["1", "01", ""])
    assert label_blocks(label, 3) == ("1", "01", "")
    assert label_blocks(label, 3) is label_blocks(label, 3)
    assert decode_blocks(label) == ["1", "01", ""]


@pytest.mark.parametrize("js", ["", "1", "101", "ab"])
def test_join_stay_block_must_be_two_bits(js):
    for _ in range(2):
        with pytest.raises(MalformedCodeword):
            ExecCore("x", js)


def compact_label(blocks_of):
    """Node 1's compact label on path-5, its blocks passed through
    `blocks_of`."""
    label = build_bundle("compact", gen_path(5)).labels[1]
    return encode_blocks(blocks_of(decode_blocks(label)))


@pytest.mark.parametrize(
    "label",
    [
        compact_label(lambda b: b[:2] + ["101"] + b[3:]),  # a 3-bit join/stay block
        compact_label(lambda b: b[:2] + ["1"] + b[3:]),  # a 1-bit join/stay block
        compact_label(lambda b: b[:-1]),  # one block short
        compact_label(lambda b: b + ["1"]),  # one block over
    ],
    ids=["js-3-bits", "js-1-bit", "6-blocks", "8-blocks"],
)
def test_malformed_label_raises_typed_error_every_time(label):
    """Failures are not memoized: the second build raises as the first."""
    program = program_for("compact")
    for _ in range(2):
        with pytest.raises(MalformedCodeword):
            program(label)
