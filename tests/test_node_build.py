"""Node programs are built per distinct label: the nodes of a run that share
a label share one parse of it, and a malformed label still fails with a
typed error."""

import pytest

from radiolab import labels
from radiolab.errors import MalformedCodeword
from radiolab.graphs import gen_lb_family, gen_path
from radiolab.labels import Layout, decode_blocks, encode_blocks
from radiolab.schemes import build_bundle, program_for
from radiolab.size_discovery import AuxiliarySDProgram
from oracles import LAYOUT_PROGRAMS, layout_of

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
    Layout.parse.cache_clear()
    program = program_for(scheme)
    nodes = [program(label) for label in bundle.labels]
    distinct = len(set(bundle.labels))
    assert len(decoded) <= distinct
    assert distinct * 10 < len(nodes)


def test_memo_returns_one_parse_and_decode_blocks_lists():
    """The memo hands every caller one parse, its blocks by name in table
    order."""
    layout = Layout("demo", one=1, two=2, free=None)
    label = encode_blocks(["1", "01", ""])
    assert list(layout.parse(label).items()) == [("one", "1"), ("two", "01"), ("free", "")]
    assert layout.parse(label) is layout.parse(label)
    assert decode_blocks(label) == ["1", "01", ""]


@pytest.mark.parametrize("js", ["", "1", "101"])
def test_join_stay_block_must_be_two_bits(js):
    """Every join/stay block of every layout that has one is checked by the
    layout when the program is built, on every build."""
    seen = set()
    for scheme, g in (("compact", gen_path(5)), ("general", gen_path(5)), ("fastsd", gen_path(6))):
        name, rest = layout_of(scheme, build_bundle(scheme, g).labels[1])
        program = LAYOUT_PROGRAMS[name]
        blocks = program.layout.parse(rest)
        for block in blocks:
            if block.endswith("js"):
                seen.add((name, block))
                label = encode_blocks(list({**blocks, block: js}.values()))
                for _ in range(2):
                    with pytest.raises(MalformedCodeword):
                        program(label)
    assert seen == {("compact", "js"), ("pathmsg", "js"), ("stripes", "phase2_js"),
                    ("stripes", "stage2_js")}


def compact_label(change):
    """Node 1's compact label on path-5, its parsed blocks passed through
    `change`."""
    label = build_bundle("compact", gen_path(5)).labels[1]
    return encode_blocks(list(change(AuxiliarySDProgram.layout.parse(label)).values()))


@pytest.mark.parametrize(
    "label",
    [
        compact_label(lambda b: {**b, "js": "101"}),  # a 3-bit join/stay block
        compact_label(lambda b: {**b, "js": "1"}),  # a 1-bit join/stay block
        compact_label(lambda b: dict(list(b.items())[:-1])),  # one block short
        compact_label(lambda b: {**b, "extra": "1"}),  # one block over
    ],
    ids=["js-3-bits", "js-1-bit", "6-blocks", "8-blocks"],
)
def test_malformed_label_raises_typed_error_every_time(label):
    """Failures are not memoized: the second build raises as the first."""
    program = program_for("compact")
    for _ in range(2):
        with pytest.raises(MalformedCodeword):
            program(label)
