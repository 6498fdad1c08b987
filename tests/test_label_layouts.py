"""No dead label fields: every block of every label layout carries
something.

A layout is the block list that one node program parses: compact, the path
message, fastsd's stripes and toprec, each read behind the mode bits that
general and fastsd put in front of it. Over the size corpus, the toprec
corpus, G_16..G_144 and every connected atlas graph, no block is empty on
every label, and no bit column of a fixed-width block is constant or equal
to another such column on every label. Such a block or column would hold
nothing or repeat another field, at 2 to 4 encoded bits per label.
"""

from functools import cache

import pytest

from oracles import connected_atlas
from radiolab.broadcast import synthesize_path_message
from radiolab.corpus import corpus, toprec_corpus
from radiolab.graphs import gen_lb_family
from radiolab.labels import decode_blocks, split_mode
from radiolab.schemes import SCHEMES, build_bundle

LAYOUTS = ("compact", "pathmsg", "stripes", "toprec")


def layout_of(scheme: str, label: str) -> tuple[str, str]:
    """The layout that a label of `scheme` is read in, and the label behind
    its mode bits."""
    if scheme in ("general", "fastsd"):
        mode, rest = split_mode(label)
        if mode == "1":
            return ("compact" if scheme == "general" else "stripes"), rest
        return layout_of("pathmsg" if scheme == "general" else "general", rest)
    return scheme, label


@cache
def layout_rows() -> dict[str, list[tuple[str, ...]]]:
    """Each layout's distinct block lists over every scheme, the path
    message included, on every graph of the sweep."""
    graphs = dict(corpus())
    graphs.update(toprec_corpus())
    graphs.update((f"G_{n}", gen_lb_family(n)[0]) for n in (16, 36, 64, 100, 144))
    graphs.update(connected_atlas())
    rows: dict[str, set] = {layout: set() for layout in LAYOUTS}
    for g in graphs.values():
        for scheme in (*SCHEMES, "pathmsg"):
            if scheme == "pathmsg":
                labels = synthesize_path_message(g, 0, "1011001").labels
            else:
                labels = build_bundle(scheme, g).labels
            for label in set(labels):
                layout, rest = layout_of(scheme, label)
                rows[layout].add(tuple(decode_blocks(rest)))
    return {layout: sorted(r) for layout, r in rows.items()}


@pytest.mark.parametrize("layout", LAYOUTS)
def test_no_block_is_empty_on_every_label(layout):
    rows = layout_rows()[layout]
    (count,) = {len(r) for r in rows}
    assert [i for i in range(count) if not any(r[i] for r in rows)] == []


@pytest.mark.parametrize("layout", LAYOUTS)
def test_no_fixed_width_column_is_constant_or_repeated(layout):
    rows = layout_rows()[layout]
    seen: dict[str, tuple[int, int]] = {}
    for i in range(len(rows[0])):
        widths = {len(r[i]) for r in rows}
        if len(widths) > 1:
            continue
        for j in range(widths.pop()):
            column = "".join(r[i][j] for r in rows)
            assert len(set(column)) == 2, f"block {i} bit {j} is constant"
            assert column not in seen, f"block {i} bit {j} repeats block, bit {seen.get(column)}"
            seen[column] = (i, j)
