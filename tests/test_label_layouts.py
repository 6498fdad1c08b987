"""No dead label fields: every block of every label layout carries
something.

A layout is the block list that one node program parses: compact, the path
message, fastsd's stripes and toprec, each read behind the mode bits that
general and fastsd put in front of it. Over the size corpus, the toprec
corpus, G_16..G_144 and every connected atlas graph, no block is empty on
every label, and no bit column of a fixed-width block is constant or equal
to another such column on every label. Such a block or column would hold
nothing or repeat another field, at 2 to 4 encoded bits per label.

Each layout's table (`layout` on its program) is the one source of its
block names, order and fixed widths; README's "Label layouts" table must
list the same.
"""

from functools import cache
from pathlib import Path

import pytest

from oracles import LAYOUT_PROGRAMS, connected_atlas, layout_of
from radiolab.broadcast import synthesize_path_message
from radiolab.corpus import corpus, toprec_corpus
from radiolab.graphs import gen_lb_family
from radiolab.labels import decode_blocks
from radiolab.schemes import SCHEMES, build_bundle

LAYOUTS = tuple(LAYOUT_PROGRAMS)
README = Path(__file__).resolve().parents[1] / "README.md"


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
    names = list(LAYOUT_PROGRAMS[layout].layout.widths)
    assert {len(r) for r in rows} == {len(names)}
    assert [name for i, name in enumerate(names) if not any(r[i] for r in rows)] == []


@pytest.mark.parametrize("layout", LAYOUTS)
def test_no_fixed_width_column_is_constant_or_repeated(layout):
    rows = layout_rows()[layout]
    names = list(LAYOUT_PROGRAMS[layout].layout.widths)
    seen: dict[str, tuple[str, int]] = {}
    for i, name in enumerate(names):
        widths = {len(r[i]) for r in rows}
        if len(widths) > 1:
            continue
        for j in range(widths.pop()):
            column = "".join(r[i][j] for r in rows)
            assert len(set(column)) == 2, f"block {name} bit {j} is constant"
            assert column not in seen, f"block {name} bit {j} repeats block, bit {seen.get(column)}"
            seen[column] = (name, j)


def readme_layouts() -> dict[str, tuple[str, list[tuple[str, int | None]]]]:
    """README's "Label layouts" table: for each layout, its program and its
    (block, width) rows in order, a width that is not a number read as
    None."""
    text = README.read_text()
    table = text[text.index("| Layout (program) |"):].split("\n\n", 1)[0].splitlines()[2:]
    layouts: dict[str, tuple[str, list]] = {}
    for row in table:
        first, block, width = (cell.strip() for cell in row.strip("|").split("|")[:3])
        if first:
            name, program = first.split()
            layouts[name] = (program.strip("(`)"), [])
        layouts[name][1].append((block.strip("`"), int(width) if width.isdigit() else None))
    return layouts


def test_readme_table_lists_every_layout_as_its_table():
    """README's table names each layout's program, and lists its blocks in
    table order with the same fixed widths; a free width is not a number."""
    assert readme_layouts() == {
        name: (program.__name__, list(program.layout.widths.items()))
        for name, program in LAYOUT_PROGRAMS.items()
    }
