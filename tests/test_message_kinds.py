"""Every message kind is one table, and a heard message of the wrong shape
raises `ProtocolViolation`.

A kind's table (`sim.message_kind`) is held by the program class that
sends it, as `layout` is for labels: its fields' names and types in wire
order, one of them the kind's name. `sim.parse` reads a message through
the table of the kind it names, and so does `toprec.parse_message` but
for a T4's reports, read by the T4's header, and a T5's, decoded once and
shared. README's "Message kinds" table must list the same kinds, fields
and types.
"""

import os
import subprocess
import sys
from pathlib import Path
from typing import get_args, get_origin

import pytest

from radiolab import sim
from radiolab.broadcast import AckProgram, ExecCore, PathMessageProgram, synthesize_path_message
from radiolab.errors import ProtocolViolation
from radiolab.graphs import gen_path
from radiolab.labels import split_mode
from radiolab.schemes import build_bundle
from radiolab.sim import Bits, Heard
from radiolab.size_discovery import AuxiliarySDProgram, FastSDProgram
from radiolab.toprec import TopRecProgram

README = Path(__file__).resolve().parents[1] / "README.md"
SENDERS = (ExecCore, AckProgram, PathMessageProgram, AuxiliarySDProgram, FastSDProgram,
           TopRecProgram)


def kinds() -> dict[str, tuple[str, type]]:
    """Each kind by name: the class whose table attribute holds it, and the
    kind."""
    return {v.name: (sender.__name__, v) for sender in SENDERS for v in vars(sender).values()
            if isinstance(v, type) and v in sim._KINDS[v.at].values()}


def spelled(t) -> str:
    """A field type as README writes it: the kind's name quoted, `bits`
    for `Bits`, `null` for None, alternatives joined by "or"."""
    if type(t) is str:
        return f'"{t}"'
    if get_origin(t) is list:
        return f"list of [{', '.join(map(spelled, get_args(get_args(t)[0])))}]"
    return " or ".join({Bits: "bits", type(None): "null"}.get(c, c.__name__)
                       for c in get_args(t) or (t,))


def test_every_kind_is_held_by_its_sender():
    """13 kinds, each registered once, at the index of its name: 1 behind
    the run tag for the size kinds, 0 for toprec's."""
    found = kinds()
    assert sorted(found) == sorted([*"bfrsdcp", "T1", "TA", "T2", "T3", "T4", "T5"])
    assert {k for table in sim._KINDS for k in table.values()} == {k for _, k in found.values()}
    assert {name: kind.at for name, (_, kind) in found.items()} == {
        name: 0 if name.startswith("T") else 1 for name in found}


def test_importing_any_module_registers_every_kind():
    """`import radiolab` imports the program modules, so a process that
    imports only `radiolab.sim` parses every kind."""
    case = (
        "import radiolab.sim as sim\n"
        "print(sum(map(len, sim._KINDS)))\n"
        "print(sim.parse(b'[\"p1\",\"b\",1,0,\"1\"]').payload)\n"
    )
    src = str(Path(sim.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", case], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["13", "1"]


def readme_kinds() -> dict[str, tuple[str, list[tuple[str, str]]]]:
    """README's "Message kinds" table: for each kind, its sender and its
    (field, type) rows in order."""
    text = README.read_text()
    table = text[text.index("| Kind (sender) |"):].split("\n\n", 1)[0].splitlines()[2:]
    found: dict[str, tuple[str, list]] = {}
    for row in table:
        first, field, kind = (cell.strip() for cell in row.strip("|").split("|")[:3])
        if first:
            name, sender = first.split()
            found[name.strip("`")] = (sender.strip("(`)"), [])
            rows = found[name.strip("`")][1]
        rows.append((field.strip("`"), kind))
    return found


def test_readme_table_lists_every_kind_as_its_table():
    """README names each kind's sender and lists its fields in wire order,
    with the same types."""
    assert readme_kinds() == {
        name: (sender, [(f, spelled(t)) for f, t in kind.fields.items()])
        for name, (sender, kind) in kinds().items()
    }


G = gen_path(6)
PROGRAMS = {
    "pathmsg": lambda: PathMessageProgram(synthesize_path_message(G, 0, "1011").labels[1]),
    "compact": lambda: AuxiliarySDProgram(build_bundle("compact", G).labels[1]),
    "fastsd": lambda: FastSDProgram(split_mode(build_bundle("fastsd", G).labels[1])[1]),
    "toprec": lambda: TopRecProgram(build_bundle("toprec", G).labels[1]),
}
MALFORMED = [
    b'["p1","b"]', b'["p1","b","x",0,"1"]', b'["p1","b",1,0,null]', b'["p1","b",1,0,"1",2]',
    b'["p1","f"]', b'["p1","f","1"]',
    b'["pa","r"]', b'["pa","r",1,null]',
    b'["S","s",1]', b'["S","s",1,0,5]',
    b'["D","d"]', b'["D","d",1]',
    b'["pc","c",5]', b'["pc","c",[[1]]]', b'["pc","c",[[1,2]]]', b'["pc","c",[5]]',
    b'["F1","p"]', b'["F1","p",1]',
    b'["T1"]', b'["T1",5]', b'["TA","x"]', b'["T2",5]', b'["T2",5,"x"]', b'["T3",null]',
    b'["T4","10"]', b'["T4",5]', b'["T5",5]', b'["T5",[["10"]]]',
    b'["p1","z",1]', b'[]', b'{"a":1}', b'"pb"', b"[1", b"\xff",
]


@pytest.mark.parametrize("message", MALFORMED, ids=[m.decode("latin-1") for m in MALFORMED])
@pytest.mark.parametrize("program", PROGRAMS)
def test_a_message_of_the_wrong_shape_raises_protocol_violation(program, message):
    """Every kind, and bytes of no kind, handed to `receive` of each
    program: a wrong field count or type, an unknown kind, or bytes that
    are not one UTF-8 JSON array raise ProtocolViolation, not an
    IndexError, TypeError or JSON error, and are not taken silently."""
    with pytest.raises(ProtocolViolation):
        PROGRAMS[program]().receive(1, Heard(message))


@pytest.mark.parametrize("program, first, then", [
    ("compact", b'["A1","b",1,0,"101"]', b'["Aa","r",5,0]'),  # Delta, read for the phase width
    ("compact", b'["A1","b",1,0,3]', b'["A2","b",1,0,"101"]'),  # t, from the second run
    ("pathmsg", b'["p1","b",1,0,"1"]', b'["p2","b",1,0,"101"]'),
])
def test_a_bit_string_where_a_count_belongs_raises_protocol_violation(program, first, then):
    """An Executor payload may be an int or a bit string, so its kind's
    table passes either; where the program reads a count from it, a bit
    string raises ProtocolViolation, not an AttributeError or TypeError."""
    p = PROGRAMS[program]()
    p.receive(1, Heard(first))
    with pytest.raises(ProtocolViolation, match="not an int"):
        p.receive(2, Heard(then))
