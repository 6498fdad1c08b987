"""Bit-level label codec, label layouts and the scheme bundle container.

Labels are finite binary strings (Python str over '0'/'1'), structured as a
list of blocks under the 2x separator code: bit 1 -> "10", bit 0 -> "01",
block separator -> "00". Fixed-width integer subfields inside a block are
big-endian with leading zeros.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice
from typing import Iterable, Sequence

from .errors import MalformedCodeword

LabelBits = str


_BLOCK_CODE = str.maketrans({"0": "01", "1": "10", "|": "00"})
_PAIR = {("1", "0"): "1", ("0", "1"): "0", ("0", "0"): "|"}


def encode_blocks(blocks: Sequence[str]) -> LabelBits:
    """Separator-encode a block list in one `str.translate` over the blocks
    joined by "|"; a block with a character other than '0'/'1' raises
    MalformedCodeword.

    Length is exactly 2*(total payload bits) + 2*(len(blocks)-1).
    """
    joined = "|".join(blocks)
    bits = joined.translate(_BLOCK_CODE)
    # any other character is left as one character, so the code is short;
    # a "|" inside a block is one separator too many
    if len(bits) != 2 * len(joined) or joined.count("|") != max(len(blocks) - 1, 0):
        i, bad = next((i, b) for i, b in enumerate(blocks) if b.strip("01"))
        raise MalformedCodeword(f"block {i} ({bad!r}) is not a bit string")
    return bits


# each codeword's first and second character; "\n" passes through both
_FIRST = bytes.maketrans(b"01|", b"010")
_SECOND = bytes.maketrans(b"01|", b"100")
# rows encoded per pass: a large bundle's rows are never all held at once
_CHUNK = 1024


def encode_labels(rows: Iterable[Sequence[str]]) -> list[LabelBits]:
    """`[encode_blocks(row) for row in rows]`, `_CHUNK` rows at a time, each
    chunk in two `bytes.translate` passes: the rows joined by "\n", which
    each pass leaves in place, so the code's pairs split on "\n\n"."""
    labels: list[LabelBits] = []
    rows = iter(rows)
    while chunk := list(islice(rows, _CHUNK)):
        data = "\n".join(map("|".join, chunk)).encode()
        # only bits and the separators the joins put in: one "|" per block
        # after a row's first, one "\n" per row after the first
        if (
            data.translate(None, b"01|\n")
            or data.count(b"|") != sum(map(len, chunk)) - sum(map(bool, chunk))
            or data.count(b"\n") != len(chunk) - 1
        ):
            r, i, bad = next(
                (r, i, b) for r, row in enumerate(chunk) for i, b in enumerate(row) if b.strip("01")
            )
            raise MalformedCodeword(
                f"row {len(labels) + r}, block {i} ({bad!r}) is not a bit string"
            )
        out = bytearray(2 * len(data))
        out[::2] = data.translate(_FIRST)
        out[1::2] = data.translate(_SECOND)
        labels += out.decode().split("\n\n")
    return labels


def decode_blocks(bits: LabelBits) -> list[str]:
    """Exact inverse of encode_blocks, decoding all pairs in one pass;
    rejects odd length and any pair other than "10", "01" and "00"."""
    if len(bits) % 2 != 0:
        raise MalformedCodeword(f"odd bit length {len(bits)}")
    it = iter(bits)
    try:
        return "".join(map(_PAIR.__getitem__, zip(it, it))).split("|")
    except KeyError:
        i = next(i for i in range(0, len(bits), 2) if tuple(bits[i : i + 2]) not in _PAIR)
        raise MalformedCodeword(f"invalid codeword {bits[i : i + 2]!r} at offset {i}") from None


class Layout:
    """A label layout, the one owner of its block order and widths: each
    block's name and its width in bits, or None for a free width, in order.
    Builders write labels with `encode`, programs read them with `parse`."""

    def __init__(self, name: str, **widths: int | None):
        self.name, self.widths = name, widths

    def encode(self, *modes: Iterable[str], **columns: Iterable[str]) -> list[LabelBits]:
        """`encode_labels` over one column per block, passed by block name,
        behind the columns of the mode blocks `modes`, if any."""
        return encode_labels(zip(*modes, *map(columns.__getitem__, self.widths)))

    @lru_cache(maxsize=1024)
    def parse(self, label: LabelBits) -> dict[str, str]:
        """`label`'s blocks by name, in table order; MalformedCodeword
        unless it has one block per entry, each of its fixed width.

        Memoized, one memo for all layouts: a scheme's labels repeat (an
        O(log log Delta)-bit label has few values), so the nodes of a run
        that share a label share one parse, which they only read. Failures
        are not cached, so a malformed label raises on every call."""
        blocks = decode_blocks(label)
        if len(blocks) != len(self.widths):
            raise MalformedCodeword(
                f"{self.name} label has {len(blocks)} blocks, expected {len(self.widths)}")
        for (name, width), block in zip(self.widths.items(), blocks):
            if width is not None and len(block) != width:
                raise MalformedCodeword(
                    f"{self.name} block {name} {block!r} has {len(block)} bits, expected {width}")
        return dict(zip(self.widths, blocks))


def split_mode(label: LabelBits) -> tuple[str, LabelBits]:
    """The mode bit of a label whose first block is one mode bit, a leading
    column of its `Layout.encode`, and the label behind that block."""
    if label[:4] not in ("1000", "0100"):
        raise MalformedCodeword(f"no one-bit mode block at the start: {label[:4]!r}")
    return label[0], label[4:]


def int_to_bits(x: int, width: int | None = None) -> str:
    """Binary representation, MSB first; zero-padded to `width` if given."""
    if x < 0:
        raise ValueError("negative value")
    s = format(x, "b")
    if width is not None:
        if len(s) > width:
            raise ValueError(f"{x} does not fit in {width} bits")
        s = s.zfill(width)
    return s


def bit_table(top: int, width: int) -> list[str]:
    """`[int_to_bits(x, width) for x in range(top + 1)]`, one `format` per
    value: a fixed-width field's strings, looked up by value. Raises where
    `int_to_bits(top, width)` does."""
    int_to_bits(top, width)
    return list(map(f"{{:0{width}b}}".format, range(top + 1)))


def bits_to_int(bits: str) -> int:
    return int(bits, 2) if bits else 0


@dataclass
class SchemeBundle:
    """Oracle output: per-node labels plus offline metadata.

    `meta` (broadcast trees, schedules, stripe maps, ...) exists only for
    tests and audits; node programs never see it.
    """

    scheme: str
    labels: list[LabelBits]
    meta: dict = field(default_factory=dict)

    def max_label_bits(self) -> int:
        return max((len(l) for l in self.labels), default=0)
