"""Topology recognition over a layered BFS schedule.

The labeling carries, per node: root/leaf/ack-path flags, a broadcast index
b in [0, Delta] scheduling collision-free downward layer-to-layer delivery,
a gather index g in [0, Delta-1] scheduling collision-free upward gathering,
the maximum degree, and a stage-2 slot: a unique id in [1, n] in id mode,
when Delta^2+1 > n, with binary(n) at the root, else a distance-two color
in [1, Delta^2+1]. The four-stage recognizer is one node
program, `TopRecProgram`: it first distributes path-of-gather-indices
identifiers over the acknowledged layered broadcast, then lets every node
announce its identifier to its neighbors, gathers the adjacency reports at
the root, and broadcasts the full edge set back.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import repeat
from types import MappingProxyType

from .errors import InconsistentReports, ProtocolViolation
from .graphs import Graph, LayerAssignment, bfs_layers
from .labels import (
    Layout,
    SchemeBundle,
    bit_table,
    bits_to_int,
    decode_blocks,
    encode_blocks,
    int_to_bits,
)
from .sim import Bits, NodeProgram, frame, message_kind, next_duty, parse

# Documented constants for the acceptance bound on the total round count:
# rounds <= TOPREC_C1 * D * Delta + TOPREC_C2 * min(n, Delta^2 + 1) + TOPREC_C3.
TOPREC_C1 = 8
TOPREC_C2 = 1
TOPREC_C3 = 1

# Encoded-label length bound constants: bits <= TOPREC_LEN_C * (ceil(log2(Delta+1)) + 1) + TOPREC_LEN_C0.
TOPREC_LEN_C = 20
TOPREC_LEN_C0 = 60


# ---------------------------------------------------------------------------
# Index assignment
# ---------------------------------------------------------------------------


def assign_broadcast_indices(
    g: Graph, r: int
) -> tuple[list[int], list[int | None], LayerAssignment]:
    """Per layer, greedily split nodes into sets X_0..X_Delta whose uncovered
    next-layer neighborhoods are pairwise disjoint (candidates in index
    order); b_v = j for v in X_j. The first X_j covering a node defines its
    parent, and those edges form a BFS tree."""
    la = bfs_layers(g, r)
    n = g.n
    layer = la.layer
    b: list[int | None] = [None] * n
    parent: list[int | None] = [None] * n
    for deeper, remaining in enumerate(la.by_layer, start=1):
        if len(remaining) == 1:  # one pass: b = 0, parent of all it reaches
            (v,) = remaining
            b[v] = 0
            for w in g.adj[v]:
                if layer[w] == deeper:
                    parent[w] = v
            continue
        # each node's next-layer row, filtered once for all index passes
        below = {v: [w for w in g.adj[v] if layer[w] == deeper] for v in remaining}
        covered: set[int] = set()
        j = 0
        while remaining:
            claimed: dict[int, int] = {}
            left = []
            for v in remaining:
                zv = [w for w in below[v] if w not in covered]
                if claimed.keys().isdisjoint(zv):
                    b[v] = j
                    claimed.update(dict.fromkeys(zv, v))
                else:
                    left.append(v)
            for w, v in claimed.items():
                parent[w] = v
            covered.update(claimed)
            remaining = left
            j += 1
    return b, parent, la  # type: ignore[return-value]


def assign_gather_indices(
    g: Graph, r: int, la: LayerAssignment, parent: list[int | None], b: list[int]
) -> list[int]:
    """Layer by layer, parents ordered by (b, index); each child in index
    order gets the smallest value not yet assigned to any neighbor of its
    parent at the child's layer."""
    n = g.n
    layer = la.layer
    gv: list[int | None] = [None] * n
    gv[r] = 0
    children: dict[int, list[int]] = {}  # all one layer below the parent
    for v in range(n):
        if v != r:
            children.setdefault(parent[v], []).append(v)
    for i in range(1, la.depth + 1):
        if len(la.by_layer[i]) == 1:  # served alone, next to no valued node
            gv[la.by_layer[i][0]] = 0
            continue
        for p in sorted({parent[v] for v in la.by_layer[i]}, key=lambda p: (b[p], p)):
            # only p's own children get values while p is served, so `used`
            # only grows and the smallest free value only moves up
            used = {gv[w] for w in g.adj[p] if layer[w] == i and gv[w] is not None}
            x = 0
            for u in children[p]:
                while x in used:
                    x += 1
                gv[u] = x
                used.add(x)
    return gv  # type: ignore[return-value]


def distance_two_coloring(g: Graph) -> list[int]:
    """Greedy coloring in index order of the distance-<=2 conflict graph;
    colors lie in [1, Delta^2+1]."""
    n = g.n
    colors = [0] * n
    # Colour sets are bit masks. around[w] has bit c set iff a coloured
    # neighbour of w has colour c; bit 0, "no colour", is always set. So v's
    # distance-two colours are the union over its neighbours w of around[w]
    # and w's own bit, and its colour is the lowest bit that union lacks.
    around = [1] * n
    for v in range(n):
        near = 1
        for w in g.adj[v]:
            near |= around[w] | (1 << colors[w])
        c = (~near & (near + 1)).bit_length() - 1
        colors[v] = c
        for w in g.adj[v]:
            around[w] |= 1 << c
    return colors


# ---------------------------------------------------------------------------
# Labels
# ---------------------------------------------------------------------------


def build_toprec_labels(g: Graph) -> SchemeBundle:
    """`TopRecProgram.layout` labels (root, leaf, ack path, b, g, Delta,
    stage-2 slot, n at the root), one column per block. The ack path is one
    deepest root-to-leaf chain of the BFS tree. In id mode, when
    Delta^2+1 > n, node v's slot is its unique id v+1 and the root holds
    binary(n) as well; otherwise the slot is v's distance-two color, the
    only use of the colouring, and the n block is empty."""
    n = g.n
    r = 0
    b, parent, la = assign_broadcast_indices(g, r)
    gv = assign_gather_indices(g, r, la, parent, b)
    layer = la.layer
    delta = g.max_degree()
    id_mode = delta * delta + 1 > n
    window = n if id_mode else delta * delta + 1
    slots = list(range(1, n + 1)) if id_mode else distance_two_coloring(g)
    wd = max(delta.bit_length(), 1)  # b and Delta
    wg = max((delta - 1).bit_length(), 1) if delta > 1 else 1
    path = [la.by_layer[la.depth][0]]
    while path[-1] != r:
        path.append(parent[path[-1]])
    root = ["0"] * r + ["1"] + ["0"] * (n - r - 1)
    on_path = ["0"] * n
    for v in path:
        on_path[v] = "1"
    # a leaf has no neighbor one layer deeper; `in` stops at the first
    leaf = ["0" if i + 1 in map(layer.__getitem__, row) else "1" for i, row in zip(layer, g.adj)]
    n_root = [int_to_bits(n) if id_mode else ""] + [""] * (n - 1)  # at the root, node 0
    labels = TopRecProgram.layout.encode(
        root=root,
        leaf=leaf,
        apath=on_path,
        b=map(bit_table(max(b), wd).__getitem__, b),
        g=map(bit_table(max(gv), wg).__getitem__, gv),
        delta=repeat(int_to_bits(delta, wd), n),
        slot=map(bit_table(max(slots), max(window.bit_length(), 1)).__getitem__, slots),
        n=n_root,
    )
    return SchemeBundle(
        scheme="toprec",
        labels=labels,
        meta={
            "root": r,
            "layers": la,
            "parent": parent,
            "b": b,
            "g": gv,
            "path": path,
            "delta": delta,
            "slots": slots,
            "id_mode": id_mode,
            "stage2_window": window,
        },
    )


def oracle_ids(meta: dict) -> list[tuple[int, ...]]:
    """Each node's identifier, from a toprec bundle's meta: its gather
    indices along its BFS-tree path from the root. Built layer by layer
    below the root's, so a parent's id is ready before its children's."""
    la, parent, gv = meta["layers"], meta["parent"], meta["g"]
    ids: list[tuple[int, ...]] = [()] * len(parent)
    for bucket in la.by_layer[1:]:
        for v in bucket:
            ids[v] = ids[parent[v]] + (gv[v],)
    return ids


# ---------------------------------------------------------------------------
# Wire encoding of identifiers (label-codec block form)
# ---------------------------------------------------------------------------


def id_to_wire(node_id: tuple[int, ...]) -> str:
    if not node_id:
        return ""
    return encode_blocks([int_to_bits(x) for x in node_id])


def wire_to_id(wire: str) -> tuple[int, ...]:
    if wire == "":
        return ()
    return tuple(bits_to_int(b) for b in decode_blocks(wire))


# a T5 as its parse reads it: its reports' topology and the map from each wire to its identifier
Final = namedtuple("Final", "tag edges ids")


def parse_message(message: bytes) -> tuple:
    """A TopRec message as its kind's value (`sim.parse`), but for a T4 and
    a T5. A T4 is read by its header `["T4","<sender wire>",[` alone:
    `reports` is a read-only view of the report array's inner text, which
    only the root decodes, so no JSON array reads as a T4. A T5 is read as
    a `Final` (`_final`). A pure function of the bytes, for `Heard.decode`.
    Any other message raises ProtocolViolation."""
    if message.startswith(b'["T4",'):
        end = message.find(b'",[', 7)
        wire, body = message[7:end], memoryview(message)[end + 3 : -2]
        if message[6:7] != b'"' or end < 0 or wire.strip(b"01") or not body or message[-2:] != b"]]":
            raise ProtocolViolation(f"T4 {message[:40]!r} is not a bit string sender wire and reports")
        return tuple.__new__(TopRecProgram.T4, ("T4", wire.decode(), body))
    if message.startswith(b'["T5",'):
        return _final(message)
    parts = parse(message, 0)
    return _final(message) if parts.tag == "T5" else parts  # a T5 not as `frame` writes it


@lru_cache(maxsize=1)
def _final(message: bytes) -> Final:
    """A T5 as a `Final`: the `topology` (edge tuple) of its reports and the
    read-only map from each wire to its identifier (both from
    `decode_reports`). Memoized for the last T5, so the root's parse of the
    T5 it sends and its listeners' parses of the same bytes are one decode,
    and the root and every listener share one topology and one map."""
    reports, ids = decode_reports(parse(message, 0).reports)
    return Final("T5", topology(reports), MappingProxyType(ids))


def decode_reports(reports) -> tuple[tuple, dict[str, tuple[int, ...]]]:
    """Wire reports `[[wire_id, [wire_nbr, ...]], ...]` as `((id, (nbr_id,
    ...)), ...)`, and the map from each distinct wire to its identifier,
    each decoded once; any other shape raises ProtocolViolation."""
    wires = set()
    for row in reports:
        if not (type(row) is list and len(row) == 2 and type(row[1]) is list
                and {type(row[0]), *map(type, row[1])} == {str}):
            raise ProtocolViolation(f"report {row!r} is not a wire and a list of wires")
        wires.add(row[0])
        wires.update(row[1])
    ids = {w: wire_to_id(w) for w in wires}
    get = ids.__getitem__
    return tuple((get(wid), tuple(map(get, nbrs))) for wid, nbrs in reports), ids


# ---------------------------------------------------------------------------
# Reconstruction
# ---------------------------------------------------------------------------


def topology(reports) -> tuple:
    """The finished topology of decoded `(id, (nbr_id, ...))` reports: the
    sorted edge tuple over identifiers. Immutable, so every node of a run
    can share it. A one-sided listing flags a protocol bug (both endpoints
    must have heard each other), and so does a listed node without a
    report."""
    listed = {wid: set(nbrs) for wid, nbrs in reports}
    edges = set()
    for a, nbrs in listed.items():
        for bb in nbrs:
            if bb not in listed:
                raise InconsistentReports(f"{bb} listed by {a} but reported nowhere")
            if a not in listed[bb]:
                raise InconsistentReports(f"one-sided listing {a} -> {bb}")
            edges.add((a, bb) if a < bb else (bb, a))
    return tuple(sorted(edges))


# ---------------------------------------------------------------------------
# Program
# ---------------------------------------------------------------------------


class TopRecProgram(NodeProgram):
    """Four stages: identifier distribution over the acknowledged broadcast,
    per-slot identifier announcement, adjacency-report
    gathering, and a final broadcast of the edge set. Output per node:
    (sorted edge tuple over identifiers, own identifier); the edge tuple is
    one object shared by the root and every node that heard its T5.

    Stage 1 is the acknowledged layered broadcast AckBrBFS. The root's
    BroadcastBFS of its identifier goes out as T1: node v transmits once, in
    round layer(v)*(Delta+1) + b_v + 1, learns its layer from the round the
    T1 first reaches it, and takes its parent's identifier plus its own
    gather index. The marked deepest leaf answers with D* as TA after round
    D*(Delta+1) and ack-path nodes relay it one round apart; the root then
    runs a BroadcastBFS of the total duration D* + 2D*(Delta+1) as T2, which
    also carries n in id mode. In stage 2 a node sends its identifier as T3
    in round total + slot of a window of n rounds if it knows n, else
    Delta^2+1; a slot outside the window raises ProtocolViolation.

    Identifiers travel in wire form and are never re-encoded: a node's wire
    is its parent's, heard in T1, plus its own gather index as one more
    block, and `nbr_wires` keeps the wires its neighbours' T3s carried. A
    node's own report lists them in wire order.

    Stage 3 is a convergecast up the BFS tree. A T4 carries its sender's
    wire and the reports of the sender's subtree, in wire form. Only the
    sender's parent keeps them, as the heard bytes of the report array
    (`_bodies`): a child's wire is the listener's plus one block, and at
    the root every sender is a child. Gather indices give each child of a
    parent a slot of its own, so the root gets every report exactly once.
    No report is decoded or re-encoded on the way up, and no T1 or T3. The
    full set is decoded once per run: the root parses the T5 it sends, and
    its listeners' parse of the same bytes is that parse's memo (`_final`);
    each node takes its own identifier (`my_id`) from that decode's wire
    map.

    Each pending transmission is a round attribute, None while unknown or
    once served: `_t1` (forward T1), `_ta` (start or relay the TA), `_t2`
    (forward T2), `_t3` (announce), `_t4` (gather), `_t5` (final). They are
    set when what fixes them is learned: the layer, D*, the total, n or the
    heard T5."""

    layout = Layout("toprec", root=1, leaf=1, apath=1, b=None, g=None, delta=None, slot=None, n=None)
    T1 = message_kind(tag="T1", wire=Bits)
    TA = message_kind(tag="TA", dstar=int)
    T2 = message_kind(tag="T2", total=int, n=int | None)
    T3 = message_kind(tag="T3", wire=Bits)
    T4 = message_kind(tag="T4", wire=Bits, reports=memoryview)
    T5 = message_kind(tag="T5", reports=list)

    def __init__(self, label: str):
        super().__init__(label)
        blocks = self.layout.parse(label)
        self.is_root = blocks["root"] == "1"
        self.is_leaf = blocks["leaf"] == "1"
        self.on_apath = blocks["apath"] == "1"
        self.b = bits_to_int(blocks["b"])
        self.g = bits_to_int(blocks["g"])
        self.delta = bits_to_int(blocks["delta"])
        self.width = self.delta + 1
        self.slot = bits_to_int(blocks["slot"])
        self.n_value = bits_to_int(blocks["n"]) if blocks["n"] else None
        self.layer: int | None = None
        self.dstar: int | None = None
        self.total: int | None = None
        self.my_id: tuple[int, ...] | None = None
        self.wire_id: str | None = None  # my_id in wire form, what T1, T3 and T4 carry
        self._t1 = self._ta = self._t2 = self._t3 = self._t4 = self._t5 = None
        self._relayed = self._sent2 = self._sent3 = self._sent4 = self._sent5 = False
        self.nbr_wires: set[str] = set()  # the announced neighbours' wires
        self._bodies: list[memoryview] = []  # the children's T4 bodies, as heard
        self._final: bytes | None = None  # the T5 message, as heard
        if self.is_root:
            self.wire_id = id_to_wire(())
            if self.is_leaf and self.on_apath:
                # single node: nothing to broadcast, announce or gather
                self.dstar = self.total = 0
                self._relayed = self._sent3 = self._sent5 = True
                self._finish(topology([((), ())]), {self.wire_id: ()})
            self._place(0)

    def _place(self, layer: int) -> None:
        """Learn the layer: an inner node's T1 slot, or the deepest leaf's
        start of the D* relay right after the identifier broadcast."""
        self.layer = layer
        if not self.is_leaf:
            self._t1 = layer * self.width + self.b + 1
        elif self.on_apath and not self._relayed:
            self._ta = layer * self.width + 1

    def _schedule(self) -> None:
        """Set the unserved duties that follow from the total (stages 2-4,
        whose stage-2 window is n if known, else Delta^2+1). Called
        whenever the layer, D*, the total, n or the heard T5 changes. An
        inner node forwards a BroadcastBFS in round start + layer*(Delta+1)
        + b + 1 of a window beginning after `start`; layer D*-i gathers in
        phase i of Delta rounds, node v in round g_v + 1 of its phase."""
        total, layer = self.total, self.layer
        if total is None:
            return
        inner = layer is not None and not self.is_leaf
        turn = layer * self.width + self.b + 1 if inner else None  # in a BroadcastBFS
        if not self._sent2:
            self._t2 = None if turn is None else total - self.width * self.dstar + turn
        window = self.delta * self.delta + 1 if self.n_value is None else self.n_value
        if not 1 <= self.slot <= window:
            raise ProtocolViolation(f"stage-2 slot {self.slot} outside 1..{window}")
        stage3 = total + window
        stage4 = stage3 + self.dstar * self.delta
        if not self._sent3:
            self._t3 = total + self.slot
        if not self._sent4 and not self.is_root and layer is not None:
            self._t4 = stage3 + (self.dstar - layer) * self.delta + self.g + 1
        if not self._sent5:
            if self.is_root:
                self._t5 = stage4 + 1
            elif self._final is not None and turn is not None:
                self._t5 = stage4 + turn

    def _finish(self, edges: tuple, ids) -> None:
        """Output from a finished `topology`, shared, not copied, and the
        own identifier from the wire map of the same reports."""
        self.my_id = ids.get(self.wire_id)
        if self.my_id is None:
            raise ProtocolViolation("own identifier missing from reports")
        self.output = (edges, self.my_id)

    def next_wake(self, rnd: int) -> int | None:
        return next_duty(rnd, self._t1, self._ta, self._t2, self._t3, self._t4, self._t5)

    def action(self, rnd: int):
        if rnd == self._t1:
            self._t1 = None
            return self.T1.frame(self.wire_id)
        if rnd == self._ta:
            self._ta = None
            if not self._relayed:  # the deepest leaf starts the relay
                self._relayed = True
                self.dstar = self.layer
                self._schedule()
            return self.TA.frame(self.dstar)
        if rnd == self._t2:
            self._t2, self._sent2 = None, True
            return self.T2.frame(self.total, self.n_value)
        if rnd == self._t3:
            self._t3, self._sent3 = None, True
            return self.T3.frame(self.wire_id)
        if rnd == self._t4:
            self._t4, self._sent4 = None, True
            return self._with_reports(f'["T4","{self.wire_id}",'.encode())
        if rnd == self._t5:
            self._t5, self._sent5 = None, True
            if not self.is_root:
                return self._final
            final = self._with_reports(b'["T5",')
            self._finish(*parse_message(final)[1:])
            return None if self.is_leaf else final
        return None

    def _with_reports(self, head: bytes) -> bytes:
        """`head` closed by the report array: the children's T4 bodies as
        heard, then this node's own; the one place reports are coded."""
        own = frame(self.wire_id, sorted(self.nbr_wires))
        return b"".join((head, b"[", b",".join([*self._bodies, own]), b"]]"))

    def receive(self, rnd: int, heard) -> bool:
        parts = heard.decode(parse_message)
        tag = parts.tag
        if tag == "T1":
            if self.layer is not None:
                return False
            # the parent's wire plus one block: id_to_wire(my_id), not re-encoded
            parent_wire = parts.wire
            own = encode_blocks((int_to_bits(self.g),))
            self.wire_id = parent_wire + "00" + own if parent_wire else own
            self._place((rnd - 1) // self.width + 1)
        elif tag == "TA":
            if not self.on_apath or self._relayed:
                return False
            self._relayed = True
            self.dstar = parts.dstar
            if not self.is_root:
                self._ta = rnd + 1
            elif self.total is None:
                self.total = self.dstar * (2 * self.width + 1)
        elif tag == "T2":
            total, n_value = self.total, self.n_value
            if total is None:
                self.total = parts.total
                self.dstar = parts.total // (2 * self.width + 1)
            if parts.n is not None:
                self.n_value = parts.n
            if total is not None and self.n_value == n_value:
                return False
        elif tag == "T3":
            self.nbr_wires.add(parts.wire)
            return False
        elif tag == "T4":
            # only a child's reports; a node without a wire has no child
            mine = self.wire_id
            if mine is not None and (self.is_root or parts.wire.startswith(mine + "00")):
                self._bodies.append(parts.reports)
            return False
        elif tag == "T5":
            if self._final is not None:
                return False
            self._final = heard.message
            if self.output is None:
                self._finish(parts.edges, parts.ids)
        else:
            return False
        self._schedule()
        return True


def serialize_toprec_output(output) -> dict:
    """Wire form of a node's recognizer output:
    {edges: [[idA, idB], ...], self: id}."""
    edges, self_id = output
    return {
        "edges": [[list(a), list(b)] for a, b in edges],
        "self": list(self_id),
    }
