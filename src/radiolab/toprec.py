"""Topology recognition over a layered BFS schedule.

The labeling carries, per node: root/leaf/ack-path flags, a broadcast index
b in [0, Delta] scheduling collision-free downward layer-to-layer delivery,
a gather index g in [0, Delta-1] scheduling collision-free upward gathering,
the maximum degree, and a distance-two color (plus a unique id and the graph
size at the root when Delta^2+1 > n). The four-stage recognizer first
distributes path-of-gather-indices identifiers, then lets every node announce
its identifier to its neighbors, gathers the adjacency reports at the root,
and broadcasts the full edge set back.
"""

from __future__ import annotations

from itertools import repeat

from .errors import InconsistentReports, ProtocolViolation
from .graphs import Graph, LayerAssignment, bfs_layers
from .labels import (
    SchemeBundle,
    bit_table,
    bits_to_int,
    decode_blocks,
    encode_blocks,
    encode_labels,
    int_to_bits,
    label_blocks,
)
from .sim import NodeProgram, earliest, frame, parse, unframe

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
    by_layer: list[list[int]] = [[] for _ in range(la.depth + 1)]
    for v in range(n):
        by_layer[layer[v]].append(v)
    for deeper, remaining in enumerate(by_layer, start=1):
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
    by_layer: list[list[int]] = [[] for _ in range(la.depth + 1)]
    children: dict[int, list[int]] = {}  # all one layer below the parent
    for v in range(n):
        by_layer[layer[v]].append(v)
        if v != r:
            children.setdefault(parent[v], []).append(v)
    for i in range(1, la.depth + 1):
        for p in sorted({parent[v] for v in by_layer[i]}, key=lambda p: (b[p], p)):
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


def build_bfs_labels(
    g: Graph, r: int, payloads: list[str] | None = None
) -> SchemeBundle:
    """Labels (root, leaf, ack-path, b, g, Delta) for the broadcast/gather
    primitives; optional per-node payload bits for gather runs. The ack path
    is one deepest root-to-leaf chain of the BFS tree."""
    b, parent, la = assign_broadcast_indices(g, r)
    gv = assign_gather_indices(g, r, la, parent, b)
    n = g.n
    layer = la.layer
    delta = g.max_degree()
    wd = max(delta.bit_length(), 1)  # b and Delta
    wg = max((delta - 1).bit_length(), 1) if delta > 1 else 1
    path = [layer.index(la.depth)]
    while path[-1] != r:
        path.append(parent[path[-1]])
    root = ["0"] * r + ["1"] + ["0"] * (n - r - 1)
    on_path = ["0"] * n
    for v in path:
        on_path[v] = "1"
    # a leaf has no neighbor one layer deeper; `in` stops at the first
    leaf = ["0" if i + 1 in map(layer.__getitem__, row) else "1" for i, row in zip(layer, g.adj)]
    labels = encode_labels(zip(
        root,
        leaf,
        on_path,
        map(bit_table(max(b), wd).__getitem__, b),
        map(bit_table(max(gv), wg).__getitem__, gv),
        repeat(int_to_bits(delta, wd), n),
        payloads or repeat("", n),
    ))
    return SchemeBundle(
        scheme="bfs",
        labels=labels,
        meta={
            "root": r,
            "layers": la,
            "parent": parent,
            "b": b,
            "g": gv,
            "path": path,
            "delta": delta,
        },
    )


def build_toprec_labels(g: Graph) -> SchemeBundle:
    """BFS labels + distance-two color; when Delta^2+1 > n additionally a
    unique id in [1, n] (and binary(n) at the root) with the mode bit set."""
    n = g.n
    r = 0
    base = build_bfs_labels(g, r)
    delta = g.max_degree()
    colors = distance_two_coloring(g)
    id_mode = delta * delta + 1 > n
    wc = max((delta * delta + 1).bit_length(), 1)
    wu = max(n.bit_length(), 1)
    n_root = [int_to_bits(n) if id_mode else ""] + [""] * (n - 1)  # at the root, node 0
    tails = encode_labels(zip(
        map(bit_table(max(colors), wc).__getitem__, colors),
        repeat("1" if id_mode else "0", n),
        bit_table(n, wu)[1:] if id_mode else repeat("", n),
        n_root,
    ))
    labels = [head + "00" + tail for head, tail in zip(base.labels, tails)]
    return SchemeBundle(
        scheme="toprec",
        labels=labels,
        meta={
            **base.meta,
            "colors": colors,
            "id_mode": id_mode,
            "stage2_window": n if id_mode else delta * delta + 1,
        },
    )


def oracle_ids(meta: dict) -> list[tuple[int, ...]]:
    """Each node's identifier, from a toprec bundle's meta: its gather
    indices along its BFS-tree path from the root. Built in layer order, so
    a parent's id is ready before its children's."""
    la, parent, gv = meta["layers"], meta["parent"], meta["g"]
    ids: list[tuple[int, ...]] = [()] * len(parent)
    for v in sorted(range(len(parent)), key=la.layer.__getitem__):
        if v != la.root:
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


def parse_message(message: bytes) -> tuple:
    """A TopRec message as an immutable tuple `(tag, ...)`: T1/T3 carry an
    int-tuple identifier, T4 its reports in wire form
    `((wire_id, (wire_nbr, ...)), ...)`, T5 the reports decoded by
    `decode_reports` and then the finished `topology` of them; TA/T2 keep
    their ints. A pure function of the bytes, for `Heard.decode`, so every
    listener of a T5 shares one topology. A T1/T3 identifier that is not a
    string raises ProtocolViolation."""
    parts = unframe(message)
    tag = parts[0]
    if tag in ("T1", "T3"):
        if type(parts[1]) is not str:
            raise ProtocolViolation(f"{tag} identifier {parts[1]!r} is not a bit string")
        return tag, wire_to_id(parts[1])
    if tag == "T4":
        return tag, tuple((wid, tuple(nbrs)) for wid, nbrs in parts[1])
    if tag == "T5":
        reports = decode_reports(parts[1])
        return tag, reports, topology(reports)
    return tuple(parts)


def decode_reports(reports) -> tuple:
    """Wire reports `[(wire_id, (wire_nbr, ...)), ...]` as
    `((id, (nbr_id, ...)), ...)`, each distinct wire identifier decoded once
    (through a dict local to the call)."""
    wires = set()
    for wid, nbrs in reports:
        wires.add(wid)
        wires.update(nbrs)
    get = {w: wire_to_id(w) for w in wires}.__getitem__
    return tuple((get(wid), tuple(map(get, nbrs))) for wid, nbrs in reports)


# ---------------------------------------------------------------------------
# Reconstruction
# ---------------------------------------------------------------------------


def reconstruct_topology(
    reports: dict[tuple[int, ...], set[tuple[int, ...]]]
) -> tuple[set[tuple[int, ...]], set[tuple[tuple[int, ...], tuple[int, ...]]]]:
    """Edge set over identifiers from per-node adjacency reports. A one-sided
    listing flags a protocol bug (both endpoints must have heard each other)."""
    nodes = set(reports)
    edges = set()
    for a, nbrs in reports.items():
        for bb in nbrs:
            if bb not in reports:
                raise InconsistentReports(f"{bb} listed by {a} but reported nowhere")
            if a not in reports[bb]:
                raise InconsistentReports(f"one-sided listing {a} -> {bb}")
            edges.add((a, bb) if a < bb else (bb, a))
    return nodes, edges


def topology(reports) -> tuple[frozenset, tuple]:
    """The finished topology of decoded `(id, (nbr_id, ...))` reports: the
    node set and the sorted edge tuple, checked by `reconstruct_topology`.
    Immutable, so every node of a run can share it."""
    nodes, edges = reconstruct_topology({wid: set(nbrs) for wid, nbrs in reports})
    return frozenset(nodes), tuple(sorted(edges))


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------


BFS_BLOCKS = 7  # root, leaf, ack-path, b, g, Delta, payload
TOPREC_BLOCKS = BFS_BLOCKS + 4  # color, id mode, unique id, n at the root


class AckBfsMachine:
    """The acknowledged layered broadcast AckBrBFS as an embeddable machine,
    the counterpart of `broadcast.AckMachine`, read from the first
    `BFS_BLOCKS` label blocks.

    The root's BroadcastBFS of `message` (node v transmits once, in round
    layer(v)*(Delta+1) + b_v + 1, and learns its layer from the round the
    message first reaches it); the marked deepest leaf answers with D* after
    round D*(Delta+1) and ack-path nodes relay it one round apart; the root
    then runs a BroadcastBFS of the total duration D* + 2D*(Delta+1). `tags`
    names the three kinds of message. Plain BroadcastBFS uses `broadcast`
    alone.
    """

    def __init__(self, blocks: list[str], tags: tuple):
        self.is_root = blocks[0] == "1"
        self.is_leaf = blocks[1] == "1"
        self.on_apath = blocks[2] == "1"
        self.b = bits_to_int(blocks[3])
        self.g = bits_to_int(blocks[4])
        self.delta = bits_to_int(blocks[5])
        self.payload = blocks[6]
        self.width = self.delta + 1
        self.first_tag, self.ack_tag, self.total_tag = tags
        self.message = None  # what the first BroadcastBFS carries, once known
        self.layer = 0 if self.is_root else None
        self.dstar: int | None = None
        self.total: int | None = None
        self._sent1 = self._sent2 = self._relayed = False
        self._ack_round: int | None = None
        if self.is_root and self.is_leaf and self.on_apath:
            # single node: the whole acknowledged broadcast is empty
            self.dstar = self.total = 0
            self._relayed = True

    def reached(self, rnd: int) -> bool:
        """Learn the layer from the round in which the first BroadcastBFS
        reaches this node; True only that first time."""
        if self.layer is not None:
            return False
        self.layer = (rnd - 1) // self.width + 1
        return True

    def slot(self, start: int) -> int | None:
        """This node's round in a BroadcastBFS window beginning after `start`."""
        if self.layer is None or self.is_leaf:
            return None
        return start + self.layer * self.width + self.b + 1

    def gather_slot(self, start: int) -> int | None:
        """This node's round in a gathering window beginning after `start`:
        layer D*-i transmits in phase i of Delta rounds, node v in round
        g_v + 1 of its phase."""
        if self.is_root or self.layer is None:
            return None
        return start + (self.dstar - self.layer) * self.delta + self.g + 1

    # -- pending transmission slots (None once sent or while unknown) -------

    def first_round(self) -> int | None:
        if self.message is None or self._sent1:
            return None
        return self.slot(0)

    def _leaf_ack_round(self) -> int | None:
        """The deepest ack-path leaf starts the relay of D*."""
        if self.on_apath and self.is_leaf and not self._relayed and self.layer is not None:
            return self.layer * self.width + 1
        return None

    def _total_round(self) -> int | None:
        if self.total is None or self._sent2:
            return None
        return self.slot(self.total - self.width * self.dstar)

    def next_wake(self) -> int | None:
        return earliest(
            self.first_round(), self._leaf_ack_round(), self._ack_round, self._total_round()
        )

    def broadcast(self, rnd: int) -> bytes | None:
        """The first BroadcastBFS, in this node's round of it."""
        if rnd != self.first_round():
            return None
        self._sent1 = True
        return frame(self.first_tag, self.message)

    def action(self, rnd: int, *extra) -> bytes | None:
        """This round's transmission, if any; `extra` rides on the total."""
        if rnd == self.first_round():
            return self.broadcast(rnd)
        if rnd == self._leaf_ack_round():
            self._relayed = True
            self.dstar = self.layer
            return frame(self.ack_tag, self.layer)
        if rnd == self._ack_round:
            self._ack_round = None
            return frame(self.ack_tag, self.dstar)
        if rnd == self._total_round():
            self._sent2 = True
            return frame(self.total_tag, self.total, *extra)
        return None

    def on_message(self, rnd: int, parts) -> bool:
        """A heard message `(tag, value, ...)`; True iff it changed the
        machine. Other tags are ignored."""
        tag = parts[0]
        if tag == self.first_tag and self.reached(rnd):
            self.message = parts[1]
        elif tag == self.ack_tag and self.on_apath and not self._relayed:
            self._relayed = True
            self.dstar = parts[1]
            if self.is_root:
                self._learn_total(self.dstar * (2 * self.width + 1))
            else:
                self._ack_round = rnd + 1
        elif tag == self.total_tag and self.total is None:
            self._learn_total(parts[1])
        else:
            return False
        return True

    def _learn_total(self, total: int) -> None:
        if self.total is None:
            self.total = total
            self.dstar = total // (2 * self.width + 1)


class BroadcastBFSProgram(NodeProgram):
    """Plain layered broadcast: node v transmits once, in round
    layer(v)*(Delta+1) + b_v + 1; completes within D*(Delta+1) rounds."""

    def __init__(self, label: str, message: str = "1"):
        super().__init__(label)
        self.m = AckBfsMachine(label_blocks(label, BFS_BLOCKS), ("B1", None, None))
        if self.m.is_root:
            self.m.message = self.output = message

    def action(self, rnd: int):
        return self.m.broadcast(rnd)

    def receive(self, rnd: int, heard) -> bool:
        self.m.on_message(rnd, heard.decode(parse))
        self.output = self.m.message
        return True

    def next_wake(self, rnd: int) -> int | None:
        return self.m.first_round()


class GatherBFSProgram(NodeProgram):
    """AckBrBFS, BroadcastBFS of D*, then D* gathering phases of Delta rounds
    (see `AckBfsMachine.gather_slot`), each node forwarding everything heard.
    The root outputs the collected payloads, other nodes their own payload
    once they know the total duration."""

    def __init__(self, label: str):
        super().__init__(label)
        self.m = m = AckBfsMachine(label_blocks(label, BFS_BLOCKS), ("BB", "BA", "B2"))
        self._sent3 = False
        self._sent_g = False
        # forwarded payloads in arrival order, a dict used as an ordered set
        self._reports: dict[str, None] = dict.fromkeys([m.payload] if m.payload else [])
        if m.is_root:
            m.message = "gather"
            if m.total == 0:
                self.output = sorted(self._reports)

    # The BroadcastBFS of D* occupies (total, total + width*D*]; gathering
    # follows it.

    def _dstar_round(self) -> int | None:
        if self._sent3 or self.m.total is None:
            return None
        return self.m.slot(self.m.total)

    def _gather_start(self) -> int:
        return self.m.total + self.m.width * self.m.dstar

    def _gather_round(self) -> int | None:
        if self._sent_g or self.m.total is None:
            return None
        return self.m.gather_slot(self._gather_start())

    def _output_round(self) -> int | None:
        """The root outputs right after the last gathering phase."""
        if not self.m.is_root or self.output is not None or self.m.total is None:
            return None
        return self._gather_start() + self.m.dstar * self.m.delta + 1

    def action(self, rnd: int):
        act = self.m.action(rnd)
        if act is not None:
            return act
        if rnd == self._dstar_round():
            self._sent3 = True
            return frame("B3", self.m.dstar)
        if rnd == self._gather_round():
            self._sent_g = True
            return frame("BG", list(self._reports))
        if rnd == self._output_round():
            self.output = sorted(self._reports)
        return None

    def receive(self, rnd: int, heard) -> bool:
        parts = heard.decode(parse)
        if parts[0] == "BG":
            self._reports.update(dict.fromkeys(parts[1]))
        else:
            self.m.on_message(rnd, parts)
        if self.output is None and not self.m.is_root and self.m.total is not None:
            self.output = self.m.payload
        return True

    def next_wake(self, rnd: int) -> int | None:
        return earliest(
            self.m.next_wake(), self._dstar_round(), self._gather_round(), self._output_round()
        )


class TopRecProgram(NodeProgram):
    """Four stages: identifier distribution over the acknowledged broadcast,
    per-color (or per-id) identifier announcement, adjacency-report
    gathering, and a final broadcast of the edge set. Output per node:
    (sorted edge tuple over identifiers, own identifier); the edge tuple is
    one object shared by every node that heard the same T5.

    Stage 1 is an `AckBfsMachine` whose first broadcast carries the sender's
    identifier; a node's identifier is its parent's plus its own gather
    index. Gathered reports stay in wire form (`_reports` maps a wire
    identifier to its neighbors' wire identifiers): inner nodes merge and
    forward them without decoding, and only the root decodes the full set."""

    def __init__(self, label: str):
        super().__init__(label)
        blocks = label_blocks(label, TOPREC_BLOCKS)
        self.m = m = AckBfsMachine(blocks, ("T1", "TA", "T2"))
        self.color = bits_to_int(blocks[7])
        self.id_mode = blocks[8] == "1"
        self.uid = bits_to_int(blocks[9]) if self.id_mode else None
        self.n_value = bits_to_int(blocks[10]) if blocks[10] else None
        self.my_id: tuple[int, ...] | None = None
        self._sent_s2 = False
        self._sent_g = False
        self._sent4 = False
        self.nbr_ids: set[tuple[int, ...]] = set()
        self._reports: dict[str, tuple[str, ...]] = {}
        self._final: bytes | None = None  # the T5 message, as heard
        if m.is_root:
            self._set_id(())
            if m.total == 0:
                # single node: nothing to announce or broadcast
                self._sent_s2 = self._sent4 = True
                self._finish(topology([((), ())]))

    def _set_id(self, node_id: tuple[int, ...]) -> None:
        """The machine's message is the identifier in wire form."""
        self.my_id = node_id
        self.m.message = id_to_wire(node_id)

    # -- stage boundaries (all computable once `total` is known; stage 2
    # starts when stage 1 ends) ---------------------------------------------

    def _window(self) -> int:
        if self.id_mode:
            if self.n_value is None:
                raise ProtocolViolation("id mode but graph size unknown")
            return self.n_value
        return self.m.delta * self.m.delta + 1

    def _stage3_start(self) -> int:
        return self.m.total + self._window()

    def _stage4_start(self) -> int:
        return self._stage3_start() + self.m.dstar * self.m.delta

    def _finish(self, topo: tuple[frozenset, tuple]) -> None:
        """Output from a finished `topology`, shared, not copied."""
        nodes, edges = topo
        if self.my_id not in nodes:
            raise ProtocolViolation("own identifier missing from reports")
        self.output = (edges, self.my_id)

    # -- pending transmission slots of stages 2-4 (None once sent or while
    # unknown) ----------------------------------------------------------------

    def _scheduled(self) -> bool:
        """Stages 2-4 are placed once the duration is known and, in id mode,
        the graph size too (the root has n in its label; the total
        broadcast carries both to the others)."""
        return self.m.total is not None and not (self.id_mode and self.n_value is None)

    def _announce_round(self) -> int | None:
        """Stage 2: announce own identifier in the slot given by color/id."""
        if self._sent_s2 or not self._scheduled():
            return None
        return self.m.total + (self.uid if self.id_mode else self.color)

    def _gather_round(self) -> int | None:
        """Stage 3: forward adjacency reports toward the root."""
        if self._sent_g or not self._scheduled():
            return None
        return self.m.gather_slot(self._stage3_start())

    def _final_round(self) -> int | None:
        """Stage 4: the root broadcasts the full report set; inner nodes
        forward it in their BroadcastBFS slot."""
        if self._sent4 or not self._scheduled():
            return None
        if self.m.is_root:
            return self._stage4_start() + 1
        if self._final is None:
            return None
        return self.m.slot(self._stage4_start())

    def action(self, rnd: int):
        act = self.m.action(rnd, self.n_value)
        if act is not None:
            return act
        if rnd == self._announce_round():
            self._sent_s2 = True
            return frame("T3", self.m.message)
        if rnd == self._gather_round():
            self._sent_g = True
            return frame("T4", self._all_reports())
        if rnd == self._final_round():
            self._sent4 = True
            if not self.m.is_root:
                return self._final
            reports = self._all_reports()
            self._finish(topology(decode_reports(reports)))
            if self.m.is_leaf:
                return None
            return frame("T5", reports)
        return None

    def next_wake(self, rnd: int) -> int | None:
        return earliest(
            self.m.next_wake(),
            self._announce_round(),
            self._gather_round(),
            self._final_round(),
        )

    def _all_reports(self) -> list[tuple[str, tuple[str, ...]]]:
        """The gathered reports plus this node's own, all in wire form; only
        the own report is encoded here."""
        nbrs = tuple(id_to_wire(x) for x in sorted(self.nbr_ids))
        return list({**self._reports, self.m.message: nbrs}.items())

    def receive(self, rnd: int, heard) -> bool:
        parts = heard.decode(parse_message)
        tag = parts[0]
        if tag == "T1":
            if not self.m.reached(rnd):
                return False
            self._set_id(parts[1] + (self.m.g,))
        elif tag == "T3":
            self.nbr_ids.add(parts[1])
            return False
        elif tag == "T4":
            for wid, nbrs in parts[1]:
                if wid not in self._reports:
                    self._reports[wid] = nbrs
            return False
        elif tag == "T5":
            if self._final is not None:
                return False
            self._final = heard.message
            if self.output is None:
                self._finish(parts[2])
        else:
            n_value = self.n_value
            if tag == "T2" and parts[2] is not None:
                self.n_value = parts[2]
            return self.m.on_message(rnd, parts) or self.n_value != n_value
        return True


def serialize_toprec_output(output) -> dict:
    """Wire form of a node's recognizer output:
    {edges: [[idA, idB], ...], self: id}."""
    edges, self_id = output
    return {
        "edges": [[list(a), list(b)] for a, b in edges],
        "self": list(self_id),
    }
