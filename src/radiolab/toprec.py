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

from .errors import InconsistentReports, MalformedCodeword, ProtocolViolation
from .graphs import Graph, LayerAssignment, bfs_layers
from .labels import (
    SchemeBundle,
    bits_to_int,
    decode_blocks,
    encode_blocks,
    int_to_bits,
)
from .sim import LISTEN, Heard, NodeProgram, Transmit, earliest, frame, unframe

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
    delta = g.max_degree()
    b: list[int | None] = [None] * n
    parent: list[int | None] = [None] * n
    by_layer: dict[int, list[int]] = {}
    for v in range(n):
        by_layer.setdefault(la.layer[v], []).append(v)
    for i in range(la.depth + 1):
        covered: set[int] = set()
        remaining = sorted(by_layer.get(i, []))
        j = 0
        while remaining:
            assert j <= delta, f"layer {i}: X sets exceeded Delta+1 (union lemma)"
            claimed: dict[int, int] = {}
            members = []
            for v in remaining:
                zv = [
                    w
                    for w in g.adj[v]
                    if la.layer[w] == i + 1 and w not in covered
                ]
                if all(w not in claimed for w in zv):
                    members.append(v)
                    for w in zv:
                        claimed[w] = v
            for v in members:
                b[v] = j
            for w, v in claimed.items():
                parent[w] = v
            covered |= set(claimed)
            remaining = [v for v in remaining if b[v] is None]
            j += 1
    assert all(x is not None for x in b)
    assert all(parent[v] is not None for v in range(n) if v != r)
    return b, parent, la  # type: ignore[return-value]


def assign_gather_indices(
    g: Graph, r: int, la: LayerAssignment, parent: list[int | None], b: list[int]
) -> list[int]:
    """Layer by layer, parents ordered by (b, index); each child in index
    order gets the smallest value not yet assigned to any neighbor of its
    parent at the child's layer."""
    n = g.n
    gv: list[int | None] = [None] * n
    gv[r] = 0
    children: dict[int, list[int]] = {}
    for v in range(n):
        if v != r:
            children.setdefault(parent[v], []).append(v)
    for i in range(1, la.depth + 1):
        layer_parents = sorted(
            {parent[v] for v in range(n) if la.layer[v] == i},
            key=lambda p: (b[p], p),
        )
        for p in layer_parents:
            for u in sorted(c for c in children.get(p, []) if la.layer[c] == i):
                used = {
                    gv[w]
                    for w in g.adj[p]
                    if la.layer[w] == i and gv[w] is not None
                }
                x = 0
                while x in used:
                    x += 1
                gv[u] = x
    assert all(x is not None for x in gv)
    return gv  # type: ignore[return-value]


def verify_gather_indices(
    g: Graph, r: int, la: LayerAssignment, parent: list[int | None], gv: list[int]
) -> None:
    """Lemma-8 style properties: range, sibling distinctness, and the
    cross-parent exclusion (equal index at equal layer with distinct parents
    implies no edge to the other's parent)."""
    delta = g.max_degree()
    for v in range(g.n):
        assert 0 <= gv[v] <= max(delta - 1, 0)
    groups: dict[tuple[int, int], list[int]] = {}
    for v in range(g.n):
        if v == r:
            continue
        groups.setdefault((la.layer[v], gv[v]), []).append(v)
    for (_, _), nodes in groups.items():
        for u in nodes:
            for v in nodes:
                if u == v:
                    continue
                if parent[u] == parent[v]:
                    raise AssertionError(
                        f"siblings {u},{v} share gather index under {parent[u]}"
                    )
                assert not g.has_edge(u, parent[v]), (
                    f"edge ({u},{parent[v]}) breaks gather exclusion"
                )


def distance_two_coloring(g: Graph) -> list[int]:
    """Greedy coloring in index order of the distance-<=2 conflict graph;
    colors lie in [1, Delta^2+1]."""
    n = g.n
    colors = [0] * n
    for v in range(n):
        near: set[int] = set()
        for w in g.adj[v]:
            near.add(colors[w])
            for x in g.adj[w]:
                if x != v:
                    near.add(colors[x])
        c = 1
        while c in near:
            c += 1
        colors[v] = c
    delta = g.max_degree()
    assert all(1 <= c <= delta * delta + 1 for c in colors)
    return colors


# ---------------------------------------------------------------------------
# Labels
# ---------------------------------------------------------------------------


def _bfs_label_blocks(
    g: Graph,
    r: int,
    la: LayerAssignment,
    parent: list[int | None],
    b: list[int],
    gv: list[int],
    payloads: list[str] | None = None,
) -> tuple[list[list[str]], list[int]]:
    n = g.n
    delta = g.max_degree()
    wb = max(delta.bit_length(), 1)
    wg = max((delta - 1).bit_length(), 1) if delta > 1 else 1
    wd = max(delta.bit_length(), 1)
    # ack path: one deepest root-to-leaf chain in the BFS tree
    deepest = min(v for v in range(n) if la.layer[v] == la.depth)
    path = [deepest]
    while path[-1] != r:
        path.append(parent[path[-1]])
    a_bit = [0] * n
    for v in path:
        a_bit[v] = 1
    leaf = [0] * n
    for v in range(n):
        if not any(la.layer[w] == la.layer[v] + 1 for w in g.adj[v]):
            leaf[v] = 1
    blocks = []
    for v in range(n):
        blocks.append(
            [
                "1" if v == r else "0",
                str(leaf[v]),
                str(a_bit[v]),
                int_to_bits(b[v], wb),
                int_to_bits(gv[v], wg),
                int_to_bits(delta, wd),
                payloads[v] if payloads else "",
            ]
        )
    return blocks, path


def build_bfs_labels(
    g: Graph, r: int, payloads: list[str] | None = None
) -> SchemeBundle:
    """Labels (root, leaf, ack-path, b, g, Delta) for the broadcast/gather
    primitives; optional per-node payload bits for gather runs."""
    b, parent, la = assign_broadcast_indices(g, r)
    gv = assign_gather_indices(g, r, la, parent, b)
    blocks, path = _bfs_label_blocks(g, r, la, parent, b, gv, payloads)
    return SchemeBundle(
        scheme="bfs",
        labels=[encode_blocks(bl) for bl in blocks],
        meta={
            "root": r,
            "layers": la,
            "parent": parent,
            "b": b,
            "g": gv,
            "path": path,
            "delta": g.max_degree(),
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
    labels = []
    for v in range(n):
        blocks = decode_blocks(base.labels[v])
        blocks.append(int_to_bits(colors[v], wc))
        blocks.append("1" if id_mode else "0")
        blocks.append(int_to_bits(v + 1, wu) if id_mode else "")
        blocks.append(int_to_bits(n) if (id_mode and v == r) else "")
        labels.append(encode_blocks(blocks))
    ids = _oracle_ids(g.n, base.meta["parent"], base.meta["g"], r)
    return SchemeBundle(
        scheme="toprec",
        labels=labels,
        meta={
            **base.meta,
            "colors": colors,
            "id_mode": id_mode,
            "ids": ids,
            "stage2_window": n if id_mode else delta * delta + 1,
        },
    )


def _oracle_ids(
    n: int, parent: list[int | None], gv: list[int], r: int
) -> list[tuple[int, ...]]:
    ids: list[tuple[int, ...] | None] = [None] * n
    ids[r] = ()

    def get(v: int) -> tuple[int, ...]:
        if ids[v] is None:
            ids[v] = get(parent[v]) + (gv[v],)
        return ids[v]

    return [get(v) for v in range(n)]


def toprec_round_formula(dstar: int, delta: int, window: int) -> int:
    """Deterministic closed form for the total TopRec schedule length."""
    return dstar * (4 * delta + 4) + window


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
    `((wire_id, (wire_nbr, ...)), ...)`, T5 the reports decoded; TA/T2 keep
    their ints. A pure function of the bytes, for `Heard.decode`."""
    parts = unframe(message)
    tag = parts[0]
    if tag in ("T1", "T3"):
        return tag, wire_to_id(parts[1])
    if tag == "T4":
        return tag, tuple((wid, tuple(nbrs)) for wid, nbrs in parts[1])
    if tag == "T5":
        return tag, tuple(
            (wire_to_id(wid), tuple(wire_to_id(x) for x in nbrs))
            for wid, nbrs in parts[1]
        )
    return tuple(parts)


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
            edges.add((min(a, bb), max(a, bb)))
    return nodes, edges


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------


BFS_BLOCKS = 7  # root, leaf, ack-path, b, g, Delta, payload
TOPREC_BLOCKS = BFS_BLOCKS + 4  # color, id mode, unique id, n at the root


def label_blocks(label: str, count: int) -> list[str]:
    """The blocks of a label that must have exactly `count` of them."""
    blocks = decode_blocks(label)
    if len(blocks) != count:
        raise MalformedCodeword(f"label has {len(blocks)} blocks, expected {count}")
    return blocks


class _BfsScheduleMixin:
    """Shared state: layer discovery from the first reception round and the
    acknowledged-broadcast bookkeeping (D*, total duration)."""

    def _init_schedule(self, blocks: list[str]) -> None:
        self.is_root = blocks[0] == "1"
        self.is_leaf = blocks[1] == "1"
        self.on_apath = blocks[2] == "1"
        self.b = bits_to_int(blocks[3])
        self.g = bits_to_int(blocks[4])
        self.delta = bits_to_int(blocks[5])
        self.payload = blocks[6]
        self.width = self.delta + 1
        self.layer = 0 if self.is_root else None
        self.dstar: int | None = None
        self.total: int | None = None
        if self.is_root and self.is_leaf and self.on_apath:
            # single node: the whole acknowledged broadcast is empty
            self.dstar = 0
            self.total = 0

    def _learn_layer(self, rnd: int) -> None:
        if self.layer is None:
            self.layer = (rnd - 1) // self.width + 1

    def _tx_round(self, start: int) -> int | None:
        """This node's slot in a BroadcastBFS window beginning after `start`."""
        if self.layer is None or self.is_leaf:
            return None
        return start + self.layer * self.width + self.b + 1

    def _learn_total(self, total: int) -> None:
        if self.total is None:
            self.total = total
            self.dstar = total // (2 * self.width + 1)


class BroadcastBFSProgram(_BfsScheduleMixin, NodeProgram):
    """Plain layered broadcast: node v transmits once, in round
    layer(v)*(Delta+1) + b_v + 1; completes within D*(Delta+1) rounds."""

    def __init__(self, label: str, message: str = "1"):
        NodeProgram.__init__(self, label)
        self._init_schedule(label_blocks(label, BFS_BLOCKS))
        self.message = message if self.is_root else None
        self._sent = False
        if self.is_root:
            self.output = message

    def action(self, rnd: int):
        if self.message is not None and not self._sent:
            slot = self._tx_round(0)
            if slot == rnd:
                self._sent = True
                return Transmit(frame("B1", self.message))
        return LISTEN

    def receive(self, rnd: int, obs) -> None:
        if isinstance(obs, Heard):
            parts = unframe(obs.message)
            if parts[0] == "B1" and self.message is None:
                self._learn_layer(rnd)
                self.message = parts[1]
                self.output = parts[1]

    @property
    def idle(self) -> bool:
        if self.output is None:
            return False
        return self.is_leaf or self._sent


def broadcast_bfs_program(message: str = "1"):
    def make(label: str) -> NodeProgram:
        return BroadcastBFSProgram(label, message)

    return make


class AckBrBFSProgram(_BfsScheduleMixin, NodeProgram):
    """Broadcast of (0, M); the marked deepest leaf answers with (1, D*)
    after round D*(Delta+1); ack-path nodes relay one round apart; the root
    re-broadcasts the total duration D* + 2D*(Delta+1). Output is
    (M, D*, total)."""

    def __init__(self, label: str, message: str = "1"):
        NodeProgram.__init__(self, label)
        self._init_schedule(label_blocks(label, BFS_BLOCKS))
        self.message = message if self.is_root else None
        self._sent1 = False
        self._sent2 = False
        self._ack_round: int | None = None
        self._relayed = False
        if self.is_root and self.total == 0:
            self.output = (message, 0, 0)

    def action(self, rnd: int):
        if self.message is not None and not self._sent1:
            if self._tx_round(0) == rnd:
                self._sent1 = True
                return Transmit(frame("BB", self.message))
        if self.on_apath and self.is_leaf and not self._relayed and self.layer is not None:
            if rnd == self.layer * self.width + 1:
                self._relayed = True
                self.dstar = self.layer
                return Transmit(frame("BA", self.layer))
        if self._ack_round == rnd:
            self._ack_round = None
            return Transmit(frame("BA", self.dstar))
        if self.total is not None and not self._sent2:
            start2 = self.total - self.width * self.dstar
            if self._tx_round(start2) == rnd:
                self._sent2 = True
                return Transmit(frame("B2", self.total))
        return LISTEN

    def receive(self, rnd: int, obs) -> None:
        if isinstance(obs, Heard):
            parts = unframe(obs.message)
            tag = parts[0]
            if tag == "BB" and self.message is None:
                self._learn_layer(rnd)
                self.message = parts[1]
            elif tag == "BA" and self.on_apath and not self._relayed:
                self._relayed = True
                self.dstar = parts[1]
                total = self.dstar + 2 * self.dstar * self.width
                if self.is_root:
                    self._learn_total(total)
                else:
                    self._ack_round = rnd + 1
            elif tag == "B2" and self.total is None:
                self._learn_total(parts[1])
        if self.output is None and self.total is not None and self.message is not None:
            self.output = (self.message, self.dstar, self.total)

    @property
    def idle(self) -> bool:
        if self.output is None:
            return False
        if self._ack_round is not None:
            return False
        return self.is_leaf or self._sent2


def ack_br_bfs_program(message: str = "1"):
    def make(label: str) -> NodeProgram:
        return AckBrBFSProgram(label, message)

    return make


class GatherBFSProgram(AckBrBFSProgram):
    """AckBrBFS, BroadcastBFS of D*, then D* gathering phases of Delta rounds
    (layer D*-i transmits in phase i, node v in round g_v+1 of its phase,
    forwarding everything heard). The root outputs the collected payloads,
    other nodes their own payload."""

    def __init__(self, label: str):
        super().__init__(label, "gather")
        self._sent3 = False
        self._sent_g = False
        self._reports: list[str] = [self.payload] if self.payload else []
        self._final: int | None = None
        if self.is_root and self.total == 0:
            self.output = sorted(self._reports)

    def action(self, rnd: int):
        act = super().action(rnd)
        if act is not LISTEN:
            return act
        if self.total is None:
            return LISTEN
        s3 = self.total  # BroadcastBFS of D* occupies (s3, s3 + width*D*]
        if self.is_root and not self._sent3 and rnd == s3 + 1 and not self.is_leaf:
            self._sent3 = True
            return Transmit(frame("B3", self.dstar))
        if not self.is_root and not self._sent3 and self._tx_round(s3) == rnd:
            self._sent3 = True
            return Transmit(frame("B3", self.dstar))
        g0 = s3 + self.width * self.dstar
        if not self.is_root and not self._sent_g and self.layer is not None:
            slot = g0 + (self.dstar - self.layer) * self.delta + self.g + 1
            if rnd == slot:
                self._sent_g = True
                return Transmit(frame("BG", self._reports))
        if self.is_root and self.output is None and rnd > g0 + self.dstar * self.delta:
            self.output = sorted(self._reports)
        return LISTEN

    def receive(self, rnd: int, obs) -> None:
        super().receive(rnd, obs)
        # suppress the AckBr tuple output: gather has its own outputs
        if self.output is not None and not isinstance(self.output, (list, str)):
            self.output = None if self.is_root else self.payload
        if isinstance(obs, Heard):
            parts = unframe(obs.message)
            if parts[0] == "BG":
                for item in parts[1]:
                    if item not in self._reports:
                        self._reports.append(item)

    @property
    def idle(self) -> bool:
        if self.is_root:
            return self.output is not None
        if self.output is None or self.total is None:
            return False
        done_b2 = self.is_leaf or self._sent2
        done_b3 = self.is_leaf or self._sent3
        return done_b2 and done_b3 and self._sent_g and self._ack_round is None


def gather_bfs_program():
    return GatherBFSProgram


class TopRecProgram(_BfsScheduleMixin, NodeProgram):
    """Four stages: identifier distribution over the acknowledged broadcast,
    per-color (or per-id) identifier announcement, adjacency-report
    gathering, and a final broadcast of the edge set. Output per node:
    (sorted edge list over identifiers, own identifier).

    Gathered reports stay in wire form (`_reports` maps a wire identifier to
    its neighbors' wire identifiers): inner nodes merge and forward them
    without decoding, and only the root decodes the full set."""

    def __init__(self, label: str):
        NodeProgram.__init__(self, label)
        blocks = label_blocks(label, TOPREC_BLOCKS)
        self._init_schedule(blocks)
        self.color = bits_to_int(blocks[7])
        self.id_mode = blocks[8] == "1"
        self.uid = bits_to_int(blocks[9]) if self.id_mode else None
        self.n_value = bits_to_int(blocks[10]) if blocks[10] else None
        self.my_id: tuple[int, ...] | None = () if self.is_root else None
        self._sent1 = False
        self._sent2 = False
        self._sent_s2 = False
        self._sent_g = False
        self._sent4 = False
        self._ack_round: int | None = None
        self._relayed = False
        self.nbr_ids: set[tuple[int, ...]] = set()
        self._reports: dict[str, tuple[str, ...]] = {}
        self._final: bytes | None = None  # the T5 message, as heard
        if self.is_root and self.total == 0:
            self._finish([((), ())])

    # -- stage boundaries (all computable once `total` is known) ------------

    def _window(self) -> int:
        if self.id_mode:
            if self.n_value is None:
                raise ProtocolViolation("id mode but graph size unknown")
            return self.n_value
        return self.delta * self.delta + 1

    def _stage2_start(self) -> int:
        return self.total

    def _stage3_start(self) -> int:
        return self.total + self._window()

    def _stage4_start(self) -> int:
        return self._stage3_start() + self.dstar * self.delta

    def _trigger(self) -> int:
        return self.uid if self.id_mode else self.color

    def _finish(self, reports) -> None:
        """Output from decoded `(id, (nbr_id, ...))` pairs."""
        table = {wid: set(nbrs) for wid, nbrs in reports}
        nodes, edges = reconstruct_topology(table)
        if self.my_id not in nodes:
            raise ProtocolViolation("own identifier missing from reports")
        self.output = (sorted(edges), self.my_id)

    # -- pending transmission slots (None once sent or while unknown) -------

    def _id_round(self) -> int | None:
        """Stage 1: broadcast of identifiers."""
        if self.my_id is None or self._sent1:
            return None
        return self._tx_round(0)

    def _leaf_ack_round(self) -> int | None:
        """Stage 1: the deepest ack-path leaf starts the TA relay."""
        if self.on_apath and self.is_leaf and not self._relayed and self.layer is not None:
            return self.layer * self.width + 1
        return None

    def _total_round(self) -> int | None:
        """Stage 1: re-broadcast of the total duration (and n in id mode)."""
        if self.total is None or self._sent2:
            return None
        return self._tx_round(self.total - self.width * self.dstar)

    def _scheduled(self) -> bool:
        """Stages 2-4 are placed once the duration is known and, in id mode,
        the graph size too: ack-path nodes can know the duration before the
        second broadcast delivers n."""
        return self.total is not None and not (self.id_mode and self.n_value is None)

    def _announce_round(self) -> int | None:
        """Stage 2: announce own identifier in the slot given by color/id."""
        if self._sent_s2 or not self._scheduled():
            return None
        return self._stage2_start() + self._trigger()

    def _gather_round(self) -> int | None:
        """Stage 3: forward adjacency reports toward the root."""
        if self.is_root or self._sent_g or self.layer is None or not self._scheduled():
            return None
        return self._stage3_start() + (self.dstar - self.layer) * self.delta + self.g + 1

    def _final_round(self) -> int | None:
        """Stage 4: the root broadcasts the full report set; inner nodes
        forward it in their BroadcastBFS slot."""
        if self._sent4 or not self._scheduled():
            return None
        if self.is_root:
            return self._stage4_start() + 1
        if self._final is None:
            return None
        return self._tx_round(self._stage4_start())

    def action(self, rnd: int):
        if rnd == self._id_round():
            self._sent1 = True
            return Transmit(frame("T1", id_to_wire(self.my_id)))
        if rnd == self._leaf_ack_round():
            self._relayed = True
            self.dstar = self.layer
            return Transmit(frame("TA", self.layer))
        if self._ack_round == rnd:
            self._ack_round = None
            return Transmit(frame("TA", self.dstar))
        if rnd == self._total_round():
            self._sent2 = True
            return Transmit(frame("T2", self.total, self.n_value))
        if rnd == self._announce_round():
            self._sent_s2 = True
            return Transmit(frame("T3", id_to_wire(self.my_id)))
        if rnd == self._gather_round():
            self._sent_g = True
            return Transmit(frame("T4", self._all_reports()))
        if rnd == self._final_round():
            self._sent4 = True
            if not self.is_root:
                return Transmit(self._final)
            reports = self._all_reports()
            self._finish(
                (wire_to_id(wid), tuple(wire_to_id(x) for x in nbrs))
                for wid, nbrs in reports
            )
            if self.is_leaf:
                return LISTEN
            return Transmit(frame("T5", reports))
        return LISTEN

    def next_wake(self, rnd: int) -> int | None:
        return earliest(
            self._id_round(),
            self._leaf_ack_round(),
            self._ack_round,
            self._total_round(),
            self._announce_round(),
            self._gather_round(),
            self._final_round(),
        )

    def _all_reports(self) -> list[tuple[str, tuple[str, ...]]]:
        """The gathered reports plus this node's own, all in wire form; only
        the own report is encoded here."""
        nbrs = tuple(id_to_wire(x) for x in sorted(self.nbr_ids))
        return list({**self._reports, id_to_wire(self.my_id): nbrs}.items())

    def receive(self, rnd: int, obs) -> None:
        if not isinstance(obs, Heard):
            return
        parts = obs.decode(parse_message)
        tag = parts[0]
        if tag == "T1":
            if self.my_id is None:
                self._learn_layer(rnd)
                self.my_id = parts[1] + (self.g,)
        elif tag == "TA":
            if self.on_apath and not self._relayed:
                self._relayed = True
                self.dstar = parts[1]
                total = self.dstar + 2 * self.dstar * self.width
                if self.is_root:
                    self._learn_total(total)
                else:
                    self._ack_round = rnd + 1
        elif tag == "T2":
            if self.total is None:
                self._learn_total(parts[1])
                if parts[2] is not None:
                    self.n_value = parts[2]
        elif tag == "T3":
            self.nbr_ids.add(parts[1])
        elif tag == "T4":
            for wid, nbrs in parts[1]:
                if wid not in self._reports:
                    self._reports[wid] = nbrs
        elif tag == "T5":
            if self._final is None:
                self._final = obs.message
                if self.output is None:
                    self._finish(parts[1])

    @property
    def idle(self) -> bool:
        if self.output is None:
            return False
        if self.is_root:
            return self._sent4 or self.is_leaf or self.total == 0
        done = self._sent1 or self.is_leaf
        done = done and (self._sent2 or self.is_leaf)
        done = done and self._sent_s2 and self._sent_g
        done = done and (self._sent4 or self.is_leaf)
        return done and self._ack_round is None


def toprec_program():
    return TopRecProgram


def serialize_toprec_output(output) -> dict:
    """Wire form of a node's recognizer output:
    {edges: [[idA, idB], ...], self: id}."""
    edges, self_id = output
    return {
        "edges": [[list(a), list(b)] for a, b in edges],
        "self": list(self_id),
    }
