"""Size-discovery schemes: compact labels with subtree bit packing, the
general selector, and the stripe-based fast scheme.

All three make every node output n. The subtree packing stores the binary
representation of n in at most 3 bits per node of a low-degree subtree of the
broadcast tree; the stripe scheme splits the BFS layering into stripes of
lg n = ceil(log2(n+1)) consecutive layers separated by equally thick gaps, so
per-stripe phases cannot interfere.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable, Sequence

from .broadcast import (
    AckProgram,
    ExecCore,
    PathMessageProgram,
    ack_blocks,
    join_stay_blocks,
    synthesize_core,
    synthesize_path_message,
)
from .errors import (
    BarrierExceeded,
    ConflictingPaths,
    MessageTooLong,
    ProtocolViolation,
    TooShallow,
    WitnessNotFound,
)
from .graphs import Graph, LayerAssignment, bfs_layers
from .labels import (
    Layout,
    SchemeBundle,
    bit_table,
    bits_to_int,
    int_to_bits,
    split_mode,
)
from .sim import Bits, NodeProgram, message_kind, next_duty, parse

# Documented constant for the encoded compact-label length bound
# max_bits <= COMPACT_LENGTH_C * (ceil(log2 log2 (Delta+2)) + 1).
COMPACT_LENGTH_C = 24


# ---------------------------------------------------------------------------
# Subtree bit packing
# ---------------------------------------------------------------------------


@dataclass
class SubtreeAssignment:
    root: int
    bits: dict[int, str]  # node -> its own substring (<= 3 bits, root <= 2)
    child_num: dict[int, int]  # node -> k_v (children of a node: 1..c)
    children: dict[int, list[int]]  # node -> chosen children in k order


def assign_subtree_bits(parent: dict[int, int], root: int, message: str) -> SubtreeAssignment:
    """Recursive block splitting over the tree given by `parent` (each
    non-root node's parent): children ordered by subtree size (ties by
    index), the top floor(log Delta)+1 recursed with slices of width
    ceil(log(n_child+1))+1 plus one extra bit kept at the child, the last
    <= 2 bits kept at the node. The post-order concatenation over the chosen
    subtree equals `message` exactly."""
    n = len(parent) + 1
    if len(message) > n.bit_length() + 1:
        raise MessageTooLong(
            f"|M|={len(message)} exceeds ceil(log2(n+1))+1={n.bit_length() + 1}"
        )
    kids: list[list[int]] = [[] for _ in range(n)]
    for v in sorted(parent):
        kids[parent[v]].append(v)
    # the tree's Delta: a node's children plus, below the root, its parent
    counts = list(map(len, kids))
    counts[root] -= 1  # so every count is one short of the node's degree
    delta = max(counts) + 1
    fanout = max(delta.bit_length(), 1)  # floor(log Delta)+1 for Delta >= 1
    order = [root]  # parents before children
    for v in order:
        order += kids[v]
    size = [1] * n
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]

    # Top-down with an explicit stack (the tree can be deeper than the
    # recursion limit); each entry carries the extra bit its parent keeps at it.
    out = SubtreeAssignment(root=root, bits={}, child_num={root: 0}, children={})
    stack = [(root, message, "")]
    while stack:
        v, piece, kept = stack.pop()
        chosen = kids[v]  # fewer than two children need no sort
        if len(chosen) > 1:
            chosen = sorted(chosen, key=lambda c: (-size[c], c))[:fanout]
        pos = 0
        used: list[int] = []
        for c in chosen:
            if pos >= len(piece):
                break
            cap = size[c].bit_length() + 1
            inner = piece[pos : pos + cap]
            pos += len(inner)
            extra = piece[pos : pos + 1]
            pos += len(extra)
            stack.append((c, inner, extra))
            used.append(c)
        own = piece[pos:]
        if len(own) > 2:
            raise MessageTooLong(f"node {v} is left with {len(own)} bits, at most 2 fit")
        out.bits[v] = own + kept
        out.children[v] = used
        for i, c in enumerate(used, start=1):
            out.child_num[c] = i
    return out


# ---------------------------------------------------------------------------
# Compact labels + AuxiliarySD
# ---------------------------------------------------------------------------


def _size_of(bits) -> int:
    """n from the bit string of a heard or assembled size message; anything
    else raises ProtocolViolation."""
    try:
        return int(bits, 2)
    except (TypeError, ValueError):
        raise ProtocolViolation(f"bad size message {bits!r}") from None


def build_compact_labels(g: Graph, modes: Sequence[Iterable[str]] = ()) -> SchemeBundle:
    """Root = max-degree node (lowest index tie-break). The compact
    blocks, behind the caller's mode columns `modes`: the Delta fields a
    and b (the root's round count, or a chosen neighbour's index and its
    bit of binary(Delta)), the `ack_blocks` columns, whose source flag
    marks the root, and the subtree packing of binary(n) (child index k,
    own bits msg)."""
    n = g.n
    root = min(range(n), key=lambda v: (-g.degree(v), v))
    delta = g.max_degree()
    k_rounds = delta.bit_length()  # floor(log Delta)+1 rounds, 0 for n = 1
    width = max(k_rounds.bit_length(), 1)  # of the a and k fields

    syn = synthesize_core(g, {root})
    ack, path = ack_blocks(syn, root)

    # Delta block: root holds the bit count; k chosen neighbors hold one bit
    # of binary(Delta) each
    a_field = ["0" * width] * n
    b_field = ["0"] * n
    a_field[root] = int_to_bits(k_rounds, width)
    delta_bits = int_to_bits(delta) if delta else ""
    chosen = list(g.adj[root])[:k_rounds]
    for i, v in enumerate(chosen, start=1):
        a_field[v] = int_to_bits(i, width)
        b_field[v] = delta_bits[i - 1]

    message = int_to_bits(n)
    asg = assign_subtree_bits(syn.tree.parent, root, message)

    labels = AuxiliarySDProgram.layout.encode(
        *modes,
        a=a_field,
        b=b_field,
        **ack,
        k=map(bit_table(max(asg.child_num.values()), width).__getitem__,
              map(asg.child_num.get, range(n), repeat(0))),
        msg=map(asg.bits.get, range(n), repeat("")),
    )
    return SchemeBundle(
        scheme="compact",
        labels=labels,
        meta={
            "synthesis": syn,
            "root": root,
            "t": syn.t,
            "subtree": asg,
            "message": message,
            "delta": delta,
            "path": path,
        },
    )


class AuxiliarySDProgram(AckProgram, tag="A"):
    """Delta-learning, acknowledged broadcast of Delta, size-learning along
    the packed subtree, then a final broadcast of the assembled size."""

    layout = Layout("compact", a=None, b=1, js=2, flags=2, path=2, k=None, msg=None)
    delta_bit = message_kind(tag=str, kind="d", bit=Bits)
    subtree = message_kind(tag=str, kind="s", k=int, level=int, payload=Bits)

    def __init__(self, label: str):
        blocks = self.layout.parse(label)
        self.k = bits_to_int(blocks["k"])
        super().__init__(label, blocks, self.k >= 1)
        self.a = bits_to_int(blocks["a"])
        self.b = blocks["b"]
        self.msgbits = blocks["msg"]
        self._delta_bits: dict[int, str] = {}
        self._payloads: dict[int, str] = {}
        # Delta-learning: chosen neighbor i transmits (0, b_i) in round i,
        # and the source starts in the round after the last of them
        self._own_at = self.a + 1 if self.is_source else self.a or None

    def _phase(self) -> tuple[int, int]:
        """Size-learning phases are K = floor(log Delta)+1 rounds long, Delta
        being the payload of the first Executor run, and a non-root sends in
        slot self.k. A Delta that is not an int raises ProtocolViolation."""
        delta = self.core1.message
        if type(delta) is not int:
            raise ProtocolViolation(f"Delta {delta!r} of the first Executor run is not an int")
        return delta.bit_length(), self.k

    def _slot_message(self) -> bytes:
        return self.subtree.frame("S", self.k, self.core1.level, self._assemble())

    def _assemble(self) -> str:
        return "".join(self._payloads[k] for k in sorted(self._payloads)) + self.msgbits

    def _result(self, message: str) -> int:
        return _size_of(message)

    def action(self, rnd: int):
        if rnd == self._own_at:
            self._own_at = None
            if not self.is_source:
                return self.delta_bit.frame("D", self.b)
            if not self.core1.informed:
                bits = "".join(self._delta_bits.get(i, "0") for i in range(1, self.a + 1))
                self._start(rnd, bits_to_int(bits))
        return super().action(rnd)

    def _receive_own(self, rnd: int, parts) -> bool:
        kind = parts.kind
        if kind == "d":
            if self.is_source:
                self._delta_bits[rnd] = parts.bit
        elif kind == "s":
            # accept only payloads from nodes this node itself informed:
            # the sender's level must be one of our own transmit rounds
            k_w, lvl_w, payload = parts.k, parts.level, parts.payload
            if lvl_w in self.core1.tx_rounds:
                if k_w in self._payloads:
                    raise ProtocolViolation(
                        f"duplicate subtree index {k_w} from level {lvl_w}"
                    )
                self._payloads[k_w] = payload
        return False


# ---------------------------------------------------------------------------
# GeneralSD: selector between the compact scheme and the path-message scheme
# ---------------------------------------------------------------------------


def build_general_sd(g: Graph, modes: Sequence[Iterable[str]] = ()) -> SchemeBundle:
    """Mode bit per label, behind the caller's mode columns `modes`: the
    compact scheme when the measured acknowledged broadcast is fast enough
    (t_G < log2 n), the message-on-path scheme with M = binary(n)
    otherwise. The branch's labels and meta, plus `branch` and `t_G`."""
    n = g.n
    syn = synthesize_core(g, {0})
    t_g = 3 * syn.t
    use_compact = n > 1 and t_g < math.log2(n)
    modes = (*modes, repeat("1" if use_compact else "0", n))
    if use_compact:
        branch = build_compact_labels(g, modes)
    else:
        branch = synthesize_path_message(g, 0, int_to_bits(n), syn, modes)
    return SchemeBundle(
        scheme="general",
        labels=branch.labels,
        meta={**branch.meta, "branch": "compact" if use_compact else "pathmsg", "t_G": t_g},
    )


class SizeOnPathProgram(PathMessageProgram):
    """general's message-on-a-path branch: the message is binary(n)."""

    def _result(self, message: str) -> int:
        return _size_of(message)


def general_sd_program(label: str) -> NodeProgram:
    """The program the label's mode bit selects, on the label behind it."""
    mode, rest = split_mode(label)
    return AuxiliarySDProgram(rest) if mode == "1" else SizeOnPathProgram(rest)


# ---------------------------------------------------------------------------
# Stripes, BFS-covers, conflict-free paths
# ---------------------------------------------------------------------------


@dataclass
class StripeDecomposition:
    graph: Graph
    layers: LayerAssignment
    lgn: int
    supergreen: list[bool]
    stripe_of: list[int | None]
    stripes: range  # indices of the materialized stripes


def stripe_decomposition(g: Graph, s: int) -> StripeDecomposition:
    """Layer i is green iff floor(i / lg n) is even; the last layer of each
    stripe is super-green. Stripes whose super-green layer exceeds the depth
    are not materialized (their nodes are covered by the global stage)."""
    n = g.n
    lgn = n.bit_length()
    la = bfs_layers(g, s)
    if la.depth < lgn:
        raise TooShallow(f"depth {la.depth} < lg n = {lgn}")
    supergreen = [False] * n
    stripe_of: list[int | None] = [None] * n
    # a stripe is materialized only if its super-green layer exists
    stripes = range(0, (la.depth + 1) // lgn, 2)
    for v in range(n):
        i = la.layer[v]
        block = i // lgn
        if block in stripes:
            stripe_of[v] = block
            if i == (block + 1) * lgn - 1:
                supergreen[v] = True
    return StripeDecomposition(
        graph=g,
        layers=la,
        lgn=lgn,
        supergreen=supergreen,
        stripe_of=stripe_of,
        stripes=stripes,
    )


def _forward_reach(sd: StripeDecomposition, j: int, starts: set[int]) -> set[int]:
    """Closure along BFS-paths (each edge one layer deeper) inside stripe j."""
    g, la, lgn = sd.graph, sd.layers, sd.lgn
    first, last = j * lgn, (j + 1) * lgn - 1
    reach = set(starts)
    cur = set(starts)
    for layer in range(first, last):
        nxt = {
            w
            for v in cur
            for w in g.adj[v]
            if la.layer[w] == layer + 1
        }
        reach |= nxt
        cur = nxt
    return reach


def minimal_bfs_cover(sd: StripeDecomposition, j: int) -> dict[int, set[int]]:
    """Subset of the stripe's first layer from which every super-green node
    of the stripe is BFS-reachable; minimal under inclusion (greedy removal,
    descending index). When the greedy reaches v, every first-layer node
    below v is still in the cover, so v stays iff some super-green node
    whose lowest first-layer BFS-ancestor is v is not reached from above.
    Returns each member's forward reach, members in ascending order."""
    g, layer, lgn = sd.graph, sd.layers.layer, sd.lgn
    by_layer = sd.layers.by_layer
    first = j * lgn
    low = {v: v for v in by_layer[first]}
    for i in range(first + 1, first + lgn):
        for w in by_layer[i]:
            low[w] = min(low[u] for u in g.adj[w] if layer[u] == i - 1)
    needs: dict[int, list[int]] = {}
    for y in by_layer[first + lgn - 1]:  # the stripe's super-green nodes
        needs.setdefault(low[y], []).append(y)
    kept: list[tuple[int, set[int]]] = []
    covered: set[int] = set()
    for v in sorted(needs, reverse=True):
        if not covered.issuperset(needs[v]):
            reach = _forward_reach(sd, j, {v})
            kept.append((v, reach))
            covered |= reach
    return dict(kept[::-1])


def conflict_free_paths(
    sd: StripeDecomposition, j: int, reach: dict[int, set[int]]
) -> list[list[int]]:
    """One BFS-path per cover node to a witness super-green node reachable
    from no other cover member (the smallest one a single reach holds);
    verified conflict-free by exhaustive edge scan (no edge joins different
    layers of two distinct paths). `reach` maps each cover node, in
    ascending order, to its forward reach, as `minimal_bfs_cover` returns."""
    g, la, lgn = sd.graph, sd.layers, sd.lgn
    sg = set(la.by_layer[(j + 1) * lgn - 1])  # the stripe's super-green nodes
    held = {u: r & sg for u, r in reach.items()}
    holders = Counter(chain.from_iterable(held.values()))
    paths: list[list[int]] = []
    for u in reach:
        y = min((w for w in held[u] if holders[w] == 1), default=None)
        if y is None:
            raise WitnessNotFound(
                f"cover node {u} of stripe {j} has no private witness"
            )
        path = [y]
        while la.layer[path[-1]] > j * lgn:
            lvl = la.layer[path[-1]]
            prev = min(
                w
                for w in g.adj[path[-1]]
                if la.layer[w] == lvl - 1 and w in reach[u]
            )
            path.append(prev)
        path.reverse()
        paths.append(path)
    # exhaustive conflict scan over every edge at a path node
    on_path = {v: idx for idx, p in enumerate(paths) for v in p}
    for a, pa in on_path.items():
        for b in g.adj[a]:
            pb = on_path.get(b)
            if pb is not None and pb != pa and la.layer[a] != la.layer[b]:
                raise ConflictingPaths(
                    f"conflicting edge ({a},{b}) between paths {pa} and {pb}"
                )
    return paths


# ---------------------------------------------------------------------------
# FastSD
# ---------------------------------------------------------------------------


def fast_sd_barrier(n: int) -> int:
    """Round at which super-green nodes start the global broadcast: Phase 1
    takes lg n rounds and the stage machinery is bounded by 3n rounds, both
    fully determined by n."""
    return n.bit_length() + 3 * n + 1


def build_fast_sd(g: Graph) -> SchemeBundle:
    n = g.n
    try:
        sd = stripe_decomposition(g, 0)
    except TooShallow:
        general = build_general_sd(g, (repeat("0", n),))
        return SchemeBundle(
            scheme="fastsd",
            labels=general.labels,
            meta={**general.meta, "mode": "fallback"},
        )

    lgn = sd.lgn
    message = int_to_bits(n)
    m_bit = ["0"] * n
    on_paths = ["0"] * n
    cover_flag = ["0"] * n
    reach_flag = ["0"] * n
    stripe_meta = {}
    bjs = ["00"] * n
    for j in sd.stripes:
        reach = minimal_bfs_cover(sd, j)
        cover = list(reach)
        paths = conflict_free_paths(sd, j, reach)
        # a set's frontier in each layer is the union of its members'
        xbfs = set().union(*reach.values())
        for u in cover:
            cover_flag[u] = "1"
        for p in paths:
            for i, v in enumerate(p, start=1):
                on_paths[v] = "1"
                m_bit[v] = message[i - 1]
        for v in xbfs:
            reach_flag[v] = "1"
        # broadcast labels inside the reachable set, sources = the cover; the
        # renumbering keeps the order, so the cut rows stay sorted
        sub_nodes = sorted(xbfs)
        sub_index = {v: i for i, v in enumerate(sub_nodes)}
        sub = Graph(len(sub_nodes), [
            list(map(sub_index.__getitem__, filter(sub_index.__contains__, g.adj[a])))
            for a in sub_nodes
        ])
        syn = synthesize_core(sub, set(map(sub_index.__getitem__, cover)))
        if lgn + syn.t >= fast_sd_barrier(n):
            raise BarrierExceeded(
                f"stripe {j}: phase 2 ends in round {lgn + syn.t}, "
                f"not before the barrier {fast_sd_barrier(n)}"
            )
        for v, js in zip(sub_nodes, join_stay_blocks(syn)):
            bjs[v] = js
        stripe_meta[j] = {
            "cover": cover,
            "paths": paths,
            "xbfs": sorted(xbfs),
            "phase2_t": syn.t,
        }

    sources = {v for v in range(n) if sd.supergreen[v]}
    s2 = synthesize_core(g, sources)
    labels = FastSDProgram.layout.encode(
        repeat("1", n),  # the mode bit
        flags=map("".join, zip(reach_flag, map("01".__getitem__, sd.supergreen), cover_flag,
                               on_paths, map("01".__getitem__, s2.dom1))),
        m_v=m_bit,
        phase2_js=bjs,
        stage2_js=join_stay_blocks(s2),
    )
    return SchemeBundle(
        scheme="fastsd",
        labels=labels,
        meta={
            "mode": "stripes",
            "decomposition": sd,
            "stripes": stripe_meta,
            "stage2": s2,
            "message": message,
            "barrier": fast_sd_barrier(n),
        },
    )


class FastSDProgram(NodeProgram):
    """Stage 1 phase 1: relay the size bits down each conflict-free path;
    phase 2: broadcast inside each stripe's reachable set from the cover;
    stage 2: global broadcast from all super-green nodes at the barrier
    round determined by n. Reads its `layout` behind the mode bit, which
    `fast_sd_program` has checked: flags (reach, super-green, cover,
    on-path, stage-2 DOM_1), the bit m_v of binary(n), and the join/stay
    blocks of phase 2 (sources: the cover) and stage 2."""

    layout = Layout("stripes", flags=5, m_v=1, phase2_js=2, stage2_js=2)
    path_bits = message_kind(tag=str, kind="p", bits=Bits)

    def __init__(self, label: str):
        super().__init__(label)
        blocks = self.layout.parse(label)
        flags = blocks["flags"]
        self.reach = flags[0] == "1"
        self.supergreen = flags[1] == "1"
        self.cover = flags[2] == "1"
        self.on_path = flags[3] == "1"
        self.s2_dom1 = flags[4] == "1"
        self.m_v = blocks["m_v"]
        self.bcore = ExecCore("F2", blocks["phase2_js"])
        self.s2core = ExecCore("F3", blocks["stage2_js"])
        self._relay_round: int | None = None
        self._relay_payload = ""
        self._relayed = False
        self.n_value: int | None = None

    def _learn(self, bits: str) -> bool:
        """Learn n from `bits` unless it is known; True iff it was not."""
        if self.n_value is not None:
            return False
        self.n_value = _size_of(bits)
        self.output = self.n_value
        if self.cover and self.bcore.offset is None:
            # Every cover node is in phase 2's DOM_1. The second node of its
            # path, the first step toward its private witness, has it as its
            # only cover neighbour: the witness is reached from that node,
            # so another cover neighbour would reach it too.
            self.bcore.start_source(len(bits) + 1, bits, True)
        if self.supergreen:
            self.s2core.start_source(fast_sd_barrier(self.n_value), bits, self.s2_dom1)
        return True

    def action(self, rnd: int):
        if self.supergreen and self.on_path and rnd == 1:
            self._relayed = True
            return self.path_bits.frame("F1", self.m_v)
        if self._relay_round == rnd:
            self._relay_round = None
            self._relayed = True
            return self.path_bits.frame("F1", self.m_v + self._relay_payload)
        return self.bcore.action(rnd) or self.s2core.action(rnd)

    def next_wake(self, rnd: int) -> int | None:
        return next_duty(rnd, self._relay_round, self.bcore.wake, self.s2core.wake)

    def receive(self, rnd: int, heard) -> bool:
        parts = heard.decode(parse)
        tag = parts.tag
        changed = False
        if parts.kind == "p":
            if self.on_path and not self._relayed and self._relay_round is None:
                self._relay_payload = parts.bits
                self._relay_round = rnd + 1
                changed = True
            if self.cover:
                changed |= self._learn(self.m_v + parts.bits)
        elif tag == "F2":
            if self.reach:
                changed = self.bcore.on_message(rnd, parts)
                if self.bcore.informed:
                    changed |= self._learn(self.bcore.message)
        elif tag == "F3":
            changed = self.s2core.on_message(rnd, parts)
            if self.s2core.informed:
                changed |= self._learn(self.s2core.message)
        return changed


def fast_sd_program(label: str) -> NodeProgram:
    """The stripe program (mode bit 1) or general's fallback (mode bit 0)."""
    mode, rest = split_mode(label)
    return FastSDProgram(rest) if mode == "1" else general_sd_program(rest)
