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
from dataclasses import dataclass, field
from itertools import repeat

from .broadcast import (
    AckMachine,
    ExecCore,
    PathMessageProgram,
    ack_blocks,
    core_blocks,
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
    SchemeBundle,
    add_mode,
    bit_table,
    bits_to_int,
    encode_labels,
    fixed_block,
    int_to_bits,
    label_blocks,
    split_mode,
)
from .sim import NodeProgram, earliest, frame, parse

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


def _rooted_children(tree: Graph, root: int) -> tuple[dict[int, list[int]], dict[int, int]]:
    la = bfs_layers(tree, root)
    kids: dict[int, list[int]] = {v: [] for v in range(tree.n)}
    for v in range(tree.n):
        if v == root:
            continue
        parent = min(w for w in tree.adj[v] if la.layer[w] == la.layer[v] - 1)
        kids[parent].append(v)
    size = [1] * tree.n
    for v in sorted(range(tree.n), key=lambda x: -la.layer[x]):
        for c in kids[v]:
            size[v] += size[c]
    return kids, {v: size[v] for v in range(tree.n)}


def assign_subtree_bits(tree: Graph, root: int, message: str) -> SubtreeAssignment:
    """Recursive block splitting: children ordered by subtree size (ties by
    index), the top floor(log Delta)+1 recursed with slices of width
    ceil(log(n_child+1))+1 plus one extra bit kept at the child, the last
    <= 2 bits kept at the node. The post-order concatenation over the chosen
    subtree equals `message` exactly."""
    n = tree.n
    if len(message) > n.bit_length() + 1:
        raise MessageTooLong(
            f"|M|={len(message)} exceeds ceil(log2(n+1))+1={n.bit_length() + 1}"
        )
    delta = tree.max_degree()
    fanout = max(delta.bit_length(), 1)  # floor(log Delta)+1 for Delta >= 1
    kids, size = _rooted_children(tree, root)

    # Top-down with an explicit stack (the tree can be deeper than the
    # recursion limit); each entry carries the extra bit its parent keeps at it.
    out = SubtreeAssignment(root=root, bits={}, child_num={root: 0}, children={})
    stack = [(root, message, "")]
    while stack:
        v, piece, kept = stack.pop()
        chosen = sorted(kids[v], key=lambda c: (-size[c], c))[:fanout]
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


def build_compact_labels(g: Graph) -> SchemeBundle:
    """Root = max-degree node (lowest index tie-break); labels carry the root
    bit, a Delta-block, the acknowledged-broadcast block, and the message
    block (INDEX, MESSAGE) of the subtree packing of binary(n)."""
    n = g.n
    root = min(range(n), key=lambda v: (-g.degree(v), v))
    delta = g.max_degree()
    k_rounds = delta.bit_length()  # floor(log Delta)+1 rounds, 0 for n = 1
    width_a = max(k_rounds.bit_length(), 1)

    syn = synthesize_core(g, {root})
    ack, path = ack_blocks(syn, root)

    # Delta block: root holds the bit count; k chosen neighbors hold one bit
    # of binary(Delta) each
    a_field = ["0" * width_a] * n
    b_field = ["0"] * n
    a_field[root] = int_to_bits(k_rounds, width_a)
    delta_bits = int_to_bits(delta) if delta else ""
    chosen = list(g.adj[root])[:k_rounds]
    for i, v in enumerate(chosen, start=1):
        a_field[v] = int_to_bits(i, width_a)
        b_field[v] = delta_bits[i - 1]

    rows: list[list[int]] = [[] for _ in range(n)]
    for u, p in syn.tree.parent.items():
        rows[u].append(p)
        rows[p].append(u)
    message = int_to_bits(n)
    asg = assign_subtree_bits(Graph(n, map(sorted, rows)), root, message)
    width_k = max(k_rounds.bit_length(), 1)
    root_bit = ["0"] * root + ["1"] + ["0"] * (n - root - 1)

    labels = encode_labels(zip(
        root_bit,
        a_field,
        b_field,
        *ack,
        map(bit_table(max(asg.child_num.values()), width_k).__getitem__,
            map(asg.child_num.get, range(n), repeat(0))),
        map(asg.bits.get, range(n), repeat("")),
    ))
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


class AuxiliarySDProgram(NodeProgram):
    """Delta-learning, acknowledged broadcast of Delta, size-learning along
    the packed subtree, then a final broadcast of the assembled size."""

    def __init__(self, label: str):
        super().__init__(label)
        (rootbit, a, b, js, flags, pathbits, kbits, msg) = label_blocks(label, 8)
        self.is_root = rootbit == "1"
        self.a = bits_to_int(a)
        self.b = b
        self.k = bits_to_int(kbits)
        self.msgbits = msg
        self.ack = AckMachine("A", js, flags, pathbits, self.is_root or self.k >= 1)
        self._delta_bits: dict[int, str] = {}
        self._payloads: dict[int, str] = {}
        self._sent_sl = False

    def _phase_round(self) -> int | None:
        """Round of this node's pending size-learning duty, once scheduled:
        a non-root transmits in slot self.k of its phase (phases are
        K = floor(log Delta)+1 rounds long); the root assembles n after the
        last phase. Delta is the payload of the first Executor run."""
        delta = self.ack.core1.message
        if delta is None:
            return None
        if self.is_root:
            if self.output is not None:
                return None
        elif self.k < 1 or self._sent_sl:
            return None
        return self.ack.collect_round(delta.bit_length(), self.k)

    def action(self, rnd: int):
        # Delta-learning: chosen neighbor i transmits (0, b_i) in round i
        if not self.is_root and self.a >= 1 and rnd == self.a:
            return frame("D", "d", self.b)
        if self.is_root and not self.ack.core1.informed and rnd == self.a + 1:
            bits = "".join(self._delta_bits.get(i, "0") for i in range(1, self.a + 1))
            self.ack.start_source(rnd, bits_to_int(bits))
        p = self.ack.action(rnd)
        if not p and rnd == self._phase_round():
            if not self.is_root:
                self._sent_sl = True
                return frame("S", "s", self.k, self.ack.core1.level, self._assemble())
            m = self._assemble()
            self.output = _size_of(m)
            p = self.ack.finish(rnd, m)
        return p

    def next_wake(self, rnd: int) -> int | None:
        if self.is_root:
            start = None if self.ack.core1.informed else self.a + 1
        else:
            start = self.a if rnd < self.a else None
        return earliest(self.ack.next_wake(rnd), start, self._phase_round())

    def _assemble(self) -> str:
        return "".join(self._payloads[k] for k in sorted(self._payloads)) + self.msgbits

    def receive(self, rnd: int, heard) -> bool:
        parts = heard.decode(parse)
        tag = parts[0]
        if tag == "D":
            if self.is_root:
                self._delta_bits[rnd] = parts[2]
            return False
        if tag == "S":
            # accept only payloads from nodes this node itself informed:
            # the sender's level must be one of our own transmit rounds
            k_w, lvl_w, payload = parts[2], parts[3], parts[4]
            if lvl_w in self.ack.core1.tx_rounds:
                if k_w in self._payloads:
                    raise ProtocolViolation(
                        f"duplicate subtree index {k_w} from level {lvl_w}"
                    )
                self._payloads[k_w] = payload
            return False
        changed = tag.startswith("A") and self.ack.on_message(rnd, parts)
        if self.output is None and self.ack.core3.informed:
            self.output = _size_of(self.ack.core3.message)
            return True
        return changed


# ---------------------------------------------------------------------------
# GeneralSD: selector between the compact scheme and the path-message scheme
# ---------------------------------------------------------------------------


def build_general_sd(g: Graph) -> SchemeBundle:
    """Mode bit per label: the compact scheme when the measured acknowledged
    broadcast is fast enough (t_G < log2 n), the message-on-path scheme with
    M = binary(n) otherwise."""
    n = g.n
    syn = synthesize_core(g, {0})
    t_g = 3 * syn.t
    use_compact = n > 1 and t_g < math.log2(n)
    if use_compact:
        inner = build_compact_labels(g)
    else:
        inner = synthesize_path_message(g, 0, int_to_bits(n), syn)
    mode = "1" if use_compact else "0"
    labels = [add_mode(mode, lab) for lab in inner.labels]
    return SchemeBundle(
        scheme="general",
        labels=labels,
        meta={"inner": inner, "branch": "compact" if use_compact else "pathmsg",
              "t_G": t_g},
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
    # the nodes of each BFS layer, derived from `layers`
    by_layer: list[list[int]] = field(default_factory=list, repr=False, compare=False)


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
    by_layer: list[list[int]] = [[] for _ in range(la.depth + 1)]
    # a stripe is materialized only if its super-green layer exists
    stripes = range(0, (la.depth + 1) // lgn, 2)
    for v in range(n):
        i = la.layer[v]
        by_layer[i].append(v)
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
        by_layer=by_layer,
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


def minimal_bfs_cover(sd: StripeDecomposition, j: int) -> list[int]:
    """Subset of the stripe's first layer from which every super-green node
    of the stripe is BFS-reachable; minimal under inclusion (greedy removal,
    descending index). When the greedy reaches v, every first-layer node
    below v is still in the cover, so v stays iff some super-green node
    whose lowest first-layer BFS-ancestor is v is not reached from above."""
    g, layer, lgn = sd.graph, sd.layers.layer, sd.lgn
    first = j * lgn
    low = {v: v for v in sd.by_layer[first]}
    for i in range(first + 1, first + lgn):
        for w in sd.by_layer[i]:
            low[w] = min(low[u] for u in g.adj[w] if layer[u] == i - 1)
    needs: dict[int, list[int]] = {}
    for y in sd.by_layer[first + lgn - 1]:  # the stripe's super-green nodes
        needs.setdefault(low[y], []).append(y)
    cover: list[int] = []
    covered: set[int] = set()
    for v in sorted(needs, reverse=True):
        if not covered.issuperset(needs[v]):
            cover.append(v)
            covered |= _forward_reach(sd, j, {v})
    return cover[::-1]


def conflict_free_paths(
    sd: StripeDecomposition, j: int, cover: list[int]
) -> list[list[int]]:
    """One BFS-path per cover node to a witness super-green node reachable
    from no other cover member; verified conflict-free by exhaustive edge
    scan (no edge joins different layers of two distinct paths)."""
    g, la, lgn = sd.graph, sd.layers, sd.lgn
    sg = set(sd.by_layer[(j + 1) * lgn - 1])  # the stripe's super-green nodes
    reach = {u: _forward_reach(sd, j, {u}) for u in cover}
    paths: list[list[int]] = []
    for u in cover:
        others = set().union(*(reach[w] for w in cover if w != u)) if len(cover) > 1 else set()
        witnesses = sorted((reach[u] & sg) - others)
        if not witnesses:
            raise WitnessNotFound(
                f"cover node {u} of stripe {j} has no private witness"
            )
        y = witnesses[0]
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
        general = build_general_sd(g)
        labels = [add_mode("0", lab) for lab in general.labels]
        return SchemeBundle(
            scheme="fastsd",
            labels=labels,
            meta={"mode": "fallback", "inner": general},
        )

    lgn = sd.lgn
    message = int_to_bits(n)
    m_bit = ["0"] * n
    on_paths = [False] * n
    cover_flag = [False] * n
    reach_flag = [False] * n
    stripe_meta = {}
    bjs = ["00"] * n
    bflags = ["00"] * n
    for j in sd.stripes:
        cover = minimal_bfs_cover(sd, j)
        paths = conflict_free_paths(sd, j, cover)
        xbfs = _forward_reach(sd, j, set(cover))
        for u in cover:
            cover_flag[u] = True
        for p in paths:
            for i, v in enumerate(p, start=1):
                on_paths[v] = True
                m_bit[v] = message[i - 1]
        for v in xbfs:
            reach_flag[v] = True
        # broadcast labels inside the reachable set, sources = the cover; the
        # renumbering keeps the order, so the cut rows stay sorted
        sub_nodes = sorted(xbfs)
        sub_index = {v: i for i, v in enumerate(sub_nodes)}
        sub = Graph(len(sub_nodes), [
            list(map(sub_index.__getitem__, filter(sub_index.__contains__, g.adj[a])))
            for a in sub_nodes
        ])
        sub_cover = set(map(sub_index.__getitem__, cover))
        syn = synthesize_core(sub, sub_cover)
        if lgn + syn.t >= fast_sd_barrier(n):
            raise BarrierExceeded(
                f"stripe {j}: phase 2 ends in round {lgn + syn.t}, "
                f"not before the barrier {fast_sd_barrier(n)}"
            )
        for v, js, flags in zip(sub_nodes, *core_blocks(syn, sub_cover)):
            bjs[v] = js
            bflags[v] = flags
        stripe_meta[j] = {
            "cover": cover,
            "paths": paths,
            "xbfs": sorted(xbfs),
            "phase2_t": syn.t,
        }

    sources = {v for v in range(n) if sd.supergreen[v]}
    s2 = synthesize_core(g, sources)
    # the first block is the mode bit
    labels = encode_labels(zip(
        repeat("1", n),
        map("{:d}{:d}{:d}{:d}".format, reach_flag, sd.supergreen, cover_flag, on_paths),
        m_bit,
        bjs,
        bflags,
        *core_blocks(s2, sources),
    ))
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
    round determined by n. Reads the label behind the mode bit, which
    `fast_sd_program` has checked."""

    def __init__(self, label: str):
        super().__init__(label)
        flags, m_v, bjs, bflags, s2js, s2flags = label_blocks(label, 6)
        fixed_block(flags, 4)
        self.reach = flags[0] == "1"
        self.supergreen = flags[1] == "1"
        self.cover = flags[2] == "1"
        self.on_path = flags[3] == "1"
        self.m_v = m_v
        self.bcore = ExecCore("F2", bjs)
        self.b_dom1 = fixed_block(bflags, 2)[1] == "1"
        self.s2core = ExecCore("F3", s2js)
        self.s2_dom1 = fixed_block(s2flags, 2)[1] == "1"
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
            self.bcore.start_source(len(bits) + 1, bits, self.b_dom1)
        if self.supergreen:
            self.s2core.start_source(fast_sd_barrier(self.n_value), bits, self.s2_dom1)
        return True

    def action(self, rnd: int):
        if self.supergreen and self.on_path and rnd == 1:
            self._relayed = True
            return frame("F1", "p", self.m_v)
        if self._relay_round == rnd:
            self._relay_round = None
            self._relayed = True
            return frame("F1", "p", self.m_v + self._relay_payload)
        return self.bcore.action(rnd) or self.s2core.action(rnd)

    def next_wake(self, rnd: int) -> int | None:
        return earliest(
            self._relay_round, self.bcore.next_wake(rnd), self.s2core.next_wake(rnd)
        )

    def receive(self, rnd: int, heard) -> bool:
        parts = heard.decode(parse)
        tag = parts[0]
        changed = False
        if tag == "F1":
            if self.on_path and not self._relayed and self._relay_round is None:
                self._relay_payload = parts[2]
                self._relay_round = rnd + 1
                changed = True
            if self.cover:
                changed |= self._learn(self.m_v + parts[2])
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
