"""Stage-based broadcast engine with 2-bit labels.

Offline synthesis simulates the stage structure (three rounds per stage:
transmit, feedback, and a silent round that keeps the mod-3 level
arithmetic) and fixes each node's join/stay bits on first use; the
node-side core then reproduces the exact same execution from labels and
local history alone. The construction maintains, per stage, a minimal set
DOM of informed nodes dominating the frontier of uninformed nodes, which
yields the broadcast-tree level structure asserted in tests (every DOM
member informs at least one uniquely covered node per stage, and
membership intervals are consecutive).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Sequence

from .errors import Disconnected, EmptySourceSet, ProtocolViolation, Undominatable
from .graphs import Graph
from .labels import Layout, SchemeBundle
from .sim import Bits, NodeProgram, message_kind, next_duty, parse


# ---------------------------------------------------------------------------
# Minimal dominating subsets
# ---------------------------------------------------------------------------


def minimal_dominating_subset(
    candidates: set[int], targets: set[int], g: Graph
) -> tuple[set[int], dict[int, int]]:
    """The subset of `candidates` dominating `targets` (every target keeps a
    neighbor in the set), minimal under removal, with greedy removal in
    descending index order for determinism; and every target with exactly
    one chosen neighbor mapped to that neighbor: the nodes the chosen set
    informs.

    When the removal reaches v, a target u of v is still covered by its
    candidates below v and by the kept ones above, so v is kept iff it is
    the lowest candidate neighbor of some target that no kept candidate
    covers. Only those lowest covers are examined, highest first. The
    lowest covers come from the one-node side if there is one, else from
    whichever side has the smaller degree sum: a target's is the first
    candidate in its sorted row, and the candidate side goes up in index
    order and stops once every target has its cover.
    """
    adj = g.adj
    deg = g.degrees().__getitem__
    from_targets = len(targets) < 2 or len(candidates) > 1 and (
        sum(map(deg, targets)) <= sum(map(deg, candidates)))
    lowest_for: dict[int, list[int] | set[int]] = {}  # cover -> its targets
    if from_targets:
        # rows are sorted: the first candidate in a row is its lowest
        is_candidate = candidates.__contains__
        for u in targets:
            v = next(filter(is_candidate, adj[u]), None)
            if v is None:
                raise Undominatable(f"target {u} has no candidate neighbor")
            lowest_for.setdefault(v, []).append(u)
    else:
        left = set(targets)
        for v in sorted(candidates):
            near = left.intersection(adj[v])
            if near:
                lowest_for[v] = near
                left -= near
                if not left:
                    break
        if left:
            u = next(filter(left.__contains__, targets))
            raise Undominatable(f"target {u} has no candidate neighbor")
    if len(lowest_for) == 1:  # one candidate covers every target
        (v,) = lowest_for
        return {v}, dict.fromkeys(targets, v)
    chosen: set[int] = set()
    covered: set[int] = set()
    multi: set[int] = set()  # targets of two or more kept candidates
    unique: dict[int, int] = {}
    for v in sorted(lowest_for, reverse=True):
        if not covered.issuperset(lowest_for[v]):
            near = targets.intersection(adj[v])
            chosen.add(v)
            multi |= covered & near
            covered |= near
            unique.update(dict.fromkeys(near, v))
    for u in multi:
        del unique[u]
    return chosen, unique


def _next_dom(
    dom: set[int], newly: dict[int, int], frontier: set[int], g: Graph
) -> tuple[set[int], dict[int, int]]:
    """`minimal_dominating_subset(dom | newly, frontier, g)`, with no call
    for a one-node frontier {u}: the rule keeps u's lowest candidate
    neighbor v alone, so the answer is {v}, {u: v}."""
    if len(frontier) != 1:
        return minimal_dominating_subset(dom.union(newly), frontier, g) if frontier else (set(), {})
    (u,) = frontier
    for v in g.adj[u]:  # rows are sorted
        if v in dom or v in newly:
            return {v}, {u: v}
    raise Undominatable(f"target {u} has no candidate neighbor")


# ---------------------------------------------------------------------------
# Offline synthesis
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class StageRecord:
    stage: int
    dom: set[int]
    frontier: set[int]
    newly: dict[int, int]  # newly informed node -> parent
    feedback: dict[int, int]  # DOM member -> its designated feedback node


@dataclass
class BroadcastTree:
    """First-successful-delivery parents under the stage broadcast."""

    sources: tuple[int, ...]
    parent: dict[int, int]
    level: dict[int, int]  # sources have level 0
    t: int  # total rounds (3 * stage count)

    def max_level(self) -> int:
        return max(self.level.values(), default=0)


@dataclass
class CoreSynthesis:
    tree: BroadcastTree
    stages: list[StageRecord]
    join: list[int]
    stay: list[int]
    dom1: list[int]
    t: int


def synthesize_core(g: Graph, sources: set[int]) -> CoreSynthesis:
    """Simulate the stage structure offline and fix label bits on first use.

    join is fixed the stage a node is informed (1 iff the greedy minimal
    dominating construction for the next frontier selects it); a feedback
    node's stay bit is fixed when designated. Round 3 of each stage stays
    silent but is still counted, preserving the mod-3 level arithmetic.
    """
    if not sources:
        raise EmptySourceSet("need at least one source")
    n = g.n
    adj = g.adj
    deg = g.degrees().__getitem__
    informed = set(sources)
    level = dict.fromkeys(sources, 0)
    parent: dict[int, int] = {}
    join = [0] * n
    stay = [0] * n
    dom1 = [0] * n

    frontier = {u for s in sources for u in adj[s] if u not in informed}
    # `newly` is who DOM informs this stage: the frontier nodes with exactly
    # one DOM neighbor, each mapped to it
    dom, newly = _next_dom(set(sources), {}, frontier, g)
    for v in dom:
        dom1[v] = 1
    uninformed = None  # built when the uninformed side is first scanned
    uninformed_deg = sum(g.degrees()) - sum(map(deg, informed))

    stages: list[StageRecord] = []
    stage = 1
    while len(informed) < n:
        if not dom:
            raise Disconnected(f"{n - len(informed)} node(s) cannot be reached from the sources")
        level.update(dict.fromkeys(newly, 3 * stage - 2))
        parent.update(newly)
        feedback: dict[int, int] = {}  # each DOM member's lowest child
        for u, p in newly.items():
            if u < feedback.get(p, n):
                feedback[p] = u
        informed.update(newly)
        newly_deg = sum(map(deg, newly))
        uninformed_deg -= newly_deg
        if uninformed is not None:
            uninformed.difference_update(newly)
        # every uninformed node next to an informed one, found from the
        # smaller side: the old frontier's rest plus the newly informed
        # nodes' neighbors, or the uninformed nodes with an informed neighbor
        if newly_deg <= uninformed_deg:
            next_frontier = frontier.union(*map(adj.__getitem__, newly)) - informed
        else:
            if uninformed is None:
                uninformed = set(range(n)).difference(informed)
            next_frontier = {u for u in uninformed if not informed.isdisjoint(adj[u])}
        next_dom, next_newly = _next_dom(dom, newly, next_frontier, g)
        for u in newly:
            join[u] = 1 if u in next_dom else 0
        for v, u in feedback.items():
            stay[u] = 1 if v in next_dom else 0
        stages.append(StageRecord(stage, dom, frontier, newly, feedback))
        dom, newly, frontier = next_dom, next_newly, next_frontier
        stage += 1

    t = 3 * (stage - 1)
    tree = BroadcastTree(
        sources=tuple(sorted(sources)), parent=parent, level=level, t=t
    )
    return CoreSynthesis(
        tree=tree, stages=stages, join=join, stay=stay, dom1=dom1, t=t
    )


# ---------------------------------------------------------------------------
# Node-side core
# ---------------------------------------------------------------------------


# a join/stay block's (join, stay) bits, read by one lookup per core
_JOIN_STAY = {"00": (0, 0), "01": (0, 1), "10": (1, 0), "11": (1, 1)}


class ExecCore:
    """Label-driven broadcast core, reactive unless started as a source.

    Relative rounds are learned from the round numbers attached to messages:
    a node informed at attached round r with global clock a derives the
    instance offset a - r, so no participant needs to know the start round
    in advance. Under its tag it sends a `broadcast` in its broadcast
    rounds, with its relative round, its level and the payload, and a
    `feedback` (sent only by a node whose stay bit is 1, so it carries no
    bit of its own). `js` is the node's two-bit join/stay label block.

    The core keeps its duties as pending absolute rounds: `_tx` its next
    broadcast (a node informed with join = 1 transmits next stage, and a
    transmitter that hears feedback right after its broadcast transmits
    again), `_fb` its feedback, and `_end` the last round of a stage in
    which it transmitted, so a broadcast lasts exactly 3 rounds per stage.
    `wake`, set wherever a duty is set or served, is the earliest of them:
    duties come in the order `_fb` or `_end`, then `_tx`, and `_fb` and
    `_end` are never pending together. `tx_rounds` holds relative rounds.
    """

    __slots__ = (
        "tag", "join", "stay", "informed", "message", "level",
        "parent_level", "offset", "tx_rounds", "_tx", "_fb", "_end", "wake",
    )
    broadcast = message_kind(tag=str, kind="b", rel=int, level=int, payload=int | Bits)
    feedback = message_kind(tag=str, kind="f", rel=int)

    def __init__(self, tag: str, js: str):
        self.join, self.stay = _JOIN_STAY[js]
        self.tag = tag
        self.informed = False
        self.message = None
        self.level: int | None = None
        self.parent_level: int | None = None
        self.offset: int | None = None
        self.tx_rounds: list[int] = []
        self._tx: int | None = None
        self._fb: int | None = None
        self._end: int | None = None
        self.wake: int | None = None

    def start_source(self, start_abs: int, message, in_dom: bool) -> None:
        """Become an initially informed node; relative round 1 = start_abs."""
        self.informed = True
        self.message = message
        self.level = 0
        self.offset = start_abs - 1
        if in_dom:
            self.wake = self._tx = start_abs

    def action(self, abs_rnd: int):
        if abs_rnd == self._tx:
            self._tx = None
            self.wake = self._end = abs_rnd + 2
            rel = abs_rnd - self.offset
            self.tx_rounds.append(rel)
            return self.broadcast.frame(self.tag, rel, self.level, self.message)
        if abs_rnd == self._fb:
            self._fb = None
            self.wake = self._tx
            return self.feedback.frame(self.tag, abs_rnd - self.offset)
        if abs_rnd == self._end:
            self._end = None
            self.wake = self._tx
        return None

    def on_message(self, abs_rnd: int, parts) -> bool:
        """Take a heard core message; True iff it gave the node a duty: it
        informed a node whose join or stay bit is 1, or re-armed its
        broadcast. A caller that acts on `informed` checks it itself."""
        kind = parts.kind
        if kind == "b":
            if not self.informed:
                rel = parts.rel
                self.informed = True
                self.level = rel
                self.offset = abs_rnd - rel
                self.parent_level = parts.level
                self.message = parts.payload
                if self.join:
                    self.wake = self._tx = abs_rnd + 3
                if self.stay:
                    self.wake = self._fb = abs_rnd + 1
                return bool(self.join or self.stay)
        elif kind == "f":
            tx = self.tx_rounds
            if tx and tx[-1] == abs_rnd - self.offset - 1:
                # the stage end at abs_rnd + 1 stays the earlier duty
                self._tx = abs_rnd + 2
                return True
        return False


# ---------------------------------------------------------------------------
# Executor labels
# ---------------------------------------------------------------------------


# the four two-bit blocks, shared by every label that holds one
_PAIR = {(a, b): f"{a}{b}" for a in (0, 1) for b in (0, 1)}


def join_stay_blocks(syn: CoreSynthesis) -> list[str]:
    """Every node's join/stay block, as a column."""
    return list(map(_PAIR.__getitem__, zip(syn.join, syn.stay)))


# ---------------------------------------------------------------------------
# Acknowledged broadcast (ExecAck)
# ---------------------------------------------------------------------------


def ack_blocks(syn: CoreSynthesis, s: int) -> tuple[dict[str, list[str]], list[int]]:
    """The acknowledged-broadcast block columns for source `s` by block
    name, `js` (join/stay), `flags` and `path`, and the marked path. The
    flags (source, DOM_1 member) are "00" but at `s`: "11", or "10" if the
    graph is one node.
    The path bits mark the nodes of a root-to-leaf path ending at a node
    v_p of maximum level, and v_p itself unless the graph is a single node."""
    path = _max_level_path(syn.tree, s)
    flags = ["00"] * len(syn.join)
    flags[s] = _PAIR[1, syn.dom1[s]]
    pathbits = ["00"] * len(syn.join)
    for v in path:
        pathbits[v] = "10"
    if len(path) > 1:
        pathbits[path[-1]] = "11"
    return {"js": join_stay_blocks(syn), "flags": flags, "path": pathbits}, path


def _max_level_path(tree: BroadcastTree, s: int) -> list[int]:
    if not tree.parent:
        return [s]
    top = max(tree.level.values())
    v_p = min(v for v, l in tree.level.items() if l == top)
    path = [v_p]
    while path[-1] != s:
        path.append(tree.parent[path[-1]])
    path.reverse()
    return path


class AckProgram(NodeProgram):
    """The size-discovery skeleton as one node program. ExecAck: an
    Executor run (tag `<tag>1`), the upward relay of its round count t
    along the marked path (`<tag>a`), then a second Executor run carrying t
    (`<tag>2`); its completion is padded to relative round 3t, which every
    node can compute. Then an upward collection in the round
    `_collect_at`, and a final Executor run (`<tag>3`) that the source
    starts with the answer it assembled; every other node outputs the
    `_result` of that run's message.

    A subclass names its tag in the class statement
    (`class P(AckProgram, tag="p")`), passes its parsed label on (its
    `js`, `flags` and `path` blocks), and supplies the collection: `_phase`
    (the phase width and this node's slot), `_slot_message` (what a
    non-source sends in its slot), `_assemble` (the source's answer),
    `_result` (the output for an answer) and `_receive_own` (its own
    messages). `collects` says
    the node has a slot (the source always collects); `_collected` closes
    the duty once it is done. A subclass with one more duty keeps its round
    in `_own_at` and serves it in its own `action`.
    """

    # the relay of t: t, and the level of the sender's parent, which relays next
    relay = message_kind(tag=str, kind="r", t=int, parent_level=int)

    def __init_subclass__(cls, tag: str | None = None, **kwargs):
        super().__init_subclass__(**kwargs)
        if tag is not None:
            cls.tag1, cls.taga, cls.tag2, cls.tag3 = (tag + step for step in "1a23")

    def __init__(self, label: str, blocks: dict[str, str], collects: bool):
        super().__init__(label)
        self.is_source = blocks["flags"][0] == "1"
        self.dom1 = blocks["flags"][1] == "1"
        self.on_path = blocks["path"][0] == "1"
        self.is_vp = blocks["path"][1] == "1"
        self.core1 = ExecCore(self.tag1, blocks["js"])
        self.core2 = ExecCore(self.tag2, blocks["js"])
        self.core3 = ExecCore(self.tag3, blocks["js"])
        self.t: int | None = None
        self._relay_round: int | None = None
        self._relayed = False
        self._collected = not (collects or self.is_source)
        self._collect_at: int | None = None
        self._own_at: int | None = None

    def _start(self, rnd: int, message) -> None:
        """Start the first Executor run of `message` at the source."""
        self.core1.start_source(rnd, message, self.dom1)
        if not self.dom1:
            # no frontier means a single-node graph: t = 0, done immediately
            self.t = 0
        self._arm_collect()

    def _arm_collect(self) -> None:
        """Set `_collect_at`, the absolute round of this node's pending
        collection duty, once t is known; called whenever t, core 1's
        offset or `_collected` changes. After relative round 3t, which ends
        the acknowledged broadcast, come L = max(t - 2, 0) phases, deepest
        level first: a node at level l sends in its slot of phase L - l + 1,
        and the source assembles in the round after the last phase."""
        if self._collected or self.t is None or self.core1.offset is None:
            self._collect_at = None
            return
        width, slot = self._phase()
        end = self.core1.offset + 3 * self.t
        top = max(self.t - 2, 0)
        if self.is_source:
            self._collect_at = end + top * width + 1
        else:
            self._collect_at = end + (top - self.core1.level) * width + slot

    def action(self, rnd: int):
        p = self.core1.action(rnd)
        if p:
            return p
        if rnd == self._relay_round:
            self._relay_round = None
            if self.t is None:
                self.t = rnd - self.core1.offset - 1
                self._arm_collect()
            return self.relay.frame(self.taga, self.t, self.core1.parent_level)
        p = self.core2.action(rnd) or self.core3.action(rnd)
        if p or rnd != self._collect_at:
            return p
        self._collected = True
        self._collect_at = None
        if not self.is_source:
            return self._slot_message()
        message = self._assemble()
        self.output = self._result(message)
        self.core3.start_source(rnd, message, self.dom1)
        return self.core3.action(rnd)

    def receive(self, rnd: int, heard) -> bool:
        """True iff the message changed a core's duties, the relay, `t` at
        a node that still collects, or the output."""
        parts = heard.decode(parse)
        tag = parts.tag
        if tag == self.tag1:
            core = self.core1
            informed = core.informed
            changed = core.on_message(rnd, parts)
            if core.informed and not informed:
                self._arm_collect()
            if self.is_vp and not self._relayed and core.informed:
                # v_p starts the upward relay of t in the round after its
                # stage, t = 3 * (v_p's stage) relative rounds
                self._relayed = True
                self._relay_round = core.offset + 3 * ((core.level + 2) // 3) + 1
                return True
            return changed
        if tag == self.taga and parts.kind == "r":
            t = parts.t
            changed = self.t is None and not self._collected
            if self.t is None:
                self.t = t
                self._arm_collect()
            if (self.on_path and not self._relayed and self.core1.informed
                    and parts.parent_level == self.core1.level):
                self._relayed = True
                if self.is_source:
                    self.core2.start_source(rnd + 1, t, self.dom1)
                else:
                    self._relay_round = rnd + 1
                return True
            return changed
        if tag == self.tag2:
            changed = self.core2.on_message(rnd, parts)
            if self.t is None and self.core2.informed:
                if type(self.core2.message) is not int:
                    raise ProtocolViolation(f"t {self.core2.message!r} of {tag} is not an int")
                self.t = self.core2.message
                self._arm_collect()
                return changed or not self._collected
            return changed
        if tag == self.tag3:
            changed = self.core3.on_message(rnd, parts)
            if self.output is None and self.core3.informed:
                self.output = self._result(self.core3.message)
                return True
            return changed
        return self._receive_own(rnd, parts)

    def next_wake(self, rnd: int) -> int | None:
        return next_duty(
            rnd, self.core1.wake, self.core2.wake, self.core3.wake,
            self._relay_round, self._collect_at, self._own_at,
        )


# ---------------------------------------------------------------------------
# Message on a path (Lemma-4 primitive)
# ---------------------------------------------------------------------------


def synthesize_path_message(
    g: Graph, s: int, message_bits: str, syn: CoreSynthesis | None = None,
    modes: Sequence[Iterable[str]] = (),
) -> SchemeBundle:
    """Split `message_bits` into chunks stored along marked nodes (one per
    broadcast-tree level), collect them at the root after an acknowledged
    broadcast, and re-broadcast the assembled message. `syn`, if given, is
    the caller's `synthesize_core(g, {s})`; the labels' blocks follow the
    caller's mode columns `modes`."""
    if syn is None:
        syn = synthesize_core(g, {s})
    ack, path = ack_blocks(syn, s)
    t_exec = syn.t
    tack = 3 * t_exec
    top = syn.tree.max_level()

    # one marked node per level k = 1 mod 3: walk the path and, inside each
    # parent's span, pick the next path node where levels coincide, otherwise
    # the lowest-index child at that level (exists by the level-structure
    # property of the tree)
    marked: dict[int, int] = {0: s}
    children_at: dict[tuple[int, int], list[int]] = {}
    for u, p in syn.tree.parent.items():
        children_at.setdefault((p, syn.tree.level[u]), []).append(u)
    lv = syn.tree.level
    for j in range(len(path) - 1):
        pj, pj1 = path[j], path[j + 1]
        lo = lv[pj] if pj != s else 0
        hi = lv[pj1]
        for k in range(lo + 1, hi + 1):
            if k % 3 != 1:
                continue
            if k == hi:
                marked[k] = pj1
            else:
                marked[k] = min(children_at[(pj, k)])
    # chunk assignment in level order
    m = len(message_bits)
    if tack == 0:
        chunks = {0: message_bits}
    else:
        size = 9 * (-(-m // tack)) if m else 1
        levels = sorted(marked)
        pieces = [message_bits[i : i + size] for i in range(0, m, size)] or [""]
        chunks = {levels[i]: pieces[i] for i in range(len(pieces))}
    chunk_of = {marked[k]: chunks.get(k, "") for k in marked}

    markbits = ["0"] * g.n
    for v in chunk_of:
        markbits[v] = "1"
    return SchemeBundle(
        scheme="pathmsg",
        labels=PathMessageProgram.layout.encode(
            *modes, **ack, mark=markbits, chunk=map(chunk_of.get, range(g.n), repeat(""))),
        meta={
            "synthesis": syn,
            "source": s,
            "t": t_exec,
            "path": path,
            "marked": marked,
            "chunks": chunks,
            "message": message_bits,
            "collection_window": (tack + 1, tack + top),
        },
    )


class PathMessageProgram(AckProgram, tag="p"):
    """ExecAck, upward chunk collection in phases one round long (a marked
    node forwards every non-empty chunk it holds or heard, as (level, chunk)
    pairs), then the root re-broadcasts the assembled message, a missing
    level reading as empty. Output is `_result` of the message bit string."""

    layout = Layout("pathmsg", js=2, flags=2, path=2, mark=1, chunk=None)
    chunks = message_kind(tag=str, kind="c", pairs=list[tuple[int, Bits]])

    def __init__(self, label: str):
        blocks = self.layout.parse(label)
        super().__init__(label, blocks, blocks["mark"] == "1")
        self.chunk = blocks["chunk"]
        self.pairs: list[tuple[int, str]] = []
        if self.is_source:
            self._start(1, "")
            if self.t == 0:  # single node
                self._collected = True
                self._collect_at = None
                self.output = self._result(self.chunk)

    def _result(self, message: str):
        """The output for the assembled message."""
        return message

    def _phase(self) -> tuple[int, int]:
        return 1, 1

    def _slot_message(self) -> bytes:
        mine = [(self.core1.level, self.chunk)] if self.chunk else []
        return self.chunks.frame("pc", mine + self.pairs)

    def _assemble(self) -> str:
        got = {0: self.chunk}
        got.update(self.pairs)
        return "".join(got[k] for k in sorted(got))

    def _receive_own(self, rnd: int, parts) -> bool:
        if parts.kind == "c":
            self.pairs.extend(parts.pairs)
        return False
