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

from .errors import EmptySourceSet, Undominatable
from .graphs import Graph
from .labels import SchemeBundle, encode_labels, fixed_block, label_blocks
from .sim import NodeProgram, earliest, frame, parse


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


# ---------------------------------------------------------------------------
# Offline synthesis
# ---------------------------------------------------------------------------


@dataclass
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
    dom, newly = minimal_dominating_subset(set(sources), frontier, g) if frontier else (set(), {})
    for v in dom:
        dom1[v] = 1
    uninformed = None  # built when the uninformed side is first scanned
    uninformed_deg = sum(g.degrees()) - sum(map(deg, informed))

    stages: list[StageRecord] = []
    stage = 1
    while len(informed) < n:
        if not dom:
            raise Undominatable("no dominators left but nodes remain uninformed")
        level.update(dict.fromkeys(newly, 3 * stage - 2))
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
        next_dom, next_newly = minimal_dominating_subset(
            dom.union(newly), next_frontier, g
        ) if next_frontier else (set(), {})
        for u in newly:
            join[u] = 1 if u in next_dom else 0
        for v, u in feedback.items():
            stay[u] = 1 if v in next_dom else 0
        stages.append(
            StageRecord(stage=stage, dom=dom, frontier=frontier, newly=newly,
                        feedback=feedback)
        )
        dom, newly, frontier = next_dom, next_newly, next_frontier
        stage += 1

    t = 3 * (stage - 1)
    for rec in stages:
        parent.update(rec.newly)
    tree = BroadcastTree(
        sources=tuple(sorted(sources)), parent=parent, level=level, t=t
    )
    return CoreSynthesis(
        tree=tree, stages=stages, join=join, stay=stay, dom1=dom1, t=t
    )


# ---------------------------------------------------------------------------
# Node-side core
# ---------------------------------------------------------------------------


class ExecCore:
    """Label-driven broadcast core, reactive unless started as a source.

    Relative rounds are learned from the round numbers attached to messages:
    a node informed at attached round r with global clock a derives the
    instance offset a - r, so no participant needs to know the start round
    in advance. Message kinds: ("b", rel, sender_level, payload) for the
    broadcast rounds, ("f", rel) for feedback (sent only by a node whose
    stay bit is 1, so it carries no bit of its own); `action` frames them
    after the core's tag. `js` is the node's join/stay label block.

    The core keeps its duties as pending relative rounds: `_tx` its next
    broadcast (a node informed with join = 1 transmits next stage, and a
    transmitter that hears feedback right after its broadcast transmits
    again), `_fb` its feedback, and `_end` the last round of a stage in
    which it transmitted, so a broadcast lasts exactly 3 rounds per stage.
    """

    __slots__ = (
        "tag", "join", "stay", "informed", "message", "level",
        "parent_level", "offset", "tx_rounds", "_tx", "_fb", "_end",
    )

    def __init__(self, tag: str, js: str):
        fixed_block(js, 2)
        self.tag = tag
        self.join = int(js[0])
        self.stay = int(js[1])
        self.informed = False
        self.message = None
        self.level: int | None = None
        self.parent_level: int | None = None
        self.offset: int | None = None
        self.tx_rounds: list[int] = []
        self._tx: int | None = None
        self._fb: int | None = None
        self._end: int | None = None

    def start_source(self, start_abs: int, message, in_dom: bool) -> None:
        """Become an initially informed node; relative round 1 = start_abs."""
        self.informed = True
        self.message = message
        self.level = 0
        self.offset = start_abs - 1
        if in_dom:
            self._tx = 1

    def action(self, abs_rnd: int):
        if self.offset is None:
            return None
        rel = abs_rnd - self.offset
        if rel == self._tx:
            self._tx = None
            self._end = rel + 2
            self.tx_rounds.append(rel)
            return frame(self.tag, "b", rel, self.level, self.message)
        if rel == self._fb:
            self._fb = None
            return frame(self.tag, "f", rel)
        if rel == self._end:
            self._end = None
        return None

    def on_message(self, abs_rnd: int, parts) -> bool:
        """Take a heard core message; True iff it gave the node a duty: it
        informed a node whose join or stay bit is 1, or re-armed its
        broadcast. A caller that acts on `informed` checks it itself."""
        kind = parts[1]
        if kind == "b":
            if not self.informed:
                rel = parts[2]
                self.informed = True
                self.level = rel
                self.offset = abs_rnd - rel
                self.parent_level = parts[3]
                self.message = parts[4]
                if self.join:
                    self._tx = rel + 3
                if self.stay:
                    self._fb = rel + 1
                return bool(self.join or self.stay)
        elif kind == "f":
            tx = self.tx_rounds
            if tx and tx[-1] == abs_rnd - self.offset - 1:
                self._tx = tx[-1] + 3
                return True
        return False

    def next_wake(self, abs_rnd: int) -> int | None:
        """The absolute round of the next pending duty, None if there is
        none. Duties come in the order `_fb` or `_end`, then `_tx`, and
        `_fb` and `_end` are never pending together."""
        rel = self._fb or self._end or self._tx
        return None if rel is None else self.offset + rel


# ---------------------------------------------------------------------------
# Executor labels
# ---------------------------------------------------------------------------


# the four two-bit blocks, shared by every label that holds one
_PAIR = {(a, b): f"{a}{b}" for a in (0, 1) for b in (0, 1)}


def core_blocks(syn: CoreSynthesis, sources) -> tuple[list[str], list[str]]:
    """Every node's join/stay block and flags block (source, DOM_1 member),
    as two columns."""
    js = list(map(_PAIR.__getitem__, zip(syn.join, syn.stay)))
    flags = list(map(_PAIR.__getitem__, zip(repeat(0), syn.dom1)))
    for s in sources:
        flags[s] = _PAIR[1, syn.dom1[s]]
    return js, flags


# ---------------------------------------------------------------------------
# Acknowledged broadcast (ExecAck)
# ---------------------------------------------------------------------------


def ack_blocks(syn: CoreSynthesis, s: int) -> tuple[list[list[str]], list[int]]:
    """The acknowledged-broadcast block columns [join/stay, flags, path
    bits] for source `s`, and the marked path. The path bits mark the nodes
    of a root-to-leaf path ending at a node v_p of maximum level, and v_p
    itself unless the graph is a single node."""
    path = _max_level_path(syn.tree, s)
    pathbits = ["00"] * len(syn.join)
    for v in path:
        pathbits[v] = "10"
    if len(path) > 1:
        pathbits[path[-1]] = "11"
    return [*core_blocks(syn, (s,)), pathbits], path


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


class AckMachine:
    """The size-discovery skeleton as an embeddable machine. ExecAck: an
    Executor run (`tag1`), upward relay of the round count along the marked
    path (`taga`), then a second Executor run carrying t (`tag2`); its
    completion is padded to relative round 3t, which every node can
    compute. Then an upward collection the program runs in the rounds of
    `collect_round`, and a third Executor run (`tag3`) that `finish` starts
    at the source with the collected answer. `collects` says the node has
    a duty in `collect_round` (the source always has one): only then can
    learning t move its wake round.
    """

    def __init__(self, tag: str, js: str, flags: str, pathbits: str, collects: bool):
        fixed_block(flags, 2)
        fixed_block(pathbits, 2)
        self.tag = tag
        self.is_source = flags[0] == "1"
        self.collects = collects or self.is_source
        self.dom1 = flags[1] == "1"
        self.on_path = pathbits[0] == "1"
        self.is_vp = pathbits[1] == "1"
        self.core1 = ExecCore(tag + "1", js)
        self.core2 = ExecCore(tag + "2", js)
        self.core3 = ExecCore(tag + "3", js)
        self.t: int | None = None
        self._relay_round: int | None = None
        self._relayed = False

    def start_source(self, start_abs: int, message) -> None:
        self.core1.start_source(start_abs, message, self.dom1)
        if not self.dom1:
            # no frontier means a single-node graph: t = 0, done immediately
            self.t = 0

    def collect_round(self, width: int, slot: int) -> int | None:
        """Absolute round of this node's collection duty, once t is known.
        After relative round 3t, which ends the acknowledged broadcast,
        come L = max(t - 2, 0) phases of `width` rounds,
        deepest level first: a node at level l sends in round `slot` of
        phase L - l + 1, and the source's round follows the last phase."""
        if self.t is None or self.core1.offset is None:
            return None
        end = self.core1.offset + 3 * self.t
        top = max(self.t - 2, 0)
        if self.is_source:
            return end + top * width + 1
        return end + (top - self.core1.level) * width + slot

    def finish(self, rnd: int, message):
        """Start the final broadcast of `message` at the source in round
        `rnd`; returns that round's transmission."""
        self.core3.start_source(rnd, message, self.dom1)
        return self.core3.action(rnd)

    def next_wake(self, abs_rnd: int) -> int | None:
        """Earliest round after `abs_rnd` with a scheduled duty (relay or a
        core's wake), None if only receptions can change state."""
        return earliest(
            self.core1.next_wake(abs_rnd),
            self.core2.next_wake(abs_rnd),
            self.core3.next_wake(abs_rnd),
            self._relay_round,
        )

    def action(self, abs_rnd: int):
        p = self.core1.action(abs_rnd)
        if p:
            return p
        if abs_rnd == self._relay_round:
            self._relay_round = None
            if self.t is None:
                self.t = abs_rnd - self.core1.offset - 1
            return frame(self.tag + "a", "r", self.t, self.core1.parent_level)
        return self.core2.action(abs_rnd) or self.core3.action(abs_rnd)

    def on_message(self, abs_rnd: int, parts) -> bool:
        """Take a heard message of this machine; True iff it changed a
        core's duties, the relay, or `t` at a node that collects."""
        tag = parts[0]
        if tag == self.tag + "1":
            core = self.core1
            changed = core.on_message(abs_rnd, parts)
            if self.is_vp and not self._relayed and core.informed:
                # v_p starts the upward relay of t in the round after its
                # stage, t = 3 * (v_p's stage) relative rounds
                self._relayed = True
                self._relay_round = core.offset + 3 * ((core.level + 2) // 3) + 1
                return True
            return changed
        if tag == self.tag + "a":
            t, plv = parts[2], parts[3]
            changed = self.t is None and self.collects
            if self.t is None:
                self.t = t
            if self.on_path and not self._relayed and self.core1.informed:
                mylvl = 0 if self.is_source else self.core1.level
                if plv == mylvl:
                    self._relayed = True
                    if self.is_source:
                        self.core2.start_source(abs_rnd + 1, t, self.dom1)
                    else:
                        self._relay_round = abs_rnd + 1
                    return True
            return changed
        if tag == self.tag + "2":
            changed = self.core2.on_message(abs_rnd, parts)
            if self.t is None and self.core2.informed:
                self.t = self.core2.message
                return changed or self.collects
            return changed
        if tag == self.tag + "3":
            return self.core3.on_message(abs_rnd, parts)
        return False


# ---------------------------------------------------------------------------
# Message on a path (Lemma-4 primitive)
# ---------------------------------------------------------------------------


def synthesize_path_message(
    g: Graph, s: int, message_bits: str, syn: CoreSynthesis | None = None
) -> SchemeBundle:
    """Split `message_bits` into chunks stored along marked nodes (one per
    broadcast-tree level), collect them at the root after an acknowledged
    broadcast, and re-broadcast the assembled message. `syn`, if given, is
    the caller's `synthesize_core(g, {s})`."""
    if syn is None:
        syn = synthesize_core(g, {s})
    blocks, path = ack_blocks(syn, s)
    t_exec = syn.t
    tack = 3 * t_exec
    top = syn.tree.max_level()

    # one marked node per level k = 1 mod 3: walk the path and, inside each
    # parent's span, pick the next path node where levels coincide, otherwise
    # the lowest-index child at that level (exists by the level-structure
    # property of the tree)
    marked: dict[int, int] = {0: s} if g.n >= 1 else {}
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
    labels = encode_labels(zip(*blocks, markbits, map(chunk_of.get, range(g.n), repeat(""))))
    return SchemeBundle(
        scheme="pathmsg",
        labels=labels,
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


class PathMessageProgram(NodeProgram):
    """ExecAck, upward chunk collection in phases one round long (a marked
    node forwards every non-empty chunk it holds or heard, as (level, chunk)
    pairs), then the root re-broadcasts the assembled message, a missing
    level reading as empty. Output is `_result` of the message bit string."""

    def __init__(self, label: str):
        super().__init__(label)
        js, flags, pathbits, markbit, chunk = label_blocks(label, 5)
        self.marked = markbit == "1"
        self.ack = AckMachine("p", js, flags, pathbits, self.marked)
        self.chunk = chunk
        self.pairs: list[tuple[int, str]] = []
        self._collected = False
        if self.ack.is_source:
            self.ack.start_source(1, "")
            if self.ack.t == 0:  # single node
                self.output = self._result(chunk)

    def _result(self, message: str):
        """The output for the assembled message."""
        return message

    def _collect_round(self) -> int | None:
        """Absolute round of this node's pending collection duty: sending
        its chunks upward, or assembling the message at the root."""
        if self.ack.is_source:
            pending = self.output is None
        else:
            pending = self.marked and not self._collected
        return self.ack.collect_round(1, 1) if pending else None

    def action(self, rnd: int):
        p = self.ack.action(rnd)
        if not p and rnd == self._collect_round():
            if not self.ack.is_source:
                self._collected = True
                mine = [(self.ack.core1.level, self.chunk)] if self.chunk else []
                return frame("pc", "c", mine + self.pairs)
            got = {0: self.chunk}
            got.update(self.pairs)
            msg = "".join(got[k] for k in sorted(got))
            self.output = self._result(msg)
            p = self.ack.finish(rnd, msg)
        return p

    def receive(self, rnd: int, heard) -> bool:
        parts = heard.decode(parse)
        if parts[0] == "pc":
            self.pairs.extend(parts[2])
            return False
        changed = parts[0].startswith("p") and self.ack.on_message(rnd, parts)
        if self.output is None and self.ack.core3.informed:
            self.output = self._result(self.ack.core3.message)
            return True
        return changed

    def next_wake(self, rnd: int) -> int | None:
        return earliest(self.ack.next_wake(rnd), self._collect_round())
