"""Test oracles: checks of synthesis results and traces that only the tests
run. Each raises AssertionError on the first property that fails."""

from __future__ import annotations

import zlib
from functools import cache
from typing import Mapping

import networkx as nx

from radiolab.audit import _component_index, _departures
from radiolab.broadcast import CoreSynthesis, ExecCore, PathMessageProgram
from radiolab.graphs import Graph, LayerAssignment, LBFamilyDescriptor, bfs_layers, build_graph
from radiolab.labels import SchemeBundle, split_mode
from radiolab.rng import SplitMix64
from radiolab.errors import RoundLimitExceeded
from radiolab.sim import (
    COLLISION,
    NOISE,
    SILENCE,
    TX,
    ExecutionTrace,
    Heard,
    Mark,
    RoundRecord,
    default_max_rounds,
    frame,
    parse,
)
from radiolab.size_discovery import AuxiliarySDProgram, FastSDProgram, SubtreeAssignment
from radiolab.toprec import TopRecProgram

# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


def observation(
    v: int,
    transmitters: Mapping[int, bytes],
    g: Graph,
    cd: bool,
    v_transmitted: bool,
) -> Heard | Mark:
    """Observation of node v given this round's transmitter set."""
    if v_transmitted:
        return TX
    sending = [u for u in g.adj[v] if u in transmitters]
    if len(sending) == 1:
        return Heard(transmitters[sending[0]])
    if cd:
        return SILENCE if not sending else COLLISION
    return NOISE


def history_of(trace: ExecutionTrace, v: int) -> list[Heard | Mark]:
    """Exact per-round observation sequence of node v."""
    return [trace.observation_of(v, r) for r in range(1, trace.num_rounds + 1)]


def verify_trace(trace: ExecutionTrace) -> None:
    """Replay every round through observation(); raises AssertionError on any
    divergence between the stored deliveries and the model semantics."""
    g = trace.graph
    for idx, rec in enumerate(trace.rounds, start=1):
        for v in range(g.n):
            obs = observation(v, rec.transmitters, g, trace.cd, v in rec.transmitters)
            stored = trace.observation_of(v, idx)
            assert obs == stored, f"round {idx} node {v}: replay {obs!r} != stored {stored!r}"


def reference_run(g, labels, program, cd=False, max_rounds=None):
    """Polling engine: one program per node, built in node order, and every
    node's `action` called in every round. A test that reads a node's
    program takes it from here: `sim.run` shares one program among the
    nodes of a behaviour class."""
    if len(labels) != g.n:
        raise ValueError(f"need one label per node: {len(labels)} != {g.n}")
    if max_rounds is None:
        max_rounds = default_max_rounds(g.n)
    nodes = [program(labels[v]) for v in range(g.n)]
    trace = ExecutionTrace(g, cd)
    adj = g.adj
    pending_output = set(range(g.n))

    for rnd in range(1, max_rounds + 1):
        # collect outputs emitted before this round (e.g. degenerate programs)
        for v in list(pending_output):
            if nodes[v].output is not None:
                trace.outputs[v] = nodes[v].output
                trace.output_round[v] = rnd - 1
                pending_output.discard(v)
        if not pending_output and all(p.next_wake(rnd - 1) is None for p in nodes):
            break

        transmitters: dict[int, bytes] = {}
        for v, prog in enumerate(nodes):
            m = prog.action(rnd)
            if m is not None:
                transmitters[v] = m

        counts: dict[int, int] = {}
        src: dict[int, int] = {}
        for u in transmitters:
            for w in adj[u]:
                c = counts.get(w, 0) + 1
                counts[w] = c
                if c == 1:
                    src[w] = u
        heard: dict[int, bytes] = {}
        for w, c in counts.items():
            if c == 1 and w not in transmitters:
                heard[w] = transmitters[src[w]]
        trace.rounds.append(RoundRecord(transmitters, heard))

        for v, prog in enumerate(nodes):
            if v in heard:
                prog.receive(rnd, Heard(heard[v]))

        for v in list(pending_output):
            if nodes[v].output is not None:
                trace.outputs[v] = nodes[v].output
                trace.output_round[v] = rnd
                pending_output.discard(v)
    else:
        if pending_output:
            raise RoundLimitExceeded(
                f"{len(pending_output)} node(s) produced no output within "
                f"{max_rounds} rounds: {sorted(pending_output)[:10]}"
            )
    return trace


def history_keys(trace: ExecutionTrace, labels) -> list[tuple]:
    """Each node's (label, heard history) at the end of the run, a heard
    history being the (round, bytes) of every message the node heard. The
    class engine builds one program per distinct key: nodes split into
    classes only on what they hear, and every split builds one program."""
    heard: list[list] = [[] for _ in labels]
    for rnd, rec in enumerate(trace.rounds, start=1):
        for w, m in rec.heard.items():
            heard[w].append((rnd, m))
    return [(label, tuple(h)) for label, h in zip(labels, heard)]


# ---------------------------------------------------------------------------
# Lower-bound families from edge lists
# ---------------------------------------------------------------------------


def lb_family_from_edges(n: int) -> tuple[Graph, LBFamilyDescriptor]:
    """G_n built edge by edge through `build_graph`: sqrt(n) components of
    sqrt(n) nodes, a_j joined to b_1..b_j inside each, every cross-component
    pair joined."""
    k = int(n**0.5)
    assert k * k == n and k % 2 == 0, n
    half = k // 2
    comp = [(j - 1, half + i - 1) for j in range(1, half + 1) for i in range(1, j + 1)]
    comps = [list(range(i * k, (i + 1) * k)) for i in range(k)]
    edges = [(i * k + u, i * k + v) for i in range(k) for u, v in comp]
    for i in range(k):
        for j in range(i + 1, k):
            edges.extend((u, v) for u in comps[i] for v in comps[j])
    return build_graph(n, edges), LBFamilyDescriptor(n=n, components=comps)


def lb_general_from_edges(delta: int, n: int) -> tuple[Graph, LBFamilyDescriptor]:
    """H_{delta,n} built edge by edge through `build_graph`: ceil(n/delta)
    copies of G_k (k the smallest even square >= delta), a special node per
    copy joined to its copy, specials in a ring (one edge for two copies)."""
    k = next((2 * i) ** 2 for i in range(1, delta + 1) if (2 * i) ** 2 >= delta)
    copies = -(-n // delta)
    gk, _ = lb_family_from_edges(k)
    edges, comps, specials = [], [], []
    for c in range(copies):
        base = c * (k + 1)
        comps.append(list(range(base, base + k)))
        specials.append(base + k)
        edges.extend((base + u, base + v) for u, v in gk.edges())
        edges.extend((base + k, base + u) for u in range(k))
    if copies == 2:
        edges.append((specials[0], specials[1]))
    elif copies > 2:
        edges.extend((specials[i], specials[(i + 1) % copies]) for i in range(copies))
    total = copies * (k + 1)
    return build_graph(total, edges), LBFamilyDescriptor(
        n=total, components=comps, specials=specials
    )


# ---------------------------------------------------------------------------
# Stage broadcast
# ---------------------------------------------------------------------------


def check_tree_invariants(syn: CoreSynthesis, g: Graph) -> None:
    """Broadcast-tree structure: reception levels are 1 mod 3; a parent at
    level j with a child at level i has a child at every level k in [j+1, i]
    with k = 1 mod 3; the maximum level exceeds t - 3."""
    tree = syn.tree
    children_levels: dict[int, set[int]] = {}
    for u, p in tree.parent.items():
        assert tree.level[u] > tree.level[p]
        assert tree.level[u] % 3 == 1
        assert u in g.adj[p]
        children_levels.setdefault(p, set()).add(tree.level[u])
    for u, p in tree.parent.items():
        i, j = tree.level[u], tree.level[p]
        have = children_levels[p]
        for k in range(j + 1, i + 1):
            if k % 3 == 1:
                assert k in have, (
                    f"parent {p} (level {j}) lacks a child at level {k} <= {i}"
                )
    if g.n > 1:
        assert tree.max_level() > tree.t - 3
    # spanning: every non-source reached exactly once
    srcs = set(tree.sources)
    assert set(tree.parent) == set(range(g.n)) - srcs


def check_dom_schedule(syn: CoreSynthesis, g: Graph) -> None:
    """Properties of the per-stage DOM sets: dominate the frontier minimally,
    stay inside the informed set, inform at least one uniquely covered node
    per member per stage, and have consecutive membership intervals."""
    informed = set(syn.tree.sources)
    seen_stages: dict[int, list[int]] = {}
    assert len(syn.stages) <= g.n, "stage count exceeds n"
    for rec in syn.stages:
        assert rec.dom, "DOM empty while nodes remain uninformed"
        assert rec.dom <= informed, "DOM member not informed"
        assert rec.frontier == {
            u for w in informed for u in g.adj[w] if u not in informed
        }
        for u in rec.frontier:
            assert any(w in rec.dom for w in g.adj[u]), "frontier not dominated"
        for v in rec.dom:
            private = [
                u
                for u in rec.frontier
                if v in g.adj[u]
                and sum(1 for w in g.adj[u] if w in rec.dom) == 1
            ]
            assert private, f"DOM member {v} has no uniquely covered target"
            assert rec.feedback[v] in private or rec.feedback[v] in rec.newly
        for v in rec.dom:
            seen_stages.setdefault(v, []).append(rec.stage)
        for u, p in rec.newly.items():
            assert p in rec.dom and u in g.adj[p]
            assert sum(1 for w in g.adj[u] if w in rec.dom) == 1
        informed |= set(rec.newly)
    assert informed == set(range(g.n))
    for v, ss in seen_stages.items():
        assert ss == list(range(ss[0], ss[-1] + 1)), (
            f"node {v} has a non-consecutive DOM interval {ss}"
        )


def dom_membership_from_history(
    js: str, flags: str, trace, v: int, tag: str = "p1", offset: int = 0
) -> dict[int, bool]:
    """Recompute a node's per-stage DOM decisions from its join/stay and
    flags blocks and its own observation history alone, reading the
    Executor messages framed with `tag` whose relative round 1 is round
    `offset + 1` (the node-locality check: the result must match the
    offline schedule exactly)."""
    core = ExecCore(tag, js)
    if flags[0] == "1":
        core.start_source(offset + 1, None, flags[1] == "1")
    membership: dict[int, bool] = {}
    for rnd in range(1, trace.num_rounds + 1):
        if core.offset is not None:
            rel = rnd - core.offset
            if rel >= 1 and rel % 3 == 1:
                # a core is in DOM exactly when it transmits in its stage's
                # first round
                membership[(rel + 2) // 3] = core.action(rnd) is not None
        obs = trace.observation_of(v, rnd)
        if isinstance(obs, Heard):
            parts = obs.decode(parse)
            if parts[0] == tag:
                core.on_message(rnd, parts)
    return membership


def core_next_duty(core: ExecCore) -> int | None:
    """An `ExecCore`'s next duty from scratch: the earliest of its pending
    broadcast, feedback and stage-end rounds, each after its offset."""
    pending = [r for r in (core._tx, core._fb, core._end) if r is not None]
    if not pending:
        return None
    assert core.offset is not None and min(pending) > core.offset, (core.offset, pending)
    return min(pending)


def ack_collect_round(p) -> int | None:
    """An `AckProgram`'s collection round from scratch, once t is known:
    after relative round 3t come max(t - 2, 0) phases, deepest level first;
    a node at level l sends in its slot of phase L - l + 1, the source
    assembles in the round after the last phase."""
    if p._collected or p.t is None or p.core1.offset is None:
        return None
    width, slot = p._phase()
    end = p.core1.offset + 3 * p.t
    top = max(p.t - 2, 0)
    if p.is_source:
        return end + top * width + 1
    return end + (top - p.core1.level) * width + slot


def check_executor_rounds(
    syn: CoreSynthesis, trace, tag: str = "p1", offset: int = 0
) -> None:
    """The Executor rounds offset + 1 .. offset + t of `trace`: every
    message carries `tag`; in stage s, round 1 has transmitters DOM_s,
    round 2 the designated feedback nodes whose stay bit is 1, and round 3
    none."""
    for rec in trace.rounds[offset:offset + syn.t]:
        assert all(parse(m)[0] == tag for m in rec.transmitters.values())
    for rec in syn.stages:
        r1 = offset + 3 * rec.stage - 2
        assert set(trace.rounds[r1 - 1].transmitters) == rec.dom
        expected_fb = {u for u in rec.feedback.values() if syn.stay[u]}
        assert set(trace.rounds[r1].transmitters) == expected_fb
        if r1 + 2 <= trace.num_rounds:
            assert not trace.rounds[r1 + 1].transmitters, "round 3 of a stage must be silent"


def check_local_membership(
    syn: CoreSynthesis, blocks: list[tuple[str, str]], trace, tag: str = "p1", offset: int = 0
) -> None:
    """Each node's DOM decisions, recomputed from its Executor blocks
    (`blocks[v]` is its join/stay and flags pair) and its own history,
    equal the offline schedule."""
    for v, (js, flags) in enumerate(blocks):
        membership = dom_membership_from_history(js, flags, trace, v, tag, offset)
        for rec in syn.stages:
            local = membership.get(rec.stage, False)
            assert local == (v in rec.dom), (
                f"node {v} stage {rec.stage}: local {local} vs oracle {v in rec.dom}"
            )


def verify_executor_run(g: Graph, bundle: SchemeBundle, trace, tag: str = "p1") -> None:
    """End-to-end check of the Executor at the start of a path-message run
    against the oracle: tree and DOM properties, per-round transmitter
    sets, and node-local DOM decisions equal to the offline schedule."""
    syn: CoreSynthesis = bundle.meta["synthesis"]
    check_tree_invariants(syn, g)
    check_dom_schedule(syn, g)
    check_executor_rounds(syn, trace, tag)
    parsed = map(PathMessageProgram.layout.parse, bundle.labels)
    check_local_membership(syn, [(b["js"], b["flags"]) for b in parsed], trace, tag)


# ---------------------------------------------------------------------------
# Label layouts
# ---------------------------------------------------------------------------


# each label layout's program, by layout name
LAYOUT_PROGRAMS = {
    p.layout.name: p
    for p in (AuxiliarySDProgram, PathMessageProgram, FastSDProgram, TopRecProgram)
}


def layout_of(scheme: str, label: str) -> tuple[str, str]:
    """The name of the layout that a label of `scheme` (a scheme or
    "pathmsg") is read in, and the label behind its mode bits."""
    if scheme in ("general", "fastsd"):
        mode, rest = split_mode(label)
        if mode == "1":
            return ("compact" if scheme == "general" else "stripes"), rest
        return layout_of("pathmsg" if scheme == "general" else "general", rest)
    return scheme, label


def pair_offset(scheme: str, label: str, block: str, bit: int = 0) -> int:
    """The offset in `label`, a label of `scheme`, of the code pair of bit
    `bit` of the block named `block` in the layout the label is read in."""
    name, rest = layout_of(scheme, label)
    blocks = LAYOUT_PROGRAMS[name].layout.parse(rest)
    before = list(blocks.values())[: list(blocks).index(block)]
    return len(label) - len(rest) + sum(2 * len(b) + 2 for b in before) + 2 * bit


# ---------------------------------------------------------------------------
# Size discovery and topology recognition
# ---------------------------------------------------------------------------


def tree_parent(tree: Graph, root: int) -> dict[int, int]:
    """Each non-root node's parent in `tree` rooted at `root`: its one
    neighbour a layer closer to the root."""
    layer = bfs_layers(tree, root).layer
    return {
        v: next(w for w in tree.adj[v] if layer[w] == layer[v] - 1)
        for v in range(tree.n)
        if v != root
    }


def postorder_concat(asg: SubtreeAssignment) -> str:
    """The nodes' own substrings in post-order, each node's children in k
    order: a pre-order that takes the last child first, reversed."""
    out = []
    stack = [asg.root]
    while stack:
        v = stack.pop()
        out.append(asg.bits[v])
        stack.extend(asg.children.get(v, []))
    return "".join(reversed(out))


def verify_subtree_assignment(
    tree: Graph, root: int, message: str, asg: SubtreeAssignment
) -> None:
    delta = tree.max_degree()
    fanout = max(delta.bit_length(), 1)
    for v in asg.bits:
        limit = 2 if v == root else 3
        assert len(asg.bits[v]) <= limit, f"node {v}: {len(asg.bits[v])} bits"
        assert len(asg.children.get(v, [])) <= fanout
    assert postorder_concat(asg) == message
    # the chosen nodes form a subtree containing the root
    for v in asg.bits:
        for c in asg.children.get(v, []):
            assert c in tree.adj[v]


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
                assert parent[v] not in g.adj[u], (
                    f"edge ({u},{parent[v]}) breaks gather exclusion"
                )


def tagged_rounds(trace: ExecutionTrace, tag: str):
    """(round, transmitters, listeners) of each round of `trace`, both
    restricted to messages tagged `tag`. The tag is read from the frame's
    prefix, so no message is decoded."""
    prefix = frame(tag)[:-1] + b","
    for rnd, rec in enumerate(trace.rounds, start=1):
        sent = {v: m for v, m in rec.transmitters.items() if m.startswith(prefix)}
        heard = {w: m for w, m in rec.heard.items() if m.startswith(prefix)}
        yield rnd, sent, heard


def toprec_round_formula(dstar: int, delta: int, window: int) -> int:
    """Deterministic closed form for the total TopRec schedule length."""
    return dstar * (4 * delta + 4) + window


# ---------------------------------------------------------------------------
# Lower-bound audit
# ---------------------------------------------------------------------------

# Def-3 entries other than a message: transmitting or a collision under
# CD, and silence
CANON_HASH = "#"
CANON_SILENCE = "eps"


def canonical_history(trace: ExecutionTrace) -> list:
    """Per-round classification from the global transmitter sets: the message
    if exactly one node transmits, '#' for two or more, 'eps' for none."""
    out = []
    for rec in trace.rounds:
        if len(rec.transmitters) == 1:
            (msg,) = rec.transmitters.values()
            out.append(("m", msg.hex()))
        elif rec.transmitters:
            out.append(CANON_HASH)
        else:
            out.append(CANON_SILENCE)
    return out


def reference_departures(trace: ExecutionTrace, comp_of: dict[int, int]) -> dict[int, list[int]]:
    """`audit._departures` as a per-node scan: in each round with a
    transmitter or a delivery, every node of a component still on the
    canonical history is given its Def-3 entry ('#' if it transmits, its
    message if it is in `heard`, '#' if under CD a neighbour transmits, else
    'eps'), and the components of the nodes whose entry is not the
    canonical one leave."""
    adj = trace.graph.adj
    live = sorted(comp_of)
    out: dict[int, list[int]] = {}
    for rnd, rec in enumerate(trace.rounds, start=1):
        txs, heard = rec.transmitters, rec.heard
        if not txs and not heard:
            continue
        if len(txs) == 1:
            (expected,) = txs.values()
        else:
            expected = CANON_HASH if txs else CANON_SILENCE
        hit: set[int] = set()
        if trace.cd:
            for u in txs:
                hit.update(adj[u])
        leaving = set()
        for v in live:
            if v in txs:
                entry = CANON_HASH
            elif v in heard:
                entry = heard[v]
            else:
                entry = CANON_HASH if v in hit else CANON_SILENCE
            if entry != expected:
                leaving.add(comp_of[v])
        if leaving:
            out[rnd] = sorted(leaving)
            live = [v for v in live if comp_of[v] not in leaving]
    return out


def canonical_components(
    trace: ExecutionTrace, partition: LBFamilyDescriptor
) -> list[list[int]]:
    """For each round i, the set (as a sorted list of component indices) of
    components whose every node's history equals the canonical one after
    round i. Index 0 of the result corresponds to round 0 (all components).
    Raises InvalidParams if the partition does not cover the graph."""
    departures = _departures(trace, _component_index(trace, partition), partition.components)
    current = list(range(len(partition.components)))
    out = [current]
    for rnd in range(1, trace.num_rounds + 1):
        if rnd in departures:
            leaving = departures[rnd]
            current = [c for c in current if c not in leaving]
        out.append(list(current))
    return out


# ---------------------------------------------------------------------------
# Small graphs
# ---------------------------------------------------------------------------


@cache
def connected_atlas() -> tuple[tuple[str, Graph], ...]:
    """Every connected graph of `networkx.graph_atlas_g()`, the 996 graphs
    on 1 to 7 nodes, as (`atlas-<index>`, graph)."""
    return tuple(
        (f"atlas-{i}", build_graph(a.number_of_nodes(), list(a.edges())))
        for i, a in enumerate(nx.graph_atlas_g())
        if a.number_of_nodes() and nx.is_connected(a)
    )


def relabelled(g: Graph, seed: int) -> Graph:
    """`g` with its nodes renamed by a seeded uniform permutation
    (Fisher-Yates over SplitMix64), so node 0 and adjacency order move."""
    perm = list(range(g.n))
    rng = SplitMix64(seed)
    for i in range(g.n - 1, 0, -1):
        j = rng.randrange(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


@cache
def relabelled_atlas() -> tuple[tuple[str, Graph], ...]:
    """Each connected atlas graph as given and under 3 seeded random
    relabellings, as (`atlas-<index>` or `atlas-<index>/r<i>`, graph)."""
    return tuple(
        (f"{gid}/r{i}", relabelled(g, zlib.crc32(f"{gid}/r{i}".encode()))) if i else (gid, g)
        for gid, g in connected_atlas()
        for i in range(4)
    )
