"""Oracle label synthesis against the code it replaced.

The rescanning frontier of `synthesize_core` with its per-frontier sender
scan, the rescanning `minimal_dominating_subset`, the per-child scan of
`assign_gather_indices`, the per-neighbour loop of `distance_two_coloring`,
the recursive `assign_subtree_bits` and the greedy-removal
`minimal_bfs_cover` are kept here as test-only references. Every bundle
built with them patched in must equal the bundle the current code builds,
label for label and in its meta. A counting adjacency checks that
`synthesize_core` scans from the smaller side, that BFS stops at its last
discovery and that the stripe cover reads each stripe's adjacency a bounded
number of times. The large-n tests run under the default recursion limit.

Synthesis takes a shortcut where a stage's frontier, a BFS layer or a
node's child list is one node; brooms, paths into grids and caterpillars
switch between one node and many, so they meet the shortcut and the
general rule in one graph, and are compared against the references and
against `reference_assign_broadcast_indices`, which filters each node's
next-layer row again in every index pass.

Whole synthesis outputs on fixed inputs (the corpora, the lower-bound
graphs, large paths, grids and stars, and seeded multi-source cores) are
pinned by digest instead: `golden.synthesis_sweep`, checked in
`test_golden.py`.
"""
import math
import sys
import zlib

import pytest

from radiolab import broadcast, size_discovery, toprec
from radiolab.broadcast import (
    BroadcastTree,
    CoreSynthesis,
    StageRecord,
    minimal_dominating_subset,
    synthesize_core,
)
from radiolab.corpus import corpus, toprec_corpus
from radiolab.errors import (
    EmptySourceSet,
    MessageTooLong,
    TooShallow,
    Undominatable,
)
from radiolab.graphs import (
    Graph,
    bfs_layers,
    build_graph,
    gen_grid,
    gen_lb_family,
    gen_lb_general,
    gen_path,
    gen_random_connected,
    gen_star,
    gen_tree,
)
from radiolab.labels import int_to_bits
from radiolab.rng import SplitMix64
from radiolab.schemes import build_bundle, run_scheme
from radiolab.size_discovery import (
    COMPACT_LENGTH_C,
    SubtreeAssignment,
    _forward_reach,
    assign_subtree_bits,
    minimal_bfs_cover,
    stripe_decomposition,
)
from radiolab.toprec import TOPREC_LEN_C, TOPREC_LEN_C0, oracle_ids
from oracles import postorder_concat, relabelled, tree_parent, verify_subtree_assignment

SCHEMES = ("compact", "general", "fastsd", "toprec")


# ---------------------------------------------------------------------------
# References: the synthesis helpers before they were made near-linear
# ---------------------------------------------------------------------------


def reference_minimal_dominating_subset(candidates, targets, g):
    """`minimal_dominating_subset` counting coverage from the targets and
    rescanning each candidate's adjacency in the greedy removal."""
    chosen = set(candidates)
    cover = {}
    for u in targets:
        c = sum(1 for w in g.adj[u] if w in chosen)
        if c == 0:
            raise Undominatable(f"target {u} has no candidate neighbor")
        cover[u] = c
    for v in sorted(chosen, reverse=True):
        touched = [u for u in g.adj[v] if u in cover]
        if all(cover[u] >= 2 for u in touched):
            chosen.discard(v)
            for u in touched:
                cover[u] -= 1
    return chosen


def reference_synthesize_core(g, sources):
    """`synthesize_core` with the next frontier rebuilt from every informed
    node's adjacency in every stage, and the newly informed nodes found by
    scanning each frontier node's adjacency for DOM members."""
    if not sources:
        raise EmptySourceSet("need at least one source")
    n = g.n
    informed = set(sources)
    level = {s: 0 for s in sources}
    parent = {}
    join = [0] * n
    stay = [0] * n
    dom1 = [0] * n

    frontier = {u for s in sources for u in g.adj[s] if u not in informed}
    dom = reference_minimal_dominating_subset(sources, frontier, g) if frontier else set()
    for v in dom:
        dom1[v] = 1

    stages = []
    stage = 1
    while len(informed) < n:
        if not dom:
            raise Undominatable("no dominators left but nodes remain uninformed")
        r1 = 3 * stage - 2
        newly = {}
        for u in frontier:
            senders = [w for w in g.adj[u] if w in dom]
            if len(senders) == 1:
                newly[u] = senders[0]
                level[u] = r1
        children = {v: [] for v in dom}
        for u, p in newly.items():
            children[p].append(u)
        feedback = {}
        for v in dom:
            assert children[v]
            feedback[v] = min(children[v])
        informed |= set(newly)
        next_frontier = {u for w in informed for u in g.adj[w] if u not in informed}
        if next_frontier:
            next_dom = reference_minimal_dominating_subset(dom | set(newly), next_frontier, g)
        else:
            next_dom = set()
        for u in newly:
            join[u] = 1 if u in next_dom else 0
        for v in dom:
            stay[feedback[v]] = 1 if v in next_dom else 0
        stages.append(
            StageRecord(stage=stage, dom=dom, frontier=frontier, newly=newly, feedback=feedback)
        )
        dom = next_dom
        frontier = next_frontier
        stage += 1

    t = 3 * (stage - 1)
    for rec in stages:
        parent.update(rec.newly)
    tree = BroadcastTree(sources=tuple(sorted(sources)), parent=parent, level=level, t=t)
    return CoreSynthesis(tree=tree, stages=stages, join=join, stay=stay, dom1=dom1, t=t)


def reference_assign_broadcast_indices(g, r):
    """`assign_broadcast_indices` filtering each node's next-layer row again
    in every index pass."""
    la = bfs_layers(g, r)
    n = g.n
    b = [None] * n
    parent = [None] * n
    by_layer = {}
    for v in range(n):
        by_layer.setdefault(la.layer[v], []).append(v)
    for i in range(la.depth + 1):
        covered = set()
        remaining = sorted(by_layer.get(i, []))
        j = 0
        while remaining:
            claimed = {}
            members = []
            for v in remaining:
                zv = [w for w in g.adj[v] if la.layer[w] == i + 1 and w not in covered]
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
    return b, parent, la


def reference_assign_gather_indices(g, r, la, parent, b):
    """`assign_gather_indices` scanning every node per layer and rebuilding
    the parent's used set per child."""
    n = g.n
    gv = [None] * n
    gv[r] = 0
    children = {}
    for v in range(n):
        if v != r:
            children.setdefault(parent[v], []).append(v)
    for i in range(1, la.depth + 1):
        layer_parents = sorted(
            {parent[v] for v in range(n) if la.layer[v] == i}, key=lambda p: (b[p], p)
        )
        for p in layer_parents:
            for u in sorted(c for c in children.get(p, []) if la.layer[c] == i):
                used = {gv[w] for w in g.adj[p] if la.layer[w] == i and gv[w] is not None}
                x = 0
                while x in used:
                    x += 1
                gv[u] = x
    return gv


def reference_distance_two_coloring(g):
    """`distance_two_coloring` with a Python loop over every neighbour's
    neighbours."""
    colors = [0] * g.n
    for v in range(g.n):
        near = set()
        for w in g.adj[v]:
            near.add(colors[w])
            for x in g.adj[w]:
                if x != v:
                    near.add(colors[x])
        c = 1
        while c in near:
            c += 1
        colors[v] = c
    return colors


def reference_rooted_children(tree, root):
    """Each node's children, ascending, and each subtree's size, from the
    BFS layers of `tree`: a node's parent is its lowest neighbour one layer
    up."""
    la = bfs_layers(tree, root)
    kids = {v: [] for v in range(tree.n)}
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


def reference_assign_subtree_bits(parent, root, message):
    """`assign_subtree_bits` as a recursion over the tree, rebuilt as a
    `Graph` from `parent` and rooted again by its BFS layers."""
    n = len(parent) + 1
    if len(message) > n.bit_length() + 1:
        raise MessageTooLong("message too long")
    tree = build_graph(n, list(parent.items()))
    fanout = max(tree.max_degree().bit_length(), 1)
    kids, size = reference_rooted_children(tree, root)
    out = SubtreeAssignment(root=root, bits={}, child_num={}, children={})

    def rec(v, piece):
        chosen = sorted(kids[v], key=lambda c: (-size[c], c))[:fanout]
        pos = 0
        used = []
        for c in chosen:
            if pos >= len(piece):
                break
            cap = size[c].bit_length() + 1
            inner = piece[pos : pos + cap]
            pos += len(inner)
            extra = piece[pos : pos + 1]
            pos += len(extra)
            rec(c, inner)
            out.bits[c] += extra
            used.append(c)
        own = piece[pos:]
        assert len(own) <= 2
        out.bits[v] = own
        out.children[v] = used
        for i, c in enumerate(used, start=1):
            out.child_num[c] = i

    rec(root, message)
    out.child_num[root] = 0
    return out


def reference_minimal_bfs_cover(sd, j):
    """`minimal_bfs_cover` trying each first-layer node for removal, in
    descending order, with one whole-stripe reach per try."""
    first = j * sd.lgn
    sg = set(sd.layers.by_layer[first + sd.lgn - 1])
    cover = set(sd.layers.by_layer[first])
    for v in sorted(cover, reverse=True):
        trial = cover - {v}
        if trial and sg <= _forward_reach(sd, j, trial):
            cover = trial
    return {member: _forward_reach(sd, j, {member}) for member in sorted(cover)}


def reference_bundle(monkeypatch, scheme, g):
    with monkeypatch.context() as m:
        m.setattr(broadcast, "synthesize_core", reference_synthesize_core)
        m.setattr(size_discovery, "synthesize_core", reference_synthesize_core)
        m.setattr(size_discovery, "assign_subtree_bits", reference_assign_subtree_bits)
        m.setattr(size_discovery, "minimal_bfs_cover", reference_minimal_bfs_cover)
        m.setattr(toprec, "assign_gather_indices", reference_assign_gather_indices)
        m.setattr(toprec, "distance_two_coloring", reference_distance_two_coloring)
        return build_bundle(scheme, g)


def check_ids(bundle):
    """The toprec oracle ids: the root's is empty, every other node's is its
    parent's plus its own gather index."""
    ids = oracle_ids(bundle.meta)
    parent, gv, root = (bundle.meta[k] for k in ("parent", "g", "root"))
    assert ids[root] == ()
    for v in range(len(ids)):
        if v != root:
            assert ids[v] == ids[parent[v]] + (gv[v],)


# ---------------------------------------------------------------------------
# Stages and layers of one node and of many
# ---------------------------------------------------------------------------


def broom(tail, bristles):
    """A path of `tail` nodes whose last node is the centre of a star with
    `bristles` more leaves."""
    edges = [(i, i + 1) for i in range(tail - 1)]
    edges += [(tail - 1, tail + i) for i in range(bristles)]
    return build_graph(tail + bristles, edges)


def path_into_grid(tail, rows, cols):
    """A path of `tail` nodes whose last node is joined to corner 0 of a
    rows x cols grid (renumbered after the path)."""
    grid = gen_grid(rows, cols)
    edges = [(i, i + 1) for i in range(tail - 1)] + [(tail - 1, tail)]
    edges += [(tail + u, tail + v) for u, v in grid.edges()]
    return build_graph(tail + grid.n, edges)


def caterpillar(spine, legs):
    """A path of `spine` nodes; spine node i carries `legs[i % len(legs)]`
    leaves, so BFS layers and broadcast stages switch between one node
    and many."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    n = spine
    for i in range(spine):
        for _ in range(legs[i % len(legs)]):
            edges.append((i, n))
            n += 1
    return build_graph(n, edges)


def _switching():
    """Each graph as built and under one seeded relabelling, so the
    one-node rule meets index tie-breaks in both orders."""
    base = {
        "broom-30-12": broom(30, 12),
        "broom-5-40": broom(5, 40),
        "path-20-grid-6x7": path_into_grid(20, 6, 7),
        "path-3-grid-9x4": path_into_grid(3, 9, 4),
        "caterpillar-40-0102": caterpillar(40, (0, 1, 0, 2)),
        "caterpillar-25-3001": caterpillar(25, (3, 0, 0, 1)),
    }
    out = []
    for gid, g in base.items():
        out.append((gid, g))
        out.append((f"{gid}/r", relabelled(g, zlib.crc32(gid.encode()))))
    return out


SWITCHING = _switching()
SWITCHING_IDS = [gid for gid, _ in SWITCHING]


def switching_sources(g):
    """Single sources at both ends and in the middle, and sets of two to
    five sources drawn from a seed of the graph's size."""
    rng = SplitMix64(0x51DE + g.n)
    out = [{0}, {g.n - 1}, {g.n // 2}]
    out += [{rng.randrange(g.n) for _ in range(k)} for k in (2, 3, 5)]
    return out


@pytest.mark.parametrize("gid,g", SWITCHING, ids=SWITCHING_IDS)
def test_switching_cores_match_reference(gid, g):
    for sources in switching_sources(g):
        assert synthesize_core(g, sources) == reference_synthesize_core(g, sources), sources


@pytest.mark.parametrize("gid,g", SWITCHING, ids=SWITCHING_IDS)
def test_switching_layers_match_reference(gid, g):
    """Broadcast and gather indices from roots at both ends and in the
    middle, against the rescanning index passes and the per-child gather
    scan."""
    for r in (0, g.n - 1, g.n // 2):
        b, parent, la = toprec.assign_broadcast_indices(g, r)
        assert (b, parent, la) == reference_assign_broadcast_indices(g, r), r
        assert toprec.assign_gather_indices(g, r, la, parent, b) == (
            reference_assign_gather_indices(g, r, la, parent, b)
        ), r


@pytest.mark.parametrize("gid,g", SWITCHING, ids=SWITCHING_IDS)
def test_switching_subtree_bits_match_reference(gid, g):
    """The packing over each graph's broadcast tree, as compact builds it,
    and over its BFS tree, from both ends and the middle."""
    message = int_to_bits(g.n)
    for root in (0, g.n - 1, g.n // 2):
        bfs = toprec.assign_broadcast_indices(g, root)[1]
        for parent in (synthesize_core(g, {root}).tree.parent,
                       {v: p for v, p in enumerate(bfs) if v != root}):
            new = assign_subtree_bits(parent, root, message)
            assert new == reference_assign_subtree_bits(parent, root, message), root
            assert postorder_concat(new) == message


def test_one_node_stages_make_no_dominating_subset_call():
    """From an end of path-512 every frontier is one node, and its one
    lower neighbour informs it: no stage needs `minimal_dominating_subset`
    (a call per stage would make 511). A broom's star stage still calls it."""
    assert synthesis_calls(gen_path(512), {0}) == []
    calls = synthesis_calls(broom(30, 12), {0})
    assert [len(targets) for _, targets in calls] == [12]


# ---------------------------------------------------------------------------
# Bundle equivalence
# ---------------------------------------------------------------------------


def _graphs():
    size_sample = corpus()[::3]
    picked = {gid for gid, _ in size_sample}
    out = list(size_sample)
    out += [(gid, g) for gid, g in toprec_corpus() if gid not in picked]
    out += [(f"G_{n}", gen_lb_family(n)[0]) for n in (16, 36, 64, 100, 144, 256, 576)]
    out += [(f"star-{n}", gen_star(n)) for n in (2, 3, 4, 9, 513, 1025)]
    return out + SWITCHING


GRAPHS = _graphs()
LB_784 = gen_lb_family(784)[0]
LB_2304 = gen_lb_family(2304)[0]


@pytest.mark.parametrize("gid,g", GRAPHS, ids=[gid for gid, _ in GRAPHS])
def test_bundles_match_reference(monkeypatch, gid, g):
    for scheme in SCHEMES:
        new = build_bundle(scheme, g)
        ref = reference_bundle(monkeypatch, scheme, g)
        assert new.labels == ref.labels, scheme
        assert new.meta == ref.meta, scheme
        if scheme == "toprec":
            check_ids(new)


# ---------------------------------------------------------------------------
# Stripe covers
# ---------------------------------------------------------------------------


GRID_128 = gen_grid(128, 128)


def check_covers(g, s=0):
    """Every stripe's cover against the reference; the number of stripes."""
    try:
        sd = stripe_decomposition(g, s)
    except TooShallow:
        return 0
    for j in sd.stripes:
        cover, ref = minimal_bfs_cover(sd, j), reference_minimal_bfs_cover(sd, j)
        assert list(cover.items()) == list(ref.items()), j
    return len(sd.stripes)


def test_covers_match_reference_on_size_corpus():
    assert sum(check_covers(g) for _, g in corpus()) >= 100


@pytest.mark.parametrize("seed", range(20))
def test_covers_match_reference_on_random_graphs(seed):
    """Sparse G(n, p) and uniform trees from a random root; about two in
    three are deep enough to have stripes."""
    rng = SplitMix64(0xC0FE + seed)
    n = 20 + rng.randrange(400)
    gnp = gen_random_connected(n, (12 + rng.randrange(10)) / (10 * n), rng.next_u64())
    tree = gen_tree(n, rng.next_u64())
    check_covers(gnp, rng.randrange(n))
    check_covers(tree, rng.randrange(n))


@pytest.mark.parametrize(
    "rows,cols", [(3, 40), (9, 9), (17, 31), (33, 33), (5, 300), (64, 64), (100, 77), (128, 128)]
)
def test_covers_match_reference_on_grids(rows, cols):
    g = GRID_128 if rows == cols == 128 else gen_grid(rows, cols)
    assert check_covers(g) >= 1
    assert check_covers(g, g.n - 1) >= 1


@pytest.mark.parametrize("gid,g", [("grid-33x47", gen_grid(33, 47)), ("path-700", gen_path(700))])
def test_fastsd_bundle_matches_with_reference_cover(monkeypatch, gid, g):
    new = build_bundle("fastsd", g)
    assert new.meta["mode"] == "stripes"
    with monkeypatch.context() as m:
        m.setattr(size_discovery, "minimal_bfs_cover", reference_minimal_bfs_cover)
        ref = build_bundle("fastsd", g)
    assert new.labels == ref.labels
    assert new.meta == ref.meta


@pytest.mark.parametrize("seed", range(20))
def test_multi_source_core_matches_reference(seed):
    rng = SplitMix64(0x5EED + seed)
    n = 8 + rng.randrange(120)
    g = gen_random_connected(n, 0.02 + rng.randrange(30) / 100, rng.next_u64())
    sources = {rng.randrange(n) for _ in range(1 + rng.randrange(4))}
    assert synthesize_core(g, sources) == reference_synthesize_core(g, sources)


@pytest.mark.parametrize("seed", range(12))
def test_dense_core_matches_reference(seed):
    """G(n, 1/2) and dense multi-source cases, where coverage is counted from
    both sides and the frontier is built from both sides."""
    rng = SplitMix64(0xDE45E + seed)
    n = 20 + rng.randrange(181)
    g = gen_random_connected(n, 0.5, rng.next_u64())
    sources = {rng.randrange(n) for _ in range(1 + rng.randrange(3 * (seed % 4) + 1))}
    assert synthesize_core(g, sources) == reference_synthesize_core(g, sources)


@pytest.mark.parametrize("sources", [{0}, {783}, {5, 400}, {0, 29, 56, 300, 700}])
def test_lb_family_784_core_matches_reference(sources):
    g = LB_784
    assert synthesize_core(g, sources) == reference_synthesize_core(g, sources)


def test_lb_family_784_bundles_match_reference(monkeypatch):
    for scheme in ("compact", "general", "fastsd"):
        new = build_bundle(scheme, LB_784)
        with monkeypatch.context() as m:
            m.setattr(broadcast, "synthesize_core", reference_synthesize_core)
            m.setattr(size_discovery, "synthesize_core", reference_synthesize_core)
            ref = build_bundle(scheme, LB_784)
        assert new.labels == ref.labels, scheme
        assert new.meta == ref.meta, scheme


def check_dominating_subset(candidates, targets, g):
    """`minimal_dominating_subset` against the reference: the same chosen
    set, or the same `Undominatable` message."""
    try:
        expected = reference_minimal_dominating_subset(candidates, targets, g)
    except Undominatable as exc:
        with pytest.raises(Undominatable, match=str(exc)):
            minimal_dominating_subset(candidates, targets, g)
        return
    chosen, unique = minimal_dominating_subset(candidates, targets, g)
    assert chosen == expected
    # the unique map is the per-target sender scan of the old synthesis
    senders = {u: [w for w in g.adj[u] if w in chosen] for u in targets}
    assert unique == {u: s[0] for u, s in senders.items() if len(s) == 1}


@pytest.mark.parametrize("seed", range(60))
def test_dominating_subset_matches_reference(seed):
    """Random candidate and target sets, some with the candidates' degree sum
    below the targets' and some above."""
    rng = SplitMix64(0xD0A1 + seed)
    n = 5 + rng.randrange(80)
    g = gen_random_connected(n, 0.05 + rng.randrange(90) / 100, rng.next_u64())
    k = 1 + rng.randrange(n - 1)
    candidates = {rng.randrange(n) for _ in range(k)}
    targets = {u for u in range(n) if u not in candidates and rng.randrange(3)}
    check_dominating_subset(candidates, targets, g)


def synthesis_calls(g, sources):
    """The (candidates, targets) of every `minimal_dominating_subset` call
    that `synthesize_core(g, sources)` makes."""
    calls = []

    def recording(candidates, targets, graph):
        calls.append((set(candidates), set(targets)))
        return minimal_dominating_subset(candidates, targets, graph)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(broadcast, "minimal_dominating_subset", recording)
        synthesize_core(g, sources)
    return calls


@pytest.mark.parametrize(
    "name,g,sources",
    [
        ("G_2304", LB_2304, {0}),
        ("G_2304", LB_2304, {0, 47, 500, 1201, 2303}),
        ("H_9_40", gen_lb_general(9, 40)[0], {0}),
        ("H_36_100", gen_lb_general(36, 100)[0], {3, 90}),
    ],
    ids=["G_2304-0", "G_2304-5src", "H_9_40", "H_36_100"],
)
def test_dense_synthesis_calls_match_reference(name, g, sources):
    """Every stage's call on the lower-bound graphs: each candidate covers
    most targets, so only the lowest covers decide."""
    calls = synthesis_calls(g, sources)
    assert len(calls) >= 2, name
    for candidates, targets in calls:
        check_dominating_subset(candidates, targets, g)


@pytest.mark.parametrize("n,k", [(2, 1), (5, 1), (5, 4), (40, 7), (40, 33), (120, 60)])
def test_complete_graph_dominating_subset(n, k):
    """K_n, every candidate covering every target: the lowest candidate
    alone is chosen, and it informs every target."""
    g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    candidates, targets = set(range(k)), set(range(k, n))
    check_dominating_subset(candidates, targets, g)
    assert minimal_dominating_subset(candidates, targets, g) == (
        {0}, dict.fromkeys(targets, 0)
    )


@pytest.mark.parametrize("seed", range(16))
def test_dense_dominating_subset_matches_reference(seed):
    """G(n, p) with p >= 1/2 up to n = 300; small candidate sets often leave
    a target undominated."""
    rng = SplitMix64(0xDE1D + seed)
    n = 3 + rng.randrange(298)
    g = gen_random_connected(n, 0.5 + rng.randrange(51) / 100, rng.next_u64())
    k = 1 + rng.randrange(min(n - 1, 4 if seed % 2 else n - 1))
    candidates = {rng.randrange(n) for _ in range(k)}
    targets = {u for u in range(n) if u not in candidates and rng.randrange(4)}
    check_dominating_subset(candidates, targets, g)


# ---------------------------------------------------------------------------
# Scan cost: the smaller side, counted on the adjacency tuples
# ---------------------------------------------------------------------------


class CountingTuple(tuple):
    """An adjacency tuple that adds its length to a shared counter whenever
    it is iterated, in Python or in C (`set.intersection`, `isdisjoint`)."""

    def __iter__(self):
        SCANNED[0] += len(self)
        return super().__iter__()


SCANNED = [0]


def counting(g):
    out = Graph(g.n, [])
    out.adj = tuple(CountingTuple(a) for a in g.adj)
    return out


def clique_with_tail(m, tail):
    """K_m with a path of `tail` more nodes hanging off node m - 1."""
    edges = [(u, v) for u in range(m) for v in range(u + 1, m)]
    edges += [(i - 1, i) for i in range(m, m + tail)]
    return build_graph(m + tail, edges)


@pytest.mark.parametrize(
    "name,g",
    [("path-3000", gen_path(3000)), ("clique-200-tail-300", clique_with_tail(200, 300))],
)
def test_synthesis_scans_the_smaller_side(name, g):
    """On a path the frontier grows from the newly informed node: a scan of
    the uninformed nodes costs O(n) per stage. On K_200 the first stage must
    count coverage from the one source, then find the tail from the
    uninformed side and count its coverage from the one target: any other
    side costs about 200^2 = 40,000 entries. On both graphs the smaller side
    stays under 8 n entries."""
    cg = counting(g)
    SCANNED[0] = 0
    syn = synthesize_core(cg, {0})
    assert syn == reference_synthesize_core(g, {0})
    assert SCANNED[0] <= 8 * g.n, (name, SCANNED[0])


def test_bfs_stops_at_last_discovery():
    """On G_2304 every node is found within the first few rows, so BFS reads
    at most 4 n adjacency entries of the graph's 2 m = 5.2 M."""
    g = counting(LB_2304)
    SCANNED[0] = 0
    la = bfs_layers(g, 0)
    assert la == bfs_layers(LB_2304, 0)
    assert la.depth == 2
    assert SCANNED[0] <= 4 * g.n, SCANNED[0]


def test_cover_reads_each_stripe_a_bounded_number_of_times():
    """On grid-128x128 the cover reads at most 3x each stripe's adjacency
    entries (one lowest-ancestor pass, then one reach per kept node); the
    greedy removal it replaced rereads the whole stripe for every node it
    tries, far over that bound."""
    g = counting(GRID_128)
    sd = stripe_decomposition(g, 0)
    ratios = {}
    for j in sd.stripes:
        entries = sum(
            len(g.adj[v])
            for layer in sd.layers.by_layer[j * sd.lgn : (j + 1) * sd.lgn]
            for v in layer
        )
        SCANNED[0] = 0
        cover = minimal_bfs_cover(sd, j)
        ratios[j] = SCANNED[0] / entries
        SCANNED[0] = 0
        assert list(cover) == list(reference_minimal_bfs_cover(sd, j)), j
        if j == 8:
            assert SCANNED[0] > 10 * entries, SCANNED[0]
    assert len(ratios) >= 8
    assert max(ratios.values()) <= 3, ratios


def test_subtree_bits_match_reference():
    rng = SplitMix64(0xB175)
    for _ in range(300):
        n = 1 + rng.randrange(300)
        tree = gen_tree(n, rng.next_u64())
        root = rng.randrange(n)
        m = "".join("1" if rng.next_u64() & 1 else "0" for _ in range(n.bit_length() + 1))
        parent = tree_parent(tree, root)
        new = assign_subtree_bits(parent, root, m)
        assert new == reference_assign_subtree_bits(parent, root, m)
        assert postorder_concat(new) == m


# ---------------------------------------------------------------------------
# Large n under the default recursion limit
# ---------------------------------------------------------------------------


def backwards_path(n):
    """A path 0, n-1, n-2, ..., 1: BFS from 0 meets the labels in
    descending order, so each node's parent has the next larger label."""
    return build_graph(n, [(0, n - 1)] + [(i, i - 1) for i in range(2, n)])


def test_path_8192_all_schemes():
    n = 8192
    assert sys.getrecursionlimit() < n
    g = gen_path(n)
    delta = 2
    bounds = {
        "compact": COMPACT_LENGTH_C * (math.ceil(math.log2(math.log2(delta + 2))) + 1),
        "toprec": TOPREC_LEN_C * (math.ceil(math.log2(delta + 1)) + 1) + TOPREC_LEN_C0,
    }
    for scheme in SCHEMES:
        bundle = build_bundle(scheme, g)
        assert len(bundle.labels) == n
        if scheme in bounds:
            assert bundle.max_label_bits() <= bounds[scheme], scheme
        if scheme == "compact":
            syn = bundle.meta["synthesis"]
            tree = build_graph(n, list(syn.tree.parent.items()))
            verify_subtree_assignment(tree, bundle.meta["root"], bundle.meta["message"],
                                      bundle.meta["subtree"])
        if scheme == "toprec":
            check_ids(bundle)


def test_compact_runs_on_long_path():
    assert run_scheme("compact", gen_path(1200)).ok


def test_backwards_path_toprec():
    assert sys.getrecursionlimit() < 1500
    bundle = build_bundle("toprec", backwards_path(1500))
    check_ids(bundle)
    assert oracle_ids(bundle.meta)[1] == (0,) * 1499
    # the run is checked on a short copy of the same shape: on a path, a
    # toprec run's messages total O(n^3) bytes
    assert run_scheme("toprec", backwards_path(120)).ok
