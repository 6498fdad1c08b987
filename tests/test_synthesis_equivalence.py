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
number of times. The large-n tests run under the
default recursion limit.

The per-node label row builders and the stage loop that column-built label
fields and a lean stage loop replaced are kept whole as frozen builders: on
the corpora, the lower-bound graphs and large paths, grids and stars, each
bundle must equal the frozen builder's, `CoreSynthesis` stages included.
"""

import math
import sys

import pytest

from radiolab import broadcast, size_discovery, toprec
from radiolab.broadcast import (
    BroadcastTree,
    CoreSynthesis,
    StageRecord,
    minimal_dominating_subset,
    synthesize_core,
    synthesize_path_message,
)
from radiolab.corpus import corpus, toprec_corpus
from radiolab.errors import (
    BarrierExceeded,
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
from radiolab.labels import SchemeBundle, add_mode, encode_labels, int_to_bits
from radiolab.rng import SplitMix64
from radiolab.schemes import _gather_payloads, build_bundle, run_scheme
from radiolab.size_discovery import (
    COMPACT_LENGTH_C,
    SubtreeAssignment,
    _forward_reach,
    _rooted_children,
    assign_subtree_bits,
    conflict_free_paths,
    fast_sd_barrier,
    minimal_bfs_cover,
    stripe_decomposition,
)
from radiolab.toprec import TOPREC_LEN_C, TOPREC_LEN_C0, oracle_ids
from oracles import postorder_concat, verify_subtree_assignment

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


def reference_assign_subtree_bits(tree, root, message):
    """`assign_subtree_bits` as a recursion over the tree."""
    n = tree.n
    if len(message) > n.bit_length() + 1:
        raise MessageTooLong("message too long")
    fanout = max(tree.max_degree().bit_length(), 1)
    kids, size = _rooted_children(tree, root)
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
    sg = set(sd.by_layer[first + sd.lgn - 1])
    cover = set(sd.by_layer[first])
    for v in sorted(cover, reverse=True):
        trial = cover - {v}
        if trial and sg <= _forward_reach(sd, j, trial):
            cover = trial
    return sorted(cover)


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
# Bundle equivalence
# ---------------------------------------------------------------------------


def _graphs():
    size_sample = corpus()[::3]
    picked = {gid for gid, _ in size_sample}
    out = list(size_sample)
    out += [(gid, g) for gid, g in toprec_corpus() if gid not in picked]
    out += [(f"G_{n}", gen_lb_family(n)[0]) for n in (16, 36, 64, 100, 144, 256, 576)]
    out += [(f"star-{n}", gen_star(n)) for n in (2, 3, 4, 9, 513, 1025)]
    return out


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
        assert minimal_bfs_cover(sd, j) == reference_minimal_bfs_cover(sd, j), j
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
            len(g.adj[v]) for layer in sd.by_layer[j * sd.lgn : (j + 1) * sd.lgn] for v in layer
        )
        SCANNED[0] = 0
        cover = minimal_bfs_cover(sd, j)
        ratios[j] = SCANNED[0] / entries
        SCANNED[0] = 0
        assert cover == reference_minimal_bfs_cover(sd, j), j
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
        new = assign_subtree_bits(tree, root, m)
        assert new == reference_assign_subtree_bits(tree, root, m)
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


# ---------------------------------------------------------------------------
# Frozen per-node builders: synthesis before the lean stage loop and the
# column-built label fields
# ---------------------------------------------------------------------------


def _frozen_degree_sum(g, nodes):
    return sum(map(len, map(g.adj.__getitem__, nodes)))


def frozen_minimal_dominating_subset(candidates, targets, g):
    """`minimal_dominating_subset` choosing its side from two full degree
    sums on every call, with a lowest-cover dict and a per-candidate target
    map."""
    adj = g.adj
    low = {}
    if _frozen_degree_sum(g, targets) <= _frozen_degree_sum(g, candidates):
        is_candidate = candidates.__contains__
        for u in targets:
            v = next(filter(is_candidate, adj[u]), None)
            if v is not None:
                low[u] = v
    else:
        left = set(targets)
        for v in sorted(candidates):
            near = left.intersection(adj[v])
            if near:
                low.update(dict.fromkeys(near, v))
                left -= near
                if not left:
                    break
    if len(low) < len(targets):
        u = next(u for u in targets if u not in low)
        raise Undominatable(f"target {u} has no candidate neighbor")
    lowest_for = {}
    for u, v in low.items():
        lowest_for.setdefault(v, []).append(u)
    chosen = {}
    covered = set()
    multi = set()
    for v in sorted(lowest_for, reverse=True):
        if not covered.issuperset(lowest_for[v]):
            near = chosen[v] = targets.intersection(adj[v])
            multi |= covered & near
            covered |= near
    unique = {}
    for v, near in chosen.items():
        unique.update(dict.fromkeys(near - multi, v))
    return set(chosen), unique


def frozen_synthesize_core(g, sources):
    """`synthesize_core` with three degree sums and a per-member children
    list in every stage, the uninformed set built up front, and a subset
    call for the empty last frontier."""
    if not sources:
        raise EmptySourceSet("need at least one source")
    n = g.n
    adj = g.adj
    informed = set(sources)
    level = {s: 0 for s in sources}
    parent = {}
    join = [0] * n
    stay = [0] * n
    dom1 = [0] * n
    frontier = {u for s in sources for u in adj[s] if u not in informed}
    dom, newly = frozen_minimal_dominating_subset(set(sources), frontier, g)
    for v in dom:
        dom1[v] = 1
    uninformed = set(range(n)) - informed
    uninformed_deg = _frozen_degree_sum(g, uninformed)
    stages = []
    stage = 1
    while len(informed) < n:
        if not dom:
            raise Undominatable("no dominators left but nodes remain uninformed")
        r1 = 3 * stage - 2
        children = {v: [] for v in dom}
        for u, p in newly.items():
            level[u] = r1
            children[p].append(u)
        feedback = {}
        for v in dom:
            feedback[v] = min(children[v])
        informed.update(newly)
        uninformed.difference_update(newly)
        newly_deg = _frozen_degree_sum(g, newly)
        uninformed_deg -= newly_deg
        if newly_deg <= uninformed_deg:
            reached = set()
            for w in newly:
                reached.update(adj[w])
            next_frontier = frontier.difference(newly)
            next_frontier |= reached - informed
        else:
            next_frontier = {u for u in uninformed if not informed.isdisjoint(adj[u])}
        next_dom, next_newly = frozen_minimal_dominating_subset(
            dom.union(newly), next_frontier, g
        )
        for u in newly:
            join[u] = 1 if u in next_dom else 0
        for v in dom:
            stay[feedback[v]] = 1 if v in next_dom else 0
        stages.append(
            StageRecord(stage=stage, dom=dom, frontier=frontier, newly=newly, feedback=feedback)
        )
        dom, newly, frontier = next_dom, next_newly, next_frontier
        stage += 1
    t = 3 * (stage - 1)
    for rec in stages:
        parent.update(rec.newly)
    tree = BroadcastTree(sources=tuple(sorted(sources)), parent=parent, level=level, t=t)
    return CoreSynthesis(tree=tree, stages=stages, join=join, stay=stay, dom1=dom1, t=t)


def frozen_core_blocks(syn, v, src):
    return [f"{syn.join[v]}{syn.stay[v]}", f"{1 if src else 0}{syn.dom1[v]}"]


def frozen_ack_blocks(syn, s):
    path = broadcast._max_level_path(syn.tree, s)
    on_path = set(path)
    v_p = path[-1] if len(path) > 1 else None
    blocks = [
        frozen_core_blocks(syn, v, v == s)
        + [f"{1 if v in on_path else 0}{1 if v == v_p else 0}"]
        for v in range(len(syn.join))
    ]
    return blocks, path


def frozen_synthesize_path_message(g, s, message_bits, syn=None):
    if syn is None:
        syn = frozen_synthesize_core(g, {s})
    blocks, path = frozen_ack_blocks(syn, s)
    t_exec = syn.t
    tack = 3 * t_exec
    top = syn.tree.max_level()
    marked = {0: s} if g.n >= 1 else {}
    children_at = {}
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
            marked[k] = pj1 if k == hi else min(children_at[(pj, k)])
    m = len(message_bits)
    if tack == 0:
        chunks = {0: message_bits}
    else:
        size = 9 * (-(-m // tack)) if m else 1
        levels = sorted(marked)
        pieces = [message_bits[i : i + size] for i in range(0, m, size)] or [""]
        chunks = {levels[i]: pieces[i] for i in range(len(pieces))}
    chunk_of = {marked[k]: chunks.get(k, "") for k in marked}
    labels = encode_labels(
        blocks[v] + ["1" if v in chunk_of else "0", chunk_of.get(v, "")] for v in range(g.n)
    )
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


def frozen_build_compact_labels(g):
    n = g.n
    root = min(range(n), key=lambda v: (-g.degree(v), v))
    delta = max((len(a) for a in g.adj), default=0)
    k_rounds = delta.bit_length()
    width_a = max(k_rounds.bit_length(), 1)
    syn = frozen_synthesize_core(g, {root})
    ack, path = frozen_ack_blocks(syn, root)
    a_field = ["0" * width_a] * n
    b_field = ["0"] * n
    a_field[root] = int_to_bits(k_rounds, width_a)
    delta_bits = int_to_bits(delta) if delta else ""
    for i, v in enumerate(list(g.adj[root])[:k_rounds], start=1):
        a_field[v] = int_to_bits(i, width_a)
        b_field[v] = delta_bits[i - 1]
    tree_graph = build_graph(n, [(u, p) for u, p in syn.tree.parent.items()])
    message = int_to_bits(n)
    asg = assign_subtree_bits(tree_graph, root, message)
    width_k = max(k_rounds.bit_length(), 1)
    labels = encode_labels(
        [
            "1" if v == root else "0",
            a_field[v],
            b_field[v],
            *ack[v],
            int_to_bits(asg.child_num.get(v, 0), width_k),
            asg.bits.get(v, ""),
        ]
        for v in range(n)
    )
    return SchemeBundle(
        scheme="compact",
        labels=labels,
        meta={"synthesis": syn, "root": root, "t": syn.t, "subtree": asg,
              "message": message, "delta": delta, "path": path},
    )


def frozen_build_general_sd(g):
    n = g.n
    syn = frozen_synthesize_core(g, {0})
    t_g = 3 * syn.t
    use_compact = n > 1 and t_g < math.log2(n)
    if use_compact:
        inner = frozen_build_compact_labels(g)
    else:
        inner = frozen_synthesize_path_message(g, 0, int_to_bits(n), syn)
    mode = "1" if use_compact else "0"
    return SchemeBundle(
        scheme="general",
        labels=[add_mode(mode, lab) for lab in inner.labels],
        meta={"inner": inner, "branch": "compact" if use_compact else "pathmsg", "t_G": t_g},
    )


def frozen_build_fast_sd(g):
    n = g.n
    try:
        sd = stripe_decomposition(g, 0)
    except TooShallow:
        general = frozen_build_general_sd(g)
        return SchemeBundle(
            scheme="fastsd",
            labels=[add_mode("0", lab) for lab in general.labels],
            meta={"mode": "fallback", "inner": general},
        )
    lgn = sd.lgn
    message = int_to_bits(n)
    m_bit = ["0"] * n
    on_paths = [False] * n
    cover_flag = [False] * n
    reach_flag = [False] * n
    stripe_meta = {}
    b_bits = [["00", "00"]] * n
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
        sub_nodes = sorted(xbfs)
        sub_index = {v: i for i, v in enumerate(sub_nodes)}
        sub_edges = [
            (sub_index[a], sub_index[b]) for a in sub_nodes for b in g.adj[a] if b > a and b in xbfs
        ]
        sub = build_graph(len(sub_nodes), sub_edges)
        syn = frozen_synthesize_core(sub, {sub_index[u] for u in cover})
        if lgn + syn.t >= fast_sd_barrier(n):
            raise BarrierExceeded(f"stripe {j}")
        for v in xbfs:
            b_bits[v] = frozen_core_blocks(syn, sub_index[v], v in cover)
        stripe_meta[j] = {"cover": cover, "paths": paths, "xbfs": sorted(xbfs),
                          "phase2_t": syn.t}
    sources = {v for v in range(n) if sd.supergreen[v]}
    s2 = frozen_synthesize_core(g, sources)
    labels = encode_labels(
        [
            "1",
            "".join(
                "1" if f else "0"
                for f in (reach_flag[v], sd.supergreen[v], cover_flag[v], on_paths[v])
            ),
            m_bit[v],
            *b_bits[v],
            *frozen_core_blocks(s2, v, v in sources),
        ]
        for v in range(n)
    )
    return SchemeBundle(
        scheme="fastsd",
        labels=labels,
        meta={"mode": "stripes", "decomposition": sd, "stripes": stripe_meta, "stage2": s2,
              "message": message, "barrier": fast_sd_barrier(n)},
    )


def frozen_assign_broadcast_indices(g, r):
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


def frozen_build_bfs_labels(g, r, payloads=None):
    b, parent, la = frozen_assign_broadcast_indices(g, r)
    gv = toprec.assign_gather_indices(g, r, la, parent, b)
    n = g.n
    delta = max((len(a) for a in g.adj), default=0)
    wd = max(delta.bit_length(), 1)
    wg = max((delta - 1).bit_length(), 1) if delta > 1 else 1
    path = [min(v for v in range(n) if la.layer[v] == la.depth)]
    while path[-1] != r:
        path.append(parent[path[-1]])
    on_path = set(path)
    delta_bits = int_to_bits(delta, wd)
    labels = encode_labels(
        [
            "1" if v == r else "0",
            "0" if any(la.layer[w] == la.layer[v] + 1 for w in g.adj[v]) else "1",
            "1" if v in on_path else "0",
            int_to_bits(b[v], wd),
            int_to_bits(gv[v], wg),
            delta_bits,
            payloads[v] if payloads else "",
        ]
        for v in range(n)
    )
    return SchemeBundle(
        scheme="bfs",
        labels=labels,
        meta={"root": r, "layers": la, "parent": parent, "b": b, "g": gv, "path": path,
              "delta": delta},
    )


def frozen_build_toprec_labels(g):
    n = g.n
    r = 0
    base = frozen_build_bfs_labels(g, r)
    delta = max((len(a) for a in g.adj), default=0)
    colors = toprec.distance_two_coloring(g)
    id_mode = delta * delta + 1 > n
    wc = max((delta * delta + 1).bit_length(), 1)
    wu = max(n.bit_length(), 1)
    tails = encode_labels(
        [
            int_to_bits(colors[v], wc),
            "1" if id_mode else "0",
            int_to_bits(v + 1, wu) if id_mode else "",
            int_to_bits(n) if (id_mode and v == r) else "",
        ]
        for v in range(n)
    )
    return SchemeBundle(
        scheme="toprec",
        labels=[head + "00" + tail for head, tail in zip(base.labels, tails)],
        meta={**base.meta, "colors": colors, "id_mode": id_mode,
              "stage2_window": n if id_mode else delta * delta + 1},
    )


FROZEN = {
    "compact": frozen_build_compact_labels,
    "general": frozen_build_general_sd,
    "fastsd": frozen_build_fast_sd,
    "toprec": frozen_build_toprec_labels,
    "broadcast-bfs": lambda g: frozen_build_bfs_labels(g, 0),
    "gather-bfs": lambda g: frozen_build_bfs_labels(g, 0, payloads=_gather_payloads(g.n)),
}
PATH_MESSAGE = "1011001"


def check_frozen(g, schemes):
    """Each scheme's bundle, and the path-message bundle, equal the frozen
    builders' in labels and meta (every `CoreSynthesis` in it, stages
    included), and so does `synthesize_core` from node 0."""
    for scheme in schemes:
        assert build_bundle(scheme, g) == FROZEN[scheme](g), scheme
    assert synthesize_path_message(g, 0, PATH_MESSAGE) == frozen_synthesize_path_message(
        g, 0, PATH_MESSAGE
    )
    assert synthesize_core(g, {0}) == frozen_synthesize_core(g, {0})


SIZE_SCHEMES = ("compact", "general", "fastsd", "broadcast-bfs", "gather-bfs")


@pytest.mark.parametrize("part", range(4))
def test_size_corpus_matches_frozen_builders(part):
    for _, g in corpus()[part::4]:
        check_frozen(g, SIZE_SCHEMES)


@pytest.mark.parametrize("part", range(4))
def test_toprec_corpus_matches_frozen_builders(part):
    for _, g in toprec_corpus()[part::4]:
        check_frozen(g, ("toprec",))


LB_SIZES = tuple((2 * k) ** 2 for k in range(2, 15))  # G_16 .. G_784


@pytest.mark.parametrize("n", LB_SIZES, ids=[f"G_{n}" for n in LB_SIZES])
def test_lb_family_matches_frozen_builders(n):
    g = LB_784 if n == 784 else gen_lb_family(n)[0]
    check_frozen(g, (*SIZE_SCHEMES, "toprec"))


LARGE = {
    "path-2048": lambda: gen_path(2048),
    "grid-64x64": lambda: gen_grid(64, 64),
    "star-2049": lambda: gen_star(2049),
}


@pytest.mark.parametrize("gid", LARGE)
def test_large_graphs_match_frozen_builders(gid):
    check_frozen(LARGE[gid](), (*SIZE_SCHEMES, "toprec"))


@pytest.mark.parametrize("seed", range(20))
def test_multi_source_core_matches_frozen(seed):
    """Sparse and dense G(n, p) from one to eight sources."""
    rng = SplitMix64(0xF402E + seed)
    n = 2 + rng.randrange(300)
    g = gen_random_connected(n, 0.01 + rng.randrange(60) / 100, rng.next_u64())
    sources = {rng.randrange(n) for _ in range(1 + rng.randrange(8))}
    assert synthesize_core(g, sources) == frozen_synthesize_core(g, sources)
