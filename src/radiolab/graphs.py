"""Graph representation, BFS layering, and generators.

Nodes are dense 0-based indices; the abstract total order used for
tie-breaking everywhere is plain index order. Graphs are immutable after
construction and safe to share across runs.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence, TextIO

from .errors import (
    Disconnected,
    DuplicateEdge,
    IndexOutOfRange,
    InvalidParams,
    NotPerfectEvenSquare,
    OddSize,
    SelfLoop,
)
from .rng import SplitMix64


class Graph:
    """Simple undirected graph: node count plus per-node sorted adjacency.

    The rows are taken as given: each must already be strictly increasing
    (`build_graph` sorts the rows it builds; the lower-bound generators
    build theirs in order)."""

    __slots__ = ("n", "adj", "_edges", "_degrees", "_max_degree")

    def __init__(self, n: int, adj: Sequence[Sequence[int]]):
        self.n = n
        self.adj = tuple(map(tuple, adj))
        self._edges = self._degrees = self._max_degree = None

    def edges(self) -> list[tuple[int, int]]:
        """Canonical edge list: u < v, sorted."""
        if self._edges is None:
            self._edges = [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]
        return self._edges

    def m(self) -> int:
        return len(self.edges())

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def degrees(self) -> list[int]:
        """Every node's degree, counted on first use."""
        if self._degrees is None:
            self._degrees = list(map(len, self.adj))
        return self._degrees

    def max_degree(self) -> int:
        if self._max_degree is None:
            self._max_degree = max(self.degrees(), default=0)
        return self._max_degree

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, m={self.m()})"


@dataclass(frozen=True)
class LayerAssignment:
    """BFS distances from `root`; `depth` is the eccentricity of the root."""

    root: int
    layer: tuple[int, ...]
    depth: int


@dataclass
class LBFamilyDescriptor:
    """Partition metadata for the lower-bound families."""

    n: int
    components: list[list[int]]
    specials: list[int] = field(default_factory=list)

    def component_of(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for i, comp in enumerate(self.components):
            for v in comp:
                out[v] = i
        return out


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a simple graph, rejecting a negative size, self-loops,
    duplicates, and bad indices."""
    if n < 0:
        raise InvalidParams(f"graph size {n} is negative")
    adj: list[list[int]] = [[] for _ in range(n)]
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise IndexOutOfRange(f"edge ({u},{v}) outside [0,{n})")
        if u == v:
            raise SelfLoop(f"self-loop at {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise DuplicateEdge(f"duplicate edge {key}")
        seen.add(key)
        adj[u].append(v)
        adj[v].append(u)
    return Graph(n, map(sorted, adj))


def bfs_layers(g: Graph, root: int) -> LayerAssignment:
    """BFS distance of every node from `root`; raises Disconnected otherwise."""
    if not (0 <= root < g.n):
        raise IndexOutOfRange(f"root {root} outside [0,{g.n})")
    dist = [-1] * g.n
    dist[root] = 0
    unseen = g.n - 1
    queue = deque([root])
    # a node's distance is fixed when it is found, so the scan stops at the
    # last discovery: on a dense graph that is a few rows, not all 2m entries
    while queue and unseen:
        u = queue.popleft()
        du = dist[u] + 1
        for w in g.adj[u]:
            if dist[w] < 0:
                dist[w] = du
                queue.append(w)
                unseen -= 1
    if unseen:
        raise Disconnected("graph is not connected")
    return LayerAssignment(root=root, layer=tuple(dist), depth=max(dist))


def diameter(g: Graph) -> int:
    """Max over all pairs of shortest-path distance (all-sources BFS)."""
    return max(bfs_layers(g, v).depth for v in range(g.n))


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def gen_path(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def gen_cycle(n: int) -> Graph:
    if n < 3:
        raise InvalidParams("cycle needs n >= 3")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def gen_star(n: int) -> Graph:
    """Star with center 0 and n-1 leaves."""
    return build_graph(n, [(0, i) for i in range(1, n)])


def gen_grid(rows: int, cols: int) -> Graph:
    if rows < 1 or cols < 1:
        raise InvalidParams("grid needs rows, cols >= 1")
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return build_graph(rows * cols, edges)


def gen_tree(n: int, seed: int) -> Graph:
    """Uniformly random labeled tree (Pruefer decode over the seeded stream)."""
    if n < 1:
        raise InvalidParams("tree needs n >= 1")
    if n == 1:
        return build_graph(1, [])
    if n == 2:
        return build_graph(2, [(0, 1)])
    rng = SplitMix64(seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    deg = [1] * n
    for x in seq:
        deg[x] += 1
    edges = []
    # classic decode: repeatedly join the smallest leaf to the next sequence item
    import heapq

    leaves = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(leaves)
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        deg[x] -= 1
        if deg[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return build_graph(n, edges)


def gen_random_connected(n: int, p: float, seed: int) -> Graph:
    """Random connected graph: a uniform spanning tree from the seeded stream,
    then every remaining pair added independently with probability p."""
    if n < 1:
        raise InvalidParams("need n >= 1")
    if not (0.0 <= p <= 1.0):
        raise InvalidParams("need 0 <= p <= 1")
    rng = SplitMix64(seed)
    tree = gen_tree(n, rng.next_u64()) if n > 1 else build_graph(1, [])
    present = {tuple(e) for e in tree.edges()}
    edges = list(present)
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) in present:
                continue
            if rng.bernoulli(p):
                edges.append((u, v))
    return build_graph(n, edges)


def gen_lb_component(k: int) -> Graph:
    """One lower-bound component: halves A, B of size k/2; a_j joined to the
    first j nodes of B. The set of distinct degrees has size k/2."""
    if k < 2 or k % 2 != 0:
        raise OddSize(f"component size must be even and >= 2, got {k}")
    nodes = list(range(k))
    return Graph(k, [nodes[lo:hi] for lo, hi in _component_runs(k)])


def _component_runs(k: int) -> list[tuple[int, int]]:
    """Each component node's neighbors inside its component, as the slice
    bounds of one contiguous run: a_j (node j-1) is joined to b_1..b_j
    (nodes k/2..k/2+j-1), so b_i (node k/2+i-1) to a_i..a_{k/2}."""
    half = k // 2
    return [(half, half + j) for j in range(1, half + 1)] + [(i, half) for i in range(half)]


def _lb_rows(k: int, nodes: list[int], base: int = 0) -> list[list[int]]:
    """Sorted adjacency rows of G_{k^2} on nodes[base : base + k^2]: a node
    of a component is joined to every node before its component, its run
    inside it, and every node after it. The rows are slices of `nodes`, so
    they share its int objects."""
    end = base + k * k
    runs = _component_runs(k)
    rows = []
    for lo in range(base, end, k):
        before, after = nodes[base:lo], nodes[lo + k : end]
        rows.extend(before + nodes[lo + a : lo + b] + after for a, b in runs)
    return rows


def _exact_even_sqrt(n: int) -> int | None:
    r = math.isqrt(max(n, 0))
    return r if r and r * r == n and r % 2 == 0 else None


def gen_lb_family(n: int) -> tuple[Graph, LBFamilyDescriptor]:
    """G_n: sqrt(n) components of sqrt(n) nodes each, every cross-component
    pair joined by an edge."""
    k = _exact_even_sqrt(n)
    if k is None:
        raise NotPerfectEvenSquare(f"sqrt({n}) is not an even natural number")
    nodes = list(range(n))
    comps = [nodes[i : i + k] for i in range(0, n, k)]
    return Graph(n, _lb_rows(k, nodes)), LBFamilyDescriptor(n=n, components=comps)


def gen_lb_general(delta: int, n: int) -> tuple[Graph, LBFamilyDescriptor]:
    """H_{delta,n}: ceil(n/delta) disjoint copies of G_k (k = smallest >= delta
    with even sqrt) plus one special node per copy adjacent to its whole copy;
    specials joined in a ring (single edge for 2 copies, none for 1)."""
    if delta < 1 or delta >= n:
        raise InvalidParams(f"need 1 <= delta < n, got delta={delta}, n={n}")
    r = math.isqrt(delta - 1) + 1  # ceil(sqrt(delta))
    k = (r + r % 2) ** 2
    copies = -(-n // delta)
    total = copies * (k + 1)
    nodes = list(range(total))
    specials = nodes[k :: k + 1]
    rows: list[list[int]] = []
    for c, s in enumerate(specials):
        rows.extend(row + [s] for row in _lb_rows(math.isqrt(k), nodes, s - k))
        ring = {specials[c - 1], specials[(c + 1) % copies]} - {s}
        rows.append(sorted(nodes[s - k : s] + list(ring)))
    comps = [nodes[s - k : s] for s in specials]
    return Graph(total, rows), LBFamilyDescriptor(n=total, components=comps, specials=specials)


# ---------------------------------------------------------------------------
# Edge-list text format
# ---------------------------------------------------------------------------


def write_edge_list(g: Graph, fp: TextIO) -> None:
    """First line "n m", then one "u v" line per edge, u < v, sorted, LF."""
    edges = g.edges()
    fp.write(f"{g.n} {len(edges)}\n")
    for u, v in edges:
        fp.write(f"{u} {v}\n")


def _int_pair(line: str, what: str) -> tuple[int, int]:
    parts = line.split()
    if len(parts) == 2:
        try:
            return int(parts[0]), int(parts[1])
        except ValueError:
            pass
    raise InvalidParams(f"{what} must be two integers, got {line.strip()!r}")


def read_edge_list(fp: TextIO) -> Graph:
    """Parse the format of `write_edge_list`: an 'n m' header, exactly m
    'u v' lines, then nothing but blank lines."""
    n, m = _int_pair(fp.readline(), "edge-list header 'n m'")
    if n < 0 or m < 0:
        raise InvalidParams(f"edge-list header needs n, m >= 0, got {n} {m}")
    edges = [_int_pair(fp.readline(), "edge line 'u v'") for _ in range(m)]
    for line in fp:
        if line.strip():
            raise InvalidParams(f"line after the {m} edge lines: {line.strip()!r}")
    return build_graph(n, edges)
