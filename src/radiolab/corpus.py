"""Pinned graph corpus: the manifest of named, seeded instances used by the
bench suites and the acceptance tests. Everything here is deterministic, so
CI runs are bit-reproducible."""

from __future__ import annotations

from .graphs import (
    Graph,
    gen_cycle,
    gen_grid,
    gen_path,
    gen_random_connected,
    gen_star,
    gen_tree,
)

BASE_SEED = 20240901
TOPREC_MAX_N = 150  # the toprec corpus keeps the graphs of at most this many nodes


def corpus() -> list[tuple[str, Graph]]:
    """(graph id, graph) for the pinned size-discovery corpus: paths,
    cycles, stars, grids, seeded connected G(n, p) and seeded trees, n in
    [2, 300]."""
    out = [(f"path-{n}", gen_path(n)) for n in [*range(2, 34), 40, 48, 64, 100, 127, 150]]
    out += [(f"cycle-{n}", gen_cycle(n)) for n in [*range(3, 34), 41, 50, 75, 101]]
    out += [(f"star-{n}", gen_star(n)) for n in [*range(2, 30), 33, 65, 129, 257]]
    grids = [(r, c) for r in range(2, 8) for c in range(2, 10)] + [(8, 32), (15, 20)]
    out += [(f"grid-{r}x{c}", gen_grid(r, c)) for r, c in grids]
    gnp_cases = [
        *((n, 0.05) for n in (10, 15, 20, 25, 30, 40, 50, 60, 70, 80)),
        *((n, 0.15) for n in (10, 15, 20, 25, 30, 40, 50, 60)),
        *((n, 0.3) for n in (8, 12, 16, 20, 24, 32, 48, 64)),
        *((n, 0.6) for n in (6, 10, 14, 18, 22, 26, 30)),
        *((n, 0.02) for n in (100, 140, 180, 220, 260, 300)),
        *((n, 0.5) for n in (96, 128, 160)),
        *((n, 0.08) for n in (35, 45, 55, 66, 77, 88, 99)),
    ]
    out += [
        (f"gnp-{n}-{p}", gen_random_connected(n, p, BASE_SEED + i))
        for i, (n, p) in enumerate(gnp_cases)
    ]
    trees = (5, 9, 17, 33, 65, 129, 200, 23, 47, 95)
    out += [(f"tree-{n}", gen_tree(n, BASE_SEED + 1000 + i)) for i, n in enumerate(trees)]
    return out


def toprec_corpus() -> list[tuple[str, Graph]]:
    """Corpus restriction for topology recognition (n <= TOPREC_MAX_N)."""
    return [(gid, g) for gid, g in corpus() if g.n <= TOPREC_MAX_N]
