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


def corpus_specs() -> list[tuple[str, str, dict]]:
    """(graph id, family, params) for the pinned size-discovery corpus:
    paths, cycles, stars, grids, and seeded connected G(n, p), n in [2, 300]."""
    specs: list[tuple[str, str, dict]] = []
    for n in list(range(2, 34)) + [40, 48, 64, 100, 127, 150]:
        specs.append((f"path-{n}", "path", {"n": n}))
    for n in list(range(3, 34)) + [41, 50, 75, 101]:
        specs.append((f"cycle-{n}", "cycle", {"n": n}))
    for n in list(range(2, 30)) + [33, 65, 129, 257]:
        specs.append((f"star-{n}", "star", {"n": n}))
    for rows in range(2, 8):
        for cols in range(2, 10):
            specs.append((f"grid-{rows}x{cols}", "grid", {"rows": rows, "cols": cols}))
    specs.append(("grid-8x32", "grid", {"rows": 8, "cols": 32}))
    specs.append(("grid-15x20", "grid", {"rows": 15, "cols": 20}))
    gnp_cases = [
        *((n, 0.05) for n in (10, 15, 20, 25, 30, 40, 50, 60, 70, 80)),
        *((n, 0.15) for n in (10, 15, 20, 25, 30, 40, 50, 60)),
        *((n, 0.3) for n in (8, 12, 16, 20, 24, 32, 48, 64)),
        *((n, 0.6) for n in (6, 10, 14, 18, 22, 26, 30)),
        *((n, 0.02) for n in (100, 140, 180, 220, 260, 300)),
        *((n, 0.5) for n in (96, 128, 160)),
        *((n, 0.08) for n in (35, 45, 55, 66, 77, 88, 99)),
    ]
    for i, (n, p) in enumerate(gnp_cases):
        specs.append((f"gnp-{n}-{p}", "gnp-connected", {"n": n, "p": p, "seed": BASE_SEED + i}))
    for i, n in enumerate((5, 9, 17, 33, 65, 129, 200, 23, 47, 95)):
        specs.append((f"tree-{n}", "tree", {"n": n, "seed": BASE_SEED + 1000 + i}))
    return specs


def materialize(family: str, params: dict) -> Graph:
    if family == "path":
        return gen_path(params["n"])
    if family == "cycle":
        return gen_cycle(params["n"])
    if family == "star":
        return gen_star(params["n"])
    if family == "grid":
        return gen_grid(params["rows"], params["cols"])
    if family == "gnp-connected":
        return gen_random_connected(params["n"], params["p"], params["seed"])
    if family == "tree":
        return gen_tree(params["n"], params["seed"])
    raise ValueError(f"unknown family {family!r}")


def corpus() -> list[tuple[str, Graph]]:
    return [(gid, materialize(fam, params)) for gid, fam, params in corpus_specs()]


def toprec_corpus() -> list[tuple[str, Graph]]:
    """Corpus restriction for topology recognition (n <= 150)."""
    return [(gid, g) for gid, g in corpus() if g.n <= 150]
