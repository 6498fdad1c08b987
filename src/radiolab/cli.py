"""Command-line surface: generators, scheme runs, bench suites, audits.

All randomness flows from --seed; default corpora are pinned in corpus.py so
CI outputs are reproducible. RADIOLAB_MAX_ROUNDS overrides the engine's
safety cap.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

from . import corpus as corpus_mod
from .audit import audit_facts
from .errors import InvalidParams, RadiolabError
from .graphs import (
    Graph,
    LBFamilyDescriptor,
    gen_cycle,
    gen_grid,
    gen_lb_family,
    gen_lb_general,
    gen_pair_gadget,
    gen_path,
    gen_random_connected,
    gen_star,
    gen_tree,
    read_edge_list,
    write_edge_list,
)
from .schemes import SCHEMES, build_bundle, run_scheme

BENCH_FIELDS = (
    "graph",
    "n",
    "max_degree",
    "diameter",
    "scheme",
    "max_label_bits",
    "total_rounds",
    "correct_outputs",
)


def _gen_grid(args) -> Graph:
    """The grid of `args.n` nodes with the most rows that divide n, at
    most sqrt(n) (a prime n gives one row)."""
    if args.n < 1:
        raise InvalidParams("grid needs n >= 1")
    rows = math.isqrt(args.n)
    while rows > 1 and args.n % rows:
        rows -= 1
    return gen_grid(rows, args.n // rows)


# gen --family name -> the graph it builds from the parsed arguments
FAMILIES = {
    "path": lambda a: gen_path(a.n),
    "cycle": lambda a: gen_cycle(a.n),
    "star": lambda a: gen_star(a.n),
    "grid": _gen_grid,
    "gnp-connected": lambda a: gen_random_connected(a.n, a.p, a.seed),
    "tree": lambda a: gen_tree(a.n, a.seed),
    "lbG": lambda a: gen_lb_family(a.n)[0],
    "lbH": lambda a: gen_lb_general(a.delta, a.n)[0],
    "pair": lambda a: gen_pair_gadget(a.n, a.tail),
}


def cmd_gen(args) -> int:
    g = FAMILIES[args.family](args)
    if args.out:
        with open(args.out, "w") as fp:
            write_edge_list(g, fp)
    else:
        write_edge_list(g, sys.stdout)
    return 0


def _read_text(path: str, what: str) -> str:
    """The contents of an input file; one that cannot be read (missing, a
    directory, no permission) is an InvalidParams error."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise InvalidParams(f"cannot read {what} file {path}: {exc.strerror}") from None


def _read_graph(path: str) -> Graph:
    return read_edge_list(io.StringIO(_read_text(path, "graph")))


def cmd_run(args) -> int:
    g = _read_graph(args.graph)
    result = run_scheme(args.scheme, g)
    out = json.dumps(result.bench_record(Path(args.graph).name, g), indent=2)
    if args.scheme == "toprec" and result.ok:
        out = out[:-2] + ',\n  "outputs": ' + _toprec_outputs_json(result.trace.outputs) + "\n}"
    if args.out:
        Path(args.out).write_text(out + "\n")
    else:
        print(out)
    return 0 if result.ok else 1


def _toprec_outputs_json(outputs) -> str:
    """The serialised outputs as `json.dumps(..., indent=2)` lays them out
    under a top-level key. The nodes share their edge tuple, so each
    distinct one is serialised once."""
    from .toprec import serialize_toprec_output

    def nested(x) -> str:  # the value's JSON, indented for depth 3
        return json.dumps(x, indent=2).replace("\n", "\n" + " " * 6)

    edges_json: dict[int, str] = {}
    items = []
    for edges, me in outputs:
        if id(edges) not in edges_json:
            edges_json[id(edges)] = nested(serialize_toprec_output((edges, me))["edges"])
        me_json = nested(serialize_toprec_output(((), me))["self"])
        items.append(f'    {{\n      "edges": {edges_json[id(edges)]},\n      "self": {me_json}\n    }}')
    return "[\n" + ",\n".join(items) + "\n  ]"


def _run_row(scheme: str, gid: str, g: Graph) -> dict:
    return run_scheme(scheme, g).bench_record(gid, g)


def _star_label_row(scheme: str, gid: str, g: Graph) -> dict:
    """A star's labels only, no run: the round and output cells stay empty."""
    return {"graph": gid, "n": g.n, "max_degree": g.max_degree(), "diameter": 2,
            "scheme": scheme, "max_label_bits": build_bundle(scheme, g).max_label_bits()}


# bench --suite name -> (its (graph id, graph) pairs, its schemes, the row
# each pair and scheme gives); the corpora are looked up on each call, so a
# test can stub them
BENCH_SUITES = {
    "size": (lambda: corpus_mod.corpus(), ("compact", "general", "fastsd"), _run_row),
    "labels": (lambda: [(f"star-2^{k}", gen_star(2**k + 1)) for k in range(2, 13)],
               ("compact", "toprec"), _star_label_row),
    "toprec": (lambda: corpus_mod.toprec_corpus(), ("toprec",), _run_row),
    "scaling": (lambda: [(f"path-2^{k}", gen_path(2**k)) for k in range(6, 12)],
                ("fastsd", "general"), _run_row),
}


def _bench_rows(suite: str) -> list[dict]:
    graphs, names, row = BENCH_SUITES[suite]
    return [row(scheme, gid, g) for gid, g in graphs() for scheme in names]


def cmd_bench(args) -> int:
    rows = _bench_rows(args.suite)
    target = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        w = csv.DictWriter(target, fieldnames=BENCH_FIELDS)
        w.writeheader()
        for row in rows:
            w.writerow(row)
    finally:
        if args.out:
            target.close()
    # a row without a run has no outputs to count
    bad = [r for r in rows if "correct_outputs" in r and r["correct_outputs"] != r["n"]]
    return 1 if bad else 0


def _node_ids(value) -> list[int]:
    """`value` if it is a JSON list of integers; TypeError otherwise (a
    float, a boolean or a string is not a node id)."""
    if not isinstance(value, list) or not all(type(v) is int for v in value):
        raise TypeError(f"expected a list of integer node ids, got {value!r}")
    return value


def _lb_partition_for(g: Graph, partition_file: str | None):
    if partition_file:
        try:
            data = json.loads(_read_text(partition_file, "partition"))
            return LBFamilyDescriptor(
                n=g.n,
                components=list(map(_node_ids, data["components"])),
                specials=_node_ids(data.get("specials", [])),
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise InvalidParams(
                f"malformed partition file {partition_file}: {type(exc).__name__}: {exc}"
            ) from None
    # recognize a G_n instance by regenerating it
    root = math.isqrt(g.n)
    if root * root == g.n and root % 2 == 0:
        ref, desc = gen_lb_family(g.n)
        if ref.adj == g.adj:
            return desc
    raise RadiolabError(
        "graph is not a generated lower-bound instance; pass --partition"
    )


def cmd_audit(args) -> int:
    # the CSV is written to --out with its suffix made .csv
    if args.out and Path(args.out).suffix.lower() == ".csv":
        raise InvalidParams(
            f"--out {args.out} ends in .csv: it names the JSON report, "
            "and the CSV written next to it would overwrite it"
        )
    g = _read_graph(args.graph)
    desc = _lb_partition_for(g, args.partition)
    result = run_scheme(args.scheme, g, cd=True)
    report = audit_facts(result.trace, desc, labels=result.bundle.labels)
    out = report.to_json()
    if args.out:
        Path(args.out).write_text(out + "\n")
        with open(Path(args.out).with_suffix(".csv"), "w", newline="") as fp:
            report.write_csv(fp)
    else:
        print(out)
    return 0 if (report.ok and result.ok) else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="radiolab",
        description="radio-network labeling schemes: generate, run, bench, audit",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph as an edge-list file")
    p.add_argument("--family", required=True, choices=list(FAMILIES))
    p.add_argument("--n", type=int, required=True, help="node count; k for pair")
    p.add_argument("--tail", type=int, default=0, help="pair: path nodes hung on p_1")
    p.add_argument("--p", type=float, default=0.1)
    p.add_argument("--delta", type=int, default=4)
    p.add_argument("--seed", type=int, default=corpus_mod.BASE_SEED)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("run", help="synthesize labels, run a scheme, verify")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("--scheme", required=True, choices=list(SCHEMES))
    p.add_argument("--out")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("bench", help="run a pinned suite, write CSV records")
    p.add_argument("--suite", required=True, choices=list(BENCH_SUITES))
    p.add_argument("--out")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("audit", help="CD-mode run plus lower-bound audits")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("--scheme", required=True, choices=list(SCHEMES))
    p.add_argument("--partition", help="JSON file with component partition")
    p.add_argument("--out")
    p.set_defaults(func=cmd_audit)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RadiolabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
