"""Golden digests of whole runs: the trace-identity check for refactors.

Every scheme of the registry, and the path-message primitive (whose first
t rounds are the Executor run that compact, general and fastsd embed), runs
on the pinned corpora and on G_16..G_144, without collision detection (which
only marks the trace: a run with it gives the same schedule and bytes); the
size schemes and the path message also run on star-513, the smallest star on
which general picks its compact branch. Each run is reduced to two short
digests: a schedule digest of its transmitters, who heard whom, its round
count and its outputs with their rounds, and a byte digest of its message
bytes. A wire change that keeps the schedule moves only byte digests, and
the unchanged schedule digests are its proof. Each label set gets a digest
of its own. `tests/test_golden.py` compares a fresh
sweep against the digests stored in `tests/data/golden_digests.json`.

The relabelled-atlas sweep (`tests/test_schemes.py`) checks outputs only,
and those cannot see a changed synthesis tie-break. So every scheme's
labels on the whole sweep, every connected atlas graph as given and under
its 3 relabellings, also reduce to one digest per scheme, stored in
`tests/data/atlas_label_digests.json`.

Four large runs, which split thousands of behaviour classes, have one
trace digest each (bytes and schedule together) in
`tests/data/large_digests.json`: fastsd on path-65536 and grid-128x128,
general and compact on path-16384.

Label synthesis has digests of its own, of its whole output in a canonical
form (`canonical`): each bundle's labels and meta, `CoreSynthesis` stages
included, on the size corpus (compact, general, fastsd), the toprec corpus
(toprec), G_16..G_784, path-2048, grid-64x64 and star-2049 (all four
schemes); on each of those graphs the path message "1011001" and the core
from node 0; and 20 seeded multi-source cores. They are stored in
`tests/data/synthesis_digests.json`, one group per input set.

Regenerate the stored digests (only for a change that means to alter a
trace, a label, a synthesis output or an output, and say so) with:

    PYTHONPATH=src python tests/golden.py

Before regenerating, `--check` runs the same fresh sweeps, writes nothing
and prints, per scheme and digest part and per synthesis group, how many
stored digests differ (exit status 1 if any does), so a change can show
which parts it moved:

    PYTHONPATH=src python tests/golden.py --check
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from functools import cache
from pathlib import Path

from radiolab.broadcast import PathMessageProgram, synthesize_core, synthesize_path_message
from radiolab.corpus import TOPREC_MAX_N, corpus
from radiolab.graphs import Graph, gen_grid, gen_lb_family, gen_path, gen_random_connected, gen_star
from radiolab.rng import SplitMix64
from radiolab import schemes
from radiolab.schemes import build_bundle, program_for
from radiolab.sim import run
from radiolab.toprec import serialize_toprec_output
from oracles import relabelled_atlas

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_digests.json"
ATLAS_LABELS = GOLDEN.with_name("atlas_label_digests.json")
LARGE = GOLDEN.with_name("large_digests.json")
SYNTHESIS = GOLDEN.with_name("synthesis_digests.json")

# "scheme/graph id" -> graph generator
LARGE_RUNS = {
    "fastsd/path-65536": lambda: gen_path(65536),
    "fastsd/grid-128x128": lambda: gen_grid(128, 128),
    "general/path-16384": lambda: gen_path(16384),
    "compact/path-16384": lambda: gen_path(16384),
}

# programs outside the scheme registry: (label builder, node factory)
PATH_MESSAGE = "1011001"
PRIMITIVES = {
    "pathmsg": (lambda g: synthesize_path_message(g, 0, PATH_MESSAGE), PathMessageProgram),
}
SCHEMES = (*schemes.SCHEMES, *PRIMITIVES)
# the digest parts stored per scheme, each {graph id: digest}
PARTS = ("labels", "schedule/nocd", "bytes/nocd")

SIZE_SCHEMES = ("compact", "general", "fastsd")
LB_SIZES = tuple((2 * k) ** 2 for k in range(2, 15))  # G_16 .. G_784
MULTI_SOURCE_CORES = 20
# the pinned corpora, built once per process
CORPUS = cache(corpus)
TOPREC_CORPUS = cache(lambda: [(gid, g) for gid, g in CORPUS() if g.n <= TOPREC_MAX_N])  # as toprec_corpus()
LARGE_SYNTHESIS = {
    "path-2048": lambda: gen_path(2048),
    "grid-64x64": lambda: gen_grid(64, 64),
    "star-2049": lambda: gen_star(2049),
}
# synthesis group -> (its (graph id, graph maker) pairs, the schemes built
# on each graph besides the path message and the core from node 0)
SYNTHESIS_GRAPHS = {
    "size corpus": (lambda: [(gid, lambda g=g: g) for gid, g in CORPUS()], SIZE_SCHEMES),
    "toprec corpus": (lambda: [(gid, lambda g=g: g) for gid, g in TOPREC_CORPUS()], ("toprec",)),
    "lower bound": (lambda: [(f"G_{n}", lambda n=n: gen_lb_family(n)[0]) for n in LB_SIZES],
                    schemes.SCHEMES),
    "large": (lambda: list(LARGE_SYNTHESIS.items()), schemes.SCHEMES),
}
SYNTHESIS_GROUPS = (*SYNTHESIS_GRAPHS, "multi-source cores")


def graphs_for(scheme: str) -> list:
    """(graph id, graph) pairs of a scheme's sweep."""
    lb = [(f"G_{n}", gen_lb_family(n)[0]) for n in (16, 36, 64, 100, 144)]
    if scheme == "toprec":
        return TOPREC_CORPUS() + lb
    return CORPUS() + lb + [("star-513", gen_star(513))]


def labels_digest(labels) -> str:
    return hashlib.sha256("\n".join(labels).encode()).hexdigest()[:16]


def atlas_labels_digest(label_sets) -> str:
    """One digest of the (graph id, labels) pairs of the atlas sweep, in
    sweep order."""
    h = hashlib.sha256()
    for gid, labels in label_sets:
        h.update(f"{gid}\0{len(labels)}\0".encode())
        h.update("\0".join(labels).encode())
    return h.hexdigest()[:16]


def trace_digest(trace, scheme: str) -> str:
    """One digest of a run's message bytes (as `byte_digest`), its round
    count and its outputs with their rounds (as `schedule_digest`): the
    digest of the large runs."""
    h = hashlib.sha256()
    _hash_messages(h, trace)
    _hash_outputs(h, trace, scheme)
    return h.hexdigest()[:16]


def byte_digest(trace) -> str:
    """Digest of every round with a transmitter: its round number, each
    transmitter with its message bytes, each listener that heard a message
    with the message it heard.

    A heard message enters as the position of a transmitter that sent the
    same bytes (-1 if none did), so each message is hashed once however
    many nodes hear it."""
    h = hashlib.sha256()
    _hash_messages(h, trace)
    return h.hexdigest()[:16]


def schedule_digest(trace, scheme: str) -> str:
    """Digest of every round with a transmitter (its round number, its
    transmitters, each listener with the transmitting neighbour it heard,
    -1 if it has none), the round count, and the outputs as JSON with their
    rounds. No message byte enters it. JSON makes a tuple output and the
    same list output equal."""
    adj = trace.graph.adj
    h = hashlib.sha256()
    for rnd, rec in enumerate(trace.rounds, start=1):
        txs, heard = rec.transmitters, rec.heard
        if not txs and not heard:
            continue
        whom = {w: u for u in sorted(txs) for w in adj[u] if w in heard}
        h.update(b"r%d:" % rnd)
        h.update(",".join(map(str, sorted(txs))).encode())
        h.update(b";")
        h.update(",".join(f"{w}:{whom.get(w, -1)}" for w in sorted(heard)).encode())
    _hash_outputs(h, trace, scheme)
    return h.hexdigest()[:16]


def _hash_messages(h, trace) -> None:
    for rnd, rec in enumerate(trace.rounds, start=1):
        if not rec.transmitters and not rec.heard:
            continue
        sent = sorted(rec.transmitters.items())
        h.update(b"r%d" % rnd)
        for v, m in sent:
            h.update(b"t%d:%d:" % (v, len(m)))
            h.update(m)
        position = {m: i for i, (_, m) in enumerate(sent)}
        heard = sorted(rec.heard.items())
        h.update(",".join(f"{w}:{position.get(m, -1)}" for w, m in heard).encode())


def _hash_outputs(h, trace, scheme: str) -> None:
    h.update(json.dumps([trace.num_rounds, trace.output_round]).encode())
    h.update(outputs_json(trace.outputs, scheme).encode())


def outputs_json(outputs, scheme: str) -> str:
    """The outputs as a JSON array, toprec's in the form of
    `serialize_toprec_output`. The nodes of a toprec run share one edge
    tuple, so each distinct edge tuple is serialised once."""
    if scheme != "toprec":
        return json.dumps(outputs)
    edges_json: dict[int, str] = {}
    items = []
    for out in outputs:
        if out is None:
            items.append("null")
            continue
        edges, me = out
        if id(edges) not in edges_json:
            edges_json[id(edges)] = json.dumps(serialize_toprec_output((edges, me))["edges"])
        me_json = json.dumps(serialize_toprec_output(((), me))["self"])
        items.append(f'{{"edges": {edges_json[id(edges)]}, "self": {me_json}}}')
    return "[" + ", ".join(items) + "]"


def build(scheme: str, g):
    """The labels of a scheme or primitive on `g`, and its node factory."""
    if scheme in PRIMITIVES:
        synth, program = PRIMITIVES[scheme]
        return synth(g).labels, program
    return build_bundle(scheme, g).labels, program_for(scheme)


def sweep(scheme: str) -> dict:
    """{"labels": {gid: digest}, "schedule/nocd": {...}, "bytes/nocd": {...}}
    for one scheme."""
    out: dict = {part: {} for part in PARTS}
    for gid, g in graphs_for(scheme):
        labels, program = build(scheme, g)
        out["labels"][gid] = labels_digest(labels)
        trace = run(g, labels, program)
        out["schedule/nocd"][gid] = schedule_digest(trace, scheme)
        out["bytes/nocd"][gid] = byte_digest(trace)
    return out


def canonical(x):
    """The JSON form of what `json.dumps` cannot write itself: a dataclass
    as its class name and its fields in order, a set as a sorted list, a
    range as a list and a `Graph` as its node count and adjacency."""
    if dataclasses.is_dataclass(x):
        return [type(x).__name__, [getattr(x, f.name) for f in dataclasses.fields(x)]]
    if isinstance(x, (set, frozenset)):
        return sorted(x)
    if isinstance(x, range):
        return list(x)
    if isinstance(x, Graph):
        return ["Graph", x.n, x.adj]
    raise TypeError(f"no canonical form for {type(x).__name__}")


def synthesis_digest(x) -> str:
    """Digest of `x` as JSON in canonical form: dicts with sorted keys,
    tuples as lists and `canonical` for the rest."""
    return hashlib.sha256(json.dumps(x, sort_keys=True, default=canonical).encode()).hexdigest()[:16]


def multi_source_core(seed: int) -> tuple:
    """(graph, sources) of seeded multi-source core `seed`: a sparse or
    dense G(n, p) with one to eight sources."""
    rng = SplitMix64(0xF402E + seed)
    n = 2 + rng.randrange(300)
    g = gen_random_connected(n, 0.01 + rng.randrange(60) / 100, rng.next_u64())
    return g, {rng.randrange(n) for _ in range(1 + rng.randrange(8))}


def synthesis_sweep(group: str, part: slice = slice(None)) -> dict[str, str]:
    """{"<scheme, pathmsg or core>/<graph id>": digest} of the inputs `part`
    of one group of `SYNTHESIS_GROUPS`; the multi-source group's inputs are
    its seeds, and their keys "core/seed-<i>"."""
    if group == "multi-source cores":
        return {f"core/seed-{seed}": synthesis_digest(synthesize_core(*multi_source_core(seed)))
                for seed in range(MULTI_SOURCE_CORES)[part]}
    graphs, names = SYNTHESIS_GRAPHS[group]
    out = {}
    for gid, make in graphs()[part]:
        g = make()
        for scheme in names:
            out[f"{scheme}/{gid}"] = synthesis_digest(build_bundle(scheme, g))
        out[f"pathmsg/{gid}"] = synthesis_digest(synthesize_path_message(g, 0, PATH_MESSAGE))
        out[f"core/{gid}"] = synthesis_digest(synthesize_core(g, {0}))
    return out


def synthesis_keys(group: str) -> set[str]:
    """The keys of `synthesis_sweep(group)`, with no synthesis run."""
    if group == "multi-source cores":
        return {f"core/seed-{seed}" for seed in range(MULTI_SOURCE_CORES)}
    graphs, names = SYNTHESIS_GRAPHS[group]
    return {f"{kind}/{gid}" for gid, _ in graphs() for kind in (*names, "pathmsg", "core")}


def synthesis_digests() -> dict[str, dict[str, str]]:
    return {group: synthesis_sweep(group) for group in SYNTHESIS_GROUPS}


def large_digest(key: str) -> str:
    """Trace digest of the large run `key` of `LARGE_RUNS`, without
    collision detection."""
    scheme = key.split("/")[0]
    g = LARGE_RUNS[key]()
    return trace_digest(run(g, build_bundle(scheme, g).labels, program_for(scheme)), scheme)


def atlas_digests() -> dict[str, str]:
    """{scheme: atlas label digest} over the relabelled-atlas sweep."""
    return {
        scheme: atlas_labels_digest(
            (gid, build_bundle(scheme, g).labels) for gid, g in relabelled_atlas()
        )
        for scheme in schemes.SCHEMES
    }


def large_digests() -> dict[str, str]:
    return {key: large_digest(key) for key in LARGE_RUNS}


def main() -> None:
    GOLDEN.parent.mkdir(exist_ok=True)
    data = {scheme: sweep(scheme) for scheme in SCHEMES}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}: {sum(len(d['labels']) for d in data.values())} runs")
    ATLAS_LABELS.write_text(json.dumps(atlas_digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {ATLAS_LABELS}: {len(relabelled_atlas())} label sets per scheme")
    LARGE.write_text(json.dumps(large_digests(), indent=1) + "\n")
    print(f"wrote {LARGE}: {len(LARGE_RUNS)} large runs")
    synthesis = synthesis_digests()
    SYNTHESIS.write_text(json.dumps(synthesis, indent=1, sort_keys=True) + "\n")
    print(f"wrote {SYNTHESIS}: {sum(map(len, synthesis.values()))} synthesis outputs")


def differing(got: dict, want: dict) -> tuple[int, int]:
    """(differing, compared): the keys on either side whose digests are not
    equal, a key on one side only counting as differing, and all keys."""
    keys = got.keys() | want.keys()
    return sum(got.get(k) != want.get(k) for k in keys), len(keys)


def check() -> int:
    """Compare a fresh sweep with every stored digest, print the number of
    differing digests per scheme and part, and write nothing. Returns the
    exit status: 1 if any digest differs, else 0."""
    stored = json.loads(GOLDEN.read_text())
    rows = []
    for scheme in SCHEMES:
        got = sweep(scheme)
        rows += [(f"{scheme} {part}", differing(got[part], stored[scheme][part])) for part in PARTS]
    atlas, stored_atlas = atlas_digests(), json.loads(ATLAS_LABELS.read_text())
    rows += [(f"{scheme} atlas labels", differing({0: atlas[scheme]}, {0: stored_atlas.get(scheme)}))
             for scheme in schemes.SCHEMES]
    rows.append(("large runs", differing(large_digests(), json.loads(LARGE.read_text()))))
    stored_synthesis = json.loads(SYNTHESIS.read_text())
    rows += [(f"synthesis {group}", differing(synthesis_sweep(group), stored_synthesis.get(group, {})))
             for group in SYNTHESIS_GROUPS]
    for name, (bad, total) in rows:
        print(f"{name}: {bad} of {total} differ")
    return int(any(bad for _, (bad, _) in rows))


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        sys.exit(check())
    main()
