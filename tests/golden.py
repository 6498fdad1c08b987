"""Golden digests of whole runs: the trace-identity check for refactors.

Every scheme of the registry, and the path-message primitive (whose first
t rounds are the Executor run that compact, general and fastsd embed), runs
on the pinned corpora and on G_16..G_144, with and without collision
detection; the size schemes and the path message also run on star-513,
the smallest star on which general picks its compact branch. Each run is
reduced to two short digests: a schedule digest of its transmitters, who
heard whom, its round count and its outputs with their rounds, and a byte
digest of its message bytes. A wire change that keeps the schedule moves
only byte digests, and the unchanged schedule digests are its proof. Each
label set gets a digest of its own. `tests/test_golden.py` compares a fresh
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

Regenerate the stored digests (only for a change that means to alter a
trace, a label or an output, and say so) with:

    PYTHONPATH=src python tests/golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from radiolab.broadcast import PathMessageProgram, synthesize_path_message
from radiolab.corpus import corpus, toprec_corpus
from radiolab.graphs import gen_grid, gen_lb_family, gen_path, gen_star
from radiolab import schemes
from radiolab.schemes import build_bundle, program_for
from radiolab.sim import run
from radiolab.toprec import serialize_toprec_output
from oracles import relabelled_atlas

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_digests.json"
ATLAS_LABELS = GOLDEN.with_name("atlas_label_digests.json")
LARGE = GOLDEN.with_name("large_digests.json")

# "scheme/graph id" -> graph generator
LARGE_RUNS = {
    "fastsd/path-65536": lambda: gen_path(65536),
    "fastsd/grid-128x128": lambda: gen_grid(128, 128),
    "general/path-16384": lambda: gen_path(16384),
    "compact/path-16384": lambda: gen_path(16384),
}

# programs outside the scheme registry: (label builder, node factory)
PRIMITIVES = {
    "pathmsg": (lambda g: synthesize_path_message(g, 0, "1011001"), PathMessageProgram),
}
SCHEMES = (*schemes.SCHEMES, *PRIMITIVES)
# the digest parts stored per scheme, each {graph id: digest}
PARTS = ("labels", "schedule/nocd", "bytes/nocd", "schedule/cd", "bytes/cd")


def graphs_for(scheme: str) -> list:
    """(graph id, graph) pairs of a scheme's sweep."""
    lb = [(f"G_{n}", gen_lb_family(n)[0]) for n in (16, 36, 64, 100, 144)]
    if scheme == "toprec":
        return toprec_corpus() + lb
    return corpus() + lb + [("star-513", gen_star(513))]


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
    """{"labels": {gid: digest}, "schedule/nocd": {...}, "bytes/nocd": {...},
    "schedule/cd": {...}, "bytes/cd": {...}} for one scheme."""
    out: dict = {part: {} for part in PARTS}
    for gid, g in graphs_for(scheme):
        labels, program = build(scheme, g)
        out["labels"][gid] = labels_digest(labels)
        for mode, cd in (("nocd", False), ("cd", True)):
            trace = run(g, labels, program, cd=cd)
            out[f"schedule/{mode}"][gid] = schedule_digest(trace, scheme)
            out[f"bytes/{mode}"][gid] = byte_digest(trace)
    return out


def large_digest(key: str) -> str:
    """Trace digest of the large run `key` of `LARGE_RUNS`, without
    collision detection."""
    scheme = key.split("/")[0]
    g = LARGE_RUNS[key]()
    return trace_digest(run(g, build_bundle(scheme, g).labels, program_for(scheme)), scheme)


def main() -> None:
    GOLDEN.parent.mkdir(exist_ok=True)
    data = {scheme: sweep(scheme) for scheme in SCHEMES}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}: {sum(len(d['labels']) for d in data.values())} graphs x 2 modes")
    atlas = {
        scheme: atlas_labels_digest(
            (gid, build_bundle(scheme, g).labels) for gid, g in relabelled_atlas()
        )
        for scheme in schemes.SCHEMES
    }
    ATLAS_LABELS.write_text(json.dumps(atlas, indent=1, sort_keys=True) + "\n")
    print(f"wrote {ATLAS_LABELS}: {len(relabelled_atlas())} label sets per scheme")
    LARGE.write_text(json.dumps({key: large_digest(key) for key in LARGE_RUNS}, indent=1) + "\n")
    print(f"wrote {LARGE}: {len(LARGE_RUNS)} large runs")


if __name__ == "__main__":
    main()
