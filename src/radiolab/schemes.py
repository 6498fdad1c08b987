"""Scheme registry: build labels, run, and verify outputs per scheme name."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidParams
from .graphs import Graph, diameter
from .labels import SchemeBundle
from .sim import ExecutionTrace, run
from .size_discovery import (
    AuxiliarySDProgram,
    build_compact_labels,
    build_fast_sd,
    build_general_sd,
    fast_sd_program,
    general_sd_program,
)
from .toprec import TopRecProgram, build_toprec_labels, oracle_ids

# scheme name -> (label builder, node factory). A node factory is a program
# class, or for the mode-bit schemes the selector that builds the program a
# label picks.
_TABLE = {
    "compact": (build_compact_labels, AuxiliarySDProgram),
    "general": (build_general_sd, general_sd_program),
    "fastsd": (build_fast_sd, fast_sd_program),
    "toprec": (build_toprec_labels, TopRecProgram),
}
SCHEMES = tuple(_TABLE)


@dataclass
class SchemeResult:
    scheme: str
    bundle: SchemeBundle
    trace: ExecutionTrace
    ok: bool
    correct_outputs: int

    def bench_record(self, graph_id: str, g: Graph) -> dict:
        return {
            "graph": graph_id,
            "n": g.n,
            "max_degree": g.max_degree(),
            "diameter": diameter(g) if g.n > 1 else 0,
            "scheme": self.scheme,
            "max_label_bits": self.bundle.max_label_bits(),
            "total_rounds": self.trace.num_rounds,
            "correct_outputs": self.correct_outputs,
        }


def _entry(scheme: str) -> tuple:
    try:
        return _TABLE[scheme]
    except KeyError:
        raise InvalidParams(f"unknown scheme {scheme!r} (choose from {SCHEMES})") from None


def build_bundle(scheme: str, g: Graph) -> SchemeBundle:
    """The scheme's labels on `g`, which must have a node."""
    if g.n == 0:
        raise InvalidParams("the graph has no nodes")
    return _entry(scheme)[0](g)


def program_for(scheme: str):
    """The node factory for a scheme's labels."""
    return _entry(scheme)[1]


def verify_outputs(scheme: str, g: Graph, bundle: SchemeBundle, trace) -> int:
    """Number of nodes with the expected output."""
    if scheme in ("compact", "general", "fastsd"):
        return sum(1 for out in trace.outputs if out == g.n)
    if scheme == "toprec":
        ids = oracle_ids(bundle.meta)
        expected_edges = tuple(sorted(
            (min(ids[u], ids[v]), max(ids[u], ids[v])) for u, v in g.edges()
        ))
        # The nodes that heard one T5 share one edge tuple, so each distinct
        # tuple object is compared once. `trace.outputs` keeps every object
        # alive for the call, so no two of them share an id().
        same: dict[int, bool] = {}
        correct = 0
        for out, own in zip(trace.outputs, ids):
            if isinstance(out, tuple) and len(out) == 2 and out[1] == own:
                edges = out[0]
                key = id(edges)
                if key not in same:
                    same[key] = edges == expected_edges
                correct += same[key]
        return correct
    raise InvalidParams(f"unknown scheme {scheme!r}")


def run_scheme(scheme: str, g: Graph, cd: bool = False) -> SchemeResult:
    bundle = build_bundle(scheme, g)
    trace = run(g, bundle.labels, program_for(scheme), cd=cd)
    correct = verify_outputs(scheme, g, bundle, trace)
    return SchemeResult(
        scheme=scheme,
        bundle=bundle,
        trace=trace,
        ok=correct == g.n,
        correct_outputs=correct,
    )
