"""The scheme registry rejects what it cannot run with a typed error, and
counts only exact outputs as correct."""

import pytest

from radiolab.errors import InvalidParams
from radiolab.graphs import build_graph, gen_grid, gen_path
from radiolab.schemes import SCHEMES, build_bundle, program_for, run_scheme, verify_outputs
from radiolab.sim import ExecutionTrace


@pytest.mark.parametrize("scheme", SCHEMES)
def test_empty_graph_rejected(scheme):
    with pytest.raises(InvalidParams, match="no nodes"):
        build_bundle(scheme, build_graph(0, []))


def test_unknown_scheme_rejected():
    g = gen_path(3)
    bundle = build_bundle("compact", g)
    trace = ExecutionTrace(g, cd=False)
    for call in (lambda: build_bundle("nope", g), lambda: program_for("nope"),
                 lambda: verify_outputs("nope", g, bundle, trace)):
        with pytest.raises(InvalidParams, match="unknown scheme 'nope'"):
            call()


def test_gather_bfs_counts_only_own_payloads():
    """A non-root node is correct only if it outputs its own payload."""
    g = gen_grid(3, 4)
    r = run_scheme("gather-bfs", g)
    assert r.ok
    outputs = r.trace.outputs
    outputs[5] = outputs[6]
    assert verify_outputs("gather-bfs", g, r.bundle, r.trace) == g.n - 1
