"""The scheme registry rejects what it cannot run with a typed error."""

import pytest

from radiolab.errors import InvalidParams
from radiolab.graphs import build_graph, gen_path
from radiolab.schemes import SCHEMES, build_bundle, program_for, verify_outputs
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
