"""The scheme registry rejects what it cannot run with a typed error, and
counts only exact outputs as correct."""

import pytest

from radiolab.errors import InvalidParams, ProtocolViolation, RadiolabError
from radiolab.graphs import build_graph, gen_cycle, gen_grid, gen_path, gen_star
from radiolab.schemes import SCHEMES, build_bundle, program_for, verify_outputs
from radiolab.sim import ExecutionTrace, run


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


@pytest.mark.parametrize("scheme", ["broadcast-bfs", "gather-bfs"])
def test_layered_bfs_primitives_are_not_schemes(scheme):
    """The layered broadcast and the gathering run only as stages of
    toprec."""
    assert scheme not in SCHEMES
    with pytest.raises(InvalidParams, match=f"unknown scheme {scheme!r}"):
        build_bundle(scheme, gen_grid(3, 4))


def swap_pair(label: str, offset: int) -> str:
    """`label` with the `01`/`10` code pair at `offset` swapped, so every
    block keeps its width but one bit flips."""
    pair = label[offset : offset + 2]
    assert pair in ("01", "10"), pair
    return label[:offset] + pair[::-1] + label[offset + 2 :]


@pytest.mark.parametrize(
    "scheme,g,node,offset",
    [
        ("general", gen_path(5), 1, 10),  # an empty size message: int('', 2)
        ("fastsd", gen_star(6), 1, 14),  # the same, in general's fallback
        ("toprec", gen_path(5), 2, 0),  # a T3 message with a null identifier
    ],
    ids=["general-path5", "fastsd-star6", "toprec-path5"],
)
def test_corrupted_label_raises_typed_error(scheme, g, node, offset):
    labels = list(build_bundle(scheme, g).labels)
    labels[node] = swap_pair(labels[node], offset)
    with pytest.raises(RadiolabError):
        run(g, labels, program_for(scheme), max_rounds=200 * g.n * g.n)


@pytest.mark.parametrize(
    "scheme,g,node,offset",
    [
        ("compact", gen_path(5), 1, 28),  # the source takes itself for v_p
        ("compact", gen_grid(3, 3), 5, 28),
        ("general", gen_grid(3, 3), 0, 18),
        ("toprec", gen_path(5), 1, 0),  # two roots: a T2 slot learned in that round
    ],
    ids=["compact-path5", "compact-grid3x3", "general-grid3x3", "toprec-path5"],
)
def test_unserved_duty_raises_protocol_violation(scheme, g, node, offset):
    """A corrupted label that leaves a node a duty in a round already past
    ends the run with a typed error, not by polling to the round cap."""
    labels = list(build_bundle(scheme, g).labels)
    labels[node] = swap_pair(labels[node], offset)
    with pytest.raises(ProtocolViolation, match="still pending after round"):
        run(g, labels, program_for(scheme), max_rounds=200 * g.n * g.n)


FUZZ_GRAPHS = [("path5", gen_path(5)), ("star6", gen_star(6)), ("grid3x3", gen_grid(3, 3)),
               ("cycle6", gen_cycle(6))]


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("g", [g for _, g in FUZZ_GRAPHS], ids=[gid for gid, _ in FUZZ_GRAPHS])
def test_every_swapped_pair_ends_typed_or_finished(scheme, g):
    """Each label with each one of its bit pairs swapped in turn: every run
    finishes before the round cap or raises a `RadiolabError`, never an
    untyped exception. A run that reaches the cap with every output in has
    a duty that was never served (a node polling for it)."""
    labels = build_bundle(scheme, g).labels
    program = program_for(scheme)
    cap = 200 * g.n * g.n
    for node, label in enumerate(labels):
        for offset in range(0, len(label), 2):
            if label[offset : offset + 2] == "00":  # a separator
                continue
            corrupted = list(labels)
            corrupted[node] = swap_pair(label, offset)
            try:
                trace = run(g, corrupted, program, max_rounds=cap)
            except RadiolabError:
                continue
            assert trace.num_rounds < cap, (node, offset)
