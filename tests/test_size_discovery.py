import os
import subprocess
import sys
from pathlib import Path

import pytest

from radiolab import size_discovery
from radiolab.broadcast import AckProgram, ExecCore, PathMessageProgram, synthesize_path_message
from radiolab.errors import (
    BarrierExceeded,
    ConflictingPaths,
    MalformedCodeword,
    MessageTooLong,
    TooShallow,
)
from radiolab.graphs import (
    build_graph,
    gen_cycle,
    gen_grid,
    gen_lb_family,
    gen_path,
    gen_random_connected,
    gen_star,
    gen_tree,
)
from radiolab.labels import decode_blocks, encode_blocks
from radiolab.rng import SplitMix64
from radiolab.schemes import program_for, run_scheme
from radiolab.sim import parse, run, unframe
from radiolab.size_discovery import (
    AuxiliarySDProgram,
    FastSDProgram,
    SizeOnPathProgram,
    assign_subtree_bits,
    build_compact_labels,
    build_fast_sd,
    build_general_sd,
    conflict_free_paths,
    fast_sd_program,
    general_sd_program,
    minimal_bfs_cover,
    stripe_decomposition,
)
from radiolab.toprec import TopRecProgram, build_toprec_labels
from golden import build, graphs_for
from oracles import (
    LAYOUT_PROGRAMS,
    ack_collect_round,
    core_next_duty,
    layout_of,
    tree_parent,
    verify_subtree_assignment,
)


def random_bits(rng, k):
    return "".join("1" if rng.next_u64() & 1 else "0" for _ in range(k))


class TestAssignSubtreeBits:
    def test_single_node(self):
        asg = assign_subtree_bits({}, 0, "01")
        assert asg.bits == {0: "01"}

    def test_p2_three_bits(self):
        t = gen_path(2)
        asg = assign_subtree_bits(tree_parent(t, 0), 0, "101")
        verify_subtree_assignment(t, 0, "101", asg)
        assert len(asg.bits[0]) <= 2 and len(asg.bits.get(1, "")) <= 3

    def test_star_full_message(self):
        t = gen_star(5)
        m = "1011"  # ceil(log 6)+1 = 4 bits
        asg = assign_subtree_bits(tree_parent(t, 0), 0, m)
        verify_subtree_assignment(t, 0, m, asg)
        used = [c for c in asg.children[0]]
        assert len(used) <= 3  # floor(log 4)+1

    def test_message_too_long(self):
        with pytest.raises(MessageTooLong):
            assign_subtree_bits({1: 0}, 0, "1011")  # > bitlen(2)+1 = 3

    def test_seeded_tree_suite(self):
        """Smaller version of the acceptance subtree-packing suite."""
        rng = SplitMix64(999)
        for _ in range(100):
            n = 1 + rng.randrange(128)
            tree = gen_tree(n, rng.next_u64())
            m = random_bits(rng, n.bit_length() + 1)
            root = rng.randrange(n)
            asg = assign_subtree_bits(tree_parent(tree, root), root, m)
            verify_subtree_assignment(tree, root, m, asg)


class TestCompactLabels:
    def test_single_node(self):
        g = build_graph(1, [])
        b = build_compact_labels(g)
        blocks = AuxiliarySDProgram.layout.parse(b.labels[0])
        assert blocks["flags"] == "10"  # the source, with no one to inform
        assert b.meta["subtree"].bits[0] == "1"  # M = binary(1)

    def test_star_delta_block(self):
        g = gen_star(6)  # Delta = 5 = 101b, k rounds = 3
        b = build_compact_labels(g)
        root_blocks = AuxiliarySDProgram.layout.parse(b.labels[0])
        assert root_blocks["flags"][0] == "1"  # the source flag
        assert int(root_blocks["a"], 2) == 3  # floor(log 5)+1
        carried = {}
        for v in range(1, 6):
            blocks = AuxiliarySDProgram.layout.parse(b.labels[v])
            if blocks["a"] != "00" and int(blocks["a"], 2) > 0:
                carried[int(blocks["a"], 2)] = blocks["b"]
        assert [carried[i] for i in (1, 2, 3)] == ["1", "0", "1"]

    def test_star_family_growth_monotone(self):
        sizes = []
        for k in range(2, 11):
            g = gen_star(2**k + 1)
            sizes.append(build_compact_labels(g).max_label_bits())
        assert sizes == sorted(sizes)

    def test_root_is_max_degree_node(self):
        g = build_graph(5, [(0, 1), (1, 2), (1, 3), (1, 4), (3, 4)])
        b = build_compact_labels(g)
        assert b.meta["root"] == 1


class TestAuxiliarySD:
    def test_star_learns_delta(self):
        g = gen_star(6)
        b = build_compact_labels(g)
        tr = run(g, b.labels, AuxiliarySDProgram)
        assert tr.outputs == [6] * 6
        # Delta-learning rounds: exactly one transmitter each, adjacent to root
        k = b.meta["delta"].bit_length()
        for r in range(1, k + 1):
            assert len(tr.rounds[r - 1].transmitters) == 1

    def test_p4(self):
        g = gen_path(4)
        b = build_compact_labels(g)
        tr = run(g, b.labels, AuxiliarySDProgram)
        assert tr.outputs == [4] * 4

    @pytest.mark.parametrize("seed", [3, 5, 8])
    def test_no_same_parent_collisions(self, seed):
        """Every subtree payload reaches the parent: the parent's heard map
        contains the child's message at the child's slot."""
        g = gen_random_connected(26, 0.15, seed)
        b = build_compact_labels(g)
        tr = run(g, b.labels, AuxiliarySDProgram)
        assert tr.outputs == [26] * 26
        asg = b.meta["subtree"]
        tree = b.meta["synthesis"].tree
        # locate every size-learning transmission and its parent's reception
        for rnd_idx, rec in enumerate(tr.rounds, start=1):
            for v, msg in rec.transmitters.items():
                parts = unframe(msg)
                if parts[0] != "S":
                    continue
                parent = tree.parent[v]
                assert rec.heard.get(parent) == msg, (
                    f"size-learning payload of {v} lost at parent {parent}"
                )

    def test_size_learning_purity(self):
        """Nodes only accept subtree payloads from their own children."""
        g = gen_random_connected(30, 0.2, 12)
        b = build_compact_labels(g)
        tr = run(g, b.labels, AuxiliarySDProgram)
        assert tr.outputs == [30] * 30


class TestGeneralSD:
    def test_k8_outputs(self):
        g = build_graph(8, [(i, j) for i in range(8) for j in range(i + 1, 8)])
        b = build_general_sd(g)
        tr = run(g, b.labels, general_sd_program)
        assert tr.outputs == [8] * 8

    def test_deep_path(self):
        g = gen_path(64)
        b = build_general_sd(g)
        assert b.meta["branch"] == "pathmsg"
        tr = run(g, b.labels, general_sd_program)
        assert tr.outputs == [64] * 64

    def test_single_node(self):
        g = build_graph(1, [])
        b = build_general_sd(g)
        tr = run(g, b.labels, general_sd_program)
        assert tr.outputs == [1]

    def test_large_star_takes_compact_branch(self):
        g = gen_star(601)
        b = build_general_sd(g)
        assert b.meta["branch"] == "compact"
        tr = run(g, b.labels, general_sd_program)
        assert tr.outputs == [601] * 601

    def test_both_branches_reachable(self):
        assert build_general_sd(gen_path(16)).meta["branch"] == "pathmsg"
        assert build_general_sd(gen_star(601)).meta["branch"] == "compact"

    def test_mode_bit_picks_the_program(self):
        """The selector builds the branch's program itself, no wrapper."""
        make = program_for("general")
        by_branch = {"pathmsg": SizeOnPathProgram, "compact": AuxiliarySDProgram}
        for g in (gen_path(16), gen_star(601)):
            b = build_general_sd(g)
            assert {type(make(lab)) for lab in b.labels} == {by_branch[b.meta["branch"]]}
        # fastsd's fallback labels select general's program the same way
        b = build_fast_sd(gen_lb_family(36)[0])
        assert b.meta["mode"] == "fallback"
        branch = b.meta["branch"]
        assert {type(program_for("fastsd")(lab)) for lab in b.labels} == {by_branch[branch]}
        assert program_for("compact") is AuxiliarySDProgram


def sent_tags(trace) -> set[str]:
    return {parse(m)[0] for rec in trace.rounds for m in rec.transmitters.values()}


class TestWireVocabulary:
    """Each size scheme speaks only its own stage tags: the acknowledged
    broadcast's cores end in 1, 2 and 3, its relay in a."""

    @pytest.mark.parametrize("cd", [False, True])
    def test_compact_tags(self, cd):
        for g in (gen_grid(5, 6), gen_star(17), gen_random_connected(30, 0.2, 12)):
            tags = sent_tags(run_scheme("compact", g, cd=cd).trace)
            assert tags <= {"D", "A1", "Aa", "A2", "S", "A3"}
            assert "A3" in tags

    @pytest.mark.parametrize("cd", [False, True])
    def test_general_path_branch_tags(self, cd):
        for g in (gen_path(64), gen_grid(4, 12)):
            r = run_scheme("general", g, cd=cd)
            assert r.ok and r.bundle.meta["branch"] == "pathmsg"
            tags = sent_tags(r.trace)
            assert tags <= {"p1", "pa", "p2", "pc", "p3"}
            assert "p3" in tags


class TestStripes:
    def test_p64_layout(self):
        g = gen_path(64)
        sd = stripe_decomposition(g, 0)
        assert sd.lgn == 7
        assert sorted(sd.stripes)[:2] == [0, 2]
        green = [sd.layers.layer[v] // sd.lgn % 2 == 0 for v in range(g.n)]
        assert green[0] and green[6] and not green[7]
        assert sd.supergreen[6] and sd.supergreen[20]
        assert sd.stripe_of[14] == 2

    def test_depth20_n36(self):
        # 36 nodes, eccentricity 20 from node 0: stripes 0 and 2 only
        edges = [(i, i + 1) for i in range(20)]
        extra = list(range(21, 36))
        edges += [(1, v) for v in extra]
        g = build_graph(36, edges)
        sd = stripe_decomposition(g, 0)
        assert sd.lgn == 6
        assert sorted(sd.stripes) == [0, 2]

    def test_too_shallow(self):
        g = build_graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
        with pytest.raises(TooShallow):
            stripe_decomposition(g, 0)


class TestCovers:
    def _sd(self, g):
        return stripe_decomposition(g, 0)

    def test_path_segment_single_cover(self):
        sd = self._sd(gen_path(64))
        assert list(minimal_bfs_cover(sd, 0)) == [0]
        cover2 = minimal_bfs_cover(sd, 2)
        assert list(cover2) == [14]

    def test_two_parallel_segments(self):
        # two disjoint paths out of a common root give stripe-2 two segments
        n = 40
        edges = [(i, i + 1) for i in range(19)]  # chain 0..19
        edges += [(0, 20)] + [(i, i + 1) for i in range(20, 39)]  # chain 20..39
        g = build_graph(n, edges)
        sd = self._sd(g)
        cover = minimal_bfs_cover(sd, 2)
        assert len(cover) == 2
        paths = conflict_free_paths(sd, 2, cover)
        assert len(paths) == 2 and not (set(paths[0]) & set(paths[1]))

    def test_complete_bipartite_layers_single_cover(self):
        # backbone 0..11 plus a widened stripe-2 entry layer {8,12,13} whose
        # members all reach the single next-layer node: any one of them covers
        edges = [(i, i + 1) for i in range(11)]
        edges += [(7, 12), (7, 13), (12, 9), (13, 9)]
        g = build_graph(14, edges)
        sd = stripe_decomposition(g, 0)
        assert sd.lgn == 4
        assert sorted(v for v in range(14) if sd.layers.layer[v] == 8) == [8, 12, 13]
        cover = minimal_bfs_cover(sd, 2)
        assert len(cover) == 1

    def test_conflict_scan_rejects_crossing_paths(self):
        """Two chains out of the root, joined by the edge (12, 32) between
        layer 12 of one and layer 13 of the other. A reach that misses that
        edge leaves each cover node a private witness, so only the final
        edge scan can see that the two paths conflict."""
        chains = [(i, i + 1) for i in range(19)] + [(0, 20)]
        chains += [(i, i + 1) for i in range(20, 39)]
        blind = stripe_decomposition(build_graph(40, chains), 0)
        sd = stripe_decomposition(build_graph(40, chains + [(12, 32)]), 0)
        assert sd.layers.layer == blind.layers.layer
        reach = {u: size_discovery._forward_reach(blind, 2, {u}) for u in (12, 31)}
        assert conflict_free_paths(blind, 2, reach) == [
            list(range(12, 18)), list(range(31, 37))
        ]
        with pytest.raises(ConflictingPaths, match=r"conflicting edge \(12,32\)"):
            conflict_free_paths(sd, 2, reach)

    def test_conflict_scan_kept_under_optimize(self):
        """The same case under `python -O`, which strips assert statements."""
        case = (
            "from radiolab import size_discovery as sdm\n"
            "from radiolab.errors import ConflictingPaths\n"
            "from radiolab.graphs import build_graph\n"
            "chains = [(i, i + 1) for i in range(19)] + [(0, 20)]\n"
            "chains += [(i, i + 1) for i in range(20, 39)]\n"
            "blind = sdm.stripe_decomposition(build_graph(40, chains), 0)\n"
            "sd = sdm.stripe_decomposition(build_graph(40, chains + [(12, 32)]), 0)\n"
            "reach = {u: sdm._forward_reach(blind, 2, {u}) for u in (12, 31)}\n"
            "print(__debug__)\n"
            "try:\n"
            "    sdm.conflict_free_paths(sd, 2, reach)\n"
            "except ConflictingPaths as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(size_discovery.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-O", "-c", case], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert out.split("\n")[:2] == [
            "False", "conflicting edge (12,32) between paths 0 and 1"
        ]

    def test_conflict_free_verified_on_corpus(self):
        for g in (gen_path(40), gen_grid(4, 12), gen_random_connected(70, 0.04, 21)):
            try:
                sd = self._sd(g)
            except TooShallow:
                continue
            for j in sd.stripes:
                reach = minimal_bfs_cover(sd, j)
                conflict_free_paths(sd, j, reach)  # internal exhaustive scan


class TestFastSD:
    def test_phase2_past_barrier_rejected(self, monkeypatch):
        monkeypatch.setattr(size_discovery, "fast_sd_barrier", lambda n: n.bit_length() + 1)
        with pytest.raises(BarrierExceeded, match="stripe 0"):
            build_fast_sd(gen_path(64))

    @pytest.mark.parametrize(
        "g,walks",
        [(gen_path(640), 32), (gen_grid(20, 32), 4), (gen_grid(64, 64), 13), (gen_path(2048), 85)],
        ids=["path-640", "grid-20x32", "grid-64x64", "path-2048"],
    )
    def test_one_reach_walk_per_cover_member(self, monkeypatch, g, walks):
        """The cover's reaches serve the witness search and the reachable
        set too: one walk from each cover member, and no other walk."""
        starts = []
        real = size_discovery._forward_reach

        def counting(sd, j, from_nodes):
            starts.append(set(from_nodes))
            return real(sd, j, from_nodes)

        monkeypatch.setattr(size_discovery, "_forward_reach", counting)
        meta = build_fast_sd(g).meta
        members = [u for stripe in meta["stripes"].values() for u in stripe["cover"]]
        assert len(starts) == walks
        assert sorted(starts, key=min) == sorted(({u} for u in members), key=min)

    @pytest.mark.parametrize("n", [64, 127])
    def test_paths(self, n):
        g = gen_path(n)
        b = build_fast_sd(g)
        assert b.meta["mode"] == "stripes"
        tr = run(g, b.labels, fast_sd_program)
        assert tr.outputs == [n] * n

    def test_grid(self):
        g = gen_grid(8, 32)
        b = build_fast_sd(g)
        assert b.meta["mode"] == "stripes"
        tr = run(g, b.labels, fast_sd_program)
        assert tr.outputs == [256] * 256

    def test_shallow_fallback(self):
        g = build_graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
        b = build_fast_sd(g)
        assert b.meta["mode"] == "fallback"
        tr = run(g, b.labels, fast_sd_program)
        assert tr.outputs == [5] * 5

    def test_stripe_isolation(self):
        """No node ever hears a stage-1 transmission that originated in a
        different stripe."""
        g = gen_path(96)
        b = build_fast_sd(g)
        sd = b.meta["decomposition"]
        tr = run(g, b.labels, fast_sd_program)
        assert tr.outputs == [96] * 96
        for rec in tr.rounds:
            for listener, msg in rec.heard.items():
                tag = unframe(msg)[0]
                if tag not in ("F1", "F2") or sd.stripe_of[listener] is None:
                    continue  # separator nodes may overhear and ignore
                senders = [u for u in g.adj[listener] if u in rec.transmitters]
                assert len(senders) == 1
                assert sd.stripe_of[senders[0]] == sd.stripe_of[listener]

    def test_phase1_simultaneous_completion(self):
        """All cover nodes of every stripe finish phase 1 in the same round
        (all chosen paths have length lg n)."""
        g = gen_grid(4, 32)
        b = build_fast_sd(g)
        assert b.meta["mode"] == "stripes"
        lgn = g.n.bit_length()
        for j, meta in b.meta["stripes"].items():
            assert all(len(p) == lgn for p in meta["paths"])
        tr = run(g, b.labels, fast_sd_program)
        assert tr.outputs == [g.n] * g.n
        # every cover node's last F1 reception happens at round lgn - 1
        sd = b.meta["decomposition"]
        covers = {u for meta in b.meta["stripes"].values() for u in meta["cover"]}
        got = {u: None for u in covers}
        for rnd_idx, rec in enumerate(tr.rounds, start=1):
            for v, msg in rec.heard.items():
                if v in covers and unframe(msg)[0] == "F1":
                    got[v] = rnd_idx
        assert all(r == lgn - 1 for r in got.values())


class TestEndToEndSchemes:
    @pytest.mark.parametrize("scheme", ["compact", "general", "fastsd"])
    @pytest.mark.parametrize(
        "g",
        [
            gen_path(2),
            gen_path(33),
            gen_star(17),
            gen_grid(5, 7),
            gen_random_connected(48, 0.08, 4),
            build_graph(1, []),
        ],
        ids=["p2", "p33", "star17", "grid5x7", "gnp48", "single"],
    )
    def test_all_nodes_output_n(self, scheme, g):
        r = run_scheme(scheme, g)
        assert r.ok


# "<scheme>[-<case>]" -> (label builder, program factory, nodes to check)
MALFORMED_CASES = {
    "compact": (lambda: build_compact_labels(gen_path(6)), AuxiliarySDProgram, range(6)),
    "general-pathmsg": (lambda: build_general_sd(gen_path(6)), general_sd_program, range(6)),
    "general-compact": (lambda: build_general_sd(gen_star(600)), general_sd_program,
                        (0, 1, 599)),
    "fastsd-stripes": (lambda: build_fast_sd(gen_path(6)), fast_sd_program, range(6)),
    "fastsd-fallback": (lambda: build_fast_sd(gen_cycle(4)), fast_sd_program, range(4)),
    "pathmsg": (lambda: synthesize_path_message(gen_path(6), 0, "110"), PathMessageProgram,
                range(6)),
    "toprec": (lambda: build_toprec_labels(gen_path(6)), TopRecProgram, range(6)),
}


def block_widths(case: str, label: str) -> list[int | None]:
    """Each block's fixed width in a label of `case`, None for a free width:
    one bit per mode block in front, then its layout's table."""
    name, rest = layout_of(case.split("-")[0], label)
    modes = [1] * ((len(label) - len(rest)) // 4)
    return modes + list(LAYOUT_PROGRAMS[name].layout.widths.values())


class TestMalformedLabels:
    """A label of any layout with the wrong number of blocks, a fixed-width
    block of the wrong width, or a cut anywhere raises MalformedCodeword
    when the node program is built, never IndexError or ValueError. The
    fixed widths come from the layouts' tables."""

    def test_cases_cover_both_modes(self):
        assert MALFORMED_CASES["general-pathmsg"][0]().meta["branch"] == "pathmsg"
        assert MALFORMED_CASES["general-compact"][0]().meta["branch"] == "compact"
        assert MALFORMED_CASES["fastsd-stripes"][0]().meta["mode"] == "stripes"
        assert MALFORMED_CASES["fastsd-fallback"][0]().meta["mode"] == "fallback"

    @pytest.mark.parametrize("case", sorted(MALFORMED_CASES))
    def test_block_count_checked(self, case):
        build, make, nodes = MALFORMED_CASES[case]
        labels = build().labels
        for v in nodes:
            full = decode_blocks(labels[v])
            make(labels[v])
            for k in range(1, len(full)):
                with pytest.raises(MalformedCodeword):
                    make(encode_blocks(full[:k]))
            with pytest.raises(MalformedCodeword):
                make(encode_blocks(full + ["1"]))

    @pytest.mark.parametrize("case", sorted(MALFORMED_CASES))
    def test_block_width_checked(self, case):
        build, make, nodes = MALFORMED_CASES[case]
        labels = build().labels
        for v in nodes:
            full = decode_blocks(labels[v])
            widths = block_widths(case, labels[v])
            assert len(widths) == len(full)
            for i in (i for i, width in enumerate(widths) if width is not None):
                for block in (full[i][:-1], full[i] + "0"):
                    with pytest.raises(MalformedCodeword):
                        make(encode_blocks(full[:i] + [block] + full[i + 1:]))

    @pytest.mark.parametrize("case", sorted(MALFORMED_CASES))
    def test_every_truncation_is_typed(self, case):
        """Every cut raises, except one that only shortens a last block of
        variable width."""
        build, make, nodes = MALFORMED_CASES[case]
        labels = build().labels
        for v in nodes:
            count = len(decode_blocks(labels[v]))
            last_fixed = block_widths(case, labels[v])[-1] is not None
            for cut in range(len(labels[v])):
                cut_label = labels[v][:cut]
                if (not last_fixed and cut % 2 == 0
                        and len(decode_blocks(cut_label)) == count):
                    continue
                with pytest.raises(MalformedCodeword):
                    make(cut_label)


def check_cached_duties(p, rnd: int) -> None:
    """A node's cached duty rounds after a callback of round `rnd` equal
    their from-scratch formulas: each core's `wake`, an `AckProgram`'s
    collection round, and an `AuxiliarySDProgram`'s Delta-learning round."""
    for core in vars(p).values():
        if isinstance(core, ExecCore):
            assert core.wake == core_next_duty(core), (rnd, core.tag)
    if isinstance(p, AckProgram):
        assert p._collect_at == ack_collect_round(p), rnd
    if isinstance(p, AuxiliarySDProgram):
        if p.is_source:
            own = None if p.core1.informed else p.a + 1
        else:
            own = p.a if 1 <= p.a and rnd < p.a else None
        assert p._own_at == own, rnd


def duty_checked(program, seen: set):
    """`program` with `check_cached_duties` after every callback of every
    node. Records each node's class in `seen`."""

    def build_node(label):
        p = program(label)
        seen.add(type(p))
        check_cached_duties(p, 0)
        for name in ("action", "receive", "next_wake"):
            def checked(rnd, *args, call=getattr(p, name)):
                got = call(rnd, *args)
                check_cached_duties(p, rnd)
                return got
            setattr(p, name, checked)
        return p

    return build_node


@pytest.mark.parametrize("scheme,classes", [
    ("compact", {AuxiliarySDProgram}),
    ("general", {AuxiliarySDProgram, SizeOnPathProgram}),
    ("fastsd", {FastSDProgram, AuxiliarySDProgram, SizeOnPathProgram}),
    ("pathmsg", {PathMessageProgram}),
])
def test_cached_duty_rounds_match_formulas(scheme, classes):
    """Every size program keeps its duty rounds as attributes, set where an
    input changes; on the size corpus, G_16..G_144 and star-513 they equal
    the from-scratch formulas after every callback, and the runs still
    end with every output in."""
    seen: set = set()
    for gid, g in graphs_for(scheme):
        labels, program = build(scheme, g)
        trace = run(g, labels, duty_checked(program, seen))
        assert None not in trace.outputs, gid
    assert seen == classes
