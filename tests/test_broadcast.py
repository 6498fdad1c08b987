import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radiolab.broadcast import (
    PathMessageProgram,
    minimal_dominating_subset,
    synthesize_core,
    synthesize_path_message,
)
from radiolab.errors import EmptySourceSet, Undominatable
from radiolab.graphs import (
    build_graph,
    gen_cycle,
    gen_grid,
    gen_pair_gadget,
    gen_path,
    gen_random_connected,
    gen_star,
)
from radiolab import sim
from radiolab.schemes import build_bundle, program_for
from radiolab.labels import int_to_bits, split_mode
from radiolab.sim import parse, run
from radiolab.size_discovery import FastSDProgram, build_fast_sd, fast_sd_program
from golden import build
from oracles import (
    check_dom_schedule,
    check_executor_rounds,
    check_local_membership,
    check_tree_invariants,
    reference_run,
    verify_executor_run,
)

K4 = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def brute_is_minimal_dominating(chosen, candidates, targets, g):
    def dominates(s):
        return all(any(w in s for w in g.adj[u]) for u in targets)

    if not dominates(chosen):
        return False
    return all(not dominates(chosen - {v}) for v in chosen)


def executor_run(g, s=0):
    """A path-message run from `s` carrying the bits of n, whose first t
    rounds are the Executor run from `s`; every node outputs those bits."""
    bundle = synthesize_path_message(g, s, int_to_bits(g.n))
    tr = run(g, bundle.labels, PathMessageProgram)
    assert tr.outputs == [int_to_bits(g.n)] * g.n
    return bundle, tr


class TestMinimalDominatingSubset:
    def test_single_candidate(self):
        g = gen_star(4)
        assert minimal_dominating_subset({0}, set(g.adj[0]), g)[0] == {0}

    def test_path3(self):
        g = gen_path(3)
        assert minimal_dominating_subset({0, 1}, {2}, g)[0] == {1}

    def test_star_with_extra_candidate(self):
        g = gen_star(5)
        assert minimal_dominating_subset({0, 1}, {2, 3, 4}, g)[0] == {0}

    def test_undominatable(self):
        g = gen_path(4)
        with pytest.raises(Undominatable):
            minimal_dominating_subset({0}, {3}, g)

    @given(st.integers(3, 20), st.floats(0.1, 0.9), st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_minimality_property(self, n, p, seed):
        g = gen_random_connected(n, p, seed)
        candidates = {v for v in range(n) if v % 2 == 0}
        targets = {
            u for u in range(n)
            if u not in candidates and any(w in candidates for w in g.adj[u])
        }
        if not targets:
            return
        chosen = minimal_dominating_subset(candidates, targets, g)[0]
        assert chosen <= candidates
        assert brute_is_minimal_dominating(chosen, candidates, targets, g)


class TestSynthesizeExecutor:
    """The Executor's offline synthesis, `synthesize_core`."""

    def test_single_node(self):
        syn = synthesize_core(build_graph(1, []), {0})
        assert syn.t == 0
        assert syn.tree.parent == {}

    def test_p2_one_stage(self):
        syn = synthesize_core(gen_path(2), {0})
        assert syn.t == 3
        assert syn.tree.level[1] == 1 and syn.tree.parent[1] == 0

    def test_star_one_stage(self):
        syn = synthesize_core(gen_star(5), {0})
        assert syn.t == 3
        assert all(syn.tree.level[v] == 1 for v in range(1, 5))
        assert all(syn.tree.parent[v] == 0 for v in range(1, 5))

    def test_empty_sources(self):
        with pytest.raises(EmptySourceSet):
            synthesize_core(gen_path(2), set())

    @pytest.mark.parametrize("k", [4, 8, 16, 32])
    def test_pair_gadget_stage_count_grows_like_sqrt_n(self, k):
        """On P_k the stages in which each a_i transmits form one interval,
        and the k intervals end in k different stages, so t = 3(k + 1):
        99 rounds at k = 32, n = 561, where lg^2 n is about 83."""
        assert synthesize_core(gen_pair_gadget(k), {0}).t == 3 * (k + 1)


class TestExecutorProgram:
    """The Executor that opens a path-message run (messages tagged p1)."""

    def test_p4_informs_within_three_stages(self):
        g = gen_path(4)
        b, tr = executor_run(g)
        assert b.meta["t"] <= 9
        verify_executor_run(g, b, tr)

    def test_levels_are_one_mod_three(self):
        tree = synthesize_core(gen_grid(3, 5), {0}).tree
        assert all(l % 3 == 1 for v, l in tree.level.items() if v != 0)

    def test_c6_spanning_tree(self):
        g = gen_cycle(6)
        b, tr = executor_run(g)
        tree = b.meta["synthesis"].tree
        assert set(tree.parent) == {1, 2, 3, 4, 5}
        verify_executor_run(g, b, tr)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_random_graphs_verified(self, seed):
        g = gen_random_connected(24, 0.12, seed)
        b, tr = executor_run(g)
        verify_executor_run(g, b, tr)

    def test_stage_count_at_most_n(self):
        for g in (gen_path(17), gen_cycle(9), gen_grid(4, 4)):
            syn = synthesize_core(g, {0})
            assert len(syn.stages) <= g.n
            assert syn.t <= 3 * g.n

    def test_alternate_sources(self):
        g = gen_grid(3, 5)
        for s in (0, 7, 14):
            b, tr = executor_run(g, s)
            verify_executor_run(g, b, tr)


class TestExecAck:
    """The acknowledged broadcast ExecAck, read from the `PathMessageProgram`
    of each node of a pathmsg run: every node learns the run's t, its own
    level and its parent's level within 3t rounds."""

    @staticmethod
    def _run(g):
        """The bundle, each node's program, and the last round with an
        ExecAck message (tags p1, pa, p2), 0 if there is none. A node
        learns t only from such a message, so every node knows t by then.
        `run` shares one program among the nodes of a behaviour class, so
        the per-node programs come from the polling reference."""
        b = synthesize_path_message(g, 0, "101")
        programs = []

        def make(label):
            p = PathMessageProgram(label)
            programs.append(p)
            return p

        reference_run(g, b.labels, make)
        tr = run(g, b.labels, PathMessageProgram)
        assert tr.outputs == ["101"] * g.n
        assert all(m.t == b.meta["t"] for m in programs)
        last = max((rnd for rnd, rec in enumerate(tr.rounds, start=1)
                    for m in rec.transmitters.values() if parse(m)[0] in ("p1", "pa", "p2")),
                   default=0)
        return b, programs, last

    def test_p2(self):
        b, programs, last = self._run(gen_path(2))
        assert (programs[0].core1.level, programs[0].core1.parent_level) == (0, None)
        assert (programs[1].core1.level, programs[1].core1.parent_level) == (1, 0)
        assert last <= 3 * b.meta["t"]

    def test_single_node(self):
        b, programs, last = self._run(build_graph(1, []))
        assert b.meta["t"] == programs[0].t == 0 and last == 0

    def test_star_within_3t(self):
        b, _, last = self._run(gen_star(4))
        t = b.meta["t"]
        assert t == 3 and last <= 3 * t

    def test_every_node_knows_levels(self):
        b, programs, last = self._run(gen_grid(3, 4))
        tree = b.meta["synthesis"].tree
        assert last <= 3 * b.meta["t"]
        for v, m in enumerate(programs):
            assert m.core1.level == (0 if v == 0 else tree.level[v])
            if v != 0:
                p = tree.parent[v]
                assert m.core1.parent_level == (0 if p == 0 else tree.level[p])


class TestMBroadcast:
    """The Executor from several sources: its synthesis, and the stage-2
    broadcast of fastsd, which starts from every super-green node at the
    barrier round."""

    def test_all_sources_zero_rounds(self):
        assert synthesize_core(gen_path(5), set(range(5))).t == 0

    def test_p5_both_ends(self):
        assert synthesize_core(gen_path(5), {0, 4}).t <= 6  # two stages suffice

    @pytest.mark.parametrize("g,sources", [(gen_path(64), 5), (gen_grid(8, 32), 16)],
                             ids=["path64", "grid8x32"])
    def test_fastsd_stage_two_verified(self, g, sources):
        b = build_fast_sd(g)
        syn = b.meta["stage2"]
        assert b.meta["mode"] == "stripes" and len(syn.tree.sources) == sources
        tr = run(g, b.labels, fast_sd_program)
        assert tr.outputs == [g.n] * g.n
        check_tree_invariants(syn, g)
        check_dom_schedule(syn, g)
        # stage 2's relative round 1 is the barrier round. Its source and
        # DOM_1 bits are the super-green and the last flag
        offset = b.meta["barrier"] - 1
        check_executor_rounds(syn, tr, "F3", offset)
        blocks = []
        for label in b.labels:
            own = FastSDProgram.layout.parse(split_mode(label)[1])
            blocks.append((own["stage2_js"], own["flags"][1] + own["flags"][4]))
        check_local_membership(syn, blocks, tr, "F3", offset)

    def test_empty_sources_rejected(self):
        with pytest.raises(EmptySourceSet):
            synthesize_core(gen_path(3), set())


class TestPathMessage:
    def test_single_node(self):
        g = build_graph(1, [])
        b = synthesize_path_message(g, 0, "101")
        tr = run(g, b.labels, PathMessageProgram)
        assert tr.outputs == ["101"]

    def test_p8_all_output_message(self):
        g = gen_path(8)
        b = synthesize_path_message(g, 0, "1011")
        tr = run(g, b.labels, PathMessageProgram)
        assert tr.outputs == ["1011"] * 8
        lo, hi = b.meta["collection_window"]
        # at most one transmitter per collection round, and the occupied
        # rounds are exactly the marked levels
        occupied = set()
        for r in range(lo, hi + 1):
            txs = tr.rounds[r - 1].transmitters
            assert len(txs) <= 1
            if txs:
                occupied.add(r)
        t = b.meta["t"]
        marked_levels = [l for l in b.meta["marked"] if l > 0]
        assert occupied == {3 * t + (t - 2) - l + 1 for l in marked_levels}

    def test_k4_root_chunk(self):
        b = synthesize_path_message(K4, 0, "1")
        tr = run(K4, b.labels, PathMessageProgram)
        assert tr.outputs == ["1"] * 4

    def test_one_marked_node_per_level(self):
        g = gen_random_connected(30, 0.1, 9)
        b = synthesize_path_message(g, 0, "110010")
        marked = b.meta["marked"]
        assert len(set(marked.values())) == len(marked)
        levels = [l for l in marked if l > 0]
        assert all(l % 3 == 1 for l in levels)

    def test_chunk_sizes_bounded(self):
        g = gen_path(20)
        m = "1" * 16
        b = synthesize_path_message(g, 0, m)
        t_ack = 3 * b.meta["t"]
        bound = 9 * (-(-len(m) // t_ack))
        assert all(len(c) <= bound for c in b.meta["chunks"].values())
        assert "".join(b.meta["chunks"][k] for k in sorted(b.meta["chunks"])) == m


class TestNodeLocality:
    def test_dom_decisions_match_oracle(self):
        """The Executor's DOM membership in a path-message run, recomputed
        from label and history, equals the offline schedule (checked inside
        verify_executor_run)."""
        for g in (gen_path(9), gen_grid(3, 4), gen_random_connected(18, 0.2, 7)):
            b, tr = executor_run(g)
            verify_executor_run(g, b, tr)


class TestParseOnce:
    """The size and broadcast programs read messages through `Heard.decode`
    with the shared `parse`, so each distinct delivered message is parsed
    once per run, whatever its number of listeners."""

    CASES = [
        ("fastsd", gen_grid(8, 32)),
        ("pathmsg", gen_grid(6, 7)),
        ("pathmsg", gen_path(40)),
        ("compact", gen_grid(5, 6)),
        ("general", gen_path(64)),
        ("general", gen_star(17)),
        ("fastsd", gen_path(100)),
        ("fastsd", gen_grid(4, 4)),
    ]

    @staticmethod
    def _run(scheme, g, cd):
        labels, program = build(scheme, g)
        return run(g, labels, program, cd=cd)

    @pytest.mark.parametrize("cd", [False, True])
    @pytest.mark.parametrize("scheme,g", CASES)
    def test_one_parse_per_distinct_message(self, monkeypatch, scheme, g, cd):
        parsed = []
        real = sim.unframe

        def counted(message):
            parsed.append(message)
            return real(message)

        monkeypatch.setattr(sim, "unframe", counted)
        tr = self._run(scheme, g, cd)
        heard = {m for rec in tr.rounds for m in rec.heard.values()}
        deliveries = sum(len(rec.heard) for rec in tr.rounds)
        assert sorted(parsed) == sorted(heard)
        assert len(parsed) < deliveries

    def test_feedback_carries_no_stay_field(self):
        g = gen_grid(6, 7)
        tr = run(g, synthesize_path_message(g, 0, "1011001").labels, PathMessageProgram)
        feedback = [parse(m) for rec in tr.rounds for m in rec.transmitters.values()
                    if parse(m)[1] == "f"]
        assert feedback
        assert all(len(parts) == 3 for parts in feedback)

    def test_collection_relays_only_non_empty_chunks(self):
        # a long path takes general's message-on-path branch; every marked
        # node still transmits in its slot, even with nothing to forward
        n = 300
        g = gen_path(n)
        bundle = build_bundle("general", g)
        assert bundle.meta["branch"] == "pathmsg"
        tr = run(g, bundle.labels, program_for("general"))
        assert tr.outputs == [n] * n
        relays = {v: parse(m)[2] for rec in tr.rounds for v, m in rec.transmitters.items()
                  if parse(m)[0] == "pc"}
        marked = set(bundle.meta["marked"].values()) - {0}
        assert set(relays) == marked
        pieces = {(k, c) for k, c in bundle.meta["chunks"].items() if c}
        for pairs in relays.values():
            assert all(chunk for _, chunk in pairs)
            assert set(pairs) <= pieces


class TestExecCoreWake:
    """An `ExecCore`'s wake hint is its next duty round (broadcast,
    feedback or stage end), so a node is called only in the rounds in
    which one of its cores has a duty or it hears a message."""

    @pytest.mark.parametrize(
        "synth,program,rounds,max_calls",
        [
            (lambda g: synthesize_path_message(g, 0, "1011001"), PathMessageProgram, 163, 219),
        ],
        ids=["pathmsg"],
    )
    def test_action_calls_on_grid(self, synth, program, rounds, max_calls):
        g = gen_grid(6, 7)
        calls = []

        def counted(label):
            p = program(label)
            act = p.action
            p.action = lambda rnd: calls.append(rnd) or act(rnd)
            return p

        tr = run(g, synth(g).labels, counted)
        assert tr.num_rounds == rounds
        assert all(out is not None for out in tr.outputs)
        assert len(calls) <= max_calls
