from types import MappingProxyType

import networkx as nx
import pytest

import radiolab.sim as sim_mod
import radiolab.toprec as toprec_mod
from radiolab.errors import InconsistentReports, MalformedCodeword, ProtocolViolation
from radiolab.graphs import (
    build_graph,
    diameter,
    gen_cycle,
    gen_grid,
    gen_path,
    gen_random_connected,
    gen_star,
)
from radiolab.labels import decode_blocks, encode_blocks
from radiolab.schemes import run_scheme, verify_outputs
from radiolab.sim import ExecutionTrace, Heard, frame, run, unframe
from radiolab.toprec import (
    TOPREC_LEN_C,
    TOPREC_LEN_C0,
    TopRecProgram,
    assign_broadcast_indices,
    assign_gather_indices,
    build_toprec_labels,
    distance_two_coloring,
    id_to_wire,
    oracle_ids,
    parse_message,
    topology,
    wire_to_id,
)
from golden import graphs_for
from oracles import reference_run, tagged_rounds, toprec_round_formula, verify_gather_indices

K4 = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


class TestBroadcastIndices:
    def test_star(self):
        g = gen_star(5)
        b, parent, la = assign_broadcast_indices(g, 0)
        assert all(b[v] == 0 for v in range(5))
        assert all(parent[v] == 0 for v in range(1, 5))

    def test_c4(self):
        g = gen_cycle(4)
        b, parent, la = assign_broadcast_indices(g, 0)
        assert (b[1], b[3]) == (0, 1)
        assert parent[2] == 1

    def test_p5_all_zero(self):
        g = gen_path(5)
        b, parent, la = assign_broadcast_indices(g, 0)
        assert b == [0] * 5

    def test_parent_unique_first_coverage(self):
        g = gen_random_connected(25, 0.25, 3)
        b, parent, la = assign_broadcast_indices(g, 0)
        for v in range(1, 25):
            p = parent[v]
            assert la.layer[p] == la.layer[v] - 1
            # no neighbor of v in the same layer as p has a smaller index set
            assert all(
                b[w] >= b[p]
                for w in g.adj[v]
                if la.layer[w] == la.layer[v] - 1
            )


class TestGatherIndices:
    def test_p5(self):
        g = gen_path(5)
        b, parent, la = assign_broadcast_indices(g, 0)
        gv = assign_gather_indices(g, 0, la, parent, b)
        assert gv == [0, 0, 0, 0, 0]

    def test_c4(self):
        g = gen_cycle(4)
        b, parent, la = assign_broadcast_indices(g, 0)
        gv = assign_gather_indices(g, 0, la, parent, b)
        assert (gv[1], gv[3], gv[2]) == (0, 1, 0)

    def test_k4_children_distinct(self):
        b, parent, la = assign_broadcast_indices(K4, 0)
        gv = assign_gather_indices(K4, 0, la, parent, b)
        assert sorted(gv[1:]) == [0, 1, 2]

    @pytest.mark.parametrize("seed", [1, 7, 13, 29])
    def test_gather_exclusion_properties(self, seed):
        g = gen_random_connected(40, 0.12, seed)
        b, parent, la = assign_broadcast_indices(g, 0)
        gv = assign_gather_indices(g, 0, la, parent, b)
        verify_gather_indices(g, 0, la, parent, gv)


class TestColoring:
    def test_p4(self):
        assert distance_two_coloring(gen_path(4)) == [1, 2, 3, 1]

    def test_star(self):
        assert distance_two_coloring(gen_star(4)) == [1, 2, 3, 4]

    def test_triangle(self):
        assert distance_two_coloring(gen_cycle(3)) == [1, 2, 3]

    @pytest.mark.parametrize("seed", [2, 4])
    def test_distance_two_pairs_differ(self, seed):
        g = gen_random_connected(30, 0.15, seed)
        colors = distance_two_coloring(g)
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        dist = dict(nx.all_pairs_shortest_path_length(h, cutoff=2))
        for u in range(g.n):
            for v, d in dist[u].items():
                if u != v and d <= 2:
                    assert colors[u] != colors[v]


class TestBfsLabels:
    def test_p3_apath_everywhere(self):
        b = build_toprec_labels(gen_path(3))
        assert b.meta["path"] == [2, 1, 0]

    def test_star_apath(self):
        b = build_toprec_labels(gen_star(5))
        assert len(b.meta["path"]) == 2 and b.meta["path"][1] == 0

    def test_label_length_bound(self):
        for g in (gen_path(9), gen_star(33), gen_grid(4, 6), K4):
            delta = g.max_degree()
            bound = TOPREC_LEN_C * ((delta + 1).bit_length() + 1) + TOPREC_LEN_C0
            assert build_toprec_labels(g).max_label_bits() <= bound


def slot_of(label: str) -> int:
    return int(TopRecProgram.layout.parse(label)["slot"], 2)


def with_block(label: str, name: str, bits: str) -> str:
    """`label` with its block `name` replaced by `bits`."""
    blocks = decode_blocks(label)
    blocks[list(TopRecProgram.layout.widths).index(name)] = bits
    return encode_blocks(blocks)


def toprec_run(g):
    """A toprec run on `g`, checked exact, with the program of each node.
    `run` shares one program among the nodes of a behaviour class, so the
    per-node programs come from the polling reference."""
    bundle = build_toprec_labels(g)
    programs = []

    def make(label):
        p = TopRecProgram(label)
        programs.append(p)
        return p

    reference_run(g, bundle.labels, make)
    tr = run(g, bundle.labels, TopRecProgram)
    assert verify_outputs("toprec", g, bundle, tr) == g.n
    return bundle, tr, programs


class TestBroadcastBFS:
    """Stage 1's BroadcastBFS, read from the T1 messages of toprec runs."""

    def test_p4_exact_window(self):
        bundle, tr, _ = toprec_run(gen_path(4))
        la = bundle.meta["layers"]
        delta = bundle.meta["delta"]
        window = la.depth * (delta + 1)
        senders = []
        # every T1 transmission happens at its scheduled slot, inside the window
        for rnd_idx, sent, _ in tagged_rounds(tr, "T1"):
            for v in sent:
                slot = la.layer[v] * (delta + 1) + bundle.meta["b"][v] + 1
                assert rnd_idx == slot <= window
                senders.append(v)
        assert senders == [0, 1, 2]  # every node but the leaf

    @pytest.mark.parametrize("seed", [5, 11])
    def test_first_reception_is_parent(self, seed):
        g = gen_random_connected(30, 0.2, seed)
        bundle, tr, _ = toprec_run(g)
        first_from = {}
        for _, sent, heard in tagged_rounds(tr, "T1"):
            for v in heard:
                if v not in first_from:
                    senders = [u for u in g.adj[v] if u in sent]
                    assert len(senders) == 1
                    first_from[v] = senders[0]
        for v in range(1, 30):
            assert first_from[v] == bundle.meta["parent"][v]


class TestAckBrBFS:
    """The acknowledged layered broadcast AckBrBFS, read from the stage-1
    state of each node's program in a toprec run."""

    def test_p4_totals(self):
        bundle, _, programs = toprec_run(gen_path(4))
        la, delta = bundle.meta["layers"], bundle.meta["delta"]
        total = la.depth + 2 * la.depth * (delta + 1)
        assert all((p.dstar, p.total) == (la.depth, total) for p in programs)

    def test_leaf_answers_right_after_window(self):
        bundle, tr, programs = toprec_run(gen_grid(3, 5))
        la, delta = bundle.meta["layers"], bundle.meta["delta"]
        window = la.depth * (delta + 1)
        vp = bundle.meta["path"][0]
        assert unframe(tr.rounds[window].transmitters[vp]) == ["TA", la.depth]  # round window+1
        assert all(p.dstar == la.depth for p in programs)

    def test_single_node(self):
        _, tr, programs = toprec_run(build_graph(1, []))
        assert (programs[0].dstar, programs[0].total) == (0, 0)
        assert tr.num_rounds == 0


class TestGatherBFS:
    """Stage 3's gathering, read from the T4 messages of toprec runs."""

    def test_k4_collects_everything(self):
        bundle, tr, _ = toprec_run(K4)
        gathered = {id_to_wire(()): None}  # the root's own report
        for _, _, heard in tagged_rounds(tr, "T4"):
            if 0 in heard:
                gathered.update(dict.fromkeys(wid for wid, _ in unframe(heard[0])[2]))
        assert sorted(gathered) == sorted(map(id_to_wire, oracle_ids(bundle.meta)))

    @pytest.mark.parametrize("seed", [3, 17])
    def test_every_payload_reaches_parent(self, seed):
        """Every T4 of v is heard by parent[v], inside the D* x Delta window
        after stage 2."""
        g = gen_random_connected(24, 0.18, seed)
        bundle, tr, _ = toprec_run(g)
        la, delta = bundle.meta["layers"], bundle.meta["delta"]
        total = la.depth + 2 * la.depth * (delta + 1)
        g0 = total + bundle.meta["stage2_window"]
        senders = []
        for rnd_idx, sent, _ in tagged_rounds(tr, "T4"):
            for v, m in sent.items():
                assert g0 < rnd_idx <= g0 + la.depth * delta
                assert tr.rounds[rnd_idx - 1].heard.get(bundle.meta["parent"][v]) == m
                senders.append(v)
        assert sorted(senders) == list(range(1, g.n))


class TestConvergecast:
    """Stage 3 is a convergecast up the BFS tree of `meta["parent"]`: each
    T4 names its sender and carries exactly the reports of the sender's
    subtree, each once, and the root's T5 carries every report once."""

    SWEEP = dict(graphs_for("toprec"))  # the toprec corpus and G_16..G_144

    @pytest.mark.parametrize("gid", SWEEP)
    def test_each_t4_carries_its_senders_subtree(self, gid):
        g = self.SWEEP[gid]
        bundle = build_toprec_labels(g)
        parent = bundle.meta["parent"]
        wires = [id_to_wire(i) for i in oracle_ids(bundle.meta)]
        report = [(wires[u], sorted(wires[w] for w in g.adj[u])) for u in range(g.n)]
        subtree = [{v} for v in range(g.n)]
        for bucket in reversed(bundle.meta["layers"].by_layer[1:]):
            for v in bucket:
                subtree[parent[v]] |= subtree[v]
        tr = run(g, bundle.labels, TopRecProgram)
        senders = []
        for _, sent, _ in tagged_rounds(tr, "T4"):
            for v, m in sent.items():
                _, wire, reports = unframe(m)
                assert wire == wires[v]
                assert sorted(reports) == sorted(map(list, map(report.__getitem__, subtree[v])))
                senders.append(v)
        assert sorted(senders) == [v for v in range(g.n) if v != bundle.meta["root"]]
        (final,) = {m for _, sent, _ in tagged_rounds(tr, "T5") for m in sent.values()}
        assert sorted(unframe(final)[1]) == sorted(map(list, report))

    def test_only_a_child_t4_is_merged(self):
        """A node with no wire yet, or that is not the sender's parent,
        ignores a T4; the parent keeps its child's report bodies."""
        p = TopRecProgram(build_toprec_labels(gen_path(4)).labels[2])
        child, me, parent = (id_to_wire((0,) * k) for k in (3, 2, 1))
        t4 = {w: Heard(frame("T4", w, [[w, [me]]])) for w in (child, parent)}
        assert p.receive(1, t4[child]) is False and p._bodies == []
        p.wire_id = me
        assert p.receive(2, t4[parent]) is False and p._bodies == []
        assert p.receive(3, t4[child]) is False and p._bodies == [frame(child, [me])]

    @pytest.mark.parametrize("gid", SWEEP)
    def test_gathered_messages_are_canonical_json(self, gid):
        """T4s and T5s are joined from the bytes heard, yet each is exactly
        the compact JSON that `frame` gives for its value."""
        tr = run(self.SWEEP[gid], build_toprec_labels(self.SWEEP[gid]).labels, TopRecProgram)
        for tag in ("T4", "T5"):
            for _, sent, _ in tagged_rounds(tr, tag):
                for m in sent.values():
                    assert m == frame(*unframe(m))

    @pytest.mark.parametrize("g", [gen_path(40), gen_grid(10, 10), gen_star(129)],
                             ids=["path40", "grid10x10", "star129"])
    def test_no_report_is_decoded_below_the_root(self, g, monkeypatch):
        """No T4 is JSON-decoded at all: parents keep its body as heard, and
        only the joined report sets, the root's and the T5 everyone else
        hears, go through `decode_reports`."""
        unframed, decodes = [], []
        real_unframe, real_decode = sim_mod.unframe, toprec_mod.decode_reports

        def counting_unframe(message):
            unframed.append(message)
            return real_unframe(message)

        def counting_decode(reports):
            decodes.append(len(reports))
            return real_decode(reports)

        monkeypatch.setattr(sim_mod, "unframe", counting_unframe)
        monkeypatch.setattr(toprec_mod, "decode_reports", counting_decode)
        r = run_scheme("toprec", g)
        assert r.ok
        assert not [m for m in unframed if m.startswith(b'["T4"')]
        assert decodes == [g.n] * len(decodes) and 1 <= len(decodes) <= 2


class TestTopRec:
    def test_c4_ids_and_edges(self):
        g = gen_cycle(4)
        b = build_toprec_labels(g)
        ids = oracle_ids(b.meta)
        assert ids == [(), (0,), (0, 0), (1,)]
        tr = run(g, b.labels, TopRecProgram)
        expected = tuple(sorted((min(ids[u], ids[v]), max(ids[u], ids[v])) for u, v in g.edges()))
        for v in range(4):
            assert tr.outputs[v] == (expected, ids[v])

    def test_p3(self):
        r = run_scheme("toprec", gen_path(3))
        assert r.ok

    def test_random50_exact(self):
        g = gen_random_connected(50, 0.1, 77)
        r = run_scheme("toprec", g)
        assert r.ok

    def test_id_mode_thresholds(self, monkeypatch):
        """In id mode node v's slot is v+1 and no colouring runs; otherwise
        the slots are the distance-two colours, in 1..Delta^2+1. The label's
        slot block holds the slot."""
        colourings = []
        def counting(g):
            colourings.append(g)
            return distance_two_coloring(g)
        monkeypatch.setattr(toprec_mod, "distance_two_coloring", counting)
        # star: 16+1 > 5; grid: Delta=4, Delta^2+1 = 17 > 16
        for g in (gen_star(5), gen_grid(4, 4), gen_star(2049)):
            b = build_toprec_labels(g)
            assert b.meta["id_mode"] and b.meta["stage2_window"] == g.n
            assert b.meta["slots"] == list(range(1, g.n + 1))
            assert [slot_of(label) for label in b.labels] == b.meta["slots"]
        assert colourings == []
        # path: Delta=2, 5 > 9 false; grid: 17 <= 18
        for g in (gen_path(9), gen_grid(3, 6), gen_grid(8, 8)):
            b = build_toprec_labels(g)
            window = g.max_degree() ** 2 + 1
            assert not b.meta["id_mode"] and b.meta["stage2_window"] == window
            assert b.meta["slots"] == distance_two_coloring(g)
            assert all(1 <= c <= window for c in b.meta["slots"])
            assert [slot_of(label) for label in b.labels] == b.meta["slots"]
        assert len(colourings) == 3

    @pytest.mark.parametrize(
        "g,node,block,value",
        [
            (gen_grid(3, 6), 4, "slot", 0),  # colour mode, window 17
            (gen_path(9), 0, "slot", 6),  # colour mode, window 5, at the root
            (gen_grid(3, 3), 4, "slot", 0),  # id mode, window 9
            (gen_star(6), 3, "slot", 7),  # id mode, slot n + 1
            (gen_star(6), 0, "slot", 7),  # the root, with n from its label
            (gen_star(6), 0, "n", 0),  # n = 0 is a window of 0, not an unknown n
        ],
        ids=["grid3x6-0", "path9-root-6", "grid3x3-0", "star6-7", "star6-root-7", "star6-n0"],
    )
    def test_slot_outside_the_window_raises(self, g, node, block, value):
        """Once a node knows its stage-2 window, a slot outside 1..window
        raises ProtocolViolation."""
        labels = build_toprec_labels(g).labels
        labels[node] = with_block(labels[node], block, format(value, "b"))
        with pytest.raises(ProtocolViolation, match=r"stage-2 slot \d+ outside 1\.\.\d+"):
            run(g, labels, TopRecProgram)

    def test_stage2_every_neighbor_heard_once(self):
        g = gen_random_connected(26, 0.2, 31)
        b = build_toprec_labels(g)
        tr = run(g, b.labels, TopRecProgram)
        heard_ids = {v: [] for v in range(g.n)}
        for rec in tr.rounds:
            for v, msg in rec.heard.items():
                parts = unframe(msg)
                if parts[0] == "T3":
                    heard_ids[v].append(parts[1])
        for v in range(g.n):
            assert len(heard_ids[v]) == g.degree(v)
            assert len(set(heard_ids[v])) == g.degree(v)

    def test_round_formula_bound(self):
        from radiolab.graphs import diameter
        from radiolab.toprec import TOPREC_C1, TOPREC_C2, TOPREC_C3

        for g in (gen_path(12), gen_grid(3, 6), gen_random_connected(40, 0.3, 8)):
            b = build_toprec_labels(g)
            tr = run(g, b.labels, TopRecProgram)
            formula = toprec_round_formula(
                b.meta["layers"].depth, g.max_degree(), b.meta["stage2_window"]
            )
            assert tr.num_rounds <= formula
            bound = (
                TOPREC_C1 * diameter(g) * g.max_degree()
                + TOPREC_C2 * min(g.n, g.max_degree() ** 2 + 1)
                + TOPREC_C3
            )
            assert formula <= bound

    def test_single_node(self):
        r = run_scheme("toprec", build_graph(1, []))
        assert r.ok

    @pytest.mark.parametrize("g,wake", [(gen_path(5), 31), (gen_grid(3, 3), 47)],
                             ids=["path5", "grid3x3"])
    def test_t2_before_t1_leaves_only_the_announcement(self, g, wake):
        """A non-root node that hears the total before any T1 has no layer:
        it announces itself in stage 2 but has no gather or final slot."""
        b = build_toprec_labels(g)
        depth, delta = b.meta["layers"].depth, b.meta["delta"]
        total = depth + 2 * depth * (delta + 1)
        p = TopRecProgram(b.labels[2])
        assert p.receive(5, Heard(frame("T2", total, g.n if b.meta["id_mode"] else None)))
        sent = []
        for rnd in range(1, 200):
            msg = p.action(rnd)
            if msg is not None:
                sent.append((rnd, unframe(msg)[0]))
            p.next_wake(rnd)  # after the round's action, as the engine calls it
        assert sent == [(wake, "T3")]


class TestParseMessage:
    @pytest.mark.parametrize("cd", [False, True])
    @pytest.mark.parametrize(
        "g", [gen_cycle(4), gen_grid(3, 4), gen_random_connected(20, 0.2, 5)],
        ids=["c4", "grid3x4", "gnp20"],
    )
    def test_every_message_parses_to_a_hashable_value(self, g, cd):
        """Every parse is hashable, so deeply immutable, except T5's wire
        map, which is a read-only view."""
        tr = run(g, build_toprec_labels(g).labels, TopRecProgram, cd=cd)
        tags = set()
        for rec in tr.rounds:
            for m in rec.transmitters.values():
                parsed = parse_message(m)
                parts = unframe(m)
                tags.add(parts[0])
                if parts[0] == "T5":
                    hash(parsed[:2])
                    assert isinstance(parsed[2], MappingProxyType)
                    wires = {w for wid, ns in parts[1] for w in (wid, *ns)}
                    assert dict(parsed[2]) == {w: wire_to_id(w) for w in wires}
                    decoded = [(wire_to_id(w), tuple(map(wire_to_id, ns))) for w, ns in parts[1]]
                    assert parsed[1] == topology(decoded)
                    continue
                hash(parsed)
                if parts[0] == "T4":  # the report array's inner text, as a read-only view
                    assert isinstance(parsed[2], memoryview) and parsed[2].readonly
                    assert parsed[:2] == ("T4", parts[1])
                    assert unframe(b"[" + bytes(parsed[2]) + b"]") == parts[2]
                else:  # T1/T3 carry their wire undecoded, TA/T2 their ints
                    assert list(parsed) == parts
        assert tags == {"T1", "TA", "T2", "T3", "T4", "T5"}

    @pytest.mark.parametrize("tag", ["T1", "T3", "T4"])
    @pytest.mark.parametrize("wire", [None, 5, ["10"]])
    def test_identifier_that_is_not_a_string_rejected(self, tag, wire):
        with pytest.raises(ProtocolViolation, match="not a bit string"):
            parse_message(frame(tag, wire))

    @pytest.mark.parametrize("message", [
        b'["T4","10"]', b'["T1"]', b'["T3"]', b'["T5"]', b'[]',
        b'["T4","10",5]', b'["T5",5]', b'["T5",[["10"]]]', b'["TA"]', b'["T2",5]',
        b'["T4","10",{"a":[]}]',  # no `",[` after the wire
        b'["T4","1a",[["1a",[]]]]',  # a wire that is not a bit string
        b'["T4",",[[]]]',  # the wire's opening quote read as its closing one
        b'["T4","1\xff",[["1",[]]]]',  # not UTF-8
        b'["T1",', b'\xff', b'["T5",[]]]',  # not JSON, not UTF-8, data after the value
    ])
    def test_malformed_message_raises_protocol_violation(self, message):
        """The parse, and so `receive`, rejects a message of the wrong shape
        with a typed error, not an IndexError, TypeError or ValueError."""
        with pytest.raises(ProtocolViolation):
            parse_message(message)
        with pytest.raises(ProtocolViolation):
            TopRecProgram(build_toprec_labels(gen_path(4)).labels[2]).receive(1, Heard(message))

    @pytest.mark.parametrize("tail", [b"]]]", b',"\xff"]]', b",5]]"],
                             ids=["bracket", "not-utf8", "not-a-report"])
    def test_a_broken_t4_body_fails_the_run_at_the_root(self, tail):
        """A T4 whose header is sound is kept and forwarded unread, whatever
        its body holds; the root, the first to decode the reports, raises
        ProtocolViolation for it, not a JSON or UTF-8 error."""

        class BrokenLeaf(TopRecProgram):
            def action(self, rnd):
                m = super().action(rnd)
                if self.is_leaf and m is not None and m.startswith(b'["T4"'):
                    m = m[:-2] + tail
                return m

        g = gen_path(5)
        with pytest.raises(ProtocolViolation):
            run(g, build_toprec_labels(g).labels, BrokenLeaf)

    def test_forwarders_resend_the_heard_bytes(self):
        g = gen_grid(3, 4)
        tr = run(g, build_toprec_labels(g).labels, TopRecProgram)
        finals = {m for rec in tr.rounds for m in rec.transmitters.values()
                  if unframe(m)[0] == "T5"}
        assert len(finals) == 1


class TestSharedTopology:
    """The T5 parse builds the topology once per run; every node shares it
    and checks only its own identifier."""

    def test_one_sided_t5_rejected(self):
        t5 = frame("T5", [["", [id_to_wire((0,))]], [id_to_wire((0,)), []]])
        with pytest.raises(InconsistentReports, match="one-sided"):
            parse_message(t5)

    def test_dangling_t5_rejected(self):
        t5 = frame("T5", [["", [id_to_wire((9,))]]])
        with pytest.raises(InconsistentReports, match="reported nowhere"):
            parse_message(t5)

    def test_own_id_missing_from_shared_topology(self):
        g = gen_cycle(4)
        p = TopRecProgram(build_toprec_labels(g).labels[1])
        p.wire_id = id_to_wire((0,))
        with pytest.raises(ProtocolViolation, match="own identifier"):
            p.receive(1, Heard(frame("T5", [["", []]])))

    @pytest.mark.parametrize("g", [gen_grid(10, 10), gen_star(129)],
                             ids=["grid10x10", "star129"])
    def test_at_most_two_reconstructions_per_run(self, g, monkeypatch):
        calls = []
        real = toprec_mod.topology

        def counting(reports):
            calls.append(len(reports))
            return real(reports)

        monkeypatch.setattr(toprec_mod, "topology", counting)
        r = run_scheme("toprec", g)
        assert r.ok
        assert 1 <= len(calls) <= 2

    @pytest.mark.parametrize("g", [gen_cycle(4), gen_grid(10, 10), gen_star(129)],
                             ids=["c4", "grid10x10", "star129"])
    def test_outputs_share_one_immutable_edge_tuple(self, g):
        r = run_scheme("toprec", g)
        assert r.ok
        outs = r.trace.outputs
        root = r.bundle.meta["root"]
        shared = outs[1 - root][0]
        assert isinstance(shared, tuple)
        assert all(outs[v][0] is shared for v in range(g.n) if v != root)
        assert outs[root][0] == shared
        for out in outs:
            hash(out)

    @pytest.mark.parametrize("g", [gen_star(1025), gen_grid(20, 20)],
                             ids=["star1025", "grid20x20"])
    def test_larger_graphs_exact(self, g):
        """Regression guard for the per-node rebuild: these took seconds when
        every node rebuilt the topology."""
        r = run_scheme("toprec", g)
        assert r.ok and r.correct_outputs == g.n
        delta = g.max_degree()
        bound = (
            toprec_mod.TOPREC_C1 * diameter(g) * delta
            + toprec_mod.TOPREC_C2 * min(g.n, delta * delta + 1)
            + toprec_mod.TOPREC_C3
        )
        assert r.trace.num_rounds <= bound


class TestDecodeOnce:
    """Each decode of a report set (the T5 parse, the root's own) turns
    each distinct wire identifier into an id once."""

    @staticmethod
    def count_wire_to_id(monkeypatch) -> list:
        calls = []
        real = toprec_mod.wire_to_id

        def counting(wire):
            calls.append(wire)
            return real(wire)

        monkeypatch.setattr(toprec_mod, "wire_to_id", counting)
        return calls

    def test_grid_run_decode_count(self, monkeypatch):
        """One decode per identifier in each of the two report-set decodes
        (2 x 100), and none of a T1 or T3."""
        calls = self.count_wire_to_id(monkeypatch)
        r = run_scheme("toprec", gen_grid(10, 10))
        assert r.ok
        assert len(calls) == 200  # 399 when T1 and T3 were decoded, 1,119 before that

    @pytest.mark.parametrize("g", [gen_grid(10, 10), gen_star(129)],
                             ids=["grid10x10", "star129"])
    def test_identifiers_are_not_re_encoded(self, g, monkeypatch):
        """A node extends the wire its T1 carried and reports the wires its
        neighbors' T3s carried, so a run encodes no identifier whole (460
        and 385 encodes when every report re-encoded its neighbors)."""
        calls = []
        real = toprec_mod.id_to_wire

        def counting(node_id):
            calls.append(node_id)
            return real(node_id)

        monkeypatch.setattr(toprec_mod, "id_to_wire", counting)
        r = run_scheme("toprec", g)
        assert r.ok
        assert len(calls) <= 1

    @pytest.mark.parametrize("g", [gen_grid(4, 5), gen_random_connected(30, 0.3, 7)],
                             ids=["grid4x5", "gnp30"])
    def test_wires_are_the_encoded_identifiers(self, g):
        """Each node's built wire is `id_to_wire` of its identifier, so the
        bytes are those of encoding it whole."""
        bundle, _, programs = toprec_run(g)
        ids = oracle_ids(bundle.meta)
        assert [p.wire_id for p in programs] == [id_to_wire(i) for i in ids]

    @pytest.mark.parametrize("g", [gen_grid(3, 4), gen_random_connected(30, 0.3, 7)],
                             ids=["grid3x4", "gnp30"])
    def test_t5_parse_decodes_each_distinct_id_once(self, g, monkeypatch):
        tr = run(g, build_toprec_labels(g).labels, TopRecProgram)
        t5 = next(m for rec in tr.rounds for m in rec.transmitters.values()
                  if unframe(m)[0] == "T5")
        wires = [w for wid, nbrs in unframe(t5)[1] for w in (wid, *nbrs)]
        assert len(wires) > len(set(wires))
        calls = self.count_wire_to_id(monkeypatch)
        parse_message(t5)
        assert sorted(calls) == sorted(set(wires))


class TestVerifyOutputs:
    """`verify_outputs` on hand-built toprec traces: it compares each
    distinct edge-tuple object once and every node's own identifier."""

    @staticmethod
    def hand_built(g=None):
        g = g or gen_grid(3, 4)
        bundle = build_toprec_labels(g)
        ids = oracle_ids(bundle.meta)
        edges = tuple(sorted((min(ids[u], ids[v]), max(ids[u], ids[v])) for u, v in g.edges()))
        return g, bundle, ids, edges, ExecutionTrace(g, cd=False)

    def test_right_outputs_count(self):
        g, bundle, ids, edges, tr = self.hand_built()
        tr.outputs = [(edges, ids[v]) for v in range(g.n)]
        assert verify_outputs("toprec", g, bundle, tr) == g.n

    def test_a_wrong_shared_tuple_counts_for_no_node(self):
        g, bundle, ids, edges, tr = self.hand_built()
        wrong = edges[:-1]
        tr.outputs = [(edges if v < 3 else wrong, ids[v]) for v in range(g.n)]
        assert verify_outputs("toprec", g, bundle, tr) == 3
        tr.outputs = [(wrong, ids[v]) for v in range(g.n)]
        assert verify_outputs("toprec", g, bundle, tr) == 0

    def test_equal_but_distinct_tuples_count(self):
        g, bundle, ids, edges, tr = self.hand_built()
        tr.outputs = [(tuple(list(edges)), ids[v]) if v % 2 else (edges, ids[v])
                      for v in range(g.n)]
        assert len({id(out[0]) for out in tr.outputs}) == g.n // 2 + 1
        assert verify_outputs("toprec", g, bundle, tr) == g.n

    def test_a_missing_output_counts_zero(self):
        g, bundle, ids, edges, tr = self.hand_built()
        tr.outputs = [None if v in (0, 5) else (edges, ids[v]) for v in range(g.n)]
        assert verify_outputs("toprec", g, bundle, tr) == g.n - 2
        tr.outputs = [None] * g.n
        assert verify_outputs("toprec", g, bundle, tr) == 0

    def test_a_right_tuple_with_a_wrong_own_id_counts_zero(self):
        g, bundle, ids, edges, tr = self.hand_built()
        tr.outputs = [(edges, ids[v] if v == 0 else ids[(v + 1) % g.n]) for v in range(g.n)]
        assert verify_outputs("toprec", g, bundle, tr) == 1
        tr.outputs[0] = (edges, ids[1])
        assert verify_outputs("toprec", g, bundle, tr) == 0

    @pytest.mark.parametrize("right", [True, False])
    def test_each_shared_tuple_is_compared_once(self, right):
        g, bundle, ids, edges, tr = self.hand_built(gen_grid(6, 6))
        compared = []

        class Counted(tuple):
            def __eq__(self, other):
                compared.append(1)
                return tuple.__eq__(self, other)

            __hash__ = tuple.__hash__

        shared = Counted(edges if right else edges[1:])
        tr.outputs = [(shared, ids[v]) for v in range(g.n)]
        assert verify_outputs("toprec", g, bundle, tr) == (g.n if right else 0)
        assert len(compared) == 1


class TestMalformedLabels:
    """A label with the wrong number of blocks raises MalformedCodeword when
    the node program is built, never IndexError or ValueError."""

    @pytest.mark.parametrize("make", [TopRecProgram], ids=["toprec"])
    def test_block_count_checked(self, make):
        blocks = len(make.layout.widths)
        full = decode_blocks(build_toprec_labels(gen_cycle(4)).labels[1])
        assert len(full) == blocks
        make(encode_blocks(full))
        for k in range(1, blocks):
            with pytest.raises(MalformedCodeword, match=f"expected {blocks}"):
                make(encode_blocks(full[:k]))
        with pytest.raises(MalformedCodeword):
            make(encode_blocks(full + ["1"]))

    @pytest.mark.parametrize("v", [0, 1, 5])
    def test_every_truncation_is_typed(self, v):
        """Cutting a label anywhere either raises MalformedCodeword or only
        shortens its last block."""
        g = gen_grid(3, 4)
        labels = build_toprec_labels(g).labels
        for cut in range(len(labels[v])):
            cut_label = labels[v][:cut]
            if cut % 2 == 0 and len(decode_blocks(cut_label)) == len(TopRecProgram.layout.widths):
                continue  # only the last block is shorter
            with pytest.raises(MalformedCodeword):
                run(g, labels[:v] + [cut_label] + labels[v + 1:], TopRecProgram)


class TestOutputSerialization:
    def test_wire_shape(self):
        from radiolab.toprec import serialize_toprec_output

        g = gen_cycle(4)
        b = build_toprec_labels(g)
        tr = run(g, b.labels, TopRecProgram)
        out = serialize_toprec_output(tr.outputs[1])
        assert out["self"] == [0]
        assert [[], [0]] in out["edges"]


class TestReconstruct:
    def test_single(self):
        assert topology({(): set()}.items()) == ()

    def test_two_nodes(self):
        assert topology({(): {(0,)}, (0,): {()}}.items()) == (((), (0,)),)

    def test_one_sided_flagged(self):
        with pytest.raises(InconsistentReports):
            topology({(): {(0,)}, (0,): set()}.items())

    def test_unknown_node_flagged(self):
        with pytest.raises(InconsistentReports):
            topology({(): {(9,)}}.items())
