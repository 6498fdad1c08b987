import inspect
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radiolab.corpus import corpus
from radiolab.errors import InvalidParams, ProtocolViolation, RoundLimitExceeded
from radiolab.graphs import build_graph, gen_cycle, gen_path, gen_random_connected
from radiolab.schemes import build_bundle, program_for
from radiolab.sim import (
    COLLISION,
    NOISE,
    SILENCE,
    TX,
    ExecutionTrace,
    Heard,
    NodeProgram,
    RoundRecord,
    frame,
    next_duty,
    parse,
    run,
    unframe,
)
from oracles import history_of, observation, verify_trace

P3 = build_graph(3, [(0, 1), (1, 2)])


class TestObservation:
    def test_silence_no_cd(self):
        assert observation(0, {}, P3, False, False) is NOISE

    def test_silence_cd(self):
        assert observation(0, {}, P3, True, False) is SILENCE

    def test_collision_cd(self):
        # both neighbors of node 1 transmit
        assert observation(1, {0: b"a", 2: b"b"}, P3, True, False) is COLLISION

    def test_collision_no_cd_is_noise(self):
        assert observation(1, {0: b"a", 2: b"b"}, P3, False, False) is NOISE

    def test_unique_transmitter(self):
        for cd in (False, True):
            obs = observation(1, {0: b"m"}, P3, cd, False)
            assert obs == Heard(b"m")

    def test_transmitter_marked(self):
        assert observation(0, {0: b"m"}, P3, False, True) is TX

    def test_non_neighbor_ignored(self):
        assert observation(0, {2: b"m"}, P3, False, False) is NOISE

    @given(st.integers(2, 16), st.integers(0, 2**32), st.data())
    @settings(max_examples=40, deadline=None)
    def test_no_cd_indistinguishability(self, n, seed, data):
        """Zero transmitting neighbors and two transmitting neighbors look
        identical without collision detection."""
        g = gen_random_connected(n, 0.4, seed)
        v = data.draw(st.integers(0, n - 1))
        others = [u for u in range(n) if u != v]
        nbrs = list(g.adj[v])
        silent = {
            u: b"x" for u in data.draw(st.sets(st.sampled_from(others), max_size=3))
            if u not in nbrs
        }
        assert observation(v, silent, g, False, False) is NOISE
        if len(nbrs) >= 2:
            noisy = dict(silent)
            noisy[nbrs[0]] = b"a"
            noisy[nbrs[1]] = b"b"
            assert observation(v, noisy, g, False, False) is NOISE


class LabelLengthOnce(NodeProgram):
    def action(self, rnd):
        self.output = len(self.label)
        return None


class BitDriven(NodeProgram):
    """Label bit 1: transmit 'x' in round 1. In round 2 every node outputs
    the messages it heard in round 1."""

    def __init__(self, label):
        super().__init__(label)
        self.heard = []

    def action(self, rnd):
        if rnd == 2:
            self.output = tuple(self.heard)
        if self.label == "1" and rnd == 1:
            return b"x"
        return None

    def receive(self, rnd, heard):
        self.heard.append(heard.message)


class TestRun:
    def test_single_node_one_round(self):
        g = build_graph(1, [])
        tr = run(g, ["101"], LabelLengthOnce)
        assert tr.num_rounds == 1 and tr.outputs == [3]

    def test_p2_delivery(self):
        g = build_graph(2, [(0, 1)])
        tr = run(g, ["1", "0"], BitDriven)
        assert tr.outputs == [(), (b"x",)]

    def test_p3_collision_is_noise(self):
        """The middle node hears nothing in the collision round, with or
        without collision detection; the trace reads the round as NOISE or
        COLLISION."""
        for cd, mark in ((False, NOISE), (True, COLLISION)):
            tr = run(P3, ["1", "0", "1"], BitDriven, cd=cd)
            assert tr.outputs == [(), (), ()]
            assert tr.observation_of(1, 1) is mark

    def test_determinism(self):
        g = gen_cycle(5)
        labels = ["1", "0", "1", "0", "0"]
        t1 = run(g, labels, BitDriven)
        t2 = run(g, labels, BitDriven)
        assert t1.outputs == t2.outputs
        assert [r.transmitters for r in t1.rounds] == [r.transmitters for r in t2.rounds]
        assert [r.heard for r in t1.rounds] == [r.heard for r in t2.rounds]

    def test_label_count_checked(self):
        with pytest.raises(InvalidParams):
            run(P3, ["1"], BitDriven)

    def test_round_limit(self):
        class Never(NodeProgram):
            pass

        with pytest.raises(RoundLimitExceeded):
            run(P3, ["", "", ""], Never, max_rounds=10)

    def test_next_duty_is_the_earliest_later_round(self):
        assert next_duty(5) is None
        assert next_duty(5, None, None) is None
        assert next_duty(5, None, 9, 6) == 6

    @pytest.mark.parametrize("past", [5, 4, 1])
    def test_a_duty_already_due_raises(self, past):
        with pytest.raises(ProtocolViolation, match=f"round {past} is still pending"):
            next_duty(5, 9, past, None)


class TestHistory:
    def test_transmitter_history_starts_with_txmark(self):
        g = build_graph(2, [(0, 1)])
        tr = run(g, ["1", "0"], BitDriven)
        assert history_of(tr, 0)[0] is TX

    def test_silent_history_cd(self):
        class Quiet(NodeProgram):
            def action(self, rnd):
                if rnd >= 3:
                    self.output = "ok"
                return None

        g = build_graph(2, [(0, 1)])
        tr = run(g, ["", ""], Quiet, cd=True)
        assert all(o is SILENCE for o in history_of(tr, 0))

    def test_history_length_equals_rounds(self):
        g = gen_path(4)
        tr = run(g, ["1", "0", "0", "1"], BitDriven)
        for v in range(4):
            assert len(history_of(tr, v)) == tr.num_rounds

    def test_replay_reproduces_trace(self):
        g = gen_cycle(6)
        tr = run(g, ["1", "0", "0", "1", "0", "0"], BitDriven, cd=True)
        verify_trace(tr)

    def test_replay_on_composite_protocol(self):
        from radiolab.schemes import run_scheme

        res = run_scheme("fastsd", gen_path(64))
        assert res.ok
        verify_trace(res.trace)
        res = run_scheme("toprec", gen_cycle(9), cd=True)
        assert res.ok
        verify_trace(res.trace)


class TestIsolation:
    def test_program_constructed_from_label_only(self):
        sig = inspect.signature(NodeProgram.__init__)
        assert list(sig.parameters) == ["self", "label"]

    def test_engine_passes_only_rounds_and_observations(self):
        """`receive` gets the round and a `Heard`, never a mark: node 1 hears
        node 0 in round 1, nobody hears the collision at node 1 in round 2,
        and nobody listens next to a transmitter in round 3."""
        seen = []

        class Probe(NodeProgram):
            def action(self, rnd):
                assert isinstance(rnd, int)
                self.output = "done"
                if (self.label, rnd) in {("a", 1), ("a", 2), ("c", 2), ("b", 3)}:
                    return self.label.encode()
                return None

            def receive(self, rnd, heard):
                seen.append((self.label, rnd, heard))

            def next_wake(self, rnd):
                return rnd + 1 if rnd < 3 else None

        for cd in (False, True):
            seen.clear()
            run(P3, ["a", "b", "c"], Probe, cd=cd)
            assert seen == [("b", 1, Heard(b"a")), ("a", 3, Heard(b"b")),
                            ("c", 3, Heard(b"b"))]
            assert all(type(h) is Heard for _, _, h in seen)

    def test_transmitter_gets_no_receive_in_its_round(self):
        """Nodes 0 and 1 of a path transmit together in round 1: each has
        exactly one transmitting neighbour, yet neither hears the other, and
        only node 2 gets `receive`."""
        calls = []

        class Pair(NodeProgram):
            def action(self, rnd):
                self.output = "done"
                if self.label in ("0", "1") and rnd == 1:
                    return self.label.encode()
                return None

            def receive(self, rnd, heard):
                calls.append((self.label, rnd, heard))

        for cd in (False, True):
            calls.clear()
            tr = run(gen_path(4), ["0", "1", "2", "3"], Pair, cd=cd)
            assert calls == [("2", 1, Heard(b"1"))]
            assert tr.observation_of(0, 1) is TX and tr.observation_of(1, 1) is TX

    def test_equal_labels_behave_identically(self):
        """Nodes in symmetric positions with equal labels produce identical
        action streams: the interface exposes no node identity."""
        g = gen_cycle(4)
        tr = run(g, ["1"] * 4, BitDriven)
        # all four transmit in round 1, so nobody ever hears anything
        assert set(tr.rounds[0].transmitters) == {0, 1, 2, 3}
        assert tr.rounds[0].heard == {}


class TestMaxRoundsEnv:
    def test_env_override(self, monkeypatch):
        from radiolab.sim import default_max_rounds

        assert default_max_rounds(10) == 5000
        monkeypatch.setenv("RADIOLAB_MAX_ROUNDS", "123")
        assert default_max_rounds(10) == 123

    @pytest.mark.parametrize("value", ["abc", "1.5", "-5", "0"])
    def test_bad_value_is_typed(self, monkeypatch, value):
        from radiolab.sim import default_max_rounds

        monkeypatch.setenv("RADIOLAB_MAX_ROUNDS", value)
        with pytest.raises(InvalidParams, match="RADIOLAB_MAX_ROUNDS"):
            default_max_rounds(10)


class TestSharedHeard:
    """Within one run every listener of the same bytes gets one Heard object,
    and Heard.decode calls its function once per distinct message."""

    class Hub(NodeProgram):
        """Node "hub" sends ab, cd, ab in rounds 1-3, each time as a fresh
        bytes object; the others log what they hear. All output in round 3."""

        def action(self, rnd):
            if rnd == 3:
                self.output = rnd
            if self.label == "hub":
                return bytes(bytearray(b"cd" if rnd == 2 else b"ab"))
            return None

        def receive(self, rnd, heard):
            self.heard.append((rnd, heard))

    def run_star(self, log):
        def make(label):
            p = self.Hub(label)
            p.heard = log
            return p

        return run(build_graph(4, [(0, 1), (0, 2), (0, 3)]), ["hub", "a", "b", "c"], make)

    def test_one_object_per_distinct_message(self):
        log = []
        self.run_star(log)
        assert len(log) == 9
        ab = {id(obs) for rnd, obs in log if rnd in (1, 3)}
        cd = {id(obs) for rnd, obs in log if rnd == 2}
        assert len(ab) == 1 and len(cd) == 1 and ab != cd

    def test_decode_once_per_distinct_message(self):
        log = []
        self.run_star(log)
        calls = []

        def parse(message):
            calls.append(message)
            return message.decode()

        assert [obs.decode(parse) for _, obs in log] == ["ab"] * 3 + ["cd"] * 3 + ["ab"] * 3
        assert calls == [b"ab", b"cd"]

    def test_not_shared_across_runs(self):
        first, second = [], []
        self.run_star(first)
        self.run_star(second)
        assert {id(obs) for _, obs in first}.isdisjoint(id(obs) for _, obs in second)

    def test_equality_and_hash_ignore_the_cache(self):
        h = Heard(b"m")
        h.decode(bytes.decode)
        assert h == Heard(b"m") and hash(h) == hash(Heard(b"m"))
        assert h.decode(len) == 1  # another function is computed afresh


class TestTraceDump:
    def test_frame_round_trip(self):
        msg = frame("tag", 3, "10", [1, 2])
        assert unframe(msg) == ["tag", 3, "10", [1, 2]]

    def test_parse_is_a_hashable_tuple(self):
        msg = frame("pc", "c", [[1, "01"], [4, "1"]])
        parts = parse(msg)
        assert parts == ("pc", "c", ((1, "01"), (4, "1")))
        assert hash(parts) == hash(parse(msg))
        assert Heard(msg).decode(parse) == parts


# message parts as programs frame them: ints, bit strings, tags, None, bools,
# and tuples and lists of them, nested
PARTS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text("01") | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple),
    max_leaves=12,
)


class TestCodecBytes:
    """`frame` and `unframe` are byte for byte the stdlib's compact
    `json.dumps` and `json.loads`."""

    @given(st.lists(PARTS, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_frame_is_compact_dumps(self, parts):
        msg = frame(*parts)
        assert msg == json.dumps(list(parts), separators=(",", ":")).encode()
        assert unframe(msg) == json.loads(msg)

    @pytest.mark.parametrize("scheme", ["compact", "general", "fastsd"])
    def test_every_size_message_reencodes(self, scheme):
        """Every message of one run per graph of the size corpus."""
        program = program_for(scheme)
        count = 0
        for gid, g in corpus():
            trace = run(g, build_bundle(scheme, g).labels, program)
            for rec in trace.rounds:
                for m in rec.transmitters.values():
                    value = json.loads(m)
                    assert json.dumps(value, separators=(",", ":")).encode() == m, gid
                    assert unframe(m) == value, gid
                    count += 1
        assert count > 10_000

    @pytest.mark.parametrize("message", [b'["a",1] ', b'["a",1]]', b'["a",1][2]', b'["a",1',
                                         b'["a",', b""])
    def test_trailing_or_truncated_message_raises(self, message):
        with pytest.raises(json.JSONDecodeError):
            unframe(message)
        with pytest.raises(ProtocolViolation):
            parse(message)


class TestObservationReconstruction:
    def test_trace_observation_of_matches_model(self):
        g = gen_cycle(5)
        tr = ExecutionTrace(g, cd=True)
        # node 1 sits between both transmitters; 3 hears b, 4 hears a
        tr.rounds.append(RoundRecord({0: b"a", 2: b"b"}, {3: b"b", 4: b"a"}))
        assert tr.observation_of(1, 1) is COLLISION
        assert tr.observation_of(4, 1) == Heard(b"a")
        verify_trace(tr)

    @pytest.mark.parametrize("v,rnd", [(1, 0), (1, -1), (1, 3), (99, 1), (-1, 1)])
    def test_observation_outside_the_trace_raises(self, v, rnd):
        """Round 0 and negative rounds do not wrap around to the last rounds,
        the round after the last one and a node outside the graph do not read
        as an IndexError or as NOISE."""
        tr = ExecutionTrace(gen_path(4), cd=False)
        tr.rounds += [RoundRecord({0: b"a"}, {1: b"a"}), RoundRecord({}, {})]
        assert tr.observation_of(1, 1) == Heard(b"a") and tr.observation_of(3, 2) is NOISE
        with pytest.raises(InvalidParams, match=f"node {v} in round {rnd}"):
            tr.observation_of(v, rnd)
