"""The event-driven class engine against the polling engine it replaced.

`oracles.reference_run` is the polling loop `sim.run` used before programs
could declare wake rounds and before nodes with equal labels and heard
histories shared a program: one program per node, `action` in every round,
and `receive` in every round in which the node hears a message. The engine
must produce the same trace on every scheme.
"""

import time
from collections import Counter
from functools import cache

import pytest

from radiolab import broadcast, size_discovery, toprec
from radiolab.errors import ProtocolViolation, RoundLimitExceeded
from radiolab.graphs import build_graph, gen_lb_family, gen_path, gen_star
from radiolab.schemes import build_bundle, program_for
from radiolab.sim import Heard, NodeProgram, run
from golden import CORPUS, SCHEMES, TOPREC_CORPUS, build
from oracles import history_keys, reference_run


def assert_same_trace(gid, g, scheme, cd):
    labels, program = build(scheme, g)
    return assert_matches_reference(gid, g, labels, program, cd)


def assert_matches_reference(gid, g, labels, program, cd=False):
    """`sim.run` gives the trace of `reference_run`; returns it."""
    got = run(g, labels, program, cd=cd)
    want = reference_run(g, labels, program, cd=cd)
    assert got.num_rounds == want.num_rounds, gid
    assert [r.transmitters for r in got.rounds] == [r.transmitters for r in want.rounds], gid
    assert [r.heard for r in got.rounds] == [r.heard for r in want.rounds], gid
    assert got.outputs == want.outputs, gid
    assert got.output_round == want.output_round, gid
    return got


def family_sample(graphs, per_family):
    """The first, last and evenly spaced graphs of each family, in corpus
    order, so every family and its largest member are covered."""
    by_family: dict[str, list] = {}
    for gid, g in graphs:
        by_family.setdefault(gid.split("-")[0], []).append((gid, g))
    picked = []
    for members in by_family.values():
        step = max(1, (len(members) - 1) // max(1, per_family - 1))
        chosen = members[::step][: per_family - 1] + [members[-1]]
        picked.extend(dict.fromkeys(gid for gid, _ in chosen))
    return [(gid, g) for gid, g in graphs if gid in set(picked)]


# toprec's stage-4 messages grow with the edge count times the depth, so
# its sample stops at n = 65 to keep the polling reference affordable. Both
# are built on first use, not when the module is collected.
SIZE_SAMPLE = cache(lambda: family_sample(CORPUS(), 5))
TOPREC_SAMPLE = cache(lambda: family_sample([(gid, g) for gid, g in TOPREC_CORPUS() if g.n <= 65], 3))


@pytest.mark.parametrize("cd", [False, True])
@pytest.mark.parametrize("scheme", ["compact", "general", "fastsd"])
def test_size_schemes_match_reference(scheme, cd):
    for gid, g in SIZE_SAMPLE():
        assert_same_trace(gid, g, scheme, cd)


@pytest.mark.parametrize("cd", [False, True])
def test_toprec_matches_reference(cd):
    for gid, g in TOPREC_SAMPLE():
        assert_same_trace(gid, g, "toprec", cd)


@pytest.mark.parametrize("cd", [False, True])
@pytest.mark.parametrize("scheme", ["pathmsg"])
def test_primitives_match_reference(scheme, cd):
    for gid, g in TOPREC_SAMPLE():
        assert_same_trace(gid, g, scheme, cd)


@pytest.mark.parametrize("n", [16, 36])
@pytest.mark.parametrize("scheme", ["compact", "general", "fastsd", "toprec"])
def test_lower_bound_family_with_cd_matches_reference(scheme, n):
    g, _ = gen_lb_family(n)
    assert_same_trace(f"G_{n}", g, scheme, True)


@pytest.mark.parametrize(
    "scheme,rounds",
    [("compact", 1), ("general", 0), ("fastsd", 0), ("pathmsg", 0), ("toprec", 0)],
)
def test_single_node_matches_reference(scheme, rounds):
    """A run whose outputs are all in before round 1, with no wake round
    asked for, takes no rounds at all."""
    tr = assert_same_trace("single", build_graph(1, []), scheme, False)
    assert tr.num_rounds == rounds
    assert tr.outputs[0] is not None


def test_samples_cover_every_family():
    families = {gid.split("-")[0] for gid, _ in CORPUS()}
    assert {gid.split("-")[0] for gid, _ in SIZE_SAMPLE()} == families
    assert {gid.split("-")[0] for gid, _ in TOPREC_SAMPLE()} == families


def node_programs():
    """The program classes of the package that a node factory builds: the
    bases `NodeProgram` and `AckProgram` excluded."""
    return {
        cls
        for mod in (broadcast, size_discovery, toprec)
        for cls in vars(mod).values()
        if isinstance(cls, type) and issubclass(cls, NodeProgram)
        and cls not in (NodeProgram, broadcast.AckProgram)
    }


def test_every_program_declares_its_wake_round():
    programs = node_programs()
    assert len(programs) == 5
    assert [c.__name__ for c in programs if c.next_wake is NodeProgram.next_wake] == []
    # the wake round is the only sleep signal
    assert [c.__name__ for c in programs | {NodeProgram} if hasattr(c, "idle")] == []


def contract_checked(program, seen):
    """`program` with every node's `receive` checked: it returns a bool, and
    after a False the node's `next_wake(rnd)` and `output` are what they were
    just before the call. Records each checked node's class in `seen`."""

    def build_node(label):
        p = program(label)
        receive = p.receive

        def checked(rnd, heard):
            before = p.next_wake(rnd), p.output
            got = receive(rnd, heard)
            cls = type(p).__name__
            assert type(got) is bool, f"{cls}.receive returned {got!r} in round {rnd}"
            if not got:
                after = p.next_wake(rnd), p.output
                assert after[0] == before[0] and after[1] is before[1], (
                    f"{cls}.receive returned False in round {rnd} but changed "
                    f"(next_wake, output) from {before} to {after}"
                )
            seen.add(type(p))
            return got

        p.receive = checked
        return p

    return build_node


LB_SAMPLE = [(f"G_{n}", gen_lb_family(n)[0]) for n in (16, 36, 64, 100, 144)]


def test_receive_false_only_when_nothing_changed():
    """Every scheme and primitive on both samples and G_16..G_144: a receive
    that returns False changes neither the wake round nor the output, and
    every program class answers with a bool."""
    seen = set()
    for scheme in SCHEMES:
        for gid, g in SIZE_SAMPLE() + TOPREC_SAMPLE() + LB_SAMPLE:
            labels, program = build(scheme, g)
            tr = run(g, labels, contract_checked(program, seen))
            assert None not in tr.outputs, (scheme, gid)
    assert seen == node_programs()


class SleepsBeforeOutput(NodeProgram):
    def next_wake(self, rnd):
        return None


class TestWakeContract:
    def test_deadlock_reported_at_once(self):
        t0 = time.perf_counter()
        with pytest.raises(RoundLimitExceeded, match=r"every node sleeps.*\[0, 1, 2\]"):
            run(gen_path(3), ["", "", ""], SleepsBeforeOutput, max_rounds=10**9)
        assert time.perf_counter() - t0 < 0.5

    def test_sleeping_node_gets_only_heard(self):
        """Node 1 sleeps from round 1 on; node 0 transmits in rounds 3 and 7
        and node 2 outputs in round 9."""
        calls = []

        class Prog(NodeProgram):
            def action(self, rnd):
                calls.append((self.label, "action", rnd))
                if self.label == "0" and rnd in (3, 7):
                    self.output = "sender"
                    return b"m"
                if self.label == "2" and rnd == 9:
                    self.output = "done"
                return None

            def receive(self, rnd, heard):
                calls.append((self.label, "receive", rnd, heard))
                if self.label == "1":
                    self.output = rnd

            def next_wake(self, rnd):
                if self.label == "0":
                    return {1: 3, 3: 7}.get(rnd)
                if self.label == "2":
                    return 9 if rnd < 9 else None
                return None

        tr = run(gen_path(3), ["0", "1", "2"], Prog)
        assert tr.num_rounds == 9
        assert tr.outputs == ["sender", 3, "done"]
        assert tr.output_round == [3, 3, 9]
        asleep = [c for c in calls if c[0] == "1" and c[2] > 1]
        assert asleep == [("1", "receive", 3, Heard(b"m")),
                          ("1", "receive", 7, Heard(b"m"))]
        assert [c[2] for c in calls if c[0] == "2" and c[1] == "action"] == [1, 9]
        # skipped rounds stay in the trace, as rounds without transmitters
        assert [sorted(r.transmitters) for r in tr.rounds] == [
            [], [], [0], [], [], [], [0], [], []
        ]

    @pytest.mark.parametrize("answer", [False, None])
    def test_receive_answer_gates_next_wake(self, answer):
        """Node 0 transmits in round 2. Node 1 sleeps after round 1 with wake
        round 6 and hears the message; asked again in round 2 it would say 4.
        A receive that returns False gets no `next_wake` call, so node 1
        wakes at the earlier hint, 6; one that returns None gets the call."""
        calls = []

        class Prog(NodeProgram):
            def action(self, rnd):
                if self.label == "0" and rnd == 2:
                    self.output = "sent"
                    return b"m"
                if self.label == "1" and rnd > 1:
                    self.output = rnd
                return None

            def receive(self, rnd, heard):
                calls.append(("receive", rnd))
                return answer

            def next_wake(self, rnd):
                if self.label == "0":
                    return 2 if rnd < 2 else None
                calls.append(("next_wake", rnd))
                return {1: 6, 2: 4}.get(rnd)

        tr = run(gen_path(2), ["0", "1"], Prog)
        if answer is False:
            assert calls == [("next_wake", 1), ("receive", 2), ("next_wake", 6)]
            assert tr.outputs == ["sent", 6] and tr.num_rounds == 6
        else:
            assert calls == [("next_wake", 1), ("receive", 2), ("next_wake", 2),
                             ("next_wake", 4)]
            assert tr.outputs == ["sent", 4] and tr.num_rounds == 4

    def test_awake_node_gets_next_wake_after_false(self):
        """A node whose `action` ran this round is asked for its wake round
        even when its `receive` returns False."""
        asked = []

        class Prog(NodeProgram):
            def action(self, rnd):
                if self.label == "0" and rnd == 2:
                    return b"m"
                if rnd == 3:
                    self.output = rnd
                return None

            def receive(self, rnd, heard):
                return False

            def next_wake(self, rnd):
                asked.append((self.label, rnd))
                return super().next_wake(rnd)

        tr = run(gen_path(2), ["0", "1"], Prog)
        assert ("1", 2) in asked
        assert tr.outputs == [3, 3]

    def test_base_receive_ignores_messages(self):
        p = NodeProgram("")
        assert p.receive(1, Heard(b"m")) is False

    def test_early_hint_polls(self):
        class Stale(NodeProgram):
            def action(self, rnd):
                if rnd == 4:
                    self.output = rnd
                return None

            def next_wake(self, rnd):
                return rnd - 5 if self.output is None else None

        tr = run(build_graph(1, []), [""], Stale)
        assert tr.outputs == [4] and tr.num_rounds == 4

    def test_wake_round_after_output_keeps_run_going(self):
        """Both outputs are in after round 1, but node 0 still asks for
        round 12, where it transmits; the run lasts until then."""

        class Late(NodeProgram):
            def action(self, rnd):
                self.output = "out"
                if self.label == "0" and rnd == 12:
                    return b"late"
                return None

            def next_wake(self, rnd):
                return 12 if self.label == "0" and rnd < 12 else None

        tr = run(gen_path(2), ["0", "1"], Late)
        assert tr.output_round == [1, 1]
        assert tr.num_rounds == 12
        assert [r.transmitters for r in tr.rounds] == [{}] * 11 + [{0: b"late"}]
        assert tr.rounds[-1].heard == {1: b"late"}

    def test_default_hint_polls_until_output(self):
        class Polls(NodeProgram):
            def action(self, rnd):
                if rnd == 5:
                    self.output = rnd
                return None

        p = Polls("")
        assert p.next_wake(3) == 4
        p.output = 0
        assert p.next_wake(3) is None
        tr = run(gen_path(2), ["", ""], Polls)
        assert tr.outputs == [5, 5] and tr.num_rounds == 5


class Scripted(NodeProgram):
    """A program whose behaviour is a function of its label and heard
    history: it keeps the (round, bytes) it hears, sends `SENDS[(label,
    round)]` (b"=" sends its last heard message with a b"!" appended, or
    nothing if it heard none), outputs its heard history in its `END`
    action, and polls, or wakes only at the rounds of `WAKES[label]`.
    `ANSWER` is what its `receive` returns."""

    SENDS: dict = {}
    WAKES: dict = {}
    END = 5
    ANSWER = None

    def __init__(self, label):
        super().__init__(label)
        self.log = []

    def action(self, rnd):
        if rnd == self.END:
            self.output = tuple(self.log)
        m = self.SENDS.get((self.label, rnd))
        if m == b"=":
            return self.log[-1][1] + b"!" if self.log else None
        return m

    def receive(self, rnd, heard):
        self.log.append((rnd, heard.message))
        return self.ANSWER

    def next_wake(self, rnd):
        if self.output is not None:
            return None
        wakes = self.WAKES.get(self.label)
        if wakes is None:
            return rnd + 1
        return min(w for w in wakes if w > rnd)


def counted(program):
    """`program` and the list of labels it is called with."""
    calls = []

    def make(label):
        calls.append(label)
        return program(label)

    return make, calls


class TestBehaviourClasses:
    """Nodes with equal labels and heard histories share one program; a
    class splits when its members hear different things. Each run matches
    the per-node reference."""

    def test_split_in_an_awake_round(self):
        """Class a = {1, 2} polls; in round 1 only node 1 hears s, so the
        class splits in a round in which it was called, and node 1 echoes
        in round 2."""

        class Prog(Scripted):
            SENDS = {("s", 1): b"x", ("a", 2): b"="}

        g, labels = gen_path(3), ["s", "a", "a"]
        tr = assert_matches_reference("split-awake", g, labels, Prog)
        assert tr.outputs == [((2, b"x!"),), ((1, b"x"),), ((2, b"x!"),)]
        make, calls = counted(Prog)
        run(g, labels, make)
        assert calls == ["s", "a", "a"]  # the labels' classes, then the split

    def test_split_replays_action_and_receive_only(self):
        """`next_wake` is a query, so a split replays only the class's
        `action` and `receive` calls: node 1 splits off class a in round 2,
        and its fresh program is asked `next_wake` first in that round."""
        built = []

        class Prog(Scripted):
            SENDS = {("s", 2): b"x"}

            def __init__(self, label):
                super().__init__(label)
                self.calls = []
                built.append(self)

            def action(self, rnd):
                self.calls.append(("action", rnd))
                return super().action(rnd)

            def receive(self, rnd, heard):
                self.calls.append(("receive", rnd))
                return super().receive(rnd, heard)

            def next_wake(self, rnd):
                self.calls.append(("next_wake", rnd))
                return super().next_wake(rnd)

        run(gen_path(3), ["s", "a", "a"], Prog)
        assert [p.label for p in built] == ["s", "a", "a"]
        assert built[1].calls[:3] == [("action", 1), ("next_wake", 1), ("action", 2)]
        assert built[2].calls[:4] == [("action", 1), ("action", 2), ("receive", 2), ("next_wake", 2)]

    @pytest.mark.parametrize("answer", [None, False])
    def test_split_while_asleep(self, answer):
        """Class a = {1, 2} sleeps from round 1 with wake round 5 on the
        heap; node 1 alone hears s in round 2. The split-off class keeps
        wake round 5, also when its `receive` returns False and it gets no
        `next_wake` call; in round 5 it echoes."""

        class Prog(Scripted):
            SENDS = {("s", 2): b"x", ("a", 5): b"="}
            WAKES = {"s": (2, 5), "a": (5,)}
            ANSWER = answer

        tr = assert_matches_reference("split-asleep", gen_path(3), ["s", "a", "a"], Prog)
        assert tr.outputs[1:] == [((2, b"x"),), ()]
        assert tr.rounds[4].transmitters == {1: b"x!"}

    @pytest.mark.parametrize("labels", [["a", "s", "a", "t", "a"], ["a", "s", "t", "a"]])
    def test_members_hear_two_messages(self, labels):
        """In round 1 one member of class a hears x and another y (on
        path-5 the middle member hears a collision); each listener group
        splits off, and each echoes what it heard in round 3."""

        class Prog(Scripted):
            SENDS = {("s", 1): b"x", ("t", 1): b"y", ("a", 3): b"="}

        g = gen_path(len(labels))
        tr = assert_matches_reference("two-messages", g, labels, Prog)
        assert tr.rounds[2].transmitters == {0: b"x!", len(labels) - 1: b"y!"}

    def test_split_of_a_split_replays_the_whole_history(self):
        """Class a = {1, 2, 3}: nodes 1 and 2 hear s in round 1 and split off
        together, then node 1 alone hears t in round 2. Its program replays
        the calls of class a before round 1's split and of {1, 2} after it,
        so it counts every action call and keeps both messages."""

        class Counts(Scripted):
            SENDS = {("s", 1): b"x", ("t", 2): b"y", ("a", 3): b"="}

            def __init__(self, label):
                super().__init__(label)
                self.actions = 0

            def action(self, rnd):
                self.actions += 1
                m = super().action(rnd)
                if self.output is not None:
                    self.output = (self.output, self.actions)
                return m

        g = build_graph(6, [(0, 1), (0, 2), (0, 5), (1, 4), (3, 5)])
        tr = assert_matches_reference("split-twice", g, ["s", "a", "a", "a", "t", "u"], Counts)
        assert tr.outputs[1:4] == [(((1, b"x"), (2, b"y")), 5), (((1, b"x"),), 5), ((), 5)]
        assert tr.rounds[2].transmitters == {1: b"y!", 2: b"x!"}

    def test_one_receive_when_every_member_hears(self):
        """Every leaf of a star hears the centre: the leaves' class gets one
        `receive` per message and never splits."""
        received = []

        class Prog(Scripted):
            SENDS = {("s", 1): b"x", ("s", 3): b"z"}

            def receive(self, rnd, heard):
                received.append((self.label, rnd))
                return super().receive(rnd, heard)

        make, calls = counted(Prog)
        g = gen_star(6)
        tr = run(g, ["s"] + ["a"] * 5, make)
        assert tr.outputs[1:] == [((1, b"x"), (3, b"z"))] * 5
        assert calls == ["s", "a"] and received == [("a", 1), ("a", 3)]

    def test_replay_catches_a_class_level_counter(self):
        """A class attribute counts the programs built per label, and the
        second one built from a label transmits in round 1. A node's
        behaviour is then not a function of its label and heard history,
        and the replay that splits class a raises ProtocolViolation."""

        class Leaky(Scripted):
            SENDS = {("s", 2): b"x"}
            built: dict = {}

            def __init__(self, label):
                super().__init__(label)
                self.nth = Leaky.built[label] = Leaky.built.get(label, 0) + 1

            def action(self, rnd):
                if rnd == 1 and self.nth == 2:
                    return b"leak"
                return super().action(rnd)

        with pytest.raises(ProtocolViolation, match="replayed .a. answered b.leak., not None, in round 1"):
            run(gen_path(3), ["s", "a", "a"], Leaky)

    def test_lower_bound_graph_builds_few_programs(self):
        """general on G_784 builds at most 10 programs for its 784 nodes."""
        g, _ = gen_lb_family(784)
        labels = build_bundle("general", g).labels
        make, calls = counted(program_for("general"))
        tr = run(g, labels, make, cd=True)
        assert tr.outputs == [g.n] * g.n
        assert len(calls) <= 10

    def test_dense_round_splits_from_the_class_side(self):
        """Node 0 has six listeners; five are in class a = {1..5, 7}, which
        has a log, and node 6 is a class of one. Node 7 does not hear node 0,
        so nodes 1..5 split off together; in round 3 they echo."""

        class Prog(Scripted):
            SENDS = {("s", 1): b"x", ("a", 3): b"="}

        g = build_graph(8, [(0, v) for v in range(1, 7)] + [(6, 7)])
        labels = ["s", "a", "a", "a", "a", "a", "b", "a"]
        tr = assert_matches_reference("dense-split", g, labels, Prog)
        assert tr.rounds[2].transmitters == dict.fromkeys(range(1, 6), b"x!")
        make, calls = counted(Prog)
        run(g, labels, make)
        assert calls == ["s", "a", "b", "a"]


def assert_one_program_per_history(g, labels, program, cd=False):
    """`run` calls `program` once per distinct (label, heard history) of
    its nodes, and as often per label; returns the trace."""
    make, calls = counted(program)
    tr = run(g, labels, make, cd=cd)
    keys = set(history_keys(tr, labels))
    assert Counter(calls) == Counter(label for label, _ in keys)
    return tr


class TestOneProgramPerHistory:
    """The engine builds exactly one program per distinct (label, heard
    history), whether a round serves the classes with a log listener by
    listener or class by class."""

    @pytest.mark.parametrize("n", [16, 36, 64, 100, 144, 576, 784])
    def test_lower_bound_family(self, n):
        g, _ = gen_lb_family(n)
        for scheme in ("compact", "general", "fastsd") + (("toprec",) if n <= 36 else ()):
            labels, program = build(scheme, g)
            assert_one_program_per_history(g, labels, program, cd=True)

    def test_compact_splits_classes_in_dense_rounds(self):
        """compact on G_784 splits a class in a round with one transmitter
        and hundreds of listeners."""
        g, _ = gen_lb_family(784)
        labels, program = build("compact", g)
        tr = assert_one_program_per_history(g, labels, program, cd=True)
        key = list(labels)
        dense = 0
        for rnd, rec in enumerate(tr.rounds, start=1):
            before = len(set(key))
            for w, m in rec.heard.items():
                key[w] = (key[w], rnd, m)
            if len(rec.transmitters) == 1 and len(rec.heard) >= 100:
                dense += len(set(key)) - before
        assert dense >= 5

    @pytest.mark.parametrize("scheme", ["compact", "general", "fastsd"])
    def test_paths_and_size_corpus(self, scheme):
        graphs = [gen_path(n) for n in (160, 320, 640)] + [g for _, g in CORPUS()]
        for g in graphs:
            assert_one_program_per_history(g, *build(scheme, g))

    def test_toprec_corpus(self):
        for _, g in TOPREC_CORPUS():
            assert_one_program_per_history(g, *build("toprec", g))
