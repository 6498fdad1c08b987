"""The event-driven engine against the polling engine it replaced.

`reference_run` is the polling loop `sim.run` used before programs could
declare wake rounds: every node gets `action` in every round, and `receive`
in every round in which it hears a message. The event-driven engine must
produce the same trace on every scheme.
"""

import time

import pytest

from radiolab import broadcast, size_discovery, toprec
from radiolab.corpus import corpus, toprec_corpus
from radiolab.errors import RoundLimitExceeded
from radiolab.graphs import build_graph, gen_lb_family, gen_path
from radiolab.sim import (
    ExecutionTrace,
    Heard,
    NodeProgram,
    RoundRecord,
    default_max_rounds,
    run,
)
from golden import SCHEMES, build


def reference_run(g, labels, program, cd=False, max_rounds=None):
    """Polling engine: every node's `action` is called in every round."""
    if len(labels) != g.n:
        raise ValueError(f"need one label per node: {len(labels)} != {g.n}")
    if max_rounds is None:
        max_rounds = default_max_rounds(g.n)
    nodes = [program(labels[v]) for v in range(g.n)]
    trace = ExecutionTrace(g, cd)
    adj = g.adj
    pending_output = set(range(g.n))

    for rnd in range(1, max_rounds + 1):
        # collect outputs emitted before this round (e.g. degenerate programs)
        for v in list(pending_output):
            if nodes[v].output is not None:
                trace.outputs[v] = nodes[v].output
                trace.output_round[v] = rnd - 1
                pending_output.discard(v)
        if not pending_output and all(p.next_wake(rnd - 1) is None for p in nodes):
            break

        transmitters: dict[int, bytes] = {}
        for v, prog in enumerate(nodes):
            m = prog.action(rnd)
            if m is not None:
                transmitters[v] = m

        counts: dict[int, int] = {}
        src: dict[int, int] = {}
        for u in transmitters:
            for w in adj[u]:
                c = counts.get(w, 0) + 1
                counts[w] = c
                if c == 1:
                    src[w] = u
        heard: dict[int, bytes] = {}
        for w, c in counts.items():
            if c == 1 and w not in transmitters:
                heard[w] = transmitters[src[w]]
        trace.rounds.append(RoundRecord(transmitters, heard))

        for v, prog in enumerate(nodes):
            if v in heard:
                prog.receive(rnd, Heard(heard[v]))

        for v in list(pending_output):
            if nodes[v].output is not None:
                trace.outputs[v] = nodes[v].output
                trace.output_round[v] = rnd
                pending_output.discard(v)
    else:
        if pending_output:
            raise RoundLimitExceeded(
                f"{len(pending_output)} node(s) produced no output within "
                f"{max_rounds} rounds: {sorted(pending_output)[:10]}"
            )
    return trace


def assert_same_trace(gid, g, scheme, cd):
    labels, program = build(scheme, g)
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
# its sample stops at n = 65 to keep the polling reference affordable
SIZE_SAMPLE = family_sample(corpus(), 5)
TOPREC_SAMPLE = family_sample([(gid, g) for gid, g in toprec_corpus() if g.n <= 65], 3)


@pytest.mark.parametrize("cd", [False, True])
@pytest.mark.parametrize("scheme", ["compact", "general", "fastsd"])
def test_size_schemes_match_reference(scheme, cd):
    for gid, g in SIZE_SAMPLE:
        assert_same_trace(gid, g, scheme, cd)


@pytest.mark.parametrize("cd", [False, True])
def test_toprec_matches_reference(cd):
    for gid, g in TOPREC_SAMPLE:
        assert_same_trace(gid, g, "toprec", cd)


@pytest.mark.parametrize("cd", [False, True])
@pytest.mark.parametrize("scheme", ["pathmsg"])
def test_primitives_match_reference(scheme, cd):
    for gid, g in TOPREC_SAMPLE:
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
    families = {gid.split("-")[0] for gid, _ in corpus()}
    assert {gid.split("-")[0] for gid, _ in SIZE_SAMPLE} == families
    assert {gid.split("-")[0] for gid, _ in TOPREC_SAMPLE} == families


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
        for gid, g in SIZE_SAMPLE + TOPREC_SAMPLE + LB_SAMPLE:
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
