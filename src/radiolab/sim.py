"""Deterministic synchronous round engine for the radio model.

A node program sees only its own label, the global round number, and the
messages it heard; the engine enforces this by interface shape (programs are
constructed from a label alone, send bytes and are handed each message they
hear, see `NodeProgram`). A listener hears a message iff exactly one neighbor
transmits that round. Collision detection changes nothing a program sees: it
is a way of reading the trace (`ExecutionTrace.observation_of`, the audit).
"""

from __future__ import annotations

import json
import os
from heapq import heappop, heappush
from typing import Callable, Sequence

from .errors import InvalidParams, ProtocolViolation, RoundLimitExceeded
from .graphs import Graph

MAX_ROUNDS_ENV = "RADIOLAB_MAX_ROUNDS"


# ---------------------------------------------------------------------------
# Messages and marks
# ---------------------------------------------------------------------------


class Heard:
    """A message received from the only transmitting neighbor.

    Within one `run` every listener of the same bytes gets the same object,
    so `decode` parses each distinct message once per run.
    """

    __slots__ = ("message", "_fn", "_decoded")

    def __init__(self, message: bytes):
        self.message = message
        self._fn = None
        self._decoded = None

    def decode(self, fn: Callable[[bytes], object]):
        """`fn(self.message)`, computed on the first call and cached. `fn`
        must be a pure function of the bytes returning an immutable value
        (tuples, ints, strings); callers must not mutate the result."""
        if self._fn is not fn:
            self._decoded = fn(self.message)
            self._fn = fn
        return self._decoded

    def __eq__(self, other):
        return isinstance(other, Heard) and other.message == self.message

    def __hash__(self):
        return hash(("heard", self.message))

    def __repr__(self):
        return f"Heard({self.message!r})"


class Mark:
    """A node's round without a message, as the trace reads it: `TX` (the
    node transmitted), `NOISE` (no collision detection: silence and
    collision sound the same), `SILENCE` or `COLLISION` (with it). No
    program is ever given one."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self):
        return self.name


NOISE, SILENCE, COLLISION, TX = map(Mark, ("Noise", "Silence", "Collision", "Tx"))


# ---------------------------------------------------------------------------
# Node program contract
# ---------------------------------------------------------------------------


class NodeProgram:
    """Base class for node-local protocol logic.

    Subclasses override `action`, which returns the message bytes the node
    transmits this round or None to listen, and `receive`, which the engine
    calls after the round's actions exactly when the node hears a message,
    whether it is awake or asleep. `output` is set once, when the node
    produces its final answer.

    Wake contract. After a node's callbacks for round `rnd` the engine calls
    `next_wake(rnd)`: the earliest later round in which the node's `action`
    must run, or None to sleep until the node hears a message. A round at or
    before `rnd` counts as `rnd + 1`. The default polls every round until
    the node has an output and sleeps after that. Until its wake round a
    sleeping node:

    - gets no `action` calls;
    - is woken for the round by a message it hears;
    - must not change `output`, which the engine re-reads only for nodes
      it called.

    `receive` may return False to say that the message changed neither the
    node's wake round nor its `output`; the engine then makes no
    `next_wake` call for the node in that round and keeps its earlier wake
    round. Any other return value, None included, gets the call. The base
    `receive` ignores every message, so it returns False.

    The run ends once every output is in and no node has a wake round, so a
    node that still has duties keeps a wake round until they are done.
    """

    def __init__(self, label: str):
        self.label = label
        self.output = None

    def action(self, rnd: int) -> bytes | None:
        return None

    def receive(self, rnd: int, heard: Heard) -> bool | None:
        return False

    def next_wake(self, rnd: int) -> int | None:
        return rnd + 1 if self.output is None else None


def next_duty(rnd: int, *rounds: int | None) -> int | None:
    """Smallest of the given duty rounds; None if all are None. Combines the
    pending duties of the parts a program is built from into its
    `next_wake(rnd)`. A duty at or before `rnd` was due in a round whose
    `action` has passed, so it can never be served: it raises
    ProtocolViolation instead of keeping the node awake until the round
    cap."""
    best = None
    for r in rounds:
        if r is not None and (best is None or r < best):
            best = r
    if best is not None and best <= rnd:
        raise ProtocolViolation(f"a duty of round {best} is still pending after round {rnd}")
    return best


# ---------------------------------------------------------------------------
# Execution traces
# ---------------------------------------------------------------------------


class RoundRecord:
    __slots__ = ("transmitters", "heard")

    def __init__(self, transmitters: dict[int, bytes], heard: dict[int, bytes]):
        self.transmitters = transmitters
        self.heard = heard


class ExecutionTrace:
    """Per-round transmitter sets and deliveries, plus final outputs.

    Per-node observations are stored sparsely: a node's observation in a round
    is TX if it transmitted, Heard(m) if it appears in the round's delivery
    map, and otherwise NOISE (no-CD) or SILENCE/COLLISION (CD) depending on
    its number of transmitting neighbors.
    """

    def __init__(self, g: Graph, cd: bool):
        self.graph = g
        self.cd = cd
        self.rounds: list[RoundRecord] = []
        self.outputs: list = [None] * g.n
        self.output_round: list[int | None] = [None] * g.n

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    def observation_of(self, v: int, rnd: int) -> Heard | Mark:
        rec = self.rounds[rnd - 1]
        if v in rec.transmitters:
            return TX
        if v in rec.heard:
            return Heard(rec.heard[v])
        if not self.cd:
            return NOISE
        txs = rec.transmitters
        if txs and any(u in txs for u in self.graph.adj[v]):
            return COLLISION
        return SILENCE


def default_max_rounds(n: int) -> int:
    """The round cap: `RADIOLAB_MAX_ROUNDS` if set, else 50 n^2."""
    env = os.environ.get(MAX_ROUNDS_ENV)
    if not env:
        return 50 * n * n
    try:
        cap = int(env)
    except ValueError:
        raise InvalidParams(f"{MAX_ROUNDS_ENV}={env!r} is not an integer") from None
    if cap < 1:
        raise InvalidParams(f"{MAX_ROUNDS_ENV}={env!r} must be at least 1")
    return cap


def run(
    g: Graph,
    labels: Sequence[str],
    program: Callable[[str], NodeProgram],
    cd: bool = False,
    max_rounds: int | None = None,
) -> ExecutionTrace:
    """Run `program` on every node of `g` until every node has emitted a
    final output and no node has a wake round, or `max_rounds` elapses.

    All nodes start at round 1 and share the global clock. The engine is a
    pure function of its arguments: identical inputs give identical traces.
    It calls `action` only on the nodes that are awake under the wake
    contract (see `NodeProgram`), `receive` only on the nodes that hear a
    message, `next_wake` on the nodes it called (except a sleeping node
    whose `receive` returned False), and jumps over rounds in which nobody
    is awake; those rounds still appear in the trace, as rounds without
    transmitters. `cd` only sets `trace.cd`, which says how the trace is
    read. If every node sleeps while an output is missing, the run can
    never finish, and `RoundLimitExceeded` is raised at once.
    """
    if len(labels) != g.n:
        raise InvalidParams(f"need one label per node: {len(labels)} != {g.n}")
    if max_rounds is None:
        max_rounds = default_max_rounds(g.n)
    n = g.n
    nodes = [program(labels[v]) for v in range(n)]
    trace = ExecutionTrace(g, cd)
    adj = g.adj
    rounds = trace.rounds
    outputs, output_round = trace.outputs, trace.output_round
    silent_round = RoundRecord({}, {})
    shared: dict[bytes, Heard] = {}  # one Heard per distinct message, for this run

    pending: set[int] = set()  # nodes whose output is not yet collected
    for v, p in enumerate(nodes):
        if p.output is None:
            pending.add(v)
        else:
            outputs[v] = p.output
            output_round[v] = 0

    # Every node is called in round 1, unless the run is over before it
    # starts. Nodes due next round are kept in a list; later wake rounds go
    # to a heap of (round, node). wake[v] is the round of v's live heap
    # entry, 0 if it has none; entries that disagree with it are stale.
    awake = list(range(n))
    if not pending and all(p.next_wake(0) is None for p in nodes):
        awake = []
    heap: list[tuple[int, int]] = []
    wake = [0] * n
    seen = [0] * n  # last round in which the node was called
    rnd = 1
    while rnd <= max_rounds:
        while heap and heap[0][0] <= rnd:
            r, v = heappop(heap)
            if wake[v] == r:
                wake[v] = 0
                awake.append(v)
        if not awake:
            while heap and wake[heap[0][1]] != heap[0][0]:
                heappop(heap)
            if not heap:
                if not pending:
                    break
                raise RoundLimitExceeded(
                    f"every node sleeps at round {rnd} but {len(pending)} "
                    f"output(s) are missing: {sorted(pending)[:10]}"
                )
            stop = min(heap[0][0], max_rounds + 1)
            rounds.extend([silent_round] * (stop - rnd))
            rnd = stop
            continue

        transmitters: dict[int, bytes] = {}
        for v in awake:
            seen[v] = rnd
            m = nodes[v].action(rnd)
            if m is not None:
                transmitters[v] = m

        touched = awake
        if transmitters:
            if len(transmitters) == 1:
                ((u, m),) = transmitters.items()
                heard = dict.fromkeys(adj[u], m)
            else:
                # in first-touch order; then drop the nodes that have two
                # transmitting neighbors or transmit themselves
                transmitters = dict(sorted(transmitters.items()))
                once: set[int] = set()
                multi: set[int] = set()
                heard = {}
                for u, m in transmitters.items():
                    multi.update(once.intersection(adj[u]))
                    once.update(adj[u])
                    heard.update(dict.fromkeys(adj[u], m))
                for w in multi.union(transmitters):
                    heard.pop(w, None)
            rounds.append(RoundRecord(transmitters, heard))
            woken = []
            for w, m in heard.items():
                h = shared.get(m)
                if h is None:
                    h = shared[m] = Heard(m)
                if nodes[w].receive(rnd, h) is not False and seen[w] != rnd:
                    woken.append(w)
            if woken:
                touched = awake + woken
        else:
            rounds.append(silent_round)

        nxt = rnd + 1
        awake = []
        for v in touched:
            p = nodes[v]
            if v in pending and p.output is not None:
                outputs[v] = p.output
                output_round[v] = rnd
                pending.discard(v)
            w = p.next_wake(rnd)
            if w is None:
                wake[v] = 0
            elif w <= nxt:
                wake[v] = 0
                awake.append(v)
            elif w != wake[v]:
                wake[v] = w
                heappush(heap, (w, v))
        rnd = nxt
    if pending:
        raise RoundLimitExceeded(
            f"{len(pending)} node(s) produced no output within "
            f"{max_rounds} rounds: {sorted(pending)[:10]}"
        )
    return trace


# ---------------------------------------------------------------------------
# Message framing
# ---------------------------------------------------------------------------


# One encoder and one decoder per process. `JSONEncoder.encode` builds a new C
# encoder per call; this is the one it builds for a compact, ASCII one-shot
# encode, less the circular-reference markers: no message holds itself.
_encode = json.encoder.c_make_encoder(None, json.JSONEncoder().default,
    json.encoder.encode_basestring_ascii, None, ":", ",", False, False, True)
_decode = json.JSONDecoder().raw_decode


def frame(*parts) -> bytes:
    """Encode a message as a compact JSON array; messages stay opaque bytes
    at the engine level, programs define their own framing on top."""
    return "".join(_encode(parts, 0)).encode()


def unframe(message: bytes) -> list:
    """`json.loads` of a framed message, with nothing around the value."""
    text = message.decode()
    value, end = _decode(text)
    if end != len(text):
        raise json.JSONDecodeError("Extra data", text, end)
    return value


def parse(message: bytes) -> tuple:
    """`unframe` with every array as a tuple: the immutable parse that the
    size and broadcast programs read through `Heard.decode`, so all
    listeners of the same bytes share one parse."""
    return _frozen(unframe(message))


def _frozen(array: list) -> tuple:
    return tuple([_frozen(x) if type(x) is list else x for x in array])
