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
from collections import namedtuple
from heapq import heappop, heappush
from itertools import product
from types import UnionType
from typing import Callable, Collection, Sequence, get_args, get_origin

from .errors import InvalidParams, ProtocolViolation, RoundLimitExceeded
from .graphs import Graph

MAX_ROUNDS_ENV = "RADIOLAB_MAX_ROUNDS"

# A one-transmitter round with more than DENSE listeners per class with a
# log finds those classes' listeners class by class; below that, the fixed
# cost of the set operations outweighs the per-listener loop it saves.
DENSE = 4


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
        (tuples, ints, strings, read-only mapping views, read-only
        `memoryview`s); callers must not mutate the result."""
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

    One program object serves every node of its behaviour class (see `run`):
    the factory is called once per class, and a class that splits gets a
    fresh program whose replayed `action` and `receive` calls must answer as
    the logged ones did. So a program's state must come from its label and
    those calls alone: `next_wake` is a query and must not change it.
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
        if not (1 <= rnd <= len(self.rounds) and 0 <= v < self.graph.n):
            raise InvalidParams(f"no observation of node {v} in round {rnd} in this trace")
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


def _replay(program: Callable[[str], NodeProgram], label: str, log: list) -> NodeProgram:
    """A fresh `program(label)` given the logged calls of a behaviour class
    (see `run`), each of which must answer as it did."""
    q = program(label)
    for r, h, want in log:
        got = q.action(r) if h is None else q.receive(r, h)
        if got != want:
            raise ProtocolViolation(f"replayed {label!r} answered {got!r}, not {want!r}, in round {r}")
    return q


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

    Nodes with equal labels and heard histories form a behaviour class that
    one program object serves: `program` is called once per class, and
    members that hear different things split off into new classes whose
    fresh programs replay and check the class's calls (see `NodeProgram`).
    The trace and the outputs stay per node. A round with one transmitter
    and more than DENSE listeners per class with a log serves those classes
    by set operations on their members; other rounds go listener by listener.
    """
    if len(labels) != g.n:
        raise InvalidParams(f"need one label per node: {len(labels)} != {g.n}")
    if max_rounds is None:
        max_rounds = default_max_rounds(g.n)
    trace = ExecutionTrace(g, cd)
    adj = g.adj
    rounds = trace.rounds
    outputs, output_round = trace.outputs, trace.output_round
    silent_round = RoundRecord({}, {})
    shared: dict[bytes, Heard] = {}  # one Heard per distinct message, for this run

    # Class c has the program progs[c]. A class of one node v has
    # members[c] = v and cls[v] = c. A larger class has the node set
    # members[c], cls[v] = ~c for each member v, and logs[c]: its `action`
    # and `receive` calls as (round, None or the Heard, answer).
    by_label: dict[str, list[int]] = {}
    for v, label in enumerate(labels):
        by_label.setdefault(label, []).append(v)
    progs = list(map(program, by_label))  # in first-occurrence order
    members: list = list(by_label.values())
    logs: dict[int, list] = {}
    cls = [0] * g.n
    pending: set[int] = set()  # classes whose output is not yet collected
    solo: set[int] = set()  # the nodes of classes of one node
    for c, s in enumerate(members):
        if progs[c].output is None:
            pending.add(c)
        for v in s:
            cls[v] = c if len(s) == 1 else ~c
            if c not in pending:
                outputs[v], output_round[v] = progs[c].output, 0
        if len(s) > 1:
            logs[c] = []
            members[c] = set(s)
        else:
            members[c] = s[0]
            solo.add(s[0])

    # Every class is called in round 1, unless the run is over before it
    # starts. Classes due next round are kept in a list; later wake rounds
    # go to a heap of (round, class). wake[c] is the round of c's live heap
    # entry, 0 if it has none; entries that disagree with it are stale.
    awake = list(range(len(progs)))
    if not pending and all(p.next_wake(0) is None for p in progs):
        awake = []
    heap: list[tuple[int, int]] = []
    wake = [0] * len(progs)
    seen = [0] * len(progs)  # last round in which the class was called
    rnd = 1
    while rnd <= max_rounds:
        while heap and heap[0][0] <= rnd:
            r, c = heappop(heap)
            if wake[c] == r:
                wake[c] = 0
                awake.append(c)
        if not awake:
            while heap and wake[heap[0][1]] != heap[0][0]:
                heappop(heap)
            if not heap:
                if not pending:
                    break
                nodes = [v for v, r in enumerate(output_round) if r is None]
                raise RoundLimitExceeded(
                    f"every node sleeps at round {rnd} but {len(nodes)} "
                    f"output(s) are missing: {nodes[:10]}"
                )
            stop = min(heap[0][0], max_rounds + 1)
            rounds.extend([silent_round] * (stop - rnd))
            rnd = stop
            continue

        transmitters: dict[int, bytes] = {}
        for c in awake:
            seen[c] = rnd
            m = progs[c].action(rnd)
            if c in logs:
                logs[c].append((rnd, None, m))
                if m is not None:
                    transmitters.update(dict.fromkeys(members[c], m))
            elif m is not None:
                transmitters[members[c]] = m

        touched = awake
        if transmitters:
            if len(transmitters) == 1:
                ((u, m),) = transmitters.items()
                heard = dict.fromkeys(adj[u], m)
            else:
                # in first-touch order; then drop the nodes that have two
                # transmitting neighbors or transmit themselves
                transmitters = dict(sorted(transmitters.items()))
                multi: set[int] = set()
                heard = {}
                for u, m in transmitters.items():
                    multi.update(heard.keys() & adj[u])
                    heard.update(dict.fromkeys(adj[u], m))
                for w in multi.union(transmitters):
                    heard.pop(w, None)
            rounds.append(RoundRecord(transmitters, heard))
            woken = []
            # the listeners of each class with a log, by message
            grouped: dict[int, dict[bytes, Collection[int]]] = {}
            if logs and len(heard) > DENSE * len(logs) and len(transmitters) == 1:
                # few classes with a log against many listeners, all of one
                # message m: find each class's listeners by set operations
                keys = heard.keys()
                for c in logs:
                    s = members[c]
                    if keys >= s:
                        grouped[c] = {m: s}
                    elif not keys.isdisjoint(s):
                        grouped[c] = {m: keys & s}
                h = shared.get(m) or shared.setdefault(m, Heard(m))
                for w in keys & solo:
                    c = cls[w]
                    if progs[c].receive(rnd, h) is not False and seen[c] != rnd:
                        woken.append(c)
            else:
                for w, m in heard.items():
                    c = cls[w]
                    if c < 0:
                        grouped.setdefault(~c, {}).setdefault(m, []).append(w)
                        continue
                    h = shared.get(m) or shared.setdefault(m, Heard(m))
                    if progs[c].receive(rnd, h) is not False and seen[c] != rnd:
                        woken.append(c)
            for c, parts in grouped.items():
                # the last group keeps c's program if no member of c is
                # silent: it comes after the splits that replay c's calls
                *_, keep = parts.values()
                if sum(map(len, parts.values())) < len(members[c]):
                    keep = None
                for m, group in parts.items():
                    d = c
                    if group is not keep:  # split off into a new class
                        d = len(progs)
                        for v in group:  # v ends on a member of group
                            cls[v] = d if len(group) == 1 else ~d
                        progs.append(_replay(program, labels[v], logs[c]))
                        members[c].difference_update(group)
                        if len(group) > 1:
                            members.append(set(group))
                            logs[d] = list(logs[c])
                        else:
                            members.append(v)
                            solo.add(v)
                        seen.append(seen[c])
                        wake.append(wake[c])
                        if wake[c]:
                            heappush(heap, (wake[c], d))
                        if c in pending:
                            pending.add(d)
                        if seen[d] == rnd:  # c was called this round
                            woken.append(d)
                    h = shared.get(m) or shared.setdefault(m, Heard(m))
                    got = progs[d].receive(rnd, h)
                    if d in logs:
                        logs[d].append((rnd, h, got))
                    if got is not False and seen[d] != rnd:
                        woken.append(d)
                if len(members[c]) == 1:
                    del logs[c]
                    members[c] = members[c].pop()
                    cls[members[c]] = c
                    solo.add(members[c])
            if woken:
                touched = awake + woken
        else:
            rounds.append(silent_round)

        nxt = rnd + 1
        awake = []
        for c in touched:
            p = progs[c]
            if p.output is not None and c in pending:
                for v in members[c] if c in logs else (members[c],):
                    outputs[v] = p.output
                    output_round[v] = rnd
                pending.discard(c)
            w = p.next_wake(rnd)
            if w is None:
                wake[c] = 0
            elif w <= nxt:
                wake[c] = 0
                awake.append(c)
            elif w != wake[c]:
                wake[c] = w
                heappush(heap, (w, c))
        rnd = nxt
    if pending:
        nodes = [v for v, r in enumerate(output_round) if r is None]
        raise RoundLimitExceeded(
            f"{len(nodes)} node(s) produced no output within "
            f"{max_rounds} rounds: {nodes[:10]}"
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
    at the engine level, and programs write theirs through their kinds'
    tables (see `message_kind`)."""
    return "".join(_encode(parts, 0)).encode()


def unframe(message: bytes) -> list:
    """`json.loads` of a framed message, with nothing around the value."""
    text = message.decode()
    value, end = _decode(text)
    if end != len(text):
        raise json.JSONDecodeError("Extra data", text, end)
    return value


class Bits(str):
    """A message table's type for a bit string, which arrives as a `str`."""


_KINDS: tuple[dict, dict] = ({}, {})  # each kind by its name, at its name's index


def message_kind(**fields) -> type[tuple]:
    """A message kind from its table: each field's name and type in wire
    order, and at index 0 or 1 the kind's name in place of a type. A type
    is a class, a union (`int | None`) or `list[tuple[...]]`, a list of
    arrays, read as a tuple of tuples. The kind is a named tuple of its
    fields; `kind.frame` writes a message from every field but the name."""
    ((at, name),) = [(i, t) for i, t in enumerate(fields.values()) if type(t) is str]
    kind = namedtuple(name, fields)
    kind.name, kind.at, kind.fields = name, at, fields
    kind.frame = staticmethod(  # calls `frame` by name, so a wrapper on `sim.frame` sees it
        (lambda tag, *rest: frame(tag, name, *rest)) if at else (lambda *rest: frame(name, *rest)))
    alts = [get_args(t) if type(t) is UnionType else (str if type(t) is str else get_origin(t) or t,)
            for t in fields.values()]
    kind.shapes = frozenset(product(*[[str if c is Bits else c for c in a] for a in alts]))
    kind.rows = [(i, tuple(str if c is Bits else c for c in get_args(get_args(t)[0])))
                 for i, t in enumerate(fields.values()) if get_origin(t) is list]
    _KINDS[at][name] = kind
    return kind


def parse(message: bytes, at: int = 1) -> tuple:
    """The message as a tuple of its kind, the one its field `at` names: 1
    for the size kinds, behind their run's tag, 0 for toprec's. Bytes that
    are not one JSON array of a kind's field count and types raise
    ProtocolViolation. A pure function of the bytes, for `Heard.decode`."""
    try:
        parts = unframe(message)
        kind = _KINDS[at][parts[at]]
    except (ValueError, LookupError, TypeError):  # not UTF-8 JSON, too short, no kind
        raise ProtocolViolation(f"{message[:40]!r} is not a message of a known kind") from None
    if type(parts) is not list or tuple(map(type, parts)) not in kind.shapes:
        bad = [f"{f} {v!r} is not {'a bit string' if t is Bits else getattr(t, '__name__', t)}"
               for (f, t), v, ok in zip(kind.fields.items(), parts, zip(*kind.shapes))
               if type(v) not in ok]
        raise ProtocolViolation(
            f"{message[:40]!r} is not a {kind.name} of {len(kind.fields)} fields: {bad}")
    for i, item in kind.rows:
        if not all(type(row) is list and tuple(map(type, row)) == item for row in parts[i]):
            raise ProtocolViolation(f"{kind.name} {kind._fields[i]} {parts[i]!r} is not a list of {item}")
        parts[i] = tuple(map(tuple, parts[i]))
    return tuple.__new__(kind, parts)
