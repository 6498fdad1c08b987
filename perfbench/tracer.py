"""Spans and per-call counters for the traced run of the benchmark.

Spans are recorded around the calls the benchmark makes into each layer:
job, synth, sim, verify and audit. The node-program callbacks and the
message codec run about a million times per pass, so they get no span per
call. A wrapper adds a count and the time of each call to running totals
instead, and each span records how much those totals grew while it was open.
The codec wrappers replace the codec functions under every name the radiolab
modules import them by, and are removed when the pass ends.

Self time: each span or wrapped call adds its duration minus the time of the
spans and wrapped calls inside it to its layer. So the layers' self times add
up to the jobs' duration. A wrapper's own cost falls in its caller's self
time (sim for the callbacks), so compare traced self times only with traced
self times.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager, nullcontext
from time import perf_counter

# (module, function) -> count key. The codec is the message framing, the
# identifier wire form and the label block code.
CODEC = {
    ("sim", "frame"): "codec.frame_calls",
    ("sim", "unframe"): "codec.unframe_calls",
    ("toprec", "id_to_wire"): "codec.wire_calls",
    ("toprec", "wire_to_id"): "codec.wire_calls",
    ("labels", "encode_blocks"): "codec.block_calls",
    ("labels", "decode_blocks"): "codec.block_calls",
}

LAYERS = ("job", "synth", "sim", "programs", "codec", "verify", "audit")


class Span:
    __slots__ = ("name", "job", "parent", "start", "end", "counts", "layer_s")

    def __init__(self, name, job, parent):
        self.name = name
        self.job = job
        self.parent = parent
        self.start = self.end = 0.0
        self.counts: dict[str, int] = {}  # calls inside the span, nested spans included
        self.layer_s: dict[str, float] = {}  # self time by layer, nested spans included


class NullTracer:
    """Tracing off: the job code runs with no wrappers."""

    _null = nullcontext()

    def span(self, name, job=None):
        return self._null

    def programs(self, factory):
        return factory

    def installed(self, mods):
        return self._null


class Tracer:
    def __init__(self):
        self.origin = perf_counter()
        self.spans: list[Span] = []
        self.cur = Span("outside", None, None)
        # frames of open spans and wrapped calls: [child time, layer]
        self.stack: list[list] = [[0.0, None]]
        # layer -> [self time, total time]; count key -> [count]
        self.layers = {layer: [0.0, 0.0] for layer in LAYERS}
        self.counts: dict[str, list] = {}

    def _count(self, key) -> list:
        return self.counts.setdefault(key, [0])

    def _snapshot(self):
        return ({k: v[0] for k, v in self.counts.items()},
                {k: v[0] for k, v in self.layers.items()})

    @contextmanager
    def span(self, name, job=None):
        parent = self.cur
        sp = Span(name, job if job is not None else parent.job, parent)
        frame = [0.0, name]
        counts0, layers0 = self._snapshot()
        self.stack.append(frame)
        self.cur = sp
        sp.start = perf_counter()
        try:
            yield sp
        finally:
            sp.end = perf_counter()
            d = sp.end - sp.start
            self.stack.pop()
            self.cur = parent
            self.stack[-1][0] += d
            acc = self.layers[name]
            acc[0] += d - frame[0]
            acc[1] += d
            counts1, layers1 = self._snapshot()
            sp.counts = {k: v - counts0.get(k, 0) for k, v in counts1.items()
                         if v != counts0.get(k, 0)}
            sp.layer_s = {k: v - layers0[k] for k, v in layers1.items() if v != layers0[k]}
            self.spans.append(sp)

    def timed(self, layer, key, fn, size_key=None):
        """Wrap `fn`: count each call under `key` and add its time to `layer`.
        `size_key` also sums len(first argument)."""
        stack, clock = self.stack, perf_counter
        acc, count = self.layers[layer], self._count(key)
        size = self._count(size_key) if size_key else None

        def call(*args):
            frame = [0.0, layer]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args)
            finally:
                d = clock() - t0
                stack.pop()
                parent = stack[-1]
                parent[0] += d
                count[0] += 1
                acc[0] += d - frame[0]
                if parent[1] != layer:  # a nested codec call is not counted twice
                    acc[1] += d
                if size is not None:
                    size[0] += len(args[0])

        return call

    def programs(self, factory):
        """Node factory whose nodes have timed `action` and `receive`.
        Building a node (parsing its label) counts as program time too."""
        timed = self.timed

        def build(label):
            node = factory(label)
            node.action = timed("programs", "programs.calls", node.action)
            node.receive = timed("programs", "programs.calls", node.receive)
            return node

        return timed("programs", "programs.inits", build)

    # -- codec and audit patches -------------------------------------------

    @contextmanager
    def installed(self, mods: dict):
        """While open: each codec function is replaced under every radiolab
        module name bound to it, and ExecutionTrace.observation_of calls are
        counted."""
        patched = []
        try:
            self._install(mods, patched)
            yield self
        finally:
            for owner, attr, val in reversed(patched):
                setattr(owner, attr, val)

    def _install(self, mods: dict, patched: list) -> None:
        wrapped = {}
        for (mod, name), key in CODEC.items():
            fn = getattr(mods[mod], name)
            size_key = "codec.decoded_bytes" if name == "unframe" else None
            wrapped[id(fn)] = (fn, self.timed("codec", key, fn, size_key))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "radiolab" or mod_name.startswith("radiolab.")):
                continue
            for attr, val in list(vars(module).items()):
                hit = wrapped.get(id(val))
                if hit is not None and hit[0] is val:
                    patched.append((module, attr, val))
                    setattr(module, attr, hit[1])
        trace_cls = mods["sim"].ExecutionTrace
        original = trace_cls.observation_of
        count = self._count("audit.obs_calls")

        def observation_of(trace, v, rnd):
            count[0] += 1
            return original(trace, v, rnd)

        patched.append((trace_cls, "observation_of", original))
        trace_cls.observation_of = observation_of

    # -- results -----------------------------------------------------------

    def totals(self) -> tuple[dict, dict, dict]:
        """Per-layer self time, per-layer total time, and counts."""
        return ({k: v[0] for k, v in self.layers.items()},
                {k: v[1] for k, v in self.layers.items()},
                {k: v[0] for k, v in self.counts.items()})

    def span_records(self) -> list[dict]:
        index = {id(sp): i for i, sp in enumerate(self.spans)}
        return [
            {
                "name": sp.name,
                "job": sp.job,
                "start": sp.start - self.origin,
                "end": sp.end - self.origin,
                "parent": index.get(id(sp.parent)),
                "counts": sp.counts,
                "layer_self_s": sp.layer_s,
            }
            for sp in self.spans
        ]
