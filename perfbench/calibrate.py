"""Host-speed calibration for a shared, noisy host.

The host this benchmark was built on runs the same Python work up to 1.5x
slower for seconds at a time, and its baseline speed drifts by a third over
minutes, because other tenants share its cores and caches. So a run times a
fixed loop, which uses no radiolab code, before and after every job and
divides the job's time by the loop's. Multiplied by REFERENCE_S, that gives
reference seconds: the time the job would take on a host where the loop
takes REFERENCE_S.
"""

from __future__ import annotations

import json
from time import perf_counter

# Median time of reference_loop() on the host the baseline was taken on
# (2 cores, Python 3.11.7).
REFERENCE_S = 0.028


class _Node:
    __slots__ = ("nbrs", "seen")

    def __init__(self):
        self.nbrs = []
        self.seen = None

    def visit(self, r):
        if self.seen is None:
            self.seen = r
            return True
        return False


def reference_loop() -> int:
    """Interpreter-bound work of the kinds a radiolab job does: object
    attribute access and method calls over a node list, JSON framing of
    nested lists, and pairwise decoding of a separator-coded bit string."""
    total = 0
    nodes = [_Node() for _ in range(400)]
    for i, nd in enumerate(nodes):
        nd.nbrs.append(nodes[(i * 7 + 1) % 400])
        nd.nbrs.append(nodes[(i * 13 + 5) % 400])
    for r in range(96):
        for nd in nodes:
            nd.seen = None
        frontier = [nodes[r]]
        nodes[r].visit(r)
        while frontier:
            nxt = []
            for nd in frontier:
                for w in nd.nbrs:
                    if w.visit(r):
                        nxt.append(w)
            frontier = nxt
        total += sum(1 for nd in nodes if nd.seen == r)
    payload = [["T5", [[format(i, "b"), [format(j, "b") for j in range(i % 7)]]
                       for i in range(60)]]]
    for _ in range(160):
        total += len(json.loads(json.dumps(payload, separators=(",", ":")).encode().decode()))
    bits = "00".join("".join("10" if c == "1" else "01" for c in format(i, "b"))
                     for i in range(1, 200))
    for _ in range(24):
        blocks = [[]]
        for i in range(0, len(bits), 2):
            pair = bits[i : i + 2]
            if pair == "10":
                blocks[-1].append("1")
            elif pair == "01":
                blocks[-1].append("0")
            else:
                blocks.append([])
        total += len(blocks)
    return total


def sample() -> float:
    t0 = perf_counter()
    reference_loop()
    return perf_counter() - t0


def scaled(host_s: float, ref_s: float) -> float:
    """Reference seconds of work that took `host_s` right after a sample of
    `ref_s`."""
    return host_s / ref_s * REFERENCE_S
