"""CD-model instrumentation for the lower-bound graph family.

Works over execution traces: classifies each round into the canonical
history (single transmitter: its message; several: #; none: silence),
tracks which components still share that history, and audits the
combinatorial departure facts that hold on these graphs by construction.
A failed audit points at an engine or audit bug, so failures are report
entries rather than exceptions.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from typing import TextIO

from .errors import InvalidParams
from .graphs import LBFamilyDescriptor
from .sim import ExecutionTrace

CANON_HASH = "#"
CANON_SILENCE = "eps"


def _component_index(
    trace: ExecutionTrace, partition: LBFamilyDescriptor
) -> dict[int, int]:
    """Component of every node; the partition's components must cover
    exactly the nodes of the trace's graph, each node once, and a special
    node must be a node of the graph outside every component. G_n has no
    special node; H_{delta,n} leaves its special nodes out of the
    components, so they do not cover the graph, and is not supported."""
    n = trace.graph.n
    if partition.n != n:
        raise InvalidParams(f"partition is for {partition.n} nodes, the graph has {n}")
    comp_of = partition.component_of()
    for s in partition.specials:
        if not 0 <= s < n or s in comp_of:
            raise InvalidParams(f"special node {s} is not a node of 0..{n - 1} outside every component")
    if comp_of.keys() != set(range(n)) or sum(map(len, partition.components)) != n:
        raise InvalidParams(
            f"partition components do not cover nodes 0..{n - 1} exactly once"
        )
    return comp_of


def _departures(trace: ExecutionTrace, comp_of: dict[int, int]) -> dict[int, list[int]]:
    """Sorted components leaving the canonical history, keyed by round.

    A component leaves in the first round in which one of its nodes' Def-3
    entry (CD semantics: transmitting and collision both give '#') differs
    from the canonical entry. Each round is classified once from its
    transmitter set: a node's entry is '#' if it transmits, its message if it
    is in `heard`, '#' if under CD a neighbour transmits, else 'eps'. A round
    with no transmitters and no deliveries gives every node 'eps', the
    canonical entry, so it is skipped. Only nodes of components still on the
    canonical history are visited."""
    adj = trace.graph.adj
    live = sorted(comp_of)
    out: dict[int, list[int]] = {}
    for rnd, rec in enumerate(trace.rounds, start=1):
        txs, heard = rec.transmitters, rec.heard
        if not txs and not heard:
            continue
        # raw entries: message bytes, or the '#'/'eps' strings
        if len(txs) == 1:
            (expected,) = txs.values()
        else:
            expected = CANON_HASH if txs else CANON_SILENCE
        hit: set[int] = set()
        if trace.cd:
            for u in txs:
                hit.update(adj[u])
        leaving = set()
        for v in live:
            if v in txs:
                entry = CANON_HASH
            elif v in heard:
                entry = heard[v]
            else:
                entry = CANON_HASH if v in hit else CANON_SILENCE
            if entry != expected:
                leaving.add(comp_of[v])
        if leaving:
            out[rnd] = sorted(leaving)
            live = [v for v in live if comp_of[v] not in leaving]
    return out


@dataclass
class AuditReport:
    graph_n: int
    rounds: int
    departures: list[dict] = field(default_factory=list)
    round_summary: list[dict] = field(default_factory=list)
    violations: dict[str, list[dict]] = field(
        default_factory=lambda: {"F1": [], "L9": [], "F4": [], "F5": [], "LBL": []}
    )
    trigger_labels: list[str] = field(default_factory=list)
    distinct_trigger_labels: int = 0

    @property
    def ok(self) -> bool:
        return all(not v for v in self.violations.values())

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.graph_n,
                "rounds": self.rounds,
                "ok": self.ok,
                "departures": self.departures,
                "violations": self.violations,
                "distinct_trigger_labels": self.distinct_trigger_labels,
            },
            indent=2,
        )

    def write_csv(self, fp: TextIO) -> None:
        """Per-round summary for rounds with any transmission activity."""
        w = csv.writer(fp)
        w.writerow(["round", "departures", "transmitter_components", "violations"])
        for row in self.round_summary:
            w.writerow(
                [
                    row["round"],
                    " ".join(map(str, row["departures"])),
                    " ".join(map(str, row["tx_components"])),
                    " ".join(row["violations"]),
                ]
            )


def audit_facts(
    trace: ExecutionTrace,
    partition: LBFamilyDescriptor,
    labels: list[str] | None = None,
) -> AuditReport:
    """Audit the per-round facts on a CD-mode trace:

    F1: with >= 2 transmitters outside a node's component, the node hears
        nothing. L9: a departing component has an in-component transmitter
        and at most one outside transmitter. F4: transmitters in >= 3
        components mean no departures. F5: at most 2 departures per round.
    LBL: the trigger-label multiset has every label at most twice.
    A component leaves the canonical history once and never rejoins it, so
    there is no monotonicity check to make.

    Only rounds with a transmitter or a departure are visited. Raises
    InvalidParams if the partition does not cover the graph.
    """
    comp_of = _component_index(trace, partition)
    departures = _departures(trace, comp_of)
    report = AuditReport(graph_n=trace.graph.n, rounds=trace.num_rounds)
    violations = report.violations
    for rnd, rec in enumerate(trace.rounds, start=1):
        leaving = departures.get(rnd, [])
        if not rec.transmitters and not leaving:
            continue
        before = {name: len(rows) for name, rows in violations.items()}
        txs = sorted(rec.transmitters)
        per_comp: dict[int, list[int]] = {}
        for u in txs:
            per_comp.setdefault(comp_of[u], []).append(u)
        # F1: only a listener that heard a message can violate it
        if len(txs) >= 2:
            for v in sorted(rec.heard):
                if v in rec.transmitters:
                    continue
                if len(txs) - len(per_comp.get(comp_of[v], ())) >= 2:
                    violations["F1"].append({"round": rnd, "node": v})
        # F4
        if len(per_comp) >= 3 and leaving:
            violations["F4"].append({"round": rnd, "leaving": leaving})
        # F5
        if len(leaving) > 2:
            violations["F5"].append({"round": rnd, "leaving": leaving})
        # L9 + trigger labels
        for c in leaving:
            triggers = per_comp.get(c, [])
            outside = len(txs) - len(triggers)
            if not triggers or outside > 1:
                violations["L9"].append(
                    {"round": rnd, "component": c, "triggers": triggers,
                     "outside": outside}
                )
            report.departures.append(
                {"round": rnd, "component": c, "triggers": triggers,
                 "outside": outside}
            )
        if leaving and labels is not None:
            triggers = per_comp.get(leaving[0])
            if triggers:
                report.trigger_labels.append(labels[triggers[0]])
        report.round_summary.append(
            {
                "round": rnd,
                "departures": leaving,
                "tx_components": sorted(per_comp),
                "violations": [
                    name for name, rows in violations.items()
                    if len(rows) > before[name]
                ],
            }
        )
    if labels is not None:
        counts: dict[str, int] = {}
        for lab in report.trigger_labels:
            counts[lab] = counts.get(lab, 0) + 1
        report.distinct_trigger_labels = len(counts)
        for lab, cnt in counts.items():
            if cnt > 2:
                violations["LBL"].append({"label": lab, "count": cnt})
    return report
