import dataclasses
import io
import json
import random

import pytest

from radiolab.audit import (
    CANON_HASH,
    CANON_SILENCE,
    AuditReport,
    audit_facts,
)
from radiolab.errors import InvalidParams
from radiolab.graphs import LBFamilyDescriptor, gen_lb_family, gen_lb_general
from radiolab.schemes import run_scheme
from radiolab.sim import COLLISION, TX, ExecutionTrace, Heard, RoundRecord
from oracles import canonical_components, canonical_history


# ---------------------------------------------------------------------------
# Per-node reference: the audit before it classified each round once. Every
# node's Def-3 entry is read from `observation_of` in every round.
# ---------------------------------------------------------------------------


def _reference_entry(trace, v, rnd):
    obs = trace.observation_of(v, rnd)
    if obs is TX:
        return CANON_HASH
    if isinstance(obs, Heard):
        return ("m", obs.message.hex())
    return CANON_HASH if obs is COLLISION else CANON_SILENCE


def reference_canonical_components(trace, partition):
    canon = canonical_history(trace)
    comp_of = partition.component_of()
    ncomp = len(partition.components)
    diverge = {v: None for v in comp_of}
    for rnd in range(1, trace.num_rounds + 1):
        expected = canon[rnd - 1]
        for v in comp_of:
            if diverge[v] is None and _reference_entry(trace, v, rnd) != expected:
                diverge[v] = rnd
    out = [sorted(range(ncomp))]
    current = set(range(ncomp))
    for rnd in range(1, trace.num_rounds + 1):
        current -= {comp_of[v] for v, d in diverge.items() if d == rnd}
        out.append(sorted(current))
    return out


def reference_audit(trace, partition, labels=None):
    comp_of = partition.component_of()
    report = AuditReport(graph_n=trace.graph.n, rounds=trace.num_rounds)
    comp_sets = reference_canonical_components(trace, partition)
    for rnd in range(1, trace.num_rounds + 1):
        rec = trace.rounds[rnd - 1]
        txs = sorted(rec.transmitters)
        tx_comps = {comp_of[v] for v in txs}
        before, after = set(comp_sets[rnd - 1]), set(comp_sets[rnd])
        assert after <= before, f"round {rnd}: components rejoined {sorted(after - before)}"
        leaving = sorted(before - after)
        if len(txs) >= 2:
            for v in range(trace.graph.n):
                outside = sum(1 for u in txs if comp_of[u] != comp_of[v])
                if outside >= 2 and isinstance(trace.observation_of(v, rnd), Heard):
                    report.violations["F1"].append({"round": rnd, "node": v})
        if len(tx_comps) >= 3 and leaving:
            report.violations["F4"].append({"round": rnd, "leaving": leaving})
        if len(leaving) > 2:
            report.violations["F5"].append({"round": rnd, "leaving": leaving})
        for c in leaving:
            triggers = [v for v in txs if comp_of[v] == c]
            outside = len(txs) - len(triggers)
            if not triggers or outside > 1:
                report.violations["L9"].append(
                    {"round": rnd, "component": c, "triggers": triggers,
                     "outside": outside}
                )
            report.departures.append(
                {"round": rnd, "component": c, "triggers": triggers,
                 "outside": outside}
            )
        if leaving and labels is not None:
            triggers = [v for v in txs if comp_of[v] == leaving[0]]
            if triggers:
                report.trigger_labels.append(labels[min(triggers)])
        if txs or leaving:
            hit = [
                name
                for name, rows in report.violations.items()
                if any(r.get("round") == rnd for r in rows)
            ]
            report.round_summary.append(
                {"round": rnd, "departures": leaving,
                 "tx_components": sorted(tx_comps), "violations": hit}
            )
    if labels is not None:
        counts = {}
        for lab in report.trigger_labels:
            counts[lab] = counts.get(lab, 0) + 1
        report.distinct_trigger_labels = len(counts)
        for lab, cnt in counts.items():
            if cnt > 2:
                report.violations["LBL"].append({"label": lab, "count": cnt})
    return report


def assert_matches_reference(trace, partition, labels):
    assert canonical_components(trace, partition) == reference_canonical_components(
        trace, partition
    )
    got = audit_facts(trace, partition, labels=labels)
    ref = reference_audit(trace, partition, labels=labels)
    for f in dataclasses.fields(AuditReport):
        assert getattr(got, f.name) == getattr(ref, f.name), f.name
    return got


def make_trace(g, rounds, cd=True):
    tr = ExecutionTrace(g, cd)
    for transmitters, heard in rounds:
        tr.rounds.append(RoundRecord(transmitters, heard))
    return tr


class TestCanonicalHistory:
    def test_classification(self):
        g, _ = gen_lb_family(4)
        tr = make_trace(
            g,
            [
                ({}, {}),
                ({0: b"m"}, {2: b"m", 3: b"m"}),
                ({0: b"a", 1: b"b", 2: b"c"}, {}),
            ],
        )
        assert canonical_history(tr) == [
            CANON_SILENCE,
            ("m", b"m".hex()),
            CANON_HASH,
        ]


class TestCanonicalComponents:
    def test_round_zero_everyone(self):
        g, desc = gen_lb_family(4)
        tr = make_trace(g, [({}, {})])
        comps = canonical_components(tr, desc)
        assert comps[0] == [0, 1]
        assert comps[1] == [0, 1]  # all-silent round changes nothing

    def test_single_transmitter_departs_own_component(self):
        g, desc = gen_lb_family(4)
        # node 0 (component 0) transmits; everyone else hears it
        heard = {v: b"m" for v in range(1, 4) if v in g.adj[0]}
        tr = make_trace(g, [({0: b"m"}, heard)])
        comps = canonical_components(tr, desc)
        # component 0 leaves (its transmitter records '#', canonical is m)
        assert comps[1] == [1]

    def test_monotone(self):
        g, desc = gen_lb_family(16)
        res = run_scheme("general", g, cd=True)
        comps = canonical_components(res.trace, desc)
        for a, b in zip(comps, comps[1:]):
            assert set(b) <= set(a)


class TestAuditOnRealRuns:
    def test_toprec_g16(self):
        g, desc = gen_lb_family(16)
        res = run_scheme("toprec", g, cd=True)
        assert res.ok
        rep = audit_facts(res.trace, desc, labels=res.bundle.labels)
        assert rep.ok, rep.violations

    def test_general_g16(self):
        g, desc = gen_lb_family(16)
        res = run_scheme("general", g, cd=True)
        assert res.ok
        rep = audit_facts(res.trace, desc, labels=res.bundle.labels)
        assert rep.ok, rep.violations

    def test_other_schemes_pass_too(self):
        """Any algorithm in the artifact passes the audits on a lower-bound
        instance: the facts hold by graph structure, not by scheme."""
        g, desc = gen_lb_family(16)
        for scheme in ("compact", "fastsd"):
            res = run_scheme(scheme, g, cd=True)
            assert res.ok
            rep = audit_facts(res.trace, desc, labels=res.bundle.labels)
            assert rep.ok, (scheme, rep.violations)

    def test_report_serialization(self):
        g, desc = gen_lb_family(16)
        res = run_scheme("general", g, cd=True)
        rep = audit_facts(res.trace, desc, labels=res.bundle.labels)
        data = json.loads(rep.to_json())
        assert data["ok"] and data["n"] == 16
        buf = io.StringIO()
        rep.write_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "round,departures,transmitter_components,violations"
        assert len(lines) > 1


class TestNegativeControl:
    def test_synthetic_violations_flagged(self):
        """A physically impossible trace (one transmitter, nobody hears it)
        makes every component leave at once: F5 and L9 must flag it."""
        g, desc = gen_lb_family(16)
        tr = make_trace(g, [({0: b"m"}, {})])
        rep = audit_facts(tr, desc, labels=["" for _ in range(16)])
        assert not rep.ok
        assert rep.violations["F5"]
        assert rep.violations["L9"]


class TestReferenceEquivalence:
    @pytest.mark.parametrize("cd", [True, False])
    @pytest.mark.parametrize("n", [16, 36, 64, 100])
    @pytest.mark.parametrize("scheme", ["compact", "general", "fastsd", "toprec"])
    def test_lower_bound_runs(self, scheme, n, cd):
        g, desc = gen_lb_family(n)
        res = run_scheme(scheme, g, cd=cd)
        assert res.ok
        rep = assert_matches_reference(res.trace, desc, res.bundle.labels)
        assert rep.departures
        if cd:
            assert rep.ok, rep.violations

    def test_repeated_trigger_label_flagged(self):
        """toprec on G_144 under CD has 12 departures. With every label one
        value, that value is all 12 trigger labels, which LBL flags once;
        with the real labels no trigger label repeats."""
        g, desc = gen_lb_family(144)
        res = run_scheme("toprec", g, cd=True)
        assert res.ok
        rep = assert_matches_reference(res.trace, desc, res.bundle.labels)
        assert len(rep.departures) == 12 and not rep.violations["LBL"]
        rep = assert_matches_reference(res.trace, desc, ["1"] * g.n)
        assert rep.violations["LBL"] == [{"label": "1", "count": 12}]
        assert not rep.ok

    # G_16: components {0..3}, {4..7}, {8..11}, {12..15}
    IMPOSSIBLE = {
        "lone transmitter nobody hears": [({0: b"m"}, {})],
        "heard without transmitters": [({}, {}), ({}, {5: b"x"}), ({4: b"y"}, {})],
        "transmitter also in heard": [({0: b"m", 5: b"n"}, {0: b"n", 9: b"m"})],
        "F1": [({4: b"a", 8: b"b"}, {0: b"a", 5: b"b", 12: b"b"}),
               ({1: b"c", 2: b"d", 13: b"e"}, {3: b"c", 14: b"e"})],
    }

    @pytest.mark.parametrize("cd", [True, False])
    @pytest.mark.parametrize("name", sorted(IMPOSSIBLE))
    def test_impossible_traces(self, name, cd):
        g, desc = gen_lb_family(16)
        tr = make_trace(g, self.IMPOSSIBLE[name], cd=cd)
        rep = assert_matches_reference(tr, desc, [f"L{v % 3}" for v in range(16)])
        if name == "F1":
            assert rep.violations["F1"]

    def test_random_impossible_traces(self):
        """Random transmitter and delivery sets, most of them impossible."""
        g, desc = gen_lb_family(16)
        rng = random.Random(7)
        msgs = [b"a", b"b", b"c"]
        for _ in range(200):
            rounds = []
            for _ in range(rng.randint(1, 6)):
                txs = {v: rng.choice(msgs) for v in rng.sample(range(16), rng.randint(0, 3))}
                heard = {v: rng.choice(msgs) for v in rng.sample(range(16), rng.randint(0, 4))}
                rounds.append((txs, heard))
            tr = make_trace(g, rounds, cd=rng.random() < 0.7)
            assert_matches_reference(tr, desc, [f"L{v % 5}" for v in range(16)])


class TestPartitionChecks:
    def test_lb_general_raises_invalid_params(self):
        g, desc = gen_lb_general(4, 12)
        res = run_scheme("general", g, cd=True)
        with pytest.raises(InvalidParams):
            audit_facts(res.trace, desc, labels=res.bundle.labels)
        with pytest.raises(InvalidParams):
            canonical_components(res.trace, desc)

    def test_partition_size_mismatch(self):
        g, desc = gen_lb_family(16)
        tr = make_trace(g, [({0: b"m"}, {})])
        bad = LBFamilyDescriptor(n=36, components=desc.components)
        with pytest.raises(InvalidParams):
            audit_facts(tr, bad)
        with pytest.raises(InvalidParams):
            canonical_components(tr, bad)

    @pytest.mark.parametrize("special", [16, 99, -1, 0, 15])
    def test_special_outside_the_graph_or_inside_a_component(self, special):
        g, desc = gen_lb_family(16)
        tr = make_trace(g, [({0: b"m"}, {})])
        bad = LBFamilyDescriptor(n=16, components=desc.components, specials=[special])
        with pytest.raises(InvalidParams, match=f"special node {special} "):
            audit_facts(tr, bad)
        with pytest.raises(InvalidParams, match=f"special node {special} "):
            canonical_components(tr, bad)

    def test_node_in_two_components(self):
        """Every node is covered, but node 0 is listed a second time."""
        g, desc = gen_lb_family(16)
        tr = make_trace(g, [({0: b"m"}, {})])
        bad = LBFamilyDescriptor(n=16, components=desc.components + [[0]])
        with pytest.raises(InvalidParams, match="exactly once"):
            audit_facts(tr, bad)
