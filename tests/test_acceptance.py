"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the lines as
they happen). Every tolerance is exact unless stated otherwise; the scaling
CSV lands in artifacts/scaling_rounds.csv.
"""

import csv
import sys
import time
from pathlib import Path

import pytest

from radiolab.broadcast import PathMessageProgram, synthesize_path_message
from radiolab.corpus import corpus, toprec_corpus
from radiolab.graphs import diameter, gen_lb_family, gen_path, gen_star, gen_tree
from radiolab.labels import int_to_bits
from radiolab.rng import SplitMix64
from radiolab.audit import audit_facts
from radiolab.schemes import run_scheme, verify_outputs
from radiolab.sim import run, unframe
from radiolab.size_discovery import (
    COMPACT_LENGTH_C,
    assign_subtree_bits,
    build_compact_labels,
    build_fast_sd,
    fast_sd_program,
)
from radiolab.toprec import (
    TOPREC_C1,
    TOPREC_C2,
    TOPREC_C3,
    TOPREC_LEN_C,
    TOPREC_LEN_C0,
    TopRecProgram,
    assign_broadcast_indices,
    assign_gather_indices,
    build_toprec_labels,
    oracle_ids,
)
from oracles import (
    tagged_rounds,
    toprec_round_formula,
    tree_parent,
    verify_executor_run,
    verify_gather_indices,
    verify_subtree_assignment,
)

ARTIFACTS = Path(__file__).resolve().parent.parent / "artifacts"


@pytest.fixture(scope="session")
def report():
    """Writer of one line per criterion: on the terminal (visible with -s)
    and in the artifacts log, which survives pytest's capture. The log is
    truncated when the first criterion of a session starts, so it holds
    one run."""
    ARTIFACTS.mkdir(exist_ok=True)
    with (ARTIFACTS / "acceptance_report.txt").open("w") as fp:

        def write(line: str) -> None:
            print(line, file=sys.__stdout__, flush=True)
            fp.write(line + "\n")
            fp.flush()

        yield write


@pytest.fixture(scope="module")
def size_corpus():
    graphs = corpus()
    assert len(graphs) >= 200
    return graphs


@pytest.fixture(scope="module")
def tr_corpus():
    return toprec_corpus()


def test_c01_size_discovery_correctness(size_corpus, report):
    """All three size-discovery schemes make every node output n, on the
    whole pinned corpus, under the five-minute budget."""
    t0 = time.time()
    failures = []
    for gid, g in size_corpus:
        for scheme in ("compact", "general", "fastsd"):
            res = run_scheme(scheme, g)
            if not res.ok:
                failures.append((gid, scheme, res.correct_outputs))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 300
    report(
        f"[C1] {'PASS' if ok else 'FAIL'} size discovery exact on "
        f"{len(size_corpus)} graphs x 3 schemes in {elapsed:.1f}s"
        + (f"; failures: {failures[:5]}" if failures else "")
    )
    assert not failures
    assert elapsed < 300


@pytest.fixture(scope="module")
def toprec_runs(size_corpus):
    """{graph id: (bundle, trace)} of toprec on every size-corpus graph,
    shared by C2 and C3 (the toprec corpus is its n <= 150 part)."""
    runs = {}
    for gid, g in size_corpus:
        bundle = build_toprec_labels(g)
        runs[gid] = bundle, run(g, bundle.labels, TopRecProgram)
    return runs


def test_c02_exact_round_formulas(size_corpus, toprec_runs, report):
    """On toprec's own rounds: its first BroadcastBFS (T1) uses exactly the
    D*(Delta+1) window (deepest first reception in the final phase, every
    slot as scheduled), and its gathering (T4) exactly the D* x Delta
    rounds after stage 2, in phase D* - layer and slot g + 1. Every
    stripe-mode fastsd run ends in round barrier + (stage-2 t) - 1."""
    checked = 0
    for gid, g in size_corpus:
        if g.n == 1:
            continue
        bundle, tr = toprec_runs[gid]
        assert verify_outputs("toprec", g, bundle, tr) == g.n, gid
        meta = bundle.meta
        la, delta, b, gv = meta["layers"], meta["delta"], meta["b"], meta["g"]
        width = delta + 1
        first_rx = {}
        t4_senders = []
        total = la.depth + 2 * la.depth * width
        g0 = total + meta["stage2_window"]
        gather_window = la.depth * delta
        for rnd_idx, sent, heard in tagged_rounds(tr, "T1"):
            for v in sent:
                assert rnd_idx == la.layer[v] * width + b[v] + 1, gid
            for v in heard:
                first_rx.setdefault(v, rnd_idx)
        assert set(first_rx) >= set(range(1, g.n)), gid
        window = la.depth * width
        assert max(first_rx.values()) <= window, gid
        deepest_rx = [first_rx[v] for v in range(g.n) if la.layer[v] == la.depth]
        assert all(r > (la.depth - 1) * width for r in deepest_rx), gid

        for rnd_idx, sent, _ in tagged_rounds(tr, "T4"):
            for v in sent:
                assert g0 < rnd_idx <= g0 + gather_window, gid
                phase = (rnd_idx - g0 - 1) // delta
                assert la.layer[v] == la.depth - phase, gid
                assert rnd_idx == g0 + phase * delta + gv[v] + 1, gid
                t4_senders.append(v)
        assert sorted(t4_senders) == list(range(1, g.n)), gid
        checked += 1
    striped = 0
    for gid, g in size_corpus:
        bundle = build_fast_sd(g)
        meta = bundle.meta
        if meta["mode"] == "stripes":
            tr = run(g, bundle.labels, fast_sd_program)
            assert tr.num_rounds == meta["barrier"] + meta["stage2"].t - 1, gid
            striped += 1
    assert striped >= 100
    report(f"[C2] PASS exact round formulas (toprec's T1 BroadcastBFS D*(D+1), "
           f"T4 gather D*xD) on {checked} graphs; stripe-mode fastsd ends in "
           f"round barrier + stage-2 t - 1 on {striped} graphs")


def test_c03_toprec_correctness(tr_corpus, toprec_runs, report):
    bad = []
    for gid, g in tr_corpus:
        bundle, tr = toprec_runs[gid]
        ids = oracle_ids(bundle.meta)
        expected_edges = tuple(sorted(
            (min(ids[u], ids[v]), max(ids[u], ids[v])) for u, v in g.edges()
        ))
        if not all(
            out == (expected_edges, ids[v]) for v, out in enumerate(tr.outputs)
        ):
            bad.append(gid)
            continue
        formula = toprec_round_formula(
            bundle.meta["layers"].depth, g.max_degree(), bundle.meta["stage2_window"]
        )
        d = diameter(g) if g.n > 1 else 0
        bound = (
            TOPREC_C1 * d * g.max_degree()
            + TOPREC_C2 * min(g.n, g.max_degree() ** 2 + 1)
            + TOPREC_C3
        )
        assert tr.num_rounds <= formula <= bound, gid
    report(
        f"[C3] {'PASS' if not bad else 'FAIL'} topology recognition exact on "
        f"{len(tr_corpus)} graphs (round bound {TOPREC_C1}*D*Delta + "
        f"{TOPREC_C2}*min(n,Delta^2+1) + {TOPREC_C3})"
    )
    assert not bad


def test_c04_label_length_scaling(report):
    compact_bits = {}
    toprec_bits = {}
    for k in range(2, 13):
        g = gen_star(2**k + 1)
        compact_bits[k] = build_compact_labels(g).max_label_bits()
        toprec_bits[k] = build_toprec_labels(g).max_label_bits()
    ks = sorted(compact_bits)
    monotone = all(compact_bits[a] <= compact_bits[b] for a, b in zip(ks, ks[1:]))
    double_log = compact_bits[12] <= 3 * compact_bits[3]
    linear = all(
        toprec_bits[k] <= TOPREC_LEN_C * (k + 1 + 1) + TOPREC_LEN_C0
        for k in ks
    )
    # also pin the documented compact constant on the star family
    import math

    compact_const = all(
        compact_bits[k]
        <= COMPACT_LENGTH_C * (math.ceil(math.log2(math.log2(2**k + 2))) + 1)
        for k in ks
    )
    ok = monotone and double_log and linear and compact_const
    report(
        f"[C4] {'PASS' if ok else 'FAIL'} label scaling: compact "
        f"{[compact_bits[k] for k in ks]} (monotone={monotone}, "
        f"bits(12)={compact_bits[12]} <= 3*bits(3)={3 * compact_bits[3]}); "
        f"toprec {[toprec_bits[k] for k in ks]} <= {TOPREC_LEN_C}*(k+2)+{TOPREC_LEN_C0}"
    )
    assert ok


def test_c05_subtree_packing_suite(report):
    rng = SplitMix64(0xF00D)
    for i in range(1000):
        n = 1 + rng.randrange(256)
        tree = gen_tree(n, rng.next_u64())
        root = rng.randrange(n)
        m = "".join(
            "1" if rng.next_u64() & 1 else "0" for _ in range(n.bit_length() + 1)
        )
        asg = assign_subtree_bits(tree_parent(tree, root), root, m)
        verify_subtree_assignment(tree, root, m, asg)
    report("[C5] PASS subtree packing suite: 1000 seeded trees (n <= 256), "
           "per-node <= 3 bits, root <= 2, child bound, post-order concat exact")


def test_c06_executor_properties(size_corpus, report):
    """The Executor as the schemes run it: the first t rounds of a
    path-message run from node 0 carrying the bits of n."""
    for gid, g in size_corpus:
        bits = int_to_bits(g.n)
        bundle = synthesize_path_message(g, 0, bits)
        syn = bundle.meta["synthesis"]
        assert len(syn.stages) <= g.n, gid
        tr = run(g, bundle.labels, PathMessageProgram)
        assert all(out == bits for out in tr.outputs), gid
        verify_executor_run(g, bundle, tr)
    report(f"[C6] PASS executor tree items (1)-(3), DOM properties (a)-(f), "
           f"stage count <= n, node-local membership, on {len(size_corpus)} graphs "
           f"(the Executor rounds of path-message runs)")


def test_c07_gather_index_properties(size_corpus, report):
    for gid, g in size_corpus:
        b, parent, la = assign_broadcast_indices(g, 0)
        gv = assign_gather_indices(g, 0, la, parent, b)
        verify_gather_indices(g, 0, la, parent, gv)
    report(f"[C7] PASS gather-index properties (a)(b)(c) on {len(size_corpus)} graphs")


def test_c08_fastsd_structure(size_corpus, report):
    lgn_checked = 0
    for gid, g in size_corpus:
        bundle = build_fast_sd(g)
        if bundle.meta.get("mode") != "stripes":
            continue
        lgn = g.n.bit_length()
        sd = bundle.meta["decomposition"]
        for j, meta in bundle.meta["stripes"].items():
            assert all(len(p) == lgn for p in meta["paths"]), gid
        tr = run(g, bundle.labels, fast_sd_program)
        assert all(out == g.n for out in tr.outputs), gid
        covers = {
            u for meta in bundle.meta["stripes"].values() for u in meta["cover"]
        }
        cover_rx = {}
        for rnd_idx, rec in enumerate(tr.rounds, start=1):
            for v, msg in rec.heard.items():
                tag = unframe(msg)[0]
                if tag in ("F1", "F2") and sd.stripe_of[v] is not None:
                    senders = [u for u in g.adj[v] if u in rec.transmitters]
                    assert len(senders) == 1, gid
                    assert sd.stripe_of[senders[0]] == sd.stripe_of[v], gid
                if tag == "F1" and v in covers:
                    cover_rx[v] = rnd_idx
        assert set(cover_rx) == covers, gid
        assert all(r == lgn - 1 for r in cover_rx.values()), gid
        lgn_checked += 1
    report(f"[C8] PASS fastsd structure (stripe isolation, conflict-free paths, "
           f"simultaneous phase-1 completion) on {lgn_checked} stripe-mode graphs")


def test_c09_lower_bound_audits(report):
    total = 0
    size_schemes = ("compact", "general", "fastsd")
    for n in (16, 36, 64, 100, 576, 2304):
        g, desc = gen_lb_family(n)
        for scheme in size_schemes + (("toprec",) if n <= 100 else ()):
            res = run_scheme(scheme, g, cd=True)
            assert res.ok, (n, scheme)
            rep = audit_facts(res.trace, desc, labels=res.bundle.labels)
            assert rep.ok, (n, scheme, rep.violations)
            total += 1
    report(f"[C9] PASS lower-bound audits (facts, departures, trigger-label "
           f"multiset) on G_n: all four schemes for n in {{16,36,64,100}}, "
           f"compact/general/fastsd also for n in {{576,2304}}; {total} CD runs, "
           f"zero violations")


def test_c10_non_reproducible_and_scaling_csv(report):
    """The Omega(log^2 n) time lower bound rests on nonconstructive bipartite
    schedules and the external O(D log n + log^2 n) stage bound belongs to
    the cited construction; neither is reproduced here. Substitute evidence:
    criterion 6's structural suite plus this measured-rounds scaling CSV."""
    ARTIFACTS.mkdir(exist_ok=True)
    out = ARTIFACTS / "scaling_rounds.csv"
    rows = []
    for k in range(6, 12):
        n = 2**k
        g = gen_path(n)
        for scheme in ("fastsd", "general"):
            res = run_scheme(scheme, g)
            assert res.ok, (n, scheme)
            meta = res.bundle.meta
            if scheme == "general":
                assert res.trace.num_rounds == 15 * n - 17, n
            else:
                assert meta["mode"] == "stripes", n
                assert res.trace.num_rounds == meta["barrier"] + meta["stage2"].t - 1, n
            rows.append(
                {"n": n, "scheme": scheme, "rounds": res.trace.num_rounds,
                 "max_label_bits": res.bundle.max_label_bits()}
            )
    with out.open("w", newline="") as fp:
        w = csv.DictWriter(fp, fieldnames=["n", "scheme", "rounds", "max_label_bits"])
        w.writeheader()
        w.writerows(rows)
    report(
        "[C10] PASS non-reproducible items stated (Omega(log^2 n) lower bound, "
        f"external stage bound); scaling CSV emitted to "
        f"{out.relative_to(ARTIFACTS.parent)} "
        f"({len(rows)} rows, paths n=2^6..2^11; general in exactly 15n - 17 "
        f"rounds, fastsd in barrier + stage-2 t - 1)"
    )
