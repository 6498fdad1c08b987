"""Workloads of the radiolab benchmark: graphs, job lists, per-job checks.

A job is one (scheme, graph, cd) triple. It runs oracle synthesis, then the
round engine, then output verification, and on `lb-audit` also the audit.
On `synth-scale` it runs synthesis only. Each check below uses constants
written here, not the program's own, so a change to the program cannot
loosen them.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import sys
import time
from dataclasses import dataclass, field

WORKLOADS = ("sd-paths", "toprec-mix", "lb-audit", "synth-scale")

# Modules a job calls into; setup imports all of them.
MODULES = ("graphs", "sim", "labels", "schemes", "audit", "corpus", "toprec")


@dataclass
class Job:
    scheme: str
    gid: str
    cd: bool = False
    engine: bool = True
    audit: bool = False

    @property
    def id(self) -> str:
        return f"{self.scheme}@{self.gid}" + ("+cd" if self.cd else "")


def graph_specs(workload: str, seed: int, gr) -> dict:
    """Graph id -> zero-argument generator. Only `toprec-mix` uses the seed."""
    if workload == "sd-paths":
        return {
            "path-160": lambda: gr.gen_path(160),
            "path-320": lambda: gr.gen_path(320),
            "path-640": lambda: gr.gen_path(640),
            "grid-20x32": lambda: gr.gen_grid(20, 32),
        }
    if workload == "toprec-mix":
        return {
            "grid-10x10": lambda: gr.gen_grid(10, 10),
            "cycle-65": lambda: gr.gen_cycle(65),
            "star-129": lambda: gr.gen_star(129),
            "gnp-100-0.05": lambda: gr.gen_random_connected(100, 0.05, seed),
            "gnp-48-0.3": lambda: gr.gen_random_connected(48, 0.3, seed + 1),
            "tree-65": lambda: gr.gen_tree(65, seed + 2),
        }
    if workload == "lb-audit":
        return {f"G_{n}": (lambda n=n: gr.gen_lb_family(n)) for n in (576, 784, 16, 36)}
    if workload == "synth-scale":
        return {
            "path-2048": lambda: gr.gen_path(2048),
            "grid-64x64": lambda: gr.gen_grid(64, 64),
            "star-1025": lambda: gr.gen_star(1025),
            "star-2049": lambda: gr.gen_star(2049),
        }
    raise ValueError(f"unknown workload {workload!r}")


def job_list(workload: str) -> list[Job]:
    if workload == "sd-paths":
        return [
            Job("compact", "path-160"),
            Job("general", "path-320"),
            Job("fastsd", "path-640"),
            Job("fastsd", "grid-20x32"),
        ]
    if workload == "toprec-mix":
        return [
            Job("toprec", gid)
            for gid in ("grid-10x10", "cycle-65", "star-129", "gnp-100-0.05",
                        "gnp-48-0.3", "tree-65")
        ]
    if workload == "lb-audit":
        return [
            *(Job(s, f"G_{n}", cd=True, audit=True)
              for n in (576, 784) for s in ("compact", "general", "fastsd")),
            *(Job("toprec", f"G_{n}", cd=True, audit=True) for n in (16, 36)),
        ]
    if workload == "synth-scale":
        # compact on path-2048 hits the RecursionError of
        # assign_subtree_bits (n >= 1000 on paths); it stays as a failed job.
        return [
            *(Job(s, "path-2048", engine=False)
              for s in ("general", "fastsd", "toprec", "compact")),
            *(Job(s, "grid-64x64", engine=False)
              for s in ("general", "fastsd", "toprec", "compact")),
            Job("toprec", "star-1025", engine=False),
            Job("toprec", "star-2049", engine=False),
        ]
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class Setup:
    mods: dict
    graphs: dict  # gid -> Graph
    partitions: dict  # gid -> LBFamilyDescriptor (lower-bound graphs only)
    import_s: float
    gen_s: float

    @property
    def setup_s(self) -> float:
        return self.import_s + self.gen_s


def setup(workload: str, seed: int | None) -> tuple[Setup, int]:
    """Import radiolab afresh and generate the workload's graphs.

    Drops every radiolab module first, so repeated calls in one process each
    pay the import again.
    """
    for name in [n for n in sys.modules if n == "radiolab" or n.startswith("radiolab.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    mods = {name: importlib.import_module(f"radiolab.{name}") for name in MODULES}
    t1 = time.perf_counter()
    if seed is None:
        seed = mods["corpus"].BASE_SEED
    graphs, partitions = {}, {}
    for gid, gen in graph_specs(workload, seed, mods["graphs"]).items():
        made = gen()
        if isinstance(made, tuple):
            graphs[gid], partitions[gid] = made
        else:
            graphs[gid] = made
    t2 = time.perf_counter()
    return Setup(mods, graphs, partitions, t1 - t0, t2 - t1), seed


def run_job(job: Job, s: Setup, tracer):
    """The timed part of one job. Returns (bundle, trace, correct, report);
    the last three are None where the job does not run that layer."""
    m, g = s.mods, s.graphs[job.gid]
    with tracer.span("job", job.id):
        with tracer.span("synth"):
            bundle = m["schemes"].build_bundle(job.scheme, g)
        if not job.engine:
            return bundle, None, None, None
        program = tracer.programs(m["schemes"].program_for(job.scheme))
        with tracer.span("sim"):
            trace = m["sim"].run(g, bundle.labels, program, cd=job.cd)
        with tracer.span("verify"):
            correct = m["schemes"].verify_outputs(job.scheme, g, bundle, trace)
        report = None
        if job.audit:
            with tracer.span("audit"):
                report = m["audit"].audit_facts(
                    trace, s.partitions[job.gid], labels=bundle.labels
                )
    return bundle, trace, correct, report


# ---------------------------------------------------------------------------
# Checks and exact counts, taken after the timed part of each job
# ---------------------------------------------------------------------------


def label_bits_bound(scheme: str, delta: int) -> int | None:
    """README bounds on the longest label (C4)."""
    if scheme == "compact":
        return 24 * (math.ceil(math.log2(math.log2(delta + 2))) + 1)
    if scheme == "toprec":
        return 20 * (math.ceil(math.log2(delta + 1)) + 1) + 60
    return None


def toprec_round_bound(diam: int, delta: int, n: int) -> int:
    """README bound on topology-recognition rounds: 8*D*Delta + min(n, Delta^2+1) + 1."""
    return 8 * diam * delta + min(n, delta * delta + 1) + 1


@dataclass
class JobResult:
    id: str
    error: str | None = None
    failures: list = field(default_factory=list)
    label_bits: int = 0
    label_bits_total: int = 0
    stats: dict = field(default_factory=dict)
    digest: str = ""

    @property
    def ok(self) -> bool:
        return self.error is None and not self.failures


def trace_stats(g, trace) -> tuple[dict, str]:
    """Exact counts of one execution trace, and its digest: the round number,
    sorted transmitters and sorted receivers of every active round, then the
    outputs."""
    h = hashlib.sha256()
    active = tx = deliveries = collisions = sent = delivered = biggest = 0
    for rnd, rec in enumerate(trace.rounds, start=1):
        if not rec.transmitters:
            continue
        active += 1
        tx += len(rec.transmitters)
        deliveries += len(rec.heard)
        sizes = [len(msg) for msg in rec.transmitters.values()]
        sent += sum(sizes)
        biggest = max(biggest, *sizes)
        delivered += sum(len(msg) for msg in rec.heard.values())
        hits: dict[int, int] = {}
        for u in rec.transmitters:
            for w in g.adj[u]:
                hits[w] = hits.get(w, 0) + 1
        collisions += sum(
            1 for w, c in hits.items() if c >= 2 and w not in rec.transmitters
        )
        h.update(f"{rnd}|{sorted(rec.transmitters)}|{sorted(rec.heard)}\n".encode())
    h.update(repr(trace.outputs).encode())
    stats = {
        "rounds": trace.num_rounds,
        "active_rounds": active,
        "transmissions": tx,
        "deliveries": deliveries,
        "collisions": collisions,
        "msg_bytes_sent": sent,
        "msg_bytes_delivered": delivered,
        "msg_bytes_max": biggest,
        "trace_records": len(trace.rounds),
        "node_rounds": g.n * trace.num_rounds,
    }
    return stats, h.hexdigest()


def check_job(job: Job, s: Setup, facts: dict, out, error) -> JobResult:
    """Check one job's outputs and take its exact counts. `facts` caches
    per-graph (n, Delta, D) for the bounds."""
    res = JobResult(job.id)
    if error is not None:
        res.error = error
        res.digest = "error:" + error
        return res
    bundle, trace, correct, report = out
    g = s.graphs[job.gid]
    if job.gid not in facts:
        diam = s.mods["graphs"].diameter(g) if job.scheme == "toprec" and job.engine else 0
        facts[job.gid] = (g.n, g.max_degree(), diam)
    n, delta, diam = facts[job.gid]
    res.label_bits = bundle.max_label_bits()
    res.label_bits_total = sum(len(lab) for lab in bundle.labels)
    bound = label_bits_bound(job.scheme, delta)
    if bound is not None and res.label_bits > bound:
        res.failures.append(f"label bits {res.label_bits} > {bound}")
    if trace is None:
        res.digest = hashlib.sha256("\n".join(bundle.labels).encode()).hexdigest()
        return res
    if correct != n:
        res.failures.append(f"{n - correct} of {n} outputs wrong")
    res.stats, res.digest = trace_stats(g, trace)
    if job.scheme == "toprec":
        limit = toprec_round_bound(diam, delta, n)
        if trace.num_rounds > limit:
            res.failures.append(f"rounds {trace.num_rounds} > {limit}")
    if report is not None:
        violations = sum(len(rows) for rows in report.violations.values())
        res.stats["departures"] = len(report.departures)
        res.stats["violations"] = violations
        if violations:
            res.failures.append(f"{violations} audit violation(s)")
    return res
