"""radiolab benchmark: one workload per process, closed loop, single thread.

    python3 perfbench/run.py --workload sd-paths --seed 20240901 --seconds 20 --trace 0

Run from the root of a radiolab source tree; it imports `radiolab` from
`src/`. The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the metrics
are the end-to-end ones, measured with no wrappers installed. With
`--trace 1` the run makes one untraced pass and then traced passes, and
reports per-layer metrics and the tracing overhead. Per-job results, trace
digests and machine details go to the line before and to `perfbench/out/`.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import calibrate
from jobs import WORKLOADS, check_job, job_list, run_job, setup
from tracer import NullTracer, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Set-up is repeated this many times per run; setup_s is the median.
SETUP_REPEATS = 5


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: radiolab.corpus.BASE_SEED)")
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="measuring budget; whole passes, at least one")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def machine_info() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fp:
            for line in fp:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
    }


@dataclass
class Pass:
    times: list  # host seconds of each job, in job order
    refs: list  # calibration samples: one before each job, one after the last
    results: list  # JobResult of each job
    tracer: object

    @property
    def wall(self) -> float:
        return sum(self.times)


def run_pass(jobs, s, tracer) -> Pass:
    """One pass over the jobs. Only the jobs themselves are timed; checks,
    counts, calibration and garbage collection happen between them."""
    p = Pass([], [], [], tracer)
    facts = {}
    for job in jobs:
        gc.collect()
        p.refs.append(calibrate.sample())
        error = out = None
        t0 = time.perf_counter()
        try:
            out = run_job(job, s, tracer)
        except Exception as exc:  # a job that raises counts as failed
            error = type(exc).__name__
        p.times.append(time.perf_counter() - t0)
        p.results.append(check_job(job, s, facts, out, error))
        del out
    p.refs.append(calibrate.sample())
    return p


def repeat_passes(jobs, s, tracer_cls, seconds) -> list[Pass]:
    """Run whole passes: the first, then as many more as fit `seconds` to
    the nearest pass."""
    passes = []
    t0 = time.perf_counter()
    while True:
        tracer = tracer_cls()
        with tracer.installed(s.mods):
            passes.append(run_pass(jobs, s, tracer))
        per_pass = (time.perf_counter() - t0) / len(passes)
        if len(passes) >= max(1, round(seconds / per_pass)):
            return passes


def summary(results) -> dict:
    return {
        r.id: {"ok": r.ok, "error": r.error, "failures": r.failures,
               "digest": r.digest, **r.stats}
        for r in results
    }


def pass_wall(passes) -> float:
    """Reference seconds of one pass: the sum over jobs of each job's median
    scaled time over the passes, so a slow spell of the host is outvoted.
    A job is scaled by the mean of the samples taken just before and after it."""
    return sum(
        statistics.median(
            calibrate.scaled(p.times[j], (p.refs[j] + p.refs[j + 1]) / 2) for p in passes
        )
        for j in range(len(passes[0].times))
    )


def host_speed(refs) -> float:
    return calibrate.REFERENCE_S / statistics.median(refs)


def untraced_metrics(passes, setups) -> dict:
    results = [r for p in passes for r in p.results]
    bits = max((r.label_bits for r in results), default=0)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "wall_s": (pass_wall(passes), "s"),
        "setup_s": (statistics.median(calibrate.scaled(x, r) for x, _, r in setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ok_frac": (sum(r.ok for r in results) / len(results), "ratio"),
        "label_bits_max": (bits, "bits"),
    }


def _ratio(a, b):
    return a / b if b else 0.0


def traced_metrics(untraced, traced, setups, speed) -> dict:
    """Per-layer metrics of the traced pass with the median wall time, exact
    counts from its traces, and the overhead against the untraced pass in
    reference seconds. Layer times are host seconds of the traced pass."""
    mid = sorted(traced, key=lambda p: p.wall)[(len(traced) - 1) // 2]
    self_s, total_s, counts = mid.tracer.totals()
    st: dict[str, int] = {}
    for r in mid.results:
        for k, v in r.stats.items():
            st[k] = max(st.get(k, 0), v) if k == "msg_bytes_max" else st.get(k, 0) + v
    get = st.get
    node_rounds = sum(r.stats.get("node_rounds", 0) for r in untraced.results)
    return {
        "sim.run_s": (total_s["sim"], "s"),
        "sim.self_s": (self_s["sim"], "s"),
        "sim.rounds": (get("rounds", 0), "rounds"),
        "sim.active_rounds": (get("active_rounds", 0), "rounds"),
        "sim.active_frac": (_ratio(get("active_rounds", 0), get("rounds", 0)), "ratio"),
        "sim.transmissions": (get("transmissions", 0), "count"),
        "sim.deliveries": (get("deliveries", 0), "count"),
        "sim.collisions": (get("collisions", 0), "count"),
        "sim.msg_bytes_sent": (get("msg_bytes_sent", 0), "B"),
        "sim.msg_bytes_delivered": (get("msg_bytes_delivered", 0), "B"),
        "sim.msg_bytes_max": (get("msg_bytes_max", 0), "B"),
        "sim.trace_records": (get("trace_records", 0), "count"),
        "sim.node_rounds_per_s": (_ratio(node_rounds, pass_wall([untraced])), "1/s"),
        "programs.calls": (counts.get("programs.calls", 0), "count"),
        "programs.s": (total_s["programs"], "s"),
        "programs.self_s": (self_s["programs"], "s"),
        "programs.calls_per_delivery": (
            _ratio(counts.get("programs.calls", 0), get("deliveries", 0)), "ratio"),
        "codec.s": (self_s["codec"], "s"),
        "codec.unframe_calls": (counts.get("codec.unframe_calls", 0), "count"),
        "codec.frame_calls": (counts.get("codec.frame_calls", 0), "count"),
        "codec.wire_calls": (counts.get("codec.wire_calls", 0), "count"),
        "codec.block_calls": (counts.get("codec.block_calls", 0), "count"),
        "codec.decoded_bytes": (counts.get("codec.decoded_bytes", 0), "B"),
        "codec.unframe_per_delivery": (
            _ratio(counts.get("codec.unframe_calls", 0), get("deliveries", 0)), "ratio"),
        "synth.s": (total_s["synth"], "s"),
        "synth.self_s": (self_s["synth"], "s"),
        "synth.calls": (sum(1 for sp in mid.tracer.spans if sp.name == "synth"), "count"),
        "synth.label_bits_total": (sum(r.label_bits_total for r in mid.results), "bits"),
        "verify.s": (total_s["verify"], "s"),
        "audit.s": (total_s["audit"], "s"),
        "audit.obs_calls": (counts.get("audit.obs_calls", 0), "count"),
        "audit.departures": (get("departures", 0), "count"),
        "audit.violations": (get("violations", 0), "count"),
        "graphs.gen_s": (statistics.median(x for _, x, _ in setups), "s"),
        "job.self_s": (self_s["job"], "s"),
        "trace.wall_s": (mid.wall, "s"),
        "trace.untraced_wall_s": (untraced.wall, "s"),
        "trace.overhead": (_ratio(pass_wall([mid]), pass_wall([untraced])), "ratio"),
        "trace.self_sum_frac": (_ratio(sum(self_s.values()), total_s["job"]), "ratio"),
        "trace.spans": (len(mid.tracer.spans), "count"),
        "host.speed": (speed, "ratio"),
    }


def main(argv=None) -> int:
    if not (ROOT / "src" / "radiolab" / "__init__.py").is_file():
        print(f"error: no radiolab source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    args = parse_args(argv)
    setups = []
    for _ in range(SETUP_REPEATS):
        ref = calibrate.sample()
        s, seed = setup(args.workload, args.seed)
        setups.append((s.setup_s, s.gen_s, ref))
    if not Path(s.mods["graphs"].__file__).resolve().is_relative_to(ROOT / "src"):
        print("error: radiolab was not imported from this source tree", file=sys.stderr)
        return 2
    jobs = job_list(args.workload)

    if args.trace:
        untraced = repeat_passes(jobs, s, NullTracer, 0)[0]
        traced = repeat_passes(jobs, s, Tracer, args.seconds - untraced.wall)
        passes = [untraced, *traced]
    else:
        passes = repeat_passes(jobs, s, NullTracer, args.seconds)
    speed = host_speed([r for _, _, r in setups] + [x for p in passes for x in p.refs])
    if args.trace:
        metrics = traced_metrics(untraced, traced, setups, speed)
    else:
        metrics = untraced_metrics(passes, setups)

    # Every pass, traced or not, must give the same per-job digests.
    digests = [[r.digest for r in p.results] for p in passes]
    deterministic = all(d == digests[0] for d in digests)
    results = [r for p in passes for r in p.results]
    wrong = [f"{r.id}: {f}" for r in results for f in r.failures]
    failed = sum(not r.ok for r in results)
    correct = deterministic and not wrong

    detail = {
        "workload": args.workload,
        "seed": seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": len(passes),
        "host_speed": speed,
        "host_wall_s": sum(statistics.median(col) for col in zip(*(p.times for p in passes))),
        "host_setup_s": statistics.median(x for x, _, _ in setups),
        "pass_wall_s": [p.wall for p in passes],
        "job_s": {job.id: [p.times[i] for p in passes] for i, job in enumerate(jobs)},
        "ref_s": [p.refs for p in passes],
        "setup_ref_s": [r for _, _, r in setups],
        "machine": machine_info(),
        "deterministic": deterministic,
        "wrong": sorted(set(wrong)),
        "errors": sorted({f"{r.id}: {r.error}" for r in results if r.error}),
        "jobs": summary(passes[-1].results),
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{seed}-trace{args.trace}"
    if args.trace:
        with open(OUT / f"spans-{stem}.json", "w") as fp:
            json.dump([p.tracer.span_records() for p in traced], fp)
    result = {
        "correct": correct,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(OUT / f"result-{stem}.json", "w") as fp:
        json.dump({**detail, "result": result}, fp, indent=1)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
