"""The benchmark of record: one workload, one seed, one JSON result.

Run from the repository root::

    python3 perfbench/run.py --workload http-small --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` measures the same workload untraced and then traced, and
reports the per-layer breakdown plus the tracing overhead.  The
process runs pinned to one CPU, and end-to-end times are in reference
seconds of that CPU (see ``perfbench/hostspeed.py``).  Every
metric is printed by name with its unit, after a provenance line; the
last line of standard output is the JSON result.  The exit code is
nonzero when any output check failed, or when the program's source is
missing.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPS = 3
#: CPUs this process may use before :func:`pin_to_one_cpu`.
CPUS = sorted(os.sched_getaffinity(0))
#: Latency percentiles printed in the provenance line.  No tail is an
#: end-to-end metric: on a shared 2-vCPU host, http-small's p90, p95
#: and p99 spread 23%, 32% and 40% (IQR over median) across ten runs,
#: beyond the largest bound a metric may have.
LATENCY_PERCENTILES = (50.0, 90.0, 95.0, 99.0)


def main(argv: list[str] | None = None) -> int:
    from perfbench.inputs import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "repro" / "api.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2

    pin_to_one_cpu()
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics, samples, params = run_traced(args.workload, args.seed, args.seconds, workdir)
        else:
            metrics, samples, params = run_plain(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    attempted = sum(s.attempted for s in samples)
    failed = sum(s.failed for s in samples)
    failures: dict[str, int] = {}
    for s in samples:
        for reason, count in s.failures.items():
            failures[reason] = failures.get(reason, 0) + count
    correct = failed == 0 and attempted > 0
    print("# provenance " + json.dumps(provenance(args, params), sort_keys=True))
    print("# checks " + json.dumps({"correct": correct, "failures": failures}, sort_keys=True))
    for name, metric in metrics.items():
        print(f"{name:<40} {metric['value']:>14.6g} {metric['unit']}")
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


def pin_to_one_cpu() -> None:
    """Run this process, its threads and its children on one CPU.

    The host-speed kernel (``hostspeed``) measures the CPU it runs on;
    pinned, that is the CPU every thread of the workload runs on too.
    Unpinned, ``http-small``'s two threads hand the GIL across CPUs,
    and on a shared VM the cost of that handoff swings with the host's
    load in a way no single-CPU kernel sees.
    """
    os.sched_setaffinity(0, {CPUS[0]})


# ----------------------------------------------------------------------
# The two run shapes
# ----------------------------------------------------------------------
def run_plain(workload: str, seed: int, seconds: float, workdir: Path):
    """Tracing off: repeated set-up, one timed drive, end-to-end metrics."""
    from perfbench import coldstart, hostspeed
    from perfbench.inputs import make_inputs
    from perfbench.workloads import open_runtime, peak_rss_mb

    setups: list[float] = []
    raw_setups: list[float] = []
    runtime = None
    reference = hostspeed.reference_s()
    for rep in range(SETUP_REPS):
        start = time.perf_counter()
        coldstart.import_wall_s(SRC)
        inputs = make_inputs(workload, seed)
        runtime = open_runtime(inputs, None, workdir)
        raw_setups.append(time.perf_counter() - start)
        after = hostspeed.reference_s()
        setups.append(raw_setups[-1] * hostspeed.factor(reference, after))
        reference = after
        if rep < SETUP_REPS - 1:
            runtime.close()
    assert runtime is not None
    sample = runtime.drive(seconds)
    runtime.close()
    runtime.check_parity(sample)
    metrics = end_to_end(sample, statistics.median(setups), sample.rss_mb or peak_rss_mb())
    factors = [f for *_, f in sample.stretches]
    params = dict(
        inputs.params,
        setup_s_each=setups,
        stretches=len(sample.stretches),
        host_factor={"median": statistics.median(factors), "min": min(factors), "max": max(factors)},
        latency_samples=len(sample.latencies),
        rss_read_at_jobs=sample.rss_jobs if sample.rss_mb is not None else sample.ok,
        latency_ms={
            f"p{p:g}": 1000.0 * percentile(sample.scaled_latencies, p) for p in LATENCY_PERCENTILES
        },
        raw={
            "jobs_per_s": sample.ok / sample.wall_s,
            "cpu_ms_per_job": 1000.0 * sample.cpu_s / max(sample.ok, 1),
            "latency_p50_ms": 1000.0 * percentile(sample.latencies, 50.0),
            "setup_s_each": raw_setups,
            "peak_rss_mb_at_end": peak_rss_mb(),
        },
        threads=sample.threads,
    )
    return metrics, [sample], params


def run_traced(workload: str, seed: int, seconds: float, workdir: Path):
    """Half the time untraced, half traced: per-layer metrics."""
    from repro.api import Tracer

    from perfbench import coldstart
    from perfbench.inputs import make_inputs
    from perfbench.layers import Recorder
    from perfbench.workloads import open_runtime

    inputs = make_inputs(workload, seed)
    runtime = open_runtime(inputs, None, workdir)
    plain = runtime.drive(seconds / 2)
    runtime.close()

    recorder = Recorder()
    runtime = open_runtime(inputs, Tracer(sink=recorder), workdir)
    recorder.reset()
    wrap_layers(recorder)
    try:
        traced = runtime.drive(seconds / 2)
    finally:
        recorder.unwrap()
    runtime.close()
    for sample in (plain, traced):
        runtime.check_parity(sample)

    imports = [coldstart.import_breakdown_ms(SRC) for _ in range(SETUP_REPS)]
    metrics = per_layer(recorder, traced, plain, imports)
    params = dict(
        inputs.params, shares=layer_shares(workload, recorder), threads=max(plain.threads, traced.threads)
    )
    return metrics, [plain, traced], params


# ----------------------------------------------------------------------
# Layer wrappers (traced run only)
# ----------------------------------------------------------------------
def wrap_layers(recorder: Any) -> None:
    """Install benchmark-side spans around each layer's public methods."""
    from repro.api import ComparisonMemoCache, CrowdPlatform, JobJournal, PersistentComparisonStore
    from repro.service_http.runner import default_pool_factory

    def pairs(args: tuple, _result: Any) -> int:
        return len(args[4])

    def serial(stack: list) -> str | None:
        # The serial path settles through the same fast-path methods;
        # keep those calls apart from the fused ones.
        return "platform.serial_batch" if stack and stack[-1].name == "platform.compare_batch" else None

    recorder.wrap(ComparisonMemoCache, "lookup_batch", "cache.lookup", units=pairs)
    recorder.wrap(ComparisonMemoCache, "store_batch", "cache.store", units=pairs)
    recorder.wrap(CrowdPlatform, "compare_batch", "platform.compare_batch")
    recorder.wrap(CrowdPlatform, "fast_batch_prepare", "platform.prepare", rename=serial)
    recorder.wrap(CrowdPlatform, "fast_batch_finalize", "platform.finalize", rename=serial)
    models = {type(w.model) for pool in default_pool_factory().values() for w in pool.workers}
    for model in sorted(models, key=lambda m: m.__name__):
        recorder.wrap(model, "decide_from_uniforms", "workers.decide", units=lambda a, _r: len(a[1]))
    recorder.wrap(
        PersistentComparisonStore, "write_entries", "durability.store_write", units=lambda _a, r: r
    )
    recorder.wrap(JobJournal, "commit_group", "durability.journal_commit")


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": float(value), "unit": unit}


def percentile(values: list[float], p: float) -> float:
    return float(np.percentile(values, p)) if values else 0.0


def end_to_end(sample: Any, setup_s: float, rss_mb: float) -> dict[str, dict[str, Any]]:
    """The user-visible metrics of one untraced drive.

    Every time is in reference seconds (``hostspeed``).  Throughput and
    CPU per job are medians over the drive's timed stretches, so a few
    slow seconds on a shared host do not swing the whole run.
    """
    ok = max(sample.ok, 1)
    stretches = [(w * f, c * f, j) for w, c, j, f in sample.stretches if j]
    return {
        "jobs_per_s": _metric(statistics.median(j / w for w, _, j in stretches), "1/s"),
        "job_latency_p50_ms": _metric(1000.0 * percentile(sample.scaled_latencies, 50.0), "ms"),
        "cpu_ms_per_job": _metric(statistics.median(1000.0 * c / j for _, c, j in stretches), "ms"),
        "money_per_job": _metric(sample.cost / ok, "money"),
        "bound_met_share": _metric(sample.bound_met / ok, "share"),
        "ok_share": _metric((sample.attempted - sample.failed) / max(sample.attempted, 1), "share"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
        "setup_s": _metric(setup_s, "s"),
    }


def per_layer(recorder: Any, traced: Any, plain: Any, imports: list[dict[str, float]]):
    """The traced drive's per-layer breakdown."""
    r = recorder
    jobs = max(traced.ok, 1)

    def per_job_ms(name: str, self_time: bool = False) -> dict[str, Any]:
        seconds = r.self_s(name) if self_time else r.total_s(name)
        return _metric(1000.0 * seconds / jobs, "ms/job")

    def per_job(count: float) -> dict[str, Any]:
        return _metric(count / jobs, "count/job")

    def ratio(num: float, den: float, unit: str) -> dict[str, Any]:
        return _metric(num / den if den else 0.0, unit)

    runs = r.count("scheduler.run")
    ticks = r.count("scheduler.tick.settle")
    fast = r.count("platform.prepare")
    serial_batches = r.count("platform.compare_batch")
    plain_rate = plain.rate()
    traced_rate = traced.rate()
    return {
        "http.submit_ms": _metric(1000.0 * percentile(r.durations("http.submit"), 50.0), "ms"),
        "http.result_ms": _metric(1000.0 * percentile(r.durations("http.result"), 50.0), "ms"),
        "http.requests_per_job": ratio(traced.requests, traced.attempted, "count/job"),
        "http.non2xx": _metric(traced.non2xx, "count"),
        "service.generations": per_job(r.count("service.generation")),
        "service.jobs_per_generation": ratio(
            r.units("service.generation"), r.count("service.generation"), "count/gen"
        ),
        "service.generation_ms": _metric(
            1000.0 * percentile(r.durations("service.generation"), 50.0), "ms"
        ),
        "service.generation_self_ms": per_job_ms("service.generation", self_time=True),
        "scheduler.ticks": ratio(ticks, runs, "count/run"),
        "scheduler.requests_per_tick": ratio(r.units("scheduler.tick.settle"), ticks, "count/tick"),
        "scheduler.settle_ms": per_job_ms("scheduler.tick.settle"),
        "scheduler.scatter_ms": per_job_ms("scheduler.tick.scatter"),
        "scheduler.resume_ms": per_job_ms("scheduler.tick.resume"),
        "scheduler.run_self_ms": per_job_ms("scheduler.run", self_time=True),
        "cache.lookup_ms": per_job_ms("cache.lookup"),
        "cache.lookups": per_job(traced.cache_lookups),
        "cache.hit_rate": ratio(traced.cache_hits, traced.cache_lookups, "share"),
        "cache.store_ms": per_job_ms("cache.store"),
        "cache.stored_pairs": per_job(r.units("cache.store")),
        "platform.prepare_ms": per_job_ms("platform.prepare"),
        "platform.finalize_ms": per_job_ms("platform.finalize"),
        "platform.fast_batches": per_job(fast),
        "platform.serial_batches": per_job(serial_batches),
        "platform.fast_share": ratio(fast, fast + serial_batches, "share"),
        "workers.decide_ms": per_job_ms("workers.decide"),
        "workers.decide_calls": per_job(r.count("workers.decide")),
        "workers.judgments_per_call": ratio(
            r.units("workers.decide"), r.count("workers.decide"), "count/call"
        ),
        "core.naive_comparisons_per_job": per_job(traced.naive),
        "core.expert_comparisons_per_job": per_job(traced.expert),
        "durability.store_write_ms": per_job_ms("durability.store_write"),
        "durability.store_rows": per_job(r.units("durability.store_write")),
        "durability.journal_commit_ms": per_job_ms("durability.journal_commit"),
        "durability.journal_commits": per_job(r.count("durability.journal_commit")),
        "import.repro_api_ms": _metric(
            statistics.median(i["repro_api_ms"] for i in imports), "ms"
        ),
        "import.scipy_stats_ms": _metric(
            statistics.median(i["scipy_stats_ms"] for i in imports), "ms"
        ),
        "trace.overhead_share": _metric(1.0 - traced_rate / plain_rate, "share"),
    }


def layer_shares(workload: str, r: Any) -> dict[str, Any]:
    """The traced shares that show which layer a workload loads most."""
    run = r.total_s("scheduler.run")
    bench_side = {
        name: r.total_s(name)
        for name in (
            "cache.lookup",
            "cache.store",
            "platform.prepare",
            "platform.finalize",
            "platform.compare_batch",
            "workers.decide",
            "durability.store_write",
            "durability.journal_commit",
        )
    }
    service_http = r.total_s("http.submit") + r.self_s("service.generation")
    settle_cache = r.total_s("scheduler.tick.settle") + bench_side["cache.lookup"] + bench_side["cache.store"]
    settle_resume = r.total_s("scheduler.tick.settle") + r.total_s("scheduler.tick.resume")
    durable = (
        bench_side["cache.store"]
        + bench_side["durability.store_write"]
        + bench_side["durability.journal_commit"]
    )
    return {
        "settle_of_run": r.total_s("scheduler.tick.settle") / run if run else 0.0,
        "resume_of_run": r.total_s("scheduler.tick.resume") / run if run else 0.0,
        "scatter_of_run": r.total_s("scheduler.tick.scatter") / run if run else 0.0,
        "cache_lookup_of_run": bench_side["cache.lookup"] / run if run else 0.0,
        "durable_writes_of_run": durable / run if run else 0.0,
        "largest_bench_span": max(bench_side, key=bench_side.get),
        "service_http_s": service_http,
        "settle_plus_cache_s": settle_cache,
        "expect": {
            "http-small": service_http > settle_cache,
            "fused-fresh": run > 0 and settle_resume / run > 0.5,
            "cache-hot": max(bench_side, key=bench_side.get) == "cache.lookup",
            "durable-cold": run > 0 and durable / run > 0.5,
        }[workload],
    }


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def provenance(args: argparse.Namespace, params: dict[str, Any]) -> dict[str, Any]:
    import hashlib
    import subprocess

    import scipy

    try:
        top, _, sha = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip().partition("\n")
    except (OSError, subprocess.SubprocessError):
        top, sha = "", ""
    if not top or Path(top).resolve() != ROOT:
        sha = ""  # not a checkout of its own (or inside another repository)
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": params,
        "git_sha": sha or "unknown",
        "source_sha256": digest.hexdigest(),
        "nproc": len(CPUS),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


if __name__ == "__main__":
    sys.path[:0] = [str(SRC), str(ROOT)]
    sys.exit(main())
