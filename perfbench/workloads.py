"""The four workload drivers.

Each driver is a *runtime*: constructing it is set-up (server start or
cache warm-up), :meth:`drive` is the timed closed loop, :meth:`close`
releases what set-up opened.  A drive is a series of timed stretches,
each bracketed by the host-speed reference kernel (``hostspeed``).  A
driver only calls public entry points of the program: ``ServiceServer``
/ ``ServiceClient`` over loopback, ``CrowdScheduler.submit/run`` and
the job classes.

Job objects are built just before they are submitted and dropped once
their outcome is tallied, so memory measures the program, not the
harness.
"""

from __future__ import annotations

import asyncio
import resource
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from . import checks, hostspeed
from .inputs import Inputs, JobInput

__all__ = ["Sample", "open_runtime", "peak_rss_mb"]

#: Parity re-executions per run (spread over the run by stride).
PARITY_SAMPLES = 12
PARITY_STRIDE = 37
#: Seconds of one timed stretch of a drive (in-process, whole
#: generations until at least this long).
STRETCH_S = 1.5
TOKEN = "perfbench-token"


@dataclass
class Sample:
    """Everything one timed drive observed."""

    attempted: int = 0
    ok: int = 0
    #: Jobs with at least one failed check (each job counts once).
    failed: int = 0
    failures: dict[str, int] = field(default_factory=dict)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: Per-job (HTTP) or per-generation (in-process) latencies, seconds.
    latencies: list[float] = field(default_factory=list)
    cost: float = 0.0
    naive: int = 0
    expert: int = 0
    bound_met: int = 0
    requests: int = 0
    non2xx: int = 0
    cache_hits: int = 0
    cache_lookups: int = 0
    #: Live threads at the end of the drive (the program's and ours).
    threads: int = 0
    #: ``(wall, cpu, settled-ok jobs, host factor)`` of each timed
    #: stretch of the drive; see :meth:`timed`.
    stretches: list[tuple[float, float, int, float]] = field(default_factory=list)
    #: :attr:`latencies` in reference seconds (see ``hostspeed``).
    scaled_latencies: list[float] = field(default_factory=list)
    #: Settled-ok jobs at which :attr:`rss_mb` is read (0: never).
    rss_jobs: int = 0
    #: Peak RSS of the process, MB, when :attr:`rss_jobs` jobs had settled.
    rss_mb: float | None = None
    #: ``(job, program output)`` pairs re-executed after timing.
    parity: list[tuple[JobInput, Any]] = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failures[reason] = self.failures.get(reason, 0) + 1

    def tally(self, job: JobInput, answer: list[int], cost: float, naive: int, expert: int) -> bool:
        """Count one settled-ok job; returns whether its checks passed."""
        self.ok += 1
        if self.ok == self.rss_jobs:
            self.rss_mb = peak_rss_mb()
        self.cost += cost
        self.naive += naive
        self.expert += expert
        good = True
        if not checks.naive_bound_ok(job, naive):
            self.fail("naive_bound")
            good = False
        if checks.bound_met(job, answer[0]):
            self.bound_met += 1
        else:
            self.fail("bound_missed")
            good = False
        return good

    def want_parity(self, index: int) -> bool:
        return index % PARITY_STRIDE == 0 and len(self.parity) < PARITY_SAMPLES

    def timed(self, stretch: Callable[[], None], reference_before: float) -> float:
        """Run one stretch of a drive, then the reference kernel, and
        record the stretch with its host factor; returns the kernel's
        time, which brackets the next stretch."""
        ok0, latencies0 = self.ok, len(self.latencies)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        stretch()
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        reference_after = hostspeed.reference_s()
        scale = hostspeed.factor(reference_before, reference_after)
        self.stretches.append((wall, cpu, self.ok - ok0, scale))
        self.scaled_latencies.extend(s * scale for s in self.latencies[latencies0:])
        self.wall_s += wall
        self.cpu_s += cpu
        return reference_after

    def rate(self) -> float:
        """Settled-ok jobs per reference second over the whole drive."""
        scaled = sum(w * f for w, _, _, f in self.stretches)
        return sum(j for _, _, j, _ in self.stretches) / scaled if scaled else 0.0


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def drive_stretches(seconds: float, rss_jobs: int, stretch: Callable[[Sample], None]) -> Sample:
    """Repeat ``stretch`` for ``seconds``, each run bracketed by the
    reference kernel (:meth:`Sample.timed`)."""
    sample = Sample(rss_jobs=rss_jobs)
    deadline = time.perf_counter() + seconds
    reference = hostspeed.reference_s()
    while time.perf_counter() < deadline:
        reference = sample.timed(lambda: stretch(sample), reference)
    sample.threads = threading.active_count()
    return sample


def open_runtime(inputs: Inputs, tracer: Any, workdir: Path) -> Any:
    """Set up the runtime of ``inputs.workload`` (including warm-up)."""
    if inputs.workload == "http-small":
        return HttpRuntime(inputs, tracer)
    return SchedulerRuntime(inputs, tracer, workdir)


# ----------------------------------------------------------------------
# http-small
# ----------------------------------------------------------------------
class HttpRuntime:
    """An in-process ``ServiceServer`` on loopback, default config."""

    def __init__(self, inputs: Inputs, tracer: Any):
        from repro.api import ServiceClient, ServiceConfig, ServiceServer

        self.inputs = inputs
        self.recorder = getattr(tracer, "sink", None)
        self._next = 0
        self._loop = asyncio.new_event_loop()
        self.server = ServiceServer(ServiceConfig(tokens={TOKEN: "perfbench"}), tracer=tracer)
        self._loop.run_until_complete(self.server.start())
        self.client = ServiceClient("127.0.0.1", self.server.port, TOKEN)
        self._run(Sample(), inputs.params["warmup"], deadline=None)

    def drive(self, seconds: float) -> Sample:
        return drive_stretches(
            seconds,
            self.inputs.params["rss_jobs"],
            lambda sample: self._run(sample, None, time.perf_counter() + STRETCH_S),
        )

    def _run(self, sample: Sample, jobs: int | None, deadline: float | None) -> None:
        stop = self._next + jobs if jobs is not None else None

        async def client() -> None:
            while (stop is None or self._next < stop) and (
                deadline is None or time.perf_counter() < deadline
            ):
                index = self._next
                self._next += 1
                await self._one(sample, index)

        async def clients() -> None:
            await asyncio.gather(*(client() for _ in range(self.inputs.params["clients"])))

        self._loop.run_until_complete(clients())

    async def _one(self, sample: Sample, index: int) -> None:
        job = self.inputs.job(index)
        body = checks.job_spec(job).to_dict()
        sample.attempted += 1
        t0 = time.perf_counter()
        response = await self.client.request("POST", "/v1/jobs", payload=body)
        t1 = time.perf_counter()
        self._exchange(sample, "http.submit", t1 - t0, response.status)
        if response.status >= 300:
            sample.failed += 1
            return
        job_id = str(response.payload["job_id"])
        while True:
            t2 = time.perf_counter()
            poll = await self.client.job_result(job_id, wait=30.0)
            self._exchange(sample, "http.result", time.perf_counter() - t2, poll.status)
            if poll.status != 202:
                break
        if poll.status != 200 or poll.payload.get("status") != "ok":
            sample.fail(f"status_{poll.status}")
            sample.failed += 1
            return
        sample.latencies.append(time.perf_counter() - t0)
        result = poll.payload["result"]
        good = sample.tally(
            job,
            result["answer"],
            float(result["total_cost"]),
            int(result["naive_comparisons"]),
            int(result["expert_comparisons"]),
        )
        if sample.want_parity(index):
            sample.parity.append((job, result))
        if not good:
            sample.failed += 1

    def _exchange(self, sample: Sample, name: str, seconds: float, status: int) -> None:
        sample.requests += 1
        if not 200 <= status < 300:
            sample.non2xx += 1
            sample.fail(f"http_{status}")
        if self.recorder is not None:
            self.recorder.add(name, seconds)

    def check_parity(self, sample: Sample) -> None:
        """Re-execute the sampled jobs in-process; count mismatches."""
        for job, result in sample.parity:
            if not checks.http_parity(job, result):
                sample.fail("http_parity")
                sample.failed += 1

    def close(self) -> None:
        self._loop.run_until_complete(self.server.aclose())
        self._loop.close()


# ----------------------------------------------------------------------
# fused-fresh, cache-hot, durable-cold
# ----------------------------------------------------------------------
class SchedulerRuntime:
    """Generations of ``CrowdScheduler`` driven in-process.

    Every generation submits ``generation`` jobs with explicit seeds and
    runs them to completion, the way the service runner does, with
    ``quantum=None`` (everything runnable is granted each tick).
    """

    def __init__(self, inputs: Inputs, tracer: Any, workdir: Path):
        from repro.api import ComparisonMemoCache

        self.inputs = inputs
        self.tracer = tracer
        self.workdir = workdir
        self._next = 0
        # cache-hot shares one cache across generations; the others
        # build theirs per generation (none, or the durable default).
        self.cache = ComparisonMemoCache() if inputs.workload == "cache-hot" else None
        # One short generation first: code paths (and cache-hot's cache)
        # are warm before anything is timed.
        self._generation(Sample(), inputs.params["warmup"])

    def drive(self, seconds: float) -> Sample:
        def stretch(sample: Sample) -> None:
            deadline = time.perf_counter() + STRETCH_S
            while time.perf_counter() < deadline:
                self._generation(sample)

        return drive_stretches(seconds, self.inputs.params["rss_jobs"], stretch)

    def _scheduler(self) -> tuple[Any, Path | None]:
        from repro.api import CrowdScheduler, DurabilityPolicy
        from repro.service_http.runner import default_pool_factory

        store: Path | None = None
        options: dict[str, Any] = {"cache": False}
        if self.inputs.workload == "cache-hot":
            options = {"cache": self.cache}
        elif self.inputs.workload == "durable-cold":
            store = Path(tempfile.mkdtemp(prefix="gen-", dir=self.workdir))
            options = {"cache": True, "durability": DurabilityPolicy(store_path=store)}
        scheduler = CrowdScheduler(
            default_pool_factory(),
            root_seed=self.inputs.seed,
            quantum=None,
            max_pending=self.inputs.params["generation"],
            tracer=self.tracer,
            **options,
        )
        return scheduler, store

    def _generation(self, sample: Sample, size: int | None = None) -> None:
        size = size or self.inputs.params["generation"]
        first = self._next
        self._next += size
        scheduler, store = self._scheduler()
        jobs = [self.inputs.job(first + g) for g in range(size)]
        objects = [checks.build_job(job) for job in jobs]
        cache = scheduler.cache
        hits0, lookups0 = (cache.hits, cache.lookups) if cache is not None else (0, 0)
        t0 = time.perf_counter()
        for job, obj in zip(jobs, objects):
            scheduler.submit(obj, seed=job.seed)
        outcomes = scheduler.run()
        sample.latencies.append(time.perf_counter() - t0)
        if cache is not None:
            sample.cache_hits += cache.hits - hits0
            sample.cache_lookups += cache.lookups - lookups0
        sample.attempted += size
        for outcome in outcomes:
            index = outcome.ticket.index
            job = jobs[index]
            if outcome.status != "ok" or outcome.result is None:
                sample.fail(f"outcome_{outcome.status}")
                sample.failed += 1
                continue
            result = outcome.result
            good = sample.tally(
                job,
                result.answer,
                float(result.total_cost),
                int(result.naive_comparisons),
                int(result.expert_comparisons),
            )
            if self.inputs.workload == "fused-fresh" and sample.want_parity(first + index):
                sample.parity.append(
                    (
                        job,
                        checks.Settled(
                            answer=tuple(int(a) for a in result.answer),
                            total_cost=float(result.total_cost),
                            ledger=checks.ledger_entries(outcome.ticket.platform.ledger),
                        ),
                    )
                )
            if not good:
                sample.failed += 1
        if store is not None:
            shutil.rmtree(store)

    def check_parity(self, sample: Sample) -> None:
        """Re-execute the sampled fused jobs on private platforms."""
        for job, settled in sample.parity:
            if not checks.fused_parity(job, settled):
                sample.fail("fused_parity")
                sample.failed += 1

    def close(self) -> None:
        self.cache = None
