"""The ``bench-service`` harness: the HTTP serving layer under load.

Boots a real :class:`~repro.service_http.server.ServiceServer` on a
loopback socket and drives it with the stdlib
:class:`~repro.service_http.client.ServiceClient` — every job is a
genuine HTTP exchange (submit, then a long-poll for the result), not
an in-process shortcut.  Recorded per run:

* **latency** — submit→settled wall time per job, p50 / p99 / mean;
* **throughput** — settled jobs per second of driving wall time;
* **status mix** — every HTTP status seen, and the wire code of every
  error envelope (an honest run is all 202/200);
* **parity** — a sample of jobs is re-executed in-process through the
  ``repro.api`` surface with the same seed split, and the HTTP result
  payload must be bit-identical (dict-equal after the shared
  ``to_dict()``) to the in-process one.

The bench **fails** (the CLI exits nonzero) on any 5xx response or any
parity mismatch — both are correctness regressions, not perf numbers.
Artifact: ``results/BENCH_service.json`` (schema
``repro.bench_service/v1``) plus one ``BENCH_history.jsonl`` line.
"""

from __future__ import annotations

import asyncio
import time
from pathlib import Path
from typing import Any

import numpy as np

from ..platform.platform import CrowdPlatform
from ..service_http import JobSpec, ServiceClient, ServiceConfig, ServiceServer
from ..service_http.runner import default_pool_factory
from .artifacts import write_json_atomic
from .base import TableResult

__all__ = [
    "SERVICE_BENCH_SCHEMA",
    "run_service_bench",
    "service_bench_table",
    "write_service_bench_json",
]

SERVICE_BENCH_SCHEMA = "repro.bench_service/v1"

#: Small instances keep one job cheap so the bench exercises the
#: serving layer (sockets, generations, fan-in), not phase-1 math.
_BENCH_N = 24
_BENCH_U_N = 2


def _bench_specs(seed: int, n_jobs: int) -> list[JobSpec]:
    """Deterministic job catalog: distinct values, per-job seeds."""
    rng = np.random.default_rng(seed)
    specs = []
    for index in range(n_jobs):
        values = tuple(float(v) for v in rng.permutation(_BENCH_N))
        specs.append(
            JobSpec(values=values, u_n=_BENCH_U_N, seed=seed + index)
        )
    return specs


def _run_in_process(spec: JobSpec) -> dict[str, Any]:
    """The same job through the in-process surface (the parity twin).

    Replicates the scheduler's explicit-seed split exactly: the wire
    seed becomes a ``SeedSequence`` whose two children are the
    algorithm and platform streams, on fresh default pools.
    """
    job_seed, platform_seed = np.random.SeedSequence(spec.seed).spawn(2)
    platform = CrowdPlatform(
        default_pool_factory(), rng=np.random.default_rng(platform_seed)
    )
    result = spec.build_job().execute(platform, np.random.default_rng(job_seed))
    return result.to_dict()


async def _drive(
    server: ServiceServer,
    specs: list[JobSpec],
    concurrency: int,
    token: str,
) -> dict[str, Any]:
    client = ServiceClient("127.0.0.1", server.port, token)
    semaphore = asyncio.Semaphore(concurrency)
    latencies: list[float] = []
    status_mix: dict[str, int] = {}
    error_codes: dict[str, int] = {}
    results: list[dict[str, Any] | None] = [None] * len(specs)

    def _tally(status: int, payload: dict[str, Any]) -> None:
        key = str(status)
        status_mix[key] = status_mix.get(key, 0) + 1
        if status >= 400:
            code = str((payload.get("error") or {}).get("code", "unknown"))
            error_codes[code] = error_codes.get(code, 0) + 1

    async def _one(index: int, spec: JobSpec) -> None:
        async with semaphore:
            t0 = time.perf_counter()
            response = await client.request(
                "POST", "/v1/jobs", payload=spec.to_dict()
            )
            _tally(response.status, response.payload)
            if response.status >= 400:
                return
            job_id = str(response.payload["job_id"])
            while True:
                poll = await client.job_result(job_id, wait=30.0)
                _tally(poll.status, poll.payload)
                if poll.status == 202:
                    continue  # long-poll timed out before settle; re-arm
                if poll.status == 200:
                    latencies.append(time.perf_counter() - t0)
                    results[index] = poll.payload.get("result")
                return

    wall0 = time.perf_counter()
    try:
        await asyncio.gather(*(_one(i, spec) for i, spec in enumerate(specs)))
    finally:
        await client.aclose()
    wall_s = time.perf_counter() - wall0
    return {
        "wall_s": wall_s,
        "latencies": latencies,
        "status_mix": status_mix,
        "error_codes": error_codes,
        "results": results,
    }


def run_service_bench(
    seed: int = 2015,
    n_jobs: int = 1000,
    concurrency: int = 32,
    parity_checks: int = 8,
    generation_max_jobs: int = 128,
) -> dict[str, Any]:
    """Run the load bench; returns the ``BENCH_service.json`` payload."""
    if n_jobs < 1:
        raise ValueError("n_jobs must be at least 1")
    specs = _bench_specs(seed, n_jobs)
    token = "bench-token"

    async def _session() -> dict[str, Any]:
        config = ServiceConfig(
            port=0,
            tokens={token: "bench"},
            max_queued=n_jobs + concurrency,
            generation_max_jobs=generation_max_jobs,
        )
        server = ServiceServer(config)
        await server.start()
        try:
            return await _drive(server, specs, concurrency, token)
        finally:
            await server.aclose()

    driven = asyncio.run(_session())

    latencies = np.asarray(driven["latencies"], dtype=float)
    settled_ok = int(latencies.size)
    server_errors = sum(
        count
        for status, count in driven["status_mix"].items()
        if status.startswith("5")
    )
    parity = []
    for index in range(min(parity_checks, n_jobs)):
        http_result = driven["results"][index]
        parity.append(
            http_result is not None and _run_in_process(specs[index]) == http_result
        )
    payload: dict[str, Any] = {
        "schema": SERVICE_BENCH_SCHEMA,
        "seed": seed,
        "workload": {
            "n_jobs": n_jobs,
            "concurrency": concurrency,
            "n": _BENCH_N,
            "u_n": _BENCH_U_N,
            "generation_max_jobs": generation_max_jobs,
        },
        "wall_s": round(driven["wall_s"], 6),
        "jobs_per_sec": (
            round(settled_ok / driven["wall_s"], 3) if driven["wall_s"] > 0 else None
        ),
        "settled_ok": settled_ok,
        "latency_s": {
            "p50": round(float(np.percentile(latencies, 50)), 6) if settled_ok else None,
            "p99": round(float(np.percentile(latencies, 99)), 6) if settled_ok else None,
            "mean": round(float(latencies.mean()), 6) if settled_ok else None,
            "max": round(float(latencies.max()), 6) if settled_ok else None,
        },
        "status_mix": dict(sorted(driven["status_mix"].items())),
        "error_codes": dict(sorted(driven["error_codes"].items())),
        "server_errors": int(server_errors),
        "parity": {
            "checked": len(parity),
            "identical": bool(all(parity)) if parity else False,
        },
        "ok": bool(
            server_errors == 0
            and settled_ok == n_jobs
            and parity
            and all(parity)
        ),
        "generated_unix": round(time.time(), 3),  # repro-lint: disable=DET002 -- provenance
    }
    return payload


def service_bench_table(payload: dict[str, Any]) -> TableResult:
    """Render a BENCH_service payload as the table the CLI prints."""
    workload = payload["workload"]
    table = TableResult(
        table_id="bench-service",
        title=(
            f"HTTP service: {workload['n_jobs']} jobs x{workload['concurrency']} "
            f"concurrent (n={workload['n']})"
        ),
        headers=["metric", "value"],
    )
    latency = payload["latency_s"]
    table.add_row(["settled ok", payload["settled_ok"]])
    table.add_row(["wall (s)", payload["wall_s"]])
    table.add_row(["jobs/s", payload["jobs_per_sec"]])
    table.add_row(["latency p50 (s)", latency["p50"]])
    table.add_row(["latency p99 (s)", latency["p99"]])
    table.add_row(["status mix", str(payload["status_mix"])])
    table.add_row(["5xx responses", payload["server_errors"]])
    table.add_row(
        [
            "parity vs in-process",
            f"{payload['parity']['checked']} checked, "
            + ("identical" if payload["parity"]["identical"] else "MISMATCH"),
        ]
    )
    return table


def write_service_bench_json(payload: dict[str, Any], path: str | Path) -> Path:
    """Persist the artifact atomically (safe under concurrent shards)."""
    return write_json_atomic(path, payload)
