"""Output checks: every run verifies what the program answered.

Each check is a pure function of a job's inputs and the program's
output, so a test can hand it a tampered result and see it fail.

* :func:`naive_bound_ok` — phase 1 used at most ``4·n·u_n`` naive
  comparisons (the paper's filter bound; TOP-k jobs are held to the
  same ``u_n``, although their filter runs with ``u_n + k - 1``).
* :func:`bound_met` — the winner's value is within ``2·δe`` of the
  catalog maximum (the 2-MaxFind guarantee ``d(M, e) ≤ 2δe``).
* :func:`http_parity` — a job served over HTTP equals the same spec
  executed in-process with the scheduler's seed split.
* :func:`fused_parity` — a job settled by the fused scheduler equals
  ``execute()`` on a private platform in answer, cost and ledger.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from .inputs import DELTA_E, JobInput

__all__ = [
    "Settled",
    "naive_bound_ok",
    "bound_met",
    "build_job",
    "job_spec",
    "execute_private",
    "ledger_entries",
    "http_parity",
    "fused_parity",
]


@dataclass(frozen=True)
class Settled:
    """What the scheduler reported for one job (kept for parity checks)."""

    answer: tuple[int, ...]
    total_cost: float
    ledger: dict[str, tuple[int, float]]


def naive_bound_ok(job: JobInput, naive_comparisons: int) -> bool:
    """Phase 1 stayed within ``4·n·u_n`` naive comparisons."""
    return naive_comparisons <= 4 * len(job.catalog.values) * job.u_n


def bound_met(job: JobInput, winner: int) -> bool:
    """The winner lies within ``2·δe`` of the catalog maximum."""
    values = job.catalog.values
    if not 0 <= winner < len(values):
        return False
    return bool(values[winner] >= job.catalog.max_value - 2.0 * DELTA_E)


def build_job(job: JobInput) -> Any:
    """The in-process job object for ``job``."""
    from repro.api import CrowdMaxJob, CrowdTopKJob, JobPhaseConfig

    phases = {"phase1": JobPhaseConfig(pool="crowd"), "phase2": JobPhaseConfig(pool="experts")}
    if job.kind == "topk":
        return CrowdTopKJob(job.catalog.values, u_n=job.u_n, k=job.k, **phases)
    return CrowdMaxJob(job.catalog.values, u_n=job.u_n, **phases)


def job_spec(job: JobInput) -> Any:
    """The wire spec for ``job``."""
    from repro.api import JobSpec

    return JobSpec(
        values=tuple(float(v) for v in job.catalog.values),
        u_n=job.u_n,
        seed=job.seed,
        kind=job.kind,
        k=job.k,
    )


def execute_private(job_object: Any, seed: int) -> tuple[Any, Any]:
    """Run a job alone on a private platform with the scheduler's split.

    The scheduler turns an explicit seed into a ``SeedSequence`` whose
    two children are the algorithm and platform streams; this is the
    same split on fresh default pools.  Returns ``(result, platform)``.
    """
    from repro.api import CrowdPlatform
    from repro.service_http.runner import default_pool_factory

    job_seed, platform_seed = np.random.SeedSequence(seed).spawn(2)
    platform = CrowdPlatform(
        default_pool_factory(), rng=np.random.default_rng(platform_seed)
    )
    result = job_object.execute(platform, np.random.default_rng(job_seed))
    return result, platform


def ledger_entries(ledger: Any) -> dict[str, tuple[int, float]]:
    """A ledger's per-label ``(operations, money)``."""
    return {label: (e.operations, e.money) for label, e in ledger.entries.items()}


def http_parity(job: JobInput, http_result: Mapping[str, Any] | None) -> bool:
    """The HTTP result payload is dict-equal to the in-process run."""
    if http_result is None:
        return False
    result, _ = execute_private(job_spec(job).build_job(), job.seed)
    return bool(result.to_dict() == dict(http_result))


def fused_parity(job: JobInput, settled: Settled) -> bool:
    """Same answer, cost and ledger operations as a private ``execute()``."""
    result, platform = execute_private(build_job(job), job.seed)
    return (
        tuple(int(a) for a in result.answer) == settled.answer
        and float(result.total_cost) == settled.total_cost
        and ledger_entries(platform.ledger) == settled.ledger
    )
