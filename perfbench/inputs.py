"""Seeded workload inputs: everything a run feeds the program.

Each workload's inputs are a pure function of ``(workload, seed)``, so
two runs with one seed drive the program with identical catalogs, job
kinds and job seeds.  The program under test receives only these
generated values; nothing here reads the program's state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["WORKLOADS", "Catalog", "Inputs", "JobInput", "make_inputs"]

#: Worker thresholds of ``default_pool_factory()`` (crowd, experts):
#: the planted catalogs are built against them, so the configured
#: ``u_n`` is the catalog's true naive-confusion count.
DELTA_N = 1.0
DELTA_E = 0.25

#: Workload parameters.  ``pool`` is how many distinct catalogs are
#: generated during set-up; jobs cycle over them.  Every job still gets
#: its own seed.  ``warmup`` jobs run during set-up, untimed.
#: ``rss_jobs`` is the settled-job count at which ``peak_rss_mb`` is
#: read (the service keeps every job it served, so its memory grows
#: with the jobs a run gets through).
WORKLOADS: dict[str, dict[str, int]] = {
    # About 100 comparisons per job: HTTP, the service state and the
    # per-generation rebuild dominate.  Closed loop of 2 clients.
    "http-small": {"n": 24, "u_n": 2, "clients": 2, "pool": 512, "warmup": 16,
                   "rss_jobs": 4000},
    # Fresh catalogs, cache off: the fused platform pass, the worker
    # decides and the core filter dominate.
    "fused-fresh": {"n": 1000, "u_n": 5, "u_e": 2, "generation": 32, "pool": 256, "warmup": 32,
                    "rss_jobs": 2048},
    # Four catalogs cycled through one shared memo cache, warmed by the
    # 16 warm-up jobs (every catalog with both query kinds): the cache
    # read path dominates.  Jobs on one catalog ask the same
    # pairs whatever their seed, so a warm cache answers every lookup;
    # one job in ``fresh_every`` brings a catalog the cache has not
    # seen, which keeps the miss path and the platform running (about
    # 1.5% of pairs) and the money spent above zero.
    "cache-hot": {
        "n": 500, "u_n": 5, "u_e": 2, "generation": 64, "pool": 4, "warmup": 16,
        "fresh_every": 64, "fresh_pool": 128, "rss_jobs": 1024,
    },
    # A fresh durable store per generation: every lookup misses, so the
    # cache write path, SQLite write-through and journal commits run.
    "durable-cold": {"n": 300, "u_n": 5, "u_e": 2, "generation": 32, "pool": 64, "warmup": 8,
                     "rss_jobs": 320},
}

#: Every ``TOPK_EVERY``-th job is a TOP-``TOPK_K`` query (3 MAX : 1 TOP-3).
TOPK_EVERY = 4
TOPK_K = 3


@dataclass(frozen=True)
class Catalog:
    """One item catalog and the facts the output checks need."""

    values: np.ndarray
    max_value: float


@dataclass(frozen=True)
class JobInput:
    """One job: which catalog, which query, which seed."""

    catalog: Catalog
    u_n: int
    kind: str
    k: int
    seed: int


@dataclass(frozen=True)
class Inputs:
    """A workload's generated inputs; :meth:`job` is the job stream."""

    workload: str
    seed: int
    params: dict[str, int]
    catalogs: tuple[Catalog, ...]
    #: cache-hot only: catalogs each used by a single job.
    fresh: tuple[Catalog, ...] = ()

    def job(self, index: int) -> JobInput:
        """The ``index``-th job of the run (deterministic in the seed)."""
        topk = index % TOPK_EVERY == TOPK_EVERY - 1
        fresh_every = self.params.get("fresh_every")
        if fresh_every and index % fresh_every == 0:
            catalog = self.fresh[(index // fresh_every) % len(self.fresh)]
        else:
            # The shift makes every catalog see both query kinds; 32
            # consecutive jobs still land on distinct catalogs of a
            # pool of at least 40.
            catalog = self.catalogs[(index + index // TOPK_EVERY) % len(self.catalogs)]
        return JobInput(
            catalog=catalog,
            u_n=self.params["u_n"],
            kind="topk" if topk else "max",
            k=TOPK_K if topk else 1,
            # Wire seeds must be non-negative ints; one block per run seed.
            seed=self.seed * 10_000_000 + index,
        )


def make_inputs(workload: str, seed: int) -> Inputs:
    """Generate every catalog of ``workload`` for ``seed`` (set-up work)."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    params = WORKLOADS[workload]
    rng = np.random.default_rng(np.random.SeedSequence([seed, _workload_id(workload)]))

    def catalogs(count: int) -> tuple[Catalog, ...]:
        made = []
        for _ in range(count):
            if workload == "http-small":
                values = rng.permutation(params["n"]).astype(float)
            else:
                values = _planted(params, rng)
            made.append(Catalog(values=values, max_value=float(values.max())))
        return tuple(made)

    return Inputs(
        workload=workload,
        seed=seed,
        params=params,
        catalogs=catalogs(params["pool"]),
        fresh=catalogs(params.get("fresh_pool", 0)),
    )


def _planted(params: dict[str, int], rng: np.random.Generator) -> np.ndarray:
    from repro.api import planted_instance

    instance = planted_instance(
        n=params["n"],
        u_n=params["u_n"],
        u_e=params["u_e"],
        delta_n=DELTA_N,
        delta_e=DELTA_E,
        rng=rng,
    )
    return np.asarray(instance.values, dtype=float)


def _workload_id(workload: str) -> int:
    return sorted(WORKLOADS).index(workload)
