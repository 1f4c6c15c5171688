"""Tests for fused tick settlement (cross-job batch fusion).

The tentpole contract (see docs/SCHEDULER.md): fused settlement —
all fast-path-eligible parked requests of a tick settled in one
platform pass per (pool, worker-model) group — is *bit-identical* to
executing each job alone on a private platform with the scheduler's
seeding.  Answers, money, judgment counts, and per-tenant ledgers must
all agree, across quanta, job mixes and fault plans (whose requests
the fast path cannot take, so they settle one at a time in the same
tick loop).  Jobs must speak the ``steps()`` protocol; anything else
is refused at submission.
"""

import numpy as np
import pytest

from repro.platform.faults import FaultPlan
from repro.platform.platform import CrowdPlatform
from repro.scheduler import CrowdScheduler
from repro.telemetry import Tracer
from repro.telemetry.names import EVENT_KINDS, SPAN_NAMES, TIMER_NAMES

from test_scheduler import make_catalogs, make_jobs, make_pools

N_JOBS = 6
FAULTS = {"no-faults": None, "abandon": FaultPlan(abandon_rate=0.2)}


def run_arm(
    seed=2015,
    quantum=None,
    cache=False,
    tracer=None,
    jobs=None,
    faults=None,
    tenants=None,
):
    scheduler = CrowdScheduler(
        make_pools(),
        root_seed=seed,
        cache=cache,
        quantum=quantum,
        faults=faults,
        tracer=tracer,
    )
    jobs = jobs if jobs is not None else make_jobs(make_catalogs(seed), n_jobs=N_JOBS)
    for k, job in enumerate(jobs):
        scheduler.submit(job, tenant=tenants(k) if tenants else "default")
    return scheduler, scheduler.run()


def job_facts(result, platform):
    """Answer, money, judgment count, and the platform's physical-step,
    fault and retry counters for one settled job."""
    return (
        tuple(result.answer),
        round(platform.ledger.total_cost, 9),
        platform.ledger.operations(),
        platform.physical_steps_total,
        platform.faults_injected_total,
        platform.retries_total,
    )


def per_job_facts(outcomes):
    """:func:`job_facts` of every outcome, keyed by admission index."""
    facts = {}
    for outcome in outcomes:
        assert outcome.result is not None, outcome.error
        facts[outcome.ticket.index] = job_facts(outcome.result, outcome.ticket.platform)
    return facts


def isolated_facts(jobs, seed=2015, faults=None):
    """Each job executed alone on a private platform, seeded as the
    scheduler seeds it (one root child per admission, split into
    algorithm + platform streams)."""
    root = np.random.SeedSequence(seed)
    facts = {}
    for index, job in enumerate(jobs):
        job_seed, platform_seed = root.spawn(1)[0].spawn(2)
        platform = CrowdPlatform(
            make_pools(), rng=np.random.default_rng(platform_seed), faults=faults
        )
        result = job.execute(platform, np.random.default_rng(job_seed))
        facts[index] = job_facts(result, platform)
    return facts


class LegacyJob:
    """A ``submit()/settle()``-only job — no ``steps`` attribute."""

    def __init__(self, job):
        self._job = job
        self.instance = job.instance
        self.kind = job.kind

    def submit(self, platform, rng, tracer=None):
        self._job.submit(platform, rng, tracer=tracer)
        return self

    def settle(self):
        return self._job.settle()


class SyncCallJob:
    """A ``steps()`` job that calls its platform synchronously instead
    of yielding the call as an ``OracleCall`` step."""

    def __init__(self, job):
        self.instance = job.instance
        self.kind = job.kind

    def submit(self, platform, rng, tracer=None):
        self._platform = platform
        return self

    def steps(self):
        self._platform.compare_batch(
            "crowd", np.array([0]), np.array([1]), np.array([0.0]), np.array([1.0])
        )
        yield  # pragma: no cover - never reached


class TestFusedParity:
    def test_fused_equals_isolated(self):
        """Fusion is invisible: same answers, same bill, same judgment
        and step counts as each job run alone with the scheduler's
        seeding."""
        isolated = isolated_facts(make_jobs(make_catalogs(), n_jobs=N_JOBS))
        _, fused = run_arm(quantum=None)
        assert per_job_facts(fused) == isolated

    @pytest.mark.parametrize("faults", sorted(FAULTS))
    @pytest.mark.parametrize("n_jobs", [1, 3, 6])
    @pytest.mark.parametrize("quantum", [4, 16, None])
    def test_fused_equals_isolated_matrix(self, quantum, n_jobs, faults):
        plan = FAULTS[faults]
        jobs = lambda: make_jobs(make_catalogs(), n_jobs=n_jobs)  # noqa: E731
        _, fused = run_arm(quantum=quantum, jobs=jobs(), faults=plan)
        assert per_job_facts(fused) == isolated_facts(jobs(), faults=plan)

    @pytest.mark.parametrize("n_jobs", [1, 3, 6])
    def test_parity_across_job_mixes(self, n_jobs):
        """The scheduler's default quantum (64) against isolation."""
        jobs = lambda: make_jobs(make_catalogs(), n_jobs=n_jobs)  # noqa: E731
        scheduler = CrowdScheduler(make_pools(), root_seed=2015, cache=False)
        for job in jobs():
            scheduler.submit(job)
        assert per_job_facts(scheduler.run()) == isolated_facts(jobs())

    def test_tenant_ledgers_match(self):
        """Each tenant's shared ledger bills exactly the sum of its
        jobs' isolated costs."""
        tenant_of = lambda k: "even" if k % 2 == 0 else "odd"  # noqa: E731
        jobs = lambda: make_jobs(make_catalogs(), n_jobs=4)  # noqa: E731
        scheduler, _ = run_arm(quantum=64, jobs=jobs(), tenants=tenant_of)
        expected = {"even": 0.0, "odd": 0.0}
        for index, facts in isolated_facts(jobs()).items():
            expected[tenant_of(index)] += facts[1]
        assert {
            tenant: round(scheduler.tenant_ledger(tenant).total_cost, 9)
            for tenant in expected
        } == {tenant: round(cost, 9) for tenant, cost in expected.items()}

    def test_fused_cached_run_is_reproducible(self):
        _, first = run_arm(cache=True)
        _, second = run_arm(cache=True)
        assert per_job_facts(first) == per_job_facts(second)


class TestJobProtocol:
    def test_job_without_steps_is_refused_before_seeding(self):
        jobs = make_jobs(make_catalogs(), n_jobs=2)
        reference = CrowdScheduler(make_pools(), root_seed=2015)
        expected = reference.submit(jobs[0]).rng.random(4)

        scheduler = CrowdScheduler(make_pools(), root_seed=2015, max_pending=1)
        with pytest.raises(TypeError, match="steps"):
            scheduler.submit(LegacyJob(jobs[1]))
        ticket = scheduler.submit(jobs[0])
        assert ticket.index == 0
        np.testing.assert_array_equal(ticket.rng.random(4), expected)
        # The protocol check precedes backpressure on a full queue too.
        with pytest.raises(TypeError, match="steps"):
            scheduler.submit(LegacyJob(jobs[1]))

    def test_synchronous_platform_call_fails_the_job(self):
        job = make_jobs(make_catalogs(), n_jobs=1)[0]
        _, outcomes = run_arm(jobs=[SyncCallJob(job)])
        (outcome,) = outcomes
        assert outcome.status == "failed"
        assert isinstance(outcome.error, RuntimeError)
        assert "synchronous compare_batch" in str(outcome.error)
        assert outcome.cost == 0.0


class TestFusionTelemetry:
    def test_names_are_declared(self):
        assert "batch_fused" in EVENT_KINDS
        assert {
            "scheduler.tick.settle",
            "scheduler.tick.scatter",
            "scheduler.tick.resume",
        } <= SPAN_NAMES
        assert {
            "scheduler.tick.settle.duration",
            "scheduler.tick.scatter.duration",
            "scheduler.tick.resume.duration",
        } <= TIMER_NAMES

    def test_fused_run_emits_batch_fused_and_phase_spans(self):
        tracer = Tracer()
        run_arm(quantum=None, tracer=tracer)
        fused = tracer.records_of_kind("batch_fused")
        assert fused, "no batch_fused event in a fused run"
        assert all(r["requests"] >= 1 and r["judgments"] >= 1 for r in fused)
        spans = {r.get("span") for r in tracer.records_of_kind("span_start")}
        assert {
            "scheduler.tick.settle",
            "scheduler.tick.scatter",
            "scheduler.tick.resume",
        } <= spans

    def test_serial_run_emits_no_batch_fused(self):
        """With a fault plan on, no request is fast-path eligible, so
        every one settles alone and nothing is fused."""
        tracer = Tracer()
        run_arm(quantum=None, tracer=tracer, faults=FAULTS["abandon"])
        assert tracer.records_of_kind("batch_fused") == []
        assert tracer.records_of_kind("scheduler_tick")
