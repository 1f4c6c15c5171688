"""The crowdsourcing platform simulator (stands in for CrowdFlower).

Implements the computation model of Section 3: algorithms submit
*batches* of pairwise comparisons (one batch per logical step); the
platform plays out a sequence of *physical steps*, in each of which a
random subset of the pool's workers is active and each active worker
judges one pair.  Quality control follows Section 3.1: a configurable
fraction of judgments are *gold probes* with known ground truth, and a
worker whose gold accuracy drops below the ban threshold is banned and
has all of her judgments discarded (and re-collected from others).

Presentation order is randomised per judgment — each worker sees the
pair in a random left/right order — which neutralises position-biased
spammers (see :class:`repro.workers.spammer.LazyFirstModel`).

Every judgment is paid, including gold probes and judgments later
discarded for spam: detecting a spammer costs real money, exactly as on
the real platform.

Beyond the paper's model, the platform carries a resilience layer (see
``docs/RELIABILITY.md``): a :class:`~repro.platform.faults.FaultPlan`
injects reproducible worker faults (abandonment, stragglers, offline
windows, malformed judgments), a
:class:`~repro.platform.faults.RetryPolicy` governs re-assignment,
deadlines and fallback pools, and ``submit_batch`` *always* settles —
tasks that cannot be completed are flagged ``degraded`` on a per-task
:class:`~repro.platform.job.TaskReport` instead of a stall error
throwing away collected work.  With no faults and no caps the paper
path is untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..telemetry import Tracer, resolve_tracer
from ..workers.base import WorkerModel
from .accounting import CostLedger
from .errors import CostCapError, DegradedBatchError
from .faults import FaultPlan, RetryPolicy
from .gold import GoldPolicy
from .job import BatchReport, ComparisonTask, Judgment, TaskReport
from .workforce import SimulatedWorker, WorkerPool

__all__ = ["CrowdPlatform", "FastBatchPlan", "fast_model_groups"]

#: Graceful defaults: unlimited attempts, no deadline, settle degraded.
_DEFAULT_RETRY = RetryPolicy()

#: Uniform variates reserved per judgment on the vectorized fast path:
#: [presentation flip, model draw, model draw, majority-tie coin].
#: Exactly one Philox block (``advance(1)`` = 4 doubles), so judgment
#: ``t``'s block starts at counter ``t`` — the whole RNG discipline.
_FAST_UNIFORM_WIDTH = 4


@dataclass
class _BatchState:
    """Mutable per-batch bookkeeping for one ``submit_batch`` call."""

    tasks: list[ComparisonTask]
    #: Kept judgments per task and the workers who produced them.
    kept: dict[int, list[Judgment]] = field(default_factory=dict)
    judged_by: dict[int, set[int]] = field(default_factory=dict)
    #: Early-settled (degraded) tasks: task id -> reason.
    settled: dict[int, str] = field(default_factory=dict)
    #: Failed assignments (abandoned / malformed) per task.
    failures: dict[int, int] = field(default_factory=dict)
    #: Backoff: task not re-assignable before this physical step.
    not_before: dict[int, int] = field(default_factory=dict)
    #: In-flight straggler judgments: (arrival step, judgment).
    pending: list[tuple[int, Judgment]] = field(default_factory=list)
    #: Worker offline windows: worker id -> first step online again.
    offline_until: dict[int, int] = field(default_factory=dict)
    discarded: int = 0
    malformed: int = 0
    lost_late: int = 0
    retries: int = 0
    faults: int = 0
    banned_ids: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.kept = {t.task_id: [] for t in self.tasks}
        self.judged_by = {t.task_id: set() for t in self.tasks}
        self.failures = {t.task_id: 0 for t in self.tasks}

    def open_tasks(self) -> list[ComparisonTask]:
        """Tasks still collecting: not settled, below their requirement."""
        return [
            t
            for t in self.tasks
            if t.task_id not in self.settled
            and len(self.kept[t.task_id]) < t.required_judgments
        ]

    def deficit(self, task: ComparisonTask) -> int:
        return task.required_judgments - len(self.kept[task.task_id])

    def pending_for(self, task_id: int) -> int:
        return sum(1 for _, j in self.pending if j.task_id == task_id)

    def settle(self, task: ComparisonTask, reason: str) -> None:
        if task.task_id not in self.settled:
            self.settled[task.task_id] = reason


@dataclass
class FastBatchPlan:
    """Array-level state of one prepared fast-path batch.

    ``fast_batch_prepare`` reserves this batch's slice of the
    platform's Philox judgment stream and computes everything that
    depends only on the platform's own counters: which uniforms each
    judgment reads, which worker position it lands on, and the flipped
    pair each worker is shown.  The plan can then be *decided* (the
    only model-dependent part) and *finalized* (majority answers,
    charges, counters) separately — which is what lets the scheduler
    fuse many tenants' plans into one decide call per worker model
    while each tenant keeps its own counter stream.
    """

    n_tasks: int
    required: np.ndarray
    task_of: np.ndarray
    n_judgments: int
    uniforms: np.ndarray
    worker_pos: np.ndarray
    flip: np.ndarray
    shown_vi: np.ndarray
    shown_vj: np.ndarray
    shown_ii: np.ndarray
    shown_jj: np.ndarray


def fast_model_groups(pool: WorkerPool) -> tuple[list[WorkerModel], np.ndarray]:
    """Distinct worker models of ``pool`` and each worker's group index.

    Returns ``(models, group_of_worker)`` where ``group_of_worker[p]``
    is the position in ``models`` of worker ``p``'s model.  Grouping is
    by model *identity*: pools routinely share one model object across
    many workers, and the fused scheduler path relies on tenant views
    of one pool resolving to the same groups.
    """
    workers = pool.workers
    model_index: dict[int, int] = {}
    models: list[WorkerModel] = []
    group_of_worker = np.empty(len(workers), dtype=np.intp)
    for pos, worker in enumerate(workers):
        key = id(worker.model)
        if key not in model_index:
            model_index[key] = len(models)
            models.append(worker.model)
        group_of_worker[pos] = model_index[key]
    return models, group_of_worker


class CrowdPlatform:
    """A simulated crowdsourcing platform with pools, gold, and accounting.

    Parameters
    ----------
    pools:
        Worker pools by name (typically ``{"naive": ..., "expert": ...}``).
    rng:
        Randomness source for availability, assignment, tie breaks —
        and fault injection, so a seeded run reproduces its faults.
    ledger:
        Cost ledger charged per judgment; a private one is created when
        omitted.  Give it a ``hard_cap`` to enforce a budget mid-flight
        (a refused charge raises :class:`CostCapError`).
    gold:
        Optional gold/quality-control policy, applied to every pool.
    faults:
        Optional fault-injection plan.  ``None`` (or an all-zero plan)
        injects nothing and leaves the RNG stream untouched.
    retry:
        Default retry policy for every batch; individual
        ``submit_batch`` calls may override it.  Defaults to graceful
        settling with unlimited attempts and no deadline.
    vectorized:
        Enable the batched fast path: when a batch needs none of the
        resilience machinery (no gold, no active faults, no deadline /
        attempt limit / fallback pool, no hard cap, no bans, full
        availability, every model supports uniform-driven decisions),
        the whole batch is settled from ndarrays — one vectorized
        decide per worker model — instead of the physical-step loop.
        Judgment-level draws then come from a private counter-based
        Philox stream (see ``docs/PERFORMANCE.md``), so fast-path
        results are deterministic and invariant to how a task sequence
        is split into batches, but *not* bit-identical to the step
        loop's draws.  Set ``False`` to force the step loop everywhere.
    tracer:
        Telemetry tracer; one ``platform_batch`` record is emitted per
        logical step (batch submitted), plus ``fault_injected`` /
        ``task_retry`` / ``batch_degraded`` / ``budget_breach`` events
        as the resilience layer acts.  Defaults to the ambient tracer
        (a no-op unless activated).
    """

    def __init__(
        self,
        pools: dict[str, WorkerPool],
        rng: np.random.Generator,
        ledger: CostLedger | None = None,
        gold: GoldPolicy | None = None,
        faults: FaultPlan | None = None,
        retry: RetryPolicy | None = None,
        tracer: Tracer | None = None,
        vectorized: bool = True,
    ):
        if not pools:
            raise ValueError("the platform needs at least one worker pool")
        self.pools = dict(pools)
        self.rng = rng
        self.ledger = ledger if ledger is not None else CostLedger()
        self.gold = gold
        self.faults = faults
        self.retry = retry if retry is not None else _DEFAULT_RETRY
        self.tracer = resolve_tracer(tracer)
        self.vectorized = vectorized
        #: Logical steps executed (batches submitted).
        self.logical_steps = 0
        #: Physical steps executed across all batches.
        self.physical_steps_total = 0
        #: Batches settled by the vectorized fast path.
        self.fast_batches_total = 0
        #: All judgments ever kept (for audit/debugging).
        self.judgment_log: list[Judgment] = []
        #: Aggregate resilience counters across all batches.
        self.faults_injected_total = 0
        self.tasks_degraded_total = 0
        self.retries_total = 0
        # Counter-based stream for fast-path judgments: the key is
        # drawn lazily from the platform RNG at first use (one draw),
        # after which judgment ``t`` always reads Philox block ``t`` —
        # independent of batch boundaries.
        self._fast_key: int | None = None
        self._fast_seq = 0
        #: ``(key, generator, its counter-0 state)`` for ``_fast_key``:
        #: building a Philox draws OS entropy first, so it is built once
        #: per key and rewound instead.
        self._fast_stream: tuple[int, np.random.Generator, dict] | None = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def compare_batch(
        self,
        pool_name: str,
        indices_i: np.ndarray,
        indices_j: np.ndarray,
        values_i: np.ndarray,
        values_j: np.ndarray,
        judgments_per_task: int = 1,
    ) -> tuple[np.ndarray, BatchReport]:
        """Submit one batch of comparisons; return majority answers.

        Returns the boolean answer array (``True`` = first element of
        the pair wins) plus the execution report.
        """
        tasks = [
            ComparisonTask(
                task_id=k,
                first=int(indices_i[k]),
                second=int(indices_j[k]),
                value_first=float(values_i[k]),
                value_second=float(values_j[k]),
                required_judgments=judgments_per_task,
            )
            for k in range(len(indices_i))
        ]
        report = self.submit_batch(pool_name, tasks)
        return np.asarray(report.answers, dtype=bool), report

    def submit_batch(
        self,
        pool_name: str,
        tasks: list[ComparisonTask],
        retry: RetryPolicy | None = None,
    ) -> BatchReport:
        """Execute one logical step: collect judgments for ``tasks``.

        Always settles: every task either completes with its required
        judgments or is flagged ``degraded`` on its
        :class:`~repro.platform.job.TaskReport` with the judgments that
        *were* kept.  The only exceptions that can escape are typed —
        :class:`CostCapError` when the ledger's hard cap refuses a
        charge (collected work is flushed to the judgment log first)
        and :class:`DegradedBatchError` when the retry policy is strict
        (``on_degraded="raise"``; the fully-settled report rides on the
        exception).
        """
        pool = self._pool(pool_name)
        policy = retry if retry is not None else self.retry
        if not tasks:
            return BatchReport(
                answers=[], physical_steps=0, judgments_collected=0, judgments_discarded=0
            )
        fallback = self._fallback_pool(pool_name, policy)
        max_required = max(task.required_judgments for task in tasks)
        capacity = len(pool.workers) + (len(fallback.workers) if fallback else 0)
        if max_required > capacity:
            raise ValueError(
                f"tasks require {max_required} distinct judgments but pool "
                f"{pool_name!r} has only {len(pool.workers)} workers"
                + (f" (+{len(fallback.workers)} fallback)" if fallback else "")
            )

        self.logical_steps += 1
        plan = self.faults if (self.faults is not None and self.faults.active) else None
        if self._fast_path_ok(pool, policy, fallback, plan, tasks, max_required):
            return self._submit_batch_vectorized(pool, tasks)
        state = _BatchState(tasks=tasks)

        total_needed = sum(task.required_judgments for task in tasks)
        # Generous stall guard: availability, gold probes, bans and
        # faults slow collection down but cannot legitimately exceed
        # this budget; reaching it settles the batch instead of raising.
        max_steps = 200 + 50 * total_needed
        physical_steps = 0
        try:
            while state.open_tasks():
                if (
                    policy.deadline_steps is not None
                    and physical_steps >= policy.deadline_steps
                ):
                    self._settle_remaining(state, "deadline")
                    break
                if physical_steps >= max_steps:
                    self._settle_remaining(state, "stalled")
                    break
                physical_steps += 1
                self.physical_steps_total += 1
                self._deliver_stragglers(state, physical_steps)
                self._settle_unsatisfiable(state, pool, fallback)
                open_tasks = state.open_tasks()
                if not open_tasks:
                    continue
                active = self._sample_active(pool, plan, state, physical_steps)
                if active:
                    self.rng.shuffle(active)  # type: ignore[arg-type]
                    self._run_assignment_pass(
                        pool, active, open_tasks, state, plan, policy, physical_steps
                    )
                if fallback is not None:
                    self._run_fallback_pass(
                        pool, fallback, state, plan, policy, physical_steps
                    )
        except CostCapError:
            # Budget breach mid-batch: preserve all collected work, make
            # the breach observable, and let the typed error propagate.
            self._flush_judgments(state)
            if self.tracer.enabled:
                self.tracer.event(
                    "budget_breach",
                    pool=pool_name,
                    cap=self.ledger.hard_cap,
                    spent=self.ledger.total_cost,
                    physical_steps=physical_steps,
                )
            raise

        report = self._settle_batch(state, pool_name, physical_steps)
        if report.degraded and policy.on_degraded == "raise":
            raise DegradedBatchError(report)
        return report

    # ------------------------------------------------------------------
    # The vectorized fast path
    # ------------------------------------------------------------------
    def _fast_path_ok(
        self,
        pool: WorkerPool,
        policy: RetryPolicy,
        fallback: WorkerPool | None,
        plan: FaultPlan | None,
        tasks: list[ComparisonTask],
        max_required: int,
    ) -> bool:
        """Whether this batch can settle without the physical-step loop.

        The fast path reproduces the step loop's *outcomes* (judgments
        collected, distinct workers per task, costs, majority answers)
        but none of its failure handling, so every feature that can
        alter collection mid-flight forces the step loop.
        """
        if plan is not None or fallback is not None:
            return False
        if any(task.is_gold for task in tasks):
            return False
        return self._fast_path_state_ok(pool, policy, max_required)

    def _fast_path_state_ok(
        self, pool: WorkerPool, policy: RetryPolicy, max_required: int
    ) -> bool:
        """The task-independent half of the fast-path eligibility check."""
        if not self.vectorized:
            return False
        if self.gold is not None:
            return False
        if policy.deadline_steps is not None or policy.max_attempts is not None:
            return False
        if self.ledger.hard_cap is not None:
            return False
        if pool.availability < 1.0:
            return False
        workers = pool.workers
        if max_required > len(workers):
            return False
        if any(worker.banned for worker in workers):
            return False
        seen: set[int] = set()
        for worker in workers:
            key = id(worker.model)
            if key in seen:
                continue
            seen.add(key)
            if not worker.model.supports_uniform_decide():
                return False
        return True

    def fast_path_eligible(self, pool_name: str, judgments_per_task: int) -> bool:
        """Whether a plain comparison batch would take the fast path.

        The array-level twin of ``_fast_path_ok`` for callers (the
        scheduler's fused settlement) that have no ``ComparisonTask``
        objects yet: scheduler requests are never gold, so only the
        platform/pool state matters.  Must stay conservative — a
        ``True`` here promises that ``submit_batch`` on the same
        request would have settled via ``_submit_batch_vectorized``.
        """
        pool = self._pool(pool_name)
        policy = self.retry
        if self.faults is not None and self.faults.active:
            return False
        if self._fallback_pool(pool_name, policy) is not None:
            return False
        return self._fast_path_state_ok(pool, policy, judgments_per_task)

    def _fast_uniforms(self, start: int, count: int) -> np.ndarray:
        """Uniform blocks for judgments ``start .. start + count``.

        One Philox block (4 doubles) per judgment: ``advance(t)`` skips
        exactly ``t`` blocks, so the variates a judgment consumes are a
        function of its global sequence number alone — splitting a task
        stream into different batches cannot change any outcome.
        """
        if self._fast_key is None:
            self._fast_key = int(self.rng.integers(0, 2**63))
        if self._fast_stream is None or self._fast_stream[0] != self._fast_key:
            bits = np.random.Philox(key=self._fast_key)
            self._fast_stream = (self._fast_key, np.random.Generator(bits), bits.state)
        _, generator, origin = self._fast_stream
        generator.bit_generator.state = origin
        generator.bit_generator.advance(start)
        return generator.random(count * _FAST_UNIFORM_WIDTH).reshape(
            count, _FAST_UNIFORM_WIDTH
        )

    def _submit_batch_vectorized(
        self, pool: WorkerPool, tasks: list[ComparisonTask]
    ) -> BatchReport:
        """Settle one fault-free batch from ndarrays, no step loop.

        Workers are assigned round-robin over the global judgment
        sequence: judgment ``q`` goes to worker ``q mod P``.  A task's
        judgments are consecutive, so its workers are distinct whenever
        ``required_judgments <= P`` (checked by ``_fast_path_ok``), and
        the rotation carries across batches like the step loop's
        round-robin fairness.
        """
        required = np.array([t.required_judgments for t in tasks], dtype=np.intp)
        plan = self.fast_batch_prepare(
            pool,
            np.array([t.first for t in tasks], dtype=np.intp),
            np.array([t.second for t in tasks], dtype=np.intp),
            np.array([t.value_first for t in tasks]),
            np.array([t.value_second for t in tasks]),
            required,
            count_logical_step=False,
        )
        raw = self.fast_batch_decide(pool, plan)
        _, report = self.fast_batch_finalize(pool, plan, raw, tasks=tasks)
        return report

    def fast_batch_prepare(
        self,
        pool: WorkerPool,
        index_first: np.ndarray,
        index_second: np.ndarray,
        values_first: np.ndarray,
        values_second: np.ndarray,
        required: np.ndarray,
        count_logical_step: bool = True,
    ) -> FastBatchPlan:
        """Reserve this batch's judgment stream and lay out its arrays.

        Advances ``_fast_seq`` (and, for external callers, the logical
        step counter — ``submit_batch`` counts its own) and computes
        everything that depends only on this platform's counters.  The
        fused scheduler path prepares many tenants' batches up front —
        each against its own Philox key and sequence — before a single
        shared decide pass.
        """
        workers = pool.workers
        n_workers = len(workers)
        n_tasks = len(index_first)
        if count_logical_step:
            self.logical_steps += 1
        n_judgments = int(required.sum())
        task_of = np.repeat(np.arange(n_tasks, dtype=np.intp), required)

        base = self._fast_seq
        self._fast_seq += n_judgments
        uniforms = self._fast_uniforms(base, n_judgments)
        worker_pos = (base + np.arange(n_judgments)) % n_workers

        vf = np.asarray(values_first)[task_of]
        vs = np.asarray(values_second)[task_of]
        i_f = np.asarray(index_first, dtype=np.intp)[task_of]
        i_s = np.asarray(index_second, dtype=np.intp)[task_of]

        # Randomised presentation order per judgment, as in the step
        # loop: the model sees the flipped pair and the answer is
        # flipped back.
        flip = uniforms[:, 0] < 0.5
        return FastBatchPlan(
            n_tasks=n_tasks,
            required=required,
            task_of=task_of,
            n_judgments=n_judgments,
            uniforms=uniforms,
            worker_pos=worker_pos,
            flip=flip,
            shown_vi=np.where(flip, vs, vf),
            shown_vj=np.where(flip, vf, vs),
            shown_ii=np.where(flip, i_s, i_f),
            shown_jj=np.where(flip, i_f, i_s),
        )

    def fast_batch_decide(self, pool: WorkerPool, plan: FastBatchPlan) -> np.ndarray:
        """Raw model answers for one prepared plan.

        One vectorized decide per distinct worker model; each judgment
        consumes its own uniform block regardless of grouping, so the
        grouping order cannot affect outcomes.
        """
        models, group_of_worker = fast_model_groups(pool)
        model_uniforms = plan.uniforms[:, 1:3]
        if len(models) == 1:
            return np.asarray(
                models[0].decide_from_uniforms(
                    plan.shown_vi,
                    plan.shown_vj,
                    model_uniforms,
                    indices_i=plan.shown_ii,
                    indices_j=plan.shown_jj,
                ),
                dtype=bool,
            )
        raw = np.empty(plan.n_judgments, dtype=bool)
        judgment_group = group_of_worker[plan.worker_pos]
        for gid, model in enumerate(models):
            members = np.flatnonzero(judgment_group == gid)
            if not len(members):
                continue
            raw[members] = model.decide_from_uniforms(
                plan.shown_vi[members],
                plan.shown_vj[members],
                model_uniforms[members],
                indices_i=plan.shown_ii[members],
                indices_j=plan.shown_jj[members],
            )
        return raw

    def fast_batch_finalize(
        self,
        pool: WorkerPool,
        plan: FastBatchPlan,
        raw: np.ndarray,
        tasks: list[ComparisonTask] | None = None,
    ) -> tuple[np.ndarray, BatchReport]:
        """Majority answers, charges and counters for a decided plan.

        With ``tasks`` the full per-judgment audit trail (judgment log,
        per-task reports, listed answers) is produced — the serial
        ``submit_batch`` contract.  Without ``tasks`` (the fused
        scheduler path, which never reads them) those allocations are
        skipped and a lightweight report carries the aggregate totals;
        the answers ndarray is the result either way.  The ledger is
        charged *before* any counter moves, so a ``CostCapError`` from
        a capped tenant ledger leaves the same partial state as the
        serial fast path.
        """
        workers = pool.workers
        n_workers = len(workers)
        n_judgments = plan.n_judgments
        first_wins = raw ^ plan.flip

        # Majority answers; ties use the judgment block's spare coin
        # (the task's first judgment), never the platform RNG.
        votes_first = np.bincount(plan.task_of[first_wins], minlength=plan.n_tasks)
        first_row = np.concatenate(([0], np.cumsum(plan.required)[:-1]))
        tie_coin = plan.uniforms[first_row, 3] < 0.5
        answers = np.where(
            2 * votes_first == plan.required, tie_coin, 2 * votes_first > plan.required
        )

        # Bookkeeping parity with the step loop: charges, physical
        # steps, per-worker tallies, and the audit log all match what
        # an all-active round-robin collection would record.
        self.ledger.charge(pool.name, n_judgments, pool.cost_per_judgment)
        physical_steps = -(-n_judgments // n_workers)
        self.physical_steps_total += physical_steps
        self.fast_batches_total += 1
        per_worker = np.bincount(plan.worker_pos, minlength=n_workers)
        for pos, worker in enumerate(workers):
            worker.judgments_made += int(per_worker[pos])

        answers_list: list[bool] = []
        task_reports: list[TaskReport] = []
        if tasks is not None:
            steps = np.arange(n_judgments) // n_workers + 1
            worker_ids = np.array([w.worker_id for w in workers], dtype=np.intp)
            judgment_workers = worker_ids[plan.worker_pos]
            self.judgment_log.extend(
                Judgment(
                    task_id=tasks[plan.task_of[q]].task_id,
                    worker_id=int(judgment_workers[q]),
                    first_wins=bool(first_wins[q]),
                    physical_step=int(steps[q]),
                    is_gold=False,
                )
                for q in range(n_judgments)
            )
            answers_list = [bool(a) for a in answers]
            task_reports = [
                TaskReport(
                    task_id=task.task_id,
                    status="ok",
                    reason="",
                    judgments_kept=task.required_judgments,
                    required_judgments=task.required_judgments,
                    attempts_failed=0,
                )
                for task in tasks
            ]
        if self.tracer.enabled:
            self.tracer.event(
                "platform_batch",
                pool=pool.name,
                tasks=plan.n_tasks,
                physical_steps=physical_steps,
                judgments_collected=n_judgments,
                judgments_discarded=0,
                workers_banned=0,
                faults_injected=0,
                tasks_degraded=0,
                fast_path=True,
            )
        report = BatchReport(
            answers=answers_list,
            physical_steps=physical_steps,
            judgments_collected=n_judgments,
            judgments_discarded=0,
            workers_banned=[],
            task_reports=task_reports,
            faults_injected=0,
            judgments_malformed=0,
            judgments_lost_late=0,
            retries=0,
        )
        return np.asarray(answers, dtype=bool), report

    # ------------------------------------------------------------------
    # Batch execution internals
    # ------------------------------------------------------------------
    def _run_assignment_pass(
        self,
        pool: WorkerPool,
        active: list[SimulatedWorker],
        open_tasks: list[ComparisonTask],
        state: _BatchState,
        plan: FaultPlan | None,
        policy: RetryPolicy,
        physical_steps: int,
    ) -> None:
        """One physical step's worth of assignments for one pool."""
        for worker in active:
            if worker.banned:
                continue
            if self.gold is not None and self.gold.should_inject(self.rng):
                newly_banned = self._run_gold_probe(pool, worker, physical_steps)
                if newly_banned:
                    state.banned_ids.append(worker.worker_id)
                    state.discarded += self._discard_judgments(worker.worker_id, state)
                continue
            task = self._next_task_for(worker, open_tasks, state, physical_steps)
            if task is None:
                continue
            fault = (
                plan.roll_assignment(self.rng)
                if plan is not None and plan.has_assignment_faults
                else None
            )
            if fault is None:
                judgment = self._collect_judgment(pool, worker, task, physical_steps)
                state.kept[task.task_id].append(judgment)
                state.judged_by[task.task_id].add(worker.worker_id)
                continue
            self._apply_assignment_fault(
                fault, pool, worker, task, state, plan, policy, physical_steps
            )

    def _apply_assignment_fault(
        self,
        fault: str,
        pool: WorkerPool,
        worker: SimulatedWorker,
        task: ComparisonTask,
        state: _BatchState,
        plan: FaultPlan,
        policy: RetryPolicy,
        physical_steps: int,
    ) -> None:
        """Play out one rolled fault on one assignment."""
        state.faults += 1
        self.faults_injected_total += 1
        if self.tracer.enabled:
            self.tracer.event(
                "fault_injected",
                pool=pool.name,
                worker=worker.worker_id,
                task=task.task_id,
                fault=fault,
            )
        if fault == "straggle":
            # The judgment is produced (and paid) now but lands late;
            # the worker is committed, so she is never double-assigned.
            judgment = self._collect_judgment(pool, worker, task, physical_steps)
            state.judged_by[task.task_id].add(worker.worker_id)
            state.pending.append((physical_steps + plan.straggle_steps, judgment))
            return
        if fault == "malformed":
            # Paid work, unusable answer: judge (consuming the worker's
            # RNG draws), charge, then discard the judgment.
            self._collect_judgment(pool, worker, task, physical_steps)
            state.judged_by[task.task_id].add(worker.worker_id)
            state.malformed += 1
        # abandon: no judgment, no charge; the worker may retry later.
        self._record_failure(task, state, policy, physical_steps)

    def _record_failure(
        self,
        task: ComparisonTask,
        state: _BatchState,
        policy: RetryPolicy,
        physical_steps: int,
    ) -> None:
        """Count a failed assignment; back off or settle the task."""
        state.failures[task.task_id] += 1
        failures = state.failures[task.task_id]
        if policy.attempts_exhausted(failures):
            state.settle(task, "retries_exhausted")
            return
        state.retries += 1
        self.retries_total += 1
        backoff = policy.backoff_steps(failures)
        if backoff > 0:
            state.not_before[task.task_id] = physical_steps + backoff
        if self.tracer.enabled:
            self.tracer.event(
                "task_retry",
                task=task.task_id,
                failures=failures,
                not_before=state.not_before.get(task.task_id, physical_steps),
            )

    def _run_fallback_pass(
        self,
        pool: WorkerPool,
        fallback: WorkerPool,
        state: _BatchState,
        plan: FaultPlan | None,
        policy: RetryPolicy,
        physical_steps: int,
    ) -> None:
        """Serve primary-starved tasks from the fallback pool."""
        starved = [
            t
            for t in state.open_tasks()
            if self._eligible_count(pool, t, state) + state.pending_for(t.task_id)
            < state.deficit(t)
        ]
        if not starved:
            return
        active = self._sample_active(fallback, plan, state, physical_steps)
        if not active:
            return
        self.rng.shuffle(active)  # type: ignore[arg-type]
        self._run_assignment_pass(
            fallback, active, starved, state, plan, policy, physical_steps
        )

    def _deliver_stragglers(self, state: _BatchState, physical_steps: int) -> None:
        """Land matured straggler judgments; drop ones whose task settled."""
        if not state.pending:
            return
        still_pending: list[tuple[int, Judgment]] = []
        for arrival, judgment in state.pending:
            if arrival > physical_steps:
                still_pending.append((arrival, judgment))
                continue
            task_id = judgment.task_id
            task = next(t for t in state.tasks if t.task_id == task_id)
            if (
                task_id in state.settled
                or len(state.kept[task_id]) >= task.required_judgments
            ):
                state.lost_late += 1
            else:
                state.kept[task_id].append(judgment)
        state.pending = still_pending

    def _settle_unsatisfiable(
        self, state: _BatchState, pool: WorkerPool, fallback: WorkerPool | None
    ) -> None:
        """Settle tasks no remaining workforce can ever complete.

        Mid-batch gold bans can drop the *unbanned* worker count below a
        task's outstanding requirement; the seed platform then spun
        until the stall guard fired, discarding everything.  Detect it
        and settle with the judgments already kept instead.
        """
        for task in state.open_tasks():
            eligible = self._eligible_count(pool, task, state)
            if fallback is not None:
                eligible += self._eligible_count(fallback, task, state)
            if eligible + state.pending_for(task.task_id) < state.deficit(task):
                state.settle(task, "pool_exhausted")

    def _eligible_count(
        self, pool: WorkerPool, task: ComparisonTask, state: _BatchState
    ) -> int:
        """Unbanned workers that could still judge ``task``."""
        judged = state.judged_by[task.task_id]
        return sum(
            1
            for w in pool.workers
            if not w.banned and w.worker_id not in judged
        )

    def _sample_active(
        self,
        pool: WorkerPool,
        plan: FaultPlan | None,
        state: _BatchState,
        physical_steps: int,
    ) -> list[SimulatedWorker]:
        """Sample ``W_t``, excluding workers inside an offline window."""
        if plan is None or plan.offline_rate <= 0.0:
            return pool.sample_active(self.rng)
        online: list[SimulatedWorker] = []
        for worker in pool.active_members:
            if state.offline_until.get(worker.worker_id, 0) > physical_steps:
                continue
            if plan.roll_offline(self.rng):
                state.offline_until[worker.worker_id] = (
                    physical_steps + plan.offline_steps
                )
                state.faults += 1
                self.faults_injected_total += 1
                if self.tracer.enabled:
                    self.tracer.event(
                        "fault_injected",
                        pool=pool.name,
                        worker=worker.worker_id,
                        task=-1,
                        fault="offline",
                    )
                continue
            online.append(worker)
        if pool.availability >= 1.0:
            return online
        mask = self.rng.random(len(online)) < pool.availability
        return [w for w, is_active in zip(online, mask) if is_active]

    def _settle_remaining(self, state: _BatchState, reason: str) -> None:
        """Settle every still-open task as degraded with ``reason``."""
        for task in state.open_tasks():
            state.settle(task, reason)
        if state.pending:
            state.lost_late += len(state.pending)
            state.pending = []

    def _flush_judgments(self, state: _BatchState) -> None:
        """Append every kept judgment to the platform audit log."""
        for task in state.tasks:
            self.judgment_log.extend(state.kept[task.task_id])

    def _settle_batch(
        self, state: _BatchState, pool_name: str, physical_steps: int
    ) -> BatchReport:
        """Answers, per-task reports, telemetry — the batch's epilogue."""
        answers = [
            self._majority_answer(state.kept[task.task_id]) for task in state.tasks
        ]
        collected = sum(len(v) for v in state.kept.values())
        self._flush_judgments(state)
        task_reports = [
            TaskReport(
                task_id=task.task_id,
                status="degraded" if task.task_id in state.settled else "ok",
                reason=state.settled.get(task.task_id, ""),
                judgments_kept=len(state.kept[task.task_id]),
                required_judgments=task.required_judgments,
                attempts_failed=state.failures[task.task_id],
            )
            for task in state.tasks
        ]
        degraded = [t for t in task_reports if t.status == "degraded"]
        self.tasks_degraded_total += len(degraded)
        if self.tracer.enabled:
            self.tracer.event(
                "platform_batch",
                pool=pool_name,
                tasks=len(state.tasks),
                physical_steps=physical_steps,
                judgments_collected=collected,
                judgments_discarded=state.discarded,
                workers_banned=len(state.banned_ids),
                faults_injected=state.faults,
                tasks_degraded=len(degraded),
                fast_path=False,
            )
            if degraded:
                reasons = sorted({t.reason for t in degraded})
                self.tracer.event(
                    "batch_degraded",
                    pool=pool_name,
                    tasks_degraded=len(degraded),
                    reasons=reasons,
                    judgments_kept=sum(t.judgments_kept for t in degraded),
                )
        return BatchReport(
            answers=answers,
            physical_steps=physical_steps,
            judgments_collected=collected,
            judgments_discarded=state.discarded,
            workers_banned=state.banned_ids,
            task_reports=task_reports,
            faults_injected=state.faults,
            judgments_malformed=state.malformed,
            judgments_lost_late=state.lost_late,
            retries=state.retries,
        )

    # ------------------------------------------------------------------
    # Shared internals
    # ------------------------------------------------------------------
    def _pool(self, pool_name: str) -> WorkerPool:
        try:
            return self.pools[pool_name]
        except KeyError:
            raise KeyError(
                f"unknown pool {pool_name!r}; available: {sorted(self.pools)}"
            ) from None

    def _fallback_pool(
        self, pool_name: str, policy: RetryPolicy
    ) -> WorkerPool | None:
        if policy.fallback_pool is None or policy.fallback_pool == pool_name:
            return None
        return self._pool(policy.fallback_pool)

    def _next_task_for(
        self,
        worker: SimulatedWorker,
        open_tasks: list[ComparisonTask],
        state: _BatchState,
        physical_steps: int,
    ) -> ComparisonTask | None:
        """Most judgment-starved assignable task; RNG breaks ties.

        A deterministic first-wins tie break would bias collection
        toward early list positions, so equal-deficit candidates are
        drawn uniformly (no RNG is consumed when there is no tie).
        """
        best: list[ComparisonTask] = []
        best_deficit = 0
        for task in open_tasks:
            if task.task_id in state.settled:
                continue
            if worker.worker_id in state.judged_by[task.task_id]:
                continue
            if state.not_before.get(task.task_id, 0) > physical_steps:
                continue
            deficit = state.deficit(task)
            if deficit > best_deficit:
                best = [task]
                best_deficit = deficit
            elif deficit == best_deficit and deficit > 0:
                best.append(task)
        if not best:
            return None
        if len(best) == 1:
            return best[0]
        return best[int(self.rng.integers(len(best)))]

    def _collect_judgment(
        self,
        pool: WorkerPool,
        worker: SimulatedWorker,
        task: ComparisonTask,
        physical_step: int,
    ) -> Judgment:
        """Ask one worker one task, with randomised presentation order."""
        if not self.ledger.can_afford(pool.cost_per_judgment):
            raise CostCapError(
                label=pool.name,
                attempted=pool.cost_per_judgment,
                cap=float(self.ledger.hard_cap),  # type: ignore[arg-type]
                spent=self.ledger.total_cost,
            )
        flip = bool(self.rng.random() < 0.5)
        if flip:
            raw = worker.judge(
                task.value_second, task.value_first, self.rng, task.second, task.first
            )
            first_wins = not raw
        else:
            first_wins = worker.judge(
                task.value_first, task.value_second, self.rng, task.first, task.second
            )
        self.ledger.charge(pool.name, 1, pool.cost_per_judgment)
        return Judgment(
            task_id=task.task_id,
            worker_id=worker.worker_id,
            first_wins=first_wins,
            physical_step=physical_step,
            is_gold=False,
        )

    def _run_gold_probe(
        self, pool: WorkerPool, worker: SimulatedWorker, physical_step: int
    ) -> bool:
        """Send the worker a gold pair; return True if she got banned."""
        assert self.gold is not None
        if not self.ledger.can_afford(pool.cost_per_judgment):
            raise CostCapError(
                label=f"gold:{pool.name}",
                attempted=pool.cost_per_judgment,
                cap=float(self.ledger.hard_cap),  # type: ignore[arg-type]
                spent=self.ledger.total_cost,
            )
        pair = self.gold.sample_pair(self.rng)
        flip = bool(self.rng.random() < 0.5)
        if flip:
            raw = worker.judge(
                pair.value_second, pair.value_first, self.rng, pair.second, pair.first
            )
            first_wins = not raw
        else:
            first_wins = worker.judge(
                pair.value_first, pair.value_second, self.rng, pair.first, pair.second
            )
        self.ledger.charge(f"gold:{pool.name}", 1, pool.cost_per_judgment)
        correct = first_wins == pair.first_wins
        return self.gold.record_and_check(worker, correct)

    def _discard_judgments(self, worker_id: int, state: _BatchState) -> int:
        """Drop all judgments of a banned worker; return the count.

        The affected tasks fall below their required judgment count and
        will be re-collected from other workers in later physical steps
        (the banned worker stays recorded in ``judged_by`` so she is
        never re-assigned).  In-flight straggler judgments of the
        banned worker are dropped too.
        """
        dropped = 0
        for task_id, judgments in state.kept.items():
            before = len(judgments)
            state.kept[task_id] = [j for j in judgments if j.worker_id != worker_id]
            dropped += before - len(state.kept[task_id])
        if state.pending:
            before = len(state.pending)
            state.pending = [
                (a, j) for a, j in state.pending if j.worker_id != worker_id
            ]
            dropped += before - len(state.pending)
        return dropped

    def _majority_answer(self, judgments: list[Judgment]) -> bool:
        """Majority of kept judgments; ties broken by a fair coin."""
        first_votes = sum(1 for j in judgments if j.first_wins)
        second_votes = len(judgments) - first_votes
        if first_votes == second_votes:
            return bool(self.rng.random() < 0.5)
        return first_votes > second_votes
