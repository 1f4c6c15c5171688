"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import gc
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks, coldstart, hostspeed  # noqa: E402
from perfbench.inputs import WORKLOADS, make_inputs  # noqa: E402
from perfbench.layers import Recorder  # noqa: E402
from perfbench.workloads import Sample  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Inputs are a function of the seed
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_inputs_are_deterministic_for_a_seed(workload):
    a, b, other = make_inputs(workload, 7), make_inputs(workload, 7), make_inputs(workload, 8)
    for index in range(70):
        ja, jb = a.job(index), b.job(index)
        assert (ja.kind, ja.k, ja.seed, ja.u_n) == (jb.kind, jb.k, jb.seed, jb.u_n)
        assert np.array_equal(ja.catalog.values, jb.catalog.values)
    assert not np.array_equal(a.catalogs[0].values, other.catalogs[0].values)
    assert a.job(0).seed != other.job(0).seed


def test_job_stream_mix_and_distinct_generation_catalogs():
    inputs = make_inputs("fused-fresh", 3)
    jobs = [inputs.job(i) for i in range(32)]
    assert [j.kind for j in jobs].count("topk") == 8
    assert len({id(j.catalog) for j in jobs}) == 32
    assert len({j.seed for j in jobs}) == 32


# ----------------------------------------------------------------------
# Each output check fails on a tampered result
# ----------------------------------------------------------------------
def test_naive_bound_check():
    job = make_inputs("http-small", 1).job(0)
    limit = 4 * len(job.catalog.values) * job.u_n
    assert checks.naive_bound_ok(job, limit)
    assert not checks.naive_bound_ok(job, limit + 1)


def test_bound_met_check():
    job = make_inputs("fused-fresh", 1).job(0)
    values = job.catalog.values
    assert checks.bound_met(job, int(np.argmax(values)))
    assert not checks.bound_met(job, int(np.argmin(values)))
    assert not checks.bound_met(job, len(values))


def test_http_parity_check_fails_on_tampered_payload():
    job = make_inputs("http-small", 1).job(5)
    result, _ = checks.execute_private(checks.job_spec(job).build_job(), job.seed)
    payload = result.to_dict()
    assert checks.http_parity(job, payload)
    assert not checks.http_parity(job, dict(payload, total_cost=payload["total_cost"] + 1.0))
    assert not checks.http_parity(job, dict(payload, answer=[payload["answer"][0] + 1]))
    assert not checks.http_parity(job, None)


def _scheduled(job):
    from repro.api import CrowdScheduler
    from repro.service_http.runner import default_pool_factory

    scheduler = CrowdScheduler(default_pool_factory(), root_seed=0, cache=False, quantum=None)
    scheduler.submit(checks.build_job(job), seed=job.seed)
    (outcome,) = scheduler.run()
    return checks.Settled(
        answer=tuple(outcome.result.answer),
        total_cost=float(outcome.result.total_cost),
        ledger=checks.ledger_entries(outcome.ticket.platform.ledger),
    )


def test_fused_parity_check_fails_on_tampered_outcome():
    job = make_inputs("fused-fresh", 2).job(3)
    settled = _scheduled(job)
    assert checks.fused_parity(job, settled)
    label, (ops, money) = next(iter(settled.ledger.items()))
    tampered = [
        checks.Settled(settled.answer[::-1] + (0,), settled.total_cost, settled.ledger),
        checks.Settled(settled.answer, settled.total_cost * 2, settled.ledger),
        checks.Settled(
            settled.answer, settled.total_cost, dict(settled.ledger, **{label: (ops + 1, money)})
        ),
    ]
    for bad in tampered:
        assert not checks.fused_parity(job, bad)


def test_tally_counts_each_failed_check():
    job = make_inputs("fused-fresh", 1).job(0)
    values = job.catalog.values
    sample = Sample()
    assert sample.tally(job, [int(np.argmax(values))], 1.0, 10, 2)
    assert not sample.tally(job, [int(np.argmin(values))], 1.0, 10**9, 2)
    assert sample.ok == 2 and sample.bound_met == 1
    assert sample.failures == {"naive_bound": 1, "bound_missed": 1}


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
def test_reference_kernel_restores_the_collector():
    assert gc.isenabled()
    assert hostspeed.reference_s() > 0
    assert gc.isenabled()


def test_timed_stretch_is_scaled_by_the_host_factor(monkeypatch):
    slow = 2 * hostspeed.REFERENCE_S  # the host runs at half reference speed
    monkeypatch.setattr(hostspeed, "reference_s", lambda: slow)
    sample = Sample()

    def stretch():
        sample.ok += 4
        sample.latencies.append(0.5)

    assert sample.timed(stretch, slow) == slow
    ((wall, _cpu, jobs, factor),) = sample.stretches
    assert jobs == 4 and factor == 0.5
    assert sample.scaled_latencies == [0.25]
    assert sample.rate() == pytest.approx(4 / (0.5 * wall))


# ----------------------------------------------------------------------
# Layer recording
# ----------------------------------------------------------------------
def test_recorder_self_time_and_parents():
    r = Recorder()
    for kind, span, dur in [
        ("span_start", "scheduler.run", None),
        ("span_start", "scheduler.tick.settle", None),
        ("span_end", "scheduler.tick.settle", 0.25),
        ("span_start", "job.max", None),  # not a recorded span
        ("span_end", "job.max", 9.0),
        ("span_end", "scheduler.run", 1.0),
    ]:
        record = {"kind": kind, "span": span}
        if dur is not None:
            record["duration_s"] = dur
        r.write(record)
    r.write({"kind": "span_end", "span": "scheduler.run", "job_index": 0, "duration_s": 5.0})
    assert r.total_s("scheduler.run") == 1.0
    assert r.self_s("scheduler.run") == 0.75
    assert r.edges == {("scheduler.tick.settle", "scheduler.run"): 1, ("scheduler.run", ""): 1}


def test_recorder_wrap_counts_units_and_unwraps():
    class Layer:
        def work(self, items):
            return len(items)

    original = Layer.__dict__["work"]
    r = Recorder()
    r.wrap(Layer, "work", "layer.work", units=lambda args, result: result)
    assert Layer().work([1, 2, 3]) == 3
    r.unwrap()
    assert Layer.__dict__["work"] is original
    assert r.count("layer.work") == 1 and r.units("layer.work") == 3


def test_parse_importtime():
    report = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |   encodings",
            "import time:      5000 |     800000 |       scipy.stats",
            "import time:      1000 |    1000000 |   repro",
            "import time:      2000 |    1200000 | repro.api",
            "import time:        10 |         10 | site",
        ]
    )
    assert coldstart.parse_importtime(report) == {
        "repro_api_ms": 1200.0,
        "scipy_stats_ms": 800.0,
    }


# ----------------------------------------------------------------------
# The command itself
# ----------------------------------------------------------------------
def _run(cwd: Path, workload: str, trace: int, seconds: str = "0.3"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_benchmark_of_record_names_defined_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    assert "# provenance " in done.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "http-small", 0)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
