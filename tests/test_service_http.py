"""Tests for the HTTP serving layer (``repro.service_http``).

Three layers of coverage, matching the wire contract in
``docs/SERVICE.md``:

* **units** — the token bucket (deterministic fake clock), tenant
  auth ladder, the codec, and every wire dataclass round-trip;
* **edges over real sockets** — wrong token (401), disabled tenant
  (403), empty bucket (429 + Retry-After), saturated queue (429 before
  any seed exists), cancel of a settled job (409), malformed JSON
  (400), unknown routes/methods (404/405), tenant isolation (403);
* **end-to-end** — submit → events → result, budget breach as a 402
  carrying the partial result, and the parity gate: an HTTP-submitted
  job's result is bit-identical to the same job run in-process.
"""

import asyncio
import gc
import json
import threading

import numpy as np
import pytest

from repro.jobs import BudgetExceededError, CrowdJobResult
from repro.platform.platform import CrowdPlatform
from repro.scheduler import CrowdScheduler, JobCancelledError
from repro.service_http import (
    JobSpec,
    JobView,
    RemoteServiceError,
    ServiceClient,
    ServiceConfig,
    ServiceServer,
    TenantAuth,
    TokenBucket,
    WIRE_ERRORS,
    WIRE_SCHEMA,
    WIRE_STATUS,
    error_envelope,
    wire_code,
    wire_status,
)
from repro.service_http import codec
from repro.service_http.errors import (
    ForbiddenError,
    InvalidRequestError,
    RateLimitedError,
    UnauthorizedError,
)
from repro.service_http.runner import default_pool_factory
from repro.service_http.state import ServiceState

TOKEN = "test-token"
TENANT = "acme"


def run_service(scenario, config=None, stop_runner=False):
    """Boot a real loopback server, run ``scenario(server, client)``."""

    async def main():
        cfg = config or ServiceConfig(port=0, tokens={TOKEN: TENANT})
        server = ServiceServer(cfg)
        await server.start()
        if stop_runner:
            server.runner.stop()  # freeze the queue: jobs stay queued
        client = ServiceClient("127.0.0.1", server.port, TOKEN)
        try:
            await scenario(server, client)
        finally:
            await client.aclose()
            await server.aclose()

    asyncio.run(main())


def small_spec(seed=7, **overrides):
    values = tuple(float(v) for v in range(16))
    fields = dict(values=values, u_n=2, seed=seed)
    fields.update(overrides)
    return JobSpec(**fields)


async def raw_request(port, data):
    """One raw HTTP exchange; returns (status, headers, body-bytes)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(data)
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ")[1])
        headers = {}
        for line in lines[1:]:
            if line and ":" in line:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        body = await reader.readexactly(length) if length else b""
        return status, headers, body
    finally:
        writer.close()


def http(method, path, port, body=b"", token=None, content_type="application/json"):
    head = [f"{method} {path} HTTP/1.1", f"Host: 127.0.0.1:{port}"]
    if token is not None:
        head.append(f"Authorization: Bearer {token}")
    if body:
        head.append(f"Content-Type: {content_type}")
    head.append(f"Content-Length: {len(body)}")
    head.append("Connection: close")
    return raw_request(port, "\r\n".join(head).encode() + b"\r\n\r\n" + body)


# ----------------------------------------------------------------------
# Units: token bucket, auth ladder, codec
# ----------------------------------------------------------------------
class TestTokenBucket:
    def test_burst_then_refill(self):
        now = [0.0]
        bucket = TokenBucket(capacity=2, refill_per_second=1.0, clock=lambda: now[0])
        assert bucket.acquire() == 0.0
        assert bucket.acquire() == 0.0
        wait = bucket.acquire()
        assert wait == pytest.approx(1.0)
        now[0] += 1.0
        assert bucket.acquire() == 0.0

    def test_refusal_consumes_nothing(self):
        now = [0.0]
        bucket = TokenBucket(capacity=1, refill_per_second=2.0, clock=lambda: now[0])
        bucket.acquire()
        first = bucket.acquire()
        second = bucket.acquire()
        assert first == pytest.approx(second)  # no token burned on refusal

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(capacity=0, refill_per_second=1.0)
        with pytest.raises(ValueError):
            TokenBucket(capacity=1, refill_per_second=0.0)


class TestTenantAuth:
    def test_the_failure_ladder(self):
        auth = TenantAuth(tokens={"tok": "acme"}, tenants=("other",))
        with pytest.raises(UnauthorizedError):
            auth.authenticate(None)
        with pytest.raises(UnauthorizedError):
            auth.authenticate("Basic tok")
        with pytest.raises(UnauthorizedError):
            auth.authenticate("Bearer wrong")
        with pytest.raises(ForbiddenError):
            auth.authenticate("Bearer tok")  # valid token, disabled tenant

    def test_happy_path_and_throttle(self):
        now = [0.0]
        auth = TenantAuth(
            tokens={"tok": "acme"}, rate=1.0, burst=1.0, clock=lambda: now[0]
        )
        assert auth.authenticate("Bearer tok") == "acme"
        auth.throttle("acme")
        with pytest.raises(RateLimitedError) as info:
            auth.throttle("acme")
        assert info.value.retry_after == pytest.approx(1.0)

    def test_rate_none_disables_throttling(self):
        auth = TenantAuth(tokens={"tok": "acme"})
        for _ in range(100):
            auth.throttle("acme")


class TestCodec:
    def test_round_trip_is_canonical(self):
        payload = {"b": 1, "a": [1.5, None, True], "c": {"x": "y"}}
        encoded = codec.dumps(payload)
        assert b" " not in encoded
        assert codec.loads(encoded) == payload

    def test_rejects_non_json(self):
        with pytest.raises(InvalidRequestError):
            codec.loads(b"{not json")

    def test_rejects_non_object(self):
        with pytest.raises(InvalidRequestError):
            codec.loads(b"[1, 2]")

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            codec.dumps({"x": float("nan")})


# ----------------------------------------------------------------------
# Wire shapes: round-trips and validation
# ----------------------------------------------------------------------
class TestWireRoundTrips:
    def test_job_spec(self):
        spec = small_spec(budget_cap=100.0, fallback_redundancy=3)
        assert JobSpec.from_dict(spec.to_dict()) == spec
        assert json.loads(codec.dumps(spec.to_dict()))["schema"] == WIRE_SCHEMA

    def test_job_spec_rejects_unknown_fields(self):
        payload = small_spec().to_dict()
        payload["surprise"] = 1
        with pytest.raises(InvalidRequestError, match="unknown fields"):
            JobSpec.from_dict(payload)

    def test_job_spec_rejects_wrong_schema(self):
        payload = small_spec().to_dict()
        payload["schema"] = "repro.service/v0"
        with pytest.raises(InvalidRequestError, match="schema"):
            JobSpec.from_dict(payload)

    def test_job_spec_domain_checks(self):
        base = small_spec().to_dict()
        for patch in (
            {"values": [1.0]},
            {"u_n": 0},
            {"seed": -1},
            {"kind": "median"},
            {"phase1_redundancy": 0},
        ):
            with pytest.raises(InvalidRequestError):
                JobSpec.from_dict({**base, **patch})

    def test_job_view(self):
        view = JobView(
            job_id="j-1", tenant="acme", kind="max", status="ok", seed=3,
            generation=2, cost=12.5,
        )
        assert JobView.from_dict(view.to_dict()) == view

    def test_crowd_job_result_round_trip_is_exact(self):
        result = CrowdJobResult(
            answer=[4],
            survivors=np.asarray([1, 4, 9], dtype=np.intp),
            total_cost=42.5,
            naive_comparisons=100,
            expert_comparisons=3,
            logical_steps=7,
            physical_steps=21,
        )
        back = CrowdJobResult.from_dict(result.to_dict())
        assert back.to_dict() == result.to_dict()
        assert back.survivors.dtype == np.intp
        with pytest.raises(ValueError):
            CrowdJobResult.from_dict({**result.to_dict(), "schema": "nope"})

    def test_budget_error_round_trip_keeps_the_partial(self):
        partial = CrowdJobResult(
            answer=[],
            survivors=np.asarray([2, 5], dtype=np.intp),
            total_cost=99.0,
            naive_comparisons=50,
            expert_comparisons=0,
            logical_steps=3,
            physical_steps=9,
            degraded=True,
            degraded_reason="budget",
        )
        error = BudgetExceededError(partial, cap=100.0, spent=99.0)
        back = BudgetExceededError.from_dict(error.to_dict())
        assert back.cap == error.cap and back.spent == error.spent
        assert back.partial.to_dict() == partial.to_dict()


class TestErrorRegistry:
    def test_registry_and_status_share_keys(self):
        assert set(WIRE_ERRORS) == set(WIRE_STATUS)

    def test_codes_and_types_are_bijective(self):
        types = list(WIRE_ERRORS.values())
        assert len(set(types)) == len(types)

    def test_wire_code_prefers_exact_type_then_mro(self):
        from repro.platform.errors import CostCapError, PlatformError

        ledger_error = CostCapError.__new__(CostCapError)
        assert wire_code(ledger_error) == "cost_cap"

        class CustomPlatformError(PlatformError):
            pass

        assert wire_code(CustomPlatformError("x")) == "platform_error"
        assert wire_code(KeyError("x")) == "internal"

    def test_every_code_has_a_plausible_status(self):
        for code, status in WIRE_STATUS.items():
            assert 400 <= status <= 599, code
            assert wire_status(code) == status
        assert wire_status("no-such-code") == 500

    def test_envelope_carries_partial_result_detail(self):
        partial = CrowdJobResult(
            answer=[], survivors=np.asarray([1], dtype=np.intp), total_cost=5.0,
            naive_comparisons=5, expert_comparisons=0, logical_steps=1,
            physical_steps=1, degraded=True, degraded_reason="budget",
        )
        envelope = error_envelope(BudgetExceededError(partial, cap=5.0, spent=5.0))
        assert envelope["schema"] == WIRE_SCHEMA
        assert envelope["error"]["code"] == "budget_exceeded"
        assert envelope["error"]["detail"]["partial"]["survivors"] == [1]


# ----------------------------------------------------------------------
# Edges over real sockets
# ----------------------------------------------------------------------
class TestAuthEdges:
    def test_wrong_token_is_401(self):
        async def scenario(server, client):
            bad = ServiceClient("127.0.0.1", server.port, "wrong-token")
            with pytest.raises(RemoteServiceError) as info:
                await bad.submit_job(small_spec())
            await bad.aclose()
            assert info.value.status == 401
            assert info.value.code == "unauthorized"

        run_service(scenario)

    def test_missing_header_is_401(self):
        async def scenario(server, client):
            body = codec.dumps(small_spec().to_dict())
            status, _, raw = await http("POST", "/v1/jobs", server.port, body)
            assert status == 401
            assert json.loads(raw)["error"]["code"] == "unauthorized"

        run_service(scenario)

    def test_disabled_tenant_is_403(self):
        config = ServiceConfig(
            port=0, tokens={TOKEN: TENANT}, tenants=("someone-else",)
        )

        async def scenario(server, client):
            with pytest.raises(RemoteServiceError) as info:
                await client.submit_job(small_spec())
            assert info.value.status == 403
            assert info.value.code == "forbidden"

        run_service(scenario, config=config)

    def test_tenant_isolation_is_403(self):
        config = ServiceConfig(
            port=0, tokens={TOKEN: TENANT, "other-token": "other"}
        )

        async def scenario(server, client):
            view = await client.submit_job(small_spec())
            intruder = ServiceClient("127.0.0.1", server.port, "other-token")
            with pytest.raises(RemoteServiceError) as info:
                await intruder.job_status(view.job_id)
            await intruder.aclose()
            assert info.value.status == 403

        run_service(scenario, config=config)


class TestBackpressureEdges:
    def test_empty_bucket_is_429_with_retry_after(self):
        config = ServiceConfig(
            port=0, tokens={TOKEN: TENANT}, rate=0.001, burst=1.0
        )

        async def scenario(server, client):
            await client.submit_job(small_spec(seed=1))
            body = codec.dumps(small_spec(seed=2).to_dict())
            status, headers, raw = await http(
                "POST", "/v1/jobs", server.port, body, token=TOKEN
            )
            assert status == 429
            payload = json.loads(raw)
            assert payload["error"]["code"] == "rate_limited"
            assert float(headers["retry-after"]) > 0
            assert payload["error"]["retry_after"] > 0

        run_service(scenario, config=config)

    def test_saturated_queue_is_429_scheduler_saturated(self):
        config = ServiceConfig(port=0, tokens={TOKEN: TENANT}, max_queued=2)

        async def scenario(server, client):
            await client.submit_job(small_spec(seed=1))
            await client.submit_job(small_spec(seed=2))
            status, headers, raw = await http(
                "POST",
                "/v1/jobs",
                server.port,
                codec.dumps(small_spec(seed=3).to_dict()),
                token=TOKEN,
            )
            assert status == 429
            assert json.loads(raw)["error"]["code"] == "scheduler_saturated"
            assert "retry-after" in headers
            # shedding was free: no record, no seed, no job id burned
            health = await client.health()
            assert health.queued == 2

        run_service(scenario, config=config, stop_runner=True)


class TestProtocolEdges:
    def test_malformed_json_is_400_with_envelope(self):
        async def scenario(server, client):
            status, _, raw = await http(
                "POST", "/v1/jobs", server.port, b"{not json", token=TOKEN
            )
            assert status == 400
            payload = json.loads(raw)
            assert payload["schema"] == WIRE_SCHEMA
            assert payload["error"]["code"] == "invalid_request"

        run_service(scenario)

    def test_unknown_route_is_404(self):
        async def scenario(server, client):
            status, _, raw = await http("GET", "/v2/jobs", server.port, token=TOKEN)
            assert status == 404
            assert json.loads(raw)["error"]["code"] == "not_found"

        run_service(scenario)

    def test_unknown_job_is_404(self):
        async def scenario(server, client):
            with pytest.raises(RemoteServiceError) as info:
                await client.job_status("j-99999999")
            assert info.value.status == 404

        run_service(scenario)

    def test_wrong_method_is_405(self):
        async def scenario(server, client):
            status, _, raw = await http("GET", "/v1/jobs", server.port, token=TOKEN)
            assert status == 405
            assert json.loads(raw)["error"]["code"] == "method_not_allowed"

        run_service(scenario)

    def test_healthz_needs_no_auth(self):
        async def scenario(server, client):
            status, _, raw = await http("GET", "/healthz", server.port)
            assert status == 200
            assert json.loads(raw)["status"] == "ok"

        run_service(scenario)


class TestConnectionClose:
    def test_request_close_gets_close_and_eof(self):
        async def scenario(server, client):
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            try:
                writer.write(
                    b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
                    b"Connection: close\r\nContent-Length: 0\r\n\r\n"
                )
                await writer.drain()
                head = await reader.readuntil(b"\r\n\r\n")
                assert b"\r\nConnection: close\r\n" in head
                rest = await asyncio.wait_for(reader.read(), timeout=10)
                assert json.loads(rest)["status"] == "ok"  # the body, then EOF
                assert reader.at_eof()
            finally:
                writer.close()

        run_service(scenario)


class TestCancelEdges:
    def test_cancel_of_settled_job_is_409_conflict(self):
        async def scenario(server, client):
            view = await client.submit_job(small_spec())
            envelope = await client.result_envelope(view.job_id, wait=30.0)
            assert envelope.status == "ok"
            with pytest.raises(RemoteServiceError) as info:
                await client.cancel_job(view.job_id)
            assert info.value.status == 409
            assert info.value.code == "conflict"

        run_service(scenario)

    def test_cancel_of_queued_job_settles_cancelled(self):
        async def scenario(server, client):
            view = await client.submit_job(small_spec())
            cancelled = await client.cancel_job(view.job_id)
            assert cancelled.status == "cancelled"
            response = await client.job_result(view.job_id)
            assert response.status == 409
            assert response.payload["error"]["code"] == "job_cancelled"

        run_service(scenario, stop_runner=True)


# ----------------------------------------------------------------------
# End-to-end: results, events, budget, parity
# ----------------------------------------------------------------------
class TestEndToEnd:
    def test_submit_then_result_and_events(self):
        async def scenario(server, client):
            view = await client.submit_job(small_spec())
            envelope = await client.result_envelope(view.job_id, wait=30.0)
            assert envelope.status == "ok"
            assert envelope.result["schema"] == WIRE_SCHEMA
            kinds, seqs = [], []
            async for event in client.job_events(view.job_id):
                kinds.append(event.kind)
                seqs.append(event.seq)
            assert kinds[0] == "job_queued"
            assert "job_settled" in kinds
            assert seqs == sorted(seqs)
            health = await client.health()
            assert health.settled == 1

        run_service(scenario)

    def test_budget_breach_is_402_with_partial(self):
        async def scenario(server, client):
            view = await client.submit_job(small_spec(hard_cap=6.0))
            response = await client.job_result(view.job_id, wait=30.0)
            assert response.status == 402
            error = response.payload["error"]
            assert error["code"] == "budget_exceeded"
            partial = error["detail"]["partial"]
            assert partial["schema"] == WIRE_SCHEMA
            assert partial["degraded_reason"] == "budget"
            # the typed rehydration: same except clause as in-process
            with pytest.raises(BudgetExceededError) as info:
                (await client.job_result(view.job_id)).raise_for_error()
            assert info.value.partial.total_cost <= info.value.cap

        run_service(scenario)

    def test_http_result_is_bit_identical_to_in_process(self):
        spec = small_spec(seed=2015)
        captured = {}

        async def scenario(server, client):
            view = await client.submit_job(spec)
            envelope = await client.result_envelope(view.job_id, wait=30.0)
            assert envelope.status == "ok"
            captured["http"] = envelope.result

        run_service(scenario)
        job_seed, platform_seed = np.random.SeedSequence(spec.seed).spawn(2)
        platform = CrowdPlatform(
            default_pool_factory(), rng=np.random.default_rng(platform_seed)
        )
        result = spec.build_job().execute(
            platform, np.random.default_rng(job_seed)
        )
        assert result.to_dict() == captured["http"]

    def test_many_jobs_all_settle_deterministically(self):
        specs = [small_spec(seed=100 + i) for i in range(12)]
        runs = []
        for _ in range(2):
            captured = {}

            async def scenario(server, client):
                views = [await client.submit_job(spec) for spec in specs]
                for spec, view in zip(specs, views):
                    envelope = await client.result_envelope(view.job_id, wait=30.0)
                    assert envelope.status == "ok"
                    captured[spec.seed] = envelope.result

            run_service(scenario)
            runs.append(captured)
        assert runs[0] == runs[1]


# ----------------------------------------------------------------------
# Scheduler-level additions riding on this layer
# ----------------------------------------------------------------------
def make_scheduler(**kwargs):
    return CrowdScheduler(
        pools=default_pool_factory(),
        root_seed=kwargs.pop("root_seed", 9),
        cache=False,
        quantum=None,
        **kwargs,
    )


def make_job(seed=0):
    return small_spec(seed=seed).build_job()


class TestSchedulerCancel:
    def test_cancel_before_run_settles_cancelled(self):
        scheduler = make_scheduler()
        keep = scheduler.submit(make_job(1), seed=1)
        drop = scheduler.submit(make_job(2), seed=2)
        drop.cancel()
        outcomes = {o.ticket.index: o for o in scheduler.run()}
        assert outcomes[keep.index].status == "ok"
        cancelled = outcomes[drop.index]
        assert cancelled.status == "cancelled"
        assert isinstance(cancelled.error, JobCancelledError)
        assert cancelled.cost == 0.0

    def test_cancel_after_settle_is_a_noop(self):
        scheduler = make_scheduler()
        ticket = scheduler.submit(make_job(3), seed=3)
        (outcome,) = scheduler.run()
        ticket.cancel()
        assert outcome.status == "ok"


class TestExplicitSeeds:
    def test_explicit_seed_pins_the_result_across_schedules(self):
        results = []
        for companions in (0, 3):
            scheduler = make_scheduler(root_seed=companions + 50)
            ticket = scheduler.submit(make_job(7), seed=7)
            for extra in range(companions):
                scheduler.submit(make_job(extra + 30), seed=extra + 30)
            scheduler.run()
            assert ticket.outcome is not None
            results.append(ticket.outcome.result.to_dict())
        assert results[0] == results[1]


class TestTenantLedgerInjection:
    def test_spend_accumulates_across_generations(self):
        ledgers = {}
        first = make_scheduler(tenant_ledgers=ledgers)
        first.submit(make_job(11), tenant="acme", seed=11)
        first.run()
        spent_once = ledgers["acme"].total_cost
        assert spent_once > 0
        second = make_scheduler(tenant_ledgers=ledgers)
        second.submit(make_job(12), tenant="acme", seed=12)
        second.run()
        assert ledgers["acme"].total_cost > spent_once

    def test_lifetime_cap_binds_across_generations(self):
        ledgers = {}
        caps = {"acme": 40.0}
        first = make_scheduler(tenant_ledgers=ledgers, tenant_caps=caps)
        first.submit(make_job(13), tenant="acme", seed=13)
        (outcome,) = first.run()
        if outcome.status == "ok":
            # keep spending until the lifetime cap bites
            second = make_scheduler(tenant_ledgers=ledgers, tenant_caps=caps)
            second.submit(make_job(14), tenant="acme", seed=14)
            (outcome,) = second.run()
        assert outcome.status == "budget_exceeded"
        assert isinstance(outcome.error, BudgetExceededError)


# ----------------------------------------------------------------------
# Client connection pool
# ----------------------------------------------------------------------
class ThreadedService:
    """A ``ServiceServer`` on its own loop thread, counting accepted sockets.

    The client side then runs on loops of the test's choosing, which
    may stop, close or change between requests.
    """

    def __init__(self):
        self.accepted = 0
        self.loop = asyncio.new_event_loop()
        self.server = ServiceServer(ServiceConfig(port=0, tokens={TOKEN: TENANT}))
        serve = self.server._on_connection

        async def on_connection(reader, writer):
            self.accepted += 1
            await serve(reader, writer)

        self.server._on_connection = on_connection
        self.loop.run_until_complete(self.server.start())
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()

    def client(self):
        return ServiceClient("127.0.0.1", self.server.port, TOKEN)

    def call(self, make_coro):
        future = asyncio.run_coroutine_threadsafe(make_coro(), self.loop)
        return future.result(timeout=30)

    def drop_connections(self):
        """Close every server-side socket, idle keep-alive ones included."""

        async def reap():
            tasks = list(self.server._connections)
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            await asyncio.sleep(0.05)  # the transports finish closing

        self.call(reap)

    def close(self):
        self.call(self.server.aclose)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=30)
        assert not self.thread.is_alive()
        self.loop.close()


@pytest.fixture
def service():
    threaded = ThreadedService()
    try:
        yield threaded
    finally:
        threaded.close()


class TestClientConnectionPool:
    def test_sequential_requests_share_one_connection(self, service):
        client = service.client()

        async def session():
            try:
                for _ in range(5):
                    assert (await client.health()).status == "ok"
                view = await client.submit_job(small_spec())
                envelope = await client.result_envelope(view.job_id, wait=30.0)
                assert envelope.status == "ok"
            finally:
                await client.aclose()

        asyncio.run(session())
        assert service.accepted == 1

    def test_concurrent_requests_open_one_connection_each(self, service):
        client = service.client()

        async def worker(seed):
            for offset in range(3):
                view = await client.submit_job(small_spec(seed=seed + offset))
                envelope = await client.result_envelope(view.job_id, wait=30.0)
                assert envelope.status == "ok"

        async def session():
            try:
                await asyncio.gather(worker(10), worker(20))
            finally:
                await client.aclose()

        asyncio.run(session())
        assert 1 <= service.accepted <= 2

    def test_one_client_across_successive_event_loops(self, service):
        client = service.client()
        # The first loop ends with a pooled connection it never closed.
        assert asyncio.run(client.health()).status == "ok"

        async def second():
            try:
                return await client.health()
            finally:
                await client.aclose()

        # A closed loop's socket can no longer be closed: the second loop
        # drops it unused (the collector reports it) and opens its own.
        with pytest.warns(ResourceWarning):
            assert asyncio.run(second()).status == "ok"
            gc.collect()
        assert service.accepted == 2

    def test_get_on_a_connection_closed_while_idle_is_retried_once(self, service):
        client = service.client()
        reused = []
        checkout = client._checkout

        async def recording_checkout():
            connection = await checkout()
            reused.append(connection[2])
            return connection

        client._checkout = recording_checkout
        loop = asyncio.new_event_loop()
        try:
            loop.run_until_complete(client.health())
            # The server closes the pooled socket while no loop runs on
            # the client side, so the client cannot have seen the EOF.
            service.drop_connections()
            assert loop.run_until_complete(client.health()).status == "ok"
            loop.run_until_complete(client.aclose())
        finally:
            loop.close()
        assert reused == [False, True]
        assert service.accepted == 2  # the first, then the retry's

    def test_post_on_a_stale_connection_is_raised_not_replayed(self, service):
        client = service.client()
        loop = asyncio.new_event_loop()
        try:
            loop.run_until_complete(client.health())
            service.drop_connections()
            with pytest.raises((ConnectionError, asyncio.IncompleteReadError)):
                loop.run_until_complete(client.submit_job(small_spec()))
            assert service.accepted == 1  # no second connection: no replay
            assert service.server.state._next_id == 1  # no job was ever created
            # The failed connection was discarded: the next request works.
            assert loop.run_until_complete(client.health()).status == "ok"
            loop.run_until_complete(client.aclose())
        finally:
            loop.close()
        assert service.accepted == 2


class TestHealthCounts:
    def test_running_count_matches_a_full_scan(self):
        loop = asyncio.new_event_loop()
        state = ServiceState(loop)

        def check(expected):
            scanned = sum(r.status == "running" for r in state._records.values())
            assert state.counts()["running"] == scanned == expected

        try:
            done, stopped, dropped = (
                state.submit(TENANT, small_spec(seed=seed)) for seed in (1, 2, 3)
            )
            check(0)
            assert state.take_batch(limit=2, timeout=0) == [done, stopped]
            state.mark_running(done, 1, None)
            state.mark_running(stopped, 1, None)
            check(2)
            # queued -> running -> ok
            state.settle(done, "ok", None, None, 1.0)
            check(1)
            # queued -> cancelled: settles at once, never ran
            assert state.cancel(dropped) == "cancelled"
            check(1)
            # running -> cancelled: flagged first, settled by the runner
            assert state.cancel(stopped) == "running"
            check(1)
            state.settle(stopped, "cancelled", None, JobCancelledError("x"), None)
            check(0)
        finally:
            loop.close()
