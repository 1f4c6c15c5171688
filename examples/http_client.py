"""Submit jobs to a live ``repro-serve`` instance over HTTP.

The typed version of the curl runbook in ``docs/SERVICE.md``: boot an
in-process :class:`ServiceServer` on a loopback port (exactly what
``repro-serve`` runs), then talk to it with :class:`ServiceClient` —
submit, follow the ndjson event stream, fetch the result, and
demonstrate the parity contract by noting the wire ``seed`` that pins
it.  Run it with::

    PYTHONPATH=src python examples/http_client.py

Against a server you started yourself (``repro-serve --port 8080
--token acme=s3cret``), drop the in-process boot and point
``ServiceClient("127.0.0.1", 8080, "s3cret")`` at it instead.
Examples import *only* from ``repro.api`` (the ``API001`` lint rule).
"""

import asyncio

import numpy as np

from repro.api import (
    BudgetExceededError,
    JobSpec,
    ServiceClient,
    ServiceConfig,
    ServiceServer,
)


async def main() -> None:
    """Boot a loopback server and walk the v1 wire API."""
    server = ServiceServer(ServiceConfig(port=0, tokens={"s3cret": "acme"}))
    await server.start()
    client = ServiceClient("127.0.0.1", server.port, "s3cret")
    try:
        health = await client.health()
        print(f"server up on port {server.port}: {health.status}")

        values = tuple(np.random.default_rng(7).permutation(64).astype(float))

        # Submit: 202 with the queued view.  The seed pins the result —
        # the same spec run in-process settles bit-identically.
        spec = JobSpec(values=values, u_n=3, seed=2015)
        view = await client.submit_job(spec)
        print(f"submitted {view.job_id} (kind={view.kind}, seed={view.seed})")

        # Follow the event stream until the job settles.
        async for event in client.job_events(view.job_id):
            print(f"  event #{event.seq}: {event.kind}")

        envelope = await client.result_envelope(view.job_id, wait=30.0)
        assert envelope.result is not None
        print(
            f"settled {envelope.status}: answer={envelope.result['answer']}"
            f" cost={envelope.result['total_cost']:.1f}"
        )

        # A hard budget cap breaches as a typed 402: the partial result
        # (everything already paid for) rides in the error envelope.
        capped = await client.submit_job(
            JobSpec(values=values, u_n=3, seed=2016, hard_cap=10.0)
        )
        response = await client.job_result(capped.job_id, wait=30.0)
        try:
            response.raise_for_error()
        except BudgetExceededError as breach:
            print(
                f"budget breach: cap={breach.cap:.1f}"
                f" spent={breach.spent:.1f}"
                f" survivors={len(breach.partial.survivors)}"
            )
    finally:
        await client.aclose()
        await server.aclose()


if __name__ == "__main__":
    asyncio.run(main())
