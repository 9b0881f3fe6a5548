#!/usr/bin/env python3
"""Fleet deployment + asyncio serving through shared sessions.

The fleet workflow end to end (DESIGN.md §5):

1. ``repro.deploy_fleet`` — sweep a model zoo slice across a device
   fleet under one policy; same-family devices share one prepared
   cache, and every plan lands versioned in a :class:`PlanRegistry`,
2. ``repro.plan_diff`` — render what actually differs between two
   devices' plans for the same model,
3. :class:`repro.SessionServer` — drive ~100 concurrent requests
   through one session behind an asyncio concurrency gate and report
   throughput and tail latency.  Each pass runs in a worker process
   forked from this one, so the first requests also pay the fork and
   each worker's first preparation; a faulted request is detected
   in-stream, exactly as a serial pass would detect it.
"""

import argparse
import asyncio

import numpy as np

import repro

MODELS = ["mlp_bottom", "mlp_top"]
DEVICES = ["V100", "Jetson-AGX-Xavier"]


async def drive(server: repro.SessionServer, requests: int):
    """Mixed traffic: clean batch + one faulted request, concurrently."""
    fault = repro.FaultSpec(
        row=3, col=5, kind=repro.FaultKind.BITFLIP_FP32, bit=26
    )
    layer = server.session.plan.layer_names[0]
    faulted = asyncio.ensure_future(
        server.handle(faults={layer: [fault]})
    )
    report = await server.serve(requests, concurrency=8)
    outcome = await faulted
    return report, outcome


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--requests", type=int, default=100,
                        help="clean requests to serve (default 100)")
    args = parser.parse_args()

    # --- 1. one sweep: models x devices, shared per-family caches -----
    fleet = repro.deploy_fleet(MODELS, DEVICES, policy="guided", batch=32)
    print(fleet.summary().render())
    print(f"\nregistry holds {len(fleet.registry)} plan(s) across "
          f"{len(fleet.sessions)} deployments")

    # --- 2. what changed between devices, per the registry ------------
    diff = repro.plan_diff(
        fleet.registry.get(MODELS[0], DEVICES[0]),
        fleet.registry.get(MODELS[0], DEVICES[1]),
    )
    print(f"\n{MODELS[0]}: {DEVICES[0]} -> {DEVICES[1]}")
    print(diff.render())

    # --- 3. serve concurrent traffic from worker processes -------------
    session = fleet.session(MODELS[0], DEVICES[0])
    with repro.SessionServer(session, max_workers=4) as server:
        report, outcome = asyncio.run(drive(server, args.requests))
    print(f"\n{report.render()}")
    assert report.requests == args.requests
    # The faulted request rides the same window as the clean batch, so
    # the report may tally its detection — but never more than that
    # one: clean traffic raises no alarms.
    assert report.detected_requests <= 1, "clean traffic raised a detection"
    assert outcome.detected, "the faulted request escaped detection"
    print("faulted request detected in-stream: "
          f"{[r.name for r in outcome.layer_outcomes if r.detected]}")

    # Serving changed nothing numerically: a serial pass in this
    # process gives the bit-identical clean output.
    np.testing.assert_array_equal(
        session.run().output, repro.deploy(
            MODELS[0], DEVICES[0], policy="guided", batch=32
        ).run().output,
    )
    print("serial re-check: bit-identical clean output")


if __name__ == "__main__":
    main()
