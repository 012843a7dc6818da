#!/usr/bin/env python
"""A shared edge server under several interactive clients.

N user sessions (camera pointing + "inference" taps) offload to one edge
server.  The server's browser is a FIFO resource, so synchronized bursts
queue; the session cache keeps follow-up snapshots tiny.  Prints the
per-request log and a latency summary per fleet size.

Run:  python examples/multi_client_edge.py [num_clients]
"""

import sys

from repro.eval.ablations import contention_study
from repro.eval.reporting import format_table
from repro.fleet import EdgeSpec, FleetScenario


def main(num_clients: int = 3) -> None:
    report = FleetScenario(
        "smallnet",
        edges=[EdgeSpec("edge")],
        sessions=num_clients,
        requests_per_session=3,
        arrival_rate_per_s=0.5,
        mean_think_seconds=2.0,
    ).run()
    print(
        format_table(
            ["client", "issued s", "done s", "latency ms", "snapshot", "correct"],
            [
                [
                    record.session,
                    record.issued_at,
                    record.completed_at,
                    record.latency_seconds * 1000,
                    record.snapshot_kind,
                    str(record.correct),
                ]
                for record in report.records
            ],
            title=f"{num_clients} clients, one edge server — request log",
        )
    )
    print(f"\nmean latency {report.mean_latency * 1000:.1f} ms, "
          f"max {report.latency_quantile(1.0) * 1000:.1f} ms, "
          f"all correct: {report.all_correct}")

    print("\nsynchronized-burst contention sweep:")
    for count, burst in contention_study("smallnet", (1, 2, 4, 8)).items():
        print(f"  {count} clients: mean {burst.mean_latency * 1000:6.1f} ms  "
              f"max {burst.latency_quantile(1.0) * 1000:6.1f} ms")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 3)
