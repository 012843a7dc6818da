"""Multi-edge fleets with load-aware offload scheduling and failover.

The paper's testbed is one client and one edge server; a deployment has a
*fleet* of edge servers with different hardware and link quality.  This
package adds the client-side machinery for that setting:

* :mod:`repro.fleet.policies` — pluggable edge-selection policies
  (round-robin, random, min-response-time, queue-aware).
* :mod:`repro.fleet.scheduler` — the :class:`FleetScheduler`: sliding
  response-time windows, queue depths, admission control, liveness.
* :mod:`repro.fleet.scenario` — :class:`FleetScenario`: whole-fleet runs
  with Poisson session arrivals, digest-handshake pre-send reuse,
  and mid-run edge-kill fault injection with client-detected failover.
"""

from repro.fleet.policies import (
    POLICY_NAMES,
    MinResponseTimePolicy,
    Policy,
    PolicyError,
    QueueAwarePolicy,
    RandomPolicy,
    RoundRobinPolicy,
    make_policy,
)
from repro.fleet.scheduler import EdgeState, FleetScheduler, NoEdgeAvailable
from repro.fleet.scenario import (
    EdgeSpec,
    FleetReport,
    FleetRequestRecord,
    FleetScenario,
    default_fleet,
)

__all__ = [
    "EdgeSpec",
    "EdgeState",
    "FleetReport",
    "FleetRequestRecord",
    "FleetScenario",
    "FleetScheduler",
    "MinResponseTimePolicy",
    "NoEdgeAvailable",
    "POLICY_NAMES",
    "Policy",
    "PolicyError",
    "QueueAwarePolicy",
    "RandomPolicy",
    "RoundRobinPolicy",
    "default_fleet",
    "make_policy",
]
