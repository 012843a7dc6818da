"""Partition-point optimization for partial inference (paper §III.B.2).

"The partitioning point of the front/rear part can be decided dynamically
based on two factors.  One is the execution time of each DNN layer,
estimated by a prediction model for the DNN layers, as used in Neurosurgeon.
The other is the runtime network status.  We estimate the total execution
time for forward execution and select a partitioning point that can
minimize the total execution time, while including at least one layer from
the front part of the DNN to denature the input data."

:class:`PartitionOptimizer` implements exactly that: for every candidate
offload point it predicts

    client time (front layers)  +  snapshot capture  +  transfer of the
    snapshot (code + feature data at that point)  +  restore  +  server
    time (rear layers)  +  return-delta transfer

using per-device latency predictors and the current link profile, and picks
the minimum.  With ``denature=True``, points before the first parameterized
layer are excluded (the input would cross the network un-denatured).

:meth:`PartitionOptimizer.decide` prices the paper's other choice (§IV.A)
with the same model: run the whole network locally, or offload it at the
``input`` point with the model files still pending on the uplink — "it
would be better for the client to execute the DNN locally while the model
is being uploaded to the server" for AgeNet and GenderNet.

:meth:`PartitionOptimizer.choose_under_deadline` extends the sweep to the
joint (split, exit) space of multi-exit networks (Edgent-style): among the
pairs whose predicted end-to-end time meets the deadline, pick the one with
the highest modeled accuracy; when no pair is feasible, degrade to the
fastest pair so a too-tight SLO still gets the least-late answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.devices.predictor import LatencyPredictor
from repro.devices.profiles import DeviceProfile
from repro.netsim.link import NetemProfile
from repro.nn.cost import LayerCost, network_costs
from repro.nn.network import ExitPoint, Network, OffloadPoint
from repro.nn.tensor import text_serialized_bytes

#: planner's allowance for snapshot code + return delta, in bytes
SNAPSHOT_CODE_ALLOWANCE = 16 * 1024
RETURN_DELTA_ALLOWANCE = 4 * 1024


@dataclass(frozen=True)
class PartitionEstimate:
    """Predicted end-to-end time for one candidate offload point."""

    point: OffloadPoint
    client_seconds: float
    transfer_seconds: float
    server_seconds: float
    overhead_seconds: float
    feature_bytes: int

    @property
    def total_seconds(self) -> float:
        return (
            self.client_seconds
            + self.transfer_seconds
            + self.server_seconds
            + self.overhead_seconds
        )


@dataclass(frozen=True)
class PartitionChoice:
    """The optimizer's decision plus the full sweep behind it."""

    best: PartitionEstimate
    estimates: List[PartitionEstimate]

    @property
    def point(self) -> OffloadPoint:
        return self.best.point

    def estimate_for(self, label: str) -> PartitionEstimate:
        for estimate in self.estimates:
            if estimate.point.label == label:
                return estimate
        raise KeyError(f"no estimate for offload point {label!r}")


@dataclass(frozen=True)
class Decision:
    """Local execution versus offloading, with the predictions behind it."""

    action: str  # "local" | "offload"
    predicted_local_seconds: float
    predicted_offload_seconds: float


@dataclass(frozen=True)
class ExitEstimate:
    """Predicted end-to-end time for one (split, exit) pair."""

    exit: ExitPoint
    estimate: PartitionEstimate

    @property
    def accuracy(self) -> float:
        return self.exit.accuracy

    @property
    def total_seconds(self) -> float:
        return self.estimate.total_seconds

    @property
    def point(self) -> OffloadPoint:
        return self.estimate.point


@dataclass(frozen=True)
class DeadlineChoice:
    """The joint (split, exit) decision for one deadline.

    ``feasible`` is True when the chosen pair's predicted time meets the
    deadline; False means *no* pair did and ``best`` is the fastest pair
    overall (the least-late fallback).
    """

    best: ExitEstimate
    feasible: bool
    deadline_s: float
    estimates: List[ExitEstimate]

    @property
    def point(self) -> OffloadPoint:
        return self.best.point

    @property
    def exit(self) -> ExitPoint:
        return self.best.exit

    @property
    def accuracy(self) -> float:
        return self.best.accuracy


class PartitionOptimizer:
    """Chooses the offload point minimizing predicted total time."""

    def __init__(
        self,
        client_predictor: LatencyPredictor,
        server_predictor: LatencyPredictor,
        client_profile: DeviceProfile,
        server_profile: DeviceProfile,
    ):
        self.client_predictor = client_predictor
        self.server_predictor = server_predictor
        self.client_profile = client_profile
        self.server_profile = server_profile

    # -- candidate filtering ---------------------------------------------------
    @staticmethod
    def denaturing_points(
        network: Network, points: Sequence[OffloadPoint]
    ) -> List[OffloadPoint]:
        """Points that keep at least one computing layer on the client.

        The input is considered denatured once it has passed the first
        parameterized (conv) layer.
        """
        first_conv = next(
            (
                index
                for index, layer in enumerate(network.layers)
                if layer.kind == "conv"
            ),
            None,
        )
        if first_conv is None:
            return list(points)
        return [point for point in points if point.index >= first_conv]

    # -- estimation ----------------------------------------------------------------
    def estimate(
        self,
        network: Network,
        point: OffloadPoint,
        link: NetemProfile,
        pending_model_bytes: int = 0,
    ) -> PartitionEstimate:
        """Predicted time for one split: :meth:`estimate_exit` at the final
        exit, where the rear part is every layer past the split."""
        final = network.exit_points()[-1]
        return self.estimate_exit(
            network, point, link, final, pending_model_bytes
        ).estimate

    def estimate_exit(
        self,
        network: Network,
        point: OffloadPoint,
        link: NetemProfile,
        exit: ExitPoint,
        pending_model_bytes: int = 0,
    ) -> ExitEstimate:
        """Predicted time for one (split, exit) pair.

        Priced as the network that runs, ``network.at_exit(exit.index)``
        split at the offload point: trunk layers past the attach point
        never run, and a non-final exit's classifier head is priced on the
        server side.  ``pending_model_bytes`` are model files the server
        still lacks (0 after the ACK): they cross the uplink ahead of the
        snapshot but are not part of it.
        """
        costs = network_costs(network.at_exit(exit.index))
        front = [cost for cost in costs if cost.spine_index <= point.index]
        rear = [cost for cost in costs if cost.spine_index > point.index]
        client_seconds = self.client_predictor.predict_forward(front)
        server_seconds = self.server_predictor.predict_forward(rear)
        # priced as the decimal text capture renders, at 18 B per value: never
        # less than the length of the tensor text the snapshot carries
        feature_bytes = text_serialized_bytes(
            tuple(network.layers[point.index].out_shape)
        )
        outbound = feature_bytes + SNAPSHOT_CODE_ALLOWANCE
        transfer = link.transfer_seconds(
            pending_model_bytes + outbound
        ) + link.transfer_seconds(RETURN_DELTA_ALLOWANCE)
        overhead = (
            self.client_profile.snapshot_fixed_s * 2
            + self.server_profile.snapshot_fixed_s * 2
            + outbound / self.client_profile.snapshot_serialize_bps
            + outbound / self.server_profile.snapshot_restore_bps
        )
        return ExitEstimate(
            exit=exit,
            estimate=PartitionEstimate(
                point=point,
                client_seconds=client_seconds,
                transfer_seconds=transfer,
                server_seconds=server_seconds,
                overhead_seconds=overhead,
                feature_bytes=feature_bytes,
            ),
        )

    def decide(
        self,
        network: Network,
        link: NetemProfile,
        pending_model_bytes: int,
    ) -> Decision:
        """Run ``network`` on the client, or offload it at the ``input``
        point while ``pending_model_bytes`` of model files still upload.
        Ties go to local execution."""
        local = self.client_predictor.predict_forward(network_costs(network))
        offload = self.estimate(
            network, network.offload_points()[0], link, pending_model_bytes
        ).total_seconds
        return Decision(
            action="local" if local <= offload else "offload",
            predicted_local_seconds=local,
            predicted_offload_seconds=offload,
        )

    def sweep(
        self,
        network: Network,
        link: NetemProfile,
        points: Optional[Sequence[OffloadPoint]] = None,
    ) -> List[PartitionEstimate]:
        """Estimates for every candidate point (Fig. 8's X axis)."""
        if points is None:
            points = network.offload_points()
        return [self.estimate(network, point, link) for point in points]

    def choose(
        self,
        network: Network,
        link: NetemProfile,
        denature: bool = True,
    ) -> PartitionChoice:
        """Pick the total-time-minimizing point (optionally denaturing)."""
        points = network.offload_points()
        candidates = (
            self.denaturing_points(network, points) if denature else list(points)
        )
        if not candidates:
            raise ValueError(f"network {network.name!r} has no candidate points")
        estimates = self.sweep(network, link, candidates)
        # Ties break toward the earlier split: equal-cost points otherwise
        # resolve to whichever the sweep happened to enumerate first, and
        # an earlier split keeps more of the model server-side (smaller
        # pre-send, stronger denaturing never lost since candidates are
        # already filtered).
        best = min(
            estimates,
            key=lambda estimate: (estimate.total_seconds, estimate.point.index),
        )
        return PartitionChoice(best=best, estimates=estimates)

    def choose_under_deadline(
        self,
        network: Network,
        link: NetemProfile,
        deadline_s: float,
        denature: bool = True,
    ) -> DeadlineChoice:
        """Joint (split, exit) choice: max accuracy meeting the deadline.

        Sweeps every (offload point, exit) pair — splits must precede the
        exit they pair with — and picks the highest-accuracy pair whose
        predicted total time is within ``deadline_s``; accuracy ties break
        toward the faster pair, then the earlier split.  When no pair is
        feasible the fastest pair wins (``feasible=False`` on the result),
        so a too-tight SLO degrades to least-late instead of raising.
        """
        if deadline_s <= 0:
            raise ValueError(f"deadline_s must be positive, got {deadline_s}")
        points = network.offload_points()
        candidates = (
            self.denaturing_points(network, points) if denature else list(points)
        )
        if not candidates:
            raise ValueError(f"network {network.name!r} has no candidate points")
        estimates: List[ExitEstimate] = []
        for exit in network.exit_points():
            for point in candidates:
                if point.index >= exit.index:
                    continue  # nothing left to offload past the exit
                estimates.append(self.estimate_exit(network, point, link, exit))
        if not estimates:
            raise ValueError(
                f"network {network.name!r} has no (split, exit) pairs"
            )
        feasible = [
            pair for pair in estimates if pair.total_seconds <= deadline_s
        ]
        if feasible:
            best = min(
                feasible,
                key=lambda pair: (
                    -pair.accuracy,
                    pair.total_seconds,
                    pair.point.index,
                ),
            )
        else:
            best = min(
                estimates,
                key=lambda pair: (pair.total_seconds, pair.point.index),
            )
        return DeadlineChoice(
            best=best,
            feasible=bool(feasible),
            deadline_s=deadline_s,
            estimates=estimates,
        )


def predictions_by_label(
    estimates: Sequence[PartitionEstimate],
) -> Dict[str, float]:
    """Convenience: label -> predicted total seconds."""
    return {estimate.point.label: estimate.total_seconds for estimate in estimates}
