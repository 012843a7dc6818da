"""Multi-exit networks: (split, exit) equivalence and the bugfix sweep.

Four contracts land together in this file:

* **(split, exit) equivalence** — every (split, exit) pair of both
  multi-exit models executes bitwise identically through the compiled
  plans of ``at_exit(k).split(s)`` and the reference layer walk.
* **exit pricing** — a taken exit is priced as the network that runs,
  ``at_exit(k)`` split at the offload point.
* **deadline optimization** — ``choose_under_deadline`` returns the
  highest-accuracy feasible (split, exit) pair; accuracy is monotone
  non-decreasing in the deadline (the feasible set only grows), every
  feasible choice meets its SLO, and an infeasible deadline degrades to
  the least-late pair instead of raising.
* **tie-breaking** — ``choose`` resolves equal-cost splits toward the
  earlier index, independent of sweep enumeration order (it used to
  silently prefer whichever the sweep listed first).
* **dead-on-arrival accounting** — a serving-loop item whose deadline
  passed while it queued is counted (and flagged) once, at dequeue,
  instead of at completion; misses that happen *during* execution are
  still counted at completion, and no item is ever counted twice.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partition import (
    PartitionEstimate,
    PartitionOptimizer,
)
from repro.devices import edge_server_x86, odroid_xu4_client
from repro.devices.device import Device
from repro.devices.predictor import fit_predictor_for
from repro.netsim import NetemProfile
from repro.nn.caffemodel import load_model_files, save_model_files
from repro.nn.cost import network_costs
from repro.nn.prototxt import network_from_prototxt, network_to_prototxt
from repro.nn.zoo import EXIT_MODELS, build_model
from repro.serve import ServingConfig, ServingLoop
from repro.sim import SeededRng, Simulator
from tests.memos import clear_memos


def model_input(model, seed=7):
    return SeededRng(seed, f"exits/{model.name}").uniform_array(
        tuple(model.network.input_shape), 0, 255
    )


@pytest.fixture(scope="module")
def exits_model():
    return build_model("smallnet_exits")


@pytest.fixture(scope="module")
def exits_network(exits_model):
    return exits_model.network


@pytest.fixture(scope="module")
def optimizer(exits_network):
    costs = network_costs(exits_network)
    client_profile = odroid_xu4_client()
    server_profile = edge_server_x86()
    return PartitionOptimizer(
        fit_predictor_for(client_profile, costs, noise=0.0),
        fit_predictor_for(server_profile, costs, noise=0.0),
        client_profile,
        server_profile,
    )


@pytest.fixture
def link():
    return NetemProfile.wifi_30mbps()


class TestExitZoo:
    @pytest.mark.parametrize("name", EXIT_MODELS)
    def test_exit_points_end_with_final(self, name):
        exits = build_model(name).network.exit_points()
        assert len(exits) > 1
        assert all(not exit.is_final for exit in exits[:-1])
        assert exits[-1].is_final
        assert exits[-1].name == "final"

    @pytest.mark.parametrize("name", EXIT_MODELS)
    def test_exit_accuracy_increases_with_depth(self, name):
        exits = build_model(name).network.exit_points()
        accuracies = [exit.accuracy for exit in exits]
        assert accuracies == sorted(accuracies)
        assert all(0.0 < accuracy <= 1.0 for accuracy in accuracies)

    def test_at_exit_prunes_and_reports_exit_accuracy(self, exits_network):
        exit = exits_network.exit_points()[0]
        pruned = exits_network.at_exit(exit.index)
        assert len(pruned.layers) < len(exits_network.layers)
        assert pruned.final_accuracy == exit.accuracy
        # layer objects (and therefore weights) are shared, not copied
        assert pruned.layers[1] is exits_network.layers[1]

    def test_at_exit_final_returns_self_network(self, exits_network):
        final = exits_network.exit_points()[-1]
        pruned = exits_network.at_exit(final.index)
        assert len(pruned.layers) == len(exits_network.layers)


@pytest.mark.exits
class TestSplitExitEquivalence:
    def test_bitwise_at_every_pair(self):
        for name in EXIT_MODELS:
            network = build_model(name).network
            x = SeededRng(3, "exits/pairs").uniform_array(
                tuple(network.input_shape), 0, 255
            )
            for exit in network.exit_points()[:-1]:
                pruned = network.at_exit(exit.index)
                walk = pruned.forward_reference(x)
                for point in network.offload_points():
                    if not 0 < point.index < exit.index:
                        continue
                    halves = pruned.split(point.index)
                    clear_memos()  # the rear executes, not answered by a link
                    planned = halves.rear.forward(halves.front.forward(x))
                    assert np.array_equal(planned, walk), (
                        f"{name}: split @{point.index} x exit {exit.name} "
                        "diverged from the reference walk"
                    )

    def test_forward_exit_optimized_matches_walk(self, exits_network):
        x = SeededRng(5, "exits/forward").uniform_array(
            tuple(exits_network.input_shape), 0, 255
        )
        clear_memos()
        for exit in exits_network.exit_points():
            pruned = exits_network.at_exit(exit.index)
            assert np.array_equal(pruned.forward(x), pruned.forward_reference(x))

    @pytest.mark.parametrize("name", EXIT_MODELS)
    def test_description_roundtrip_preserves_exits(self, name):
        model = build_model(name)
        restored = network_from_prototxt(network_to_prototxt(model.network))
        assert restored.exit_points() == model.network.exit_points()
        assert restored.final_accuracy == model.network.final_accuracy
        assert restored.describe() == model.network.describe()

    def test_save_load_roundtrip_preserves_exit_inference(
        self, tmp_path, exits_model
    ):
        loaded = load_model_files(*save_model_files(exits_model, str(tmp_path)))
        x = model_input(exits_model)
        for exit in exits_model.network.exit_points():
            original = exits_model.network.at_exit(exit.index).forward(x)
            restored = loaded.network.at_exit(exit.index).forward(x)
            assert np.array_equal(restored, original)

    def test_exit_point_must_be_an_exit_head(self, exits_network):
        assert exits_network.layers[1].kind != "exit"
        with pytest.raises(ValueError):
            exits_network.at_exit(1)


class TestExitPricing:
    def test_a_taken_exit_is_priced_as_the_network_that_runs(
        self, exits_network, optimizer, link
    ):
        """The pruned network has no identity entry for the taken head,
        so its rear costs no per-layer overhead for one."""
        for exit in exits_network.exit_points()[:-1]:
            costs = network_costs(exits_network.at_exit(exit.index))
            for point in exits_network.offload_points():
                if point.index >= exit.index:
                    continue
                pair = optimizer.estimate_exit(
                    exits_network, point, link, exit
                ).estimate
                rear = [cost for cost in costs if cost.spine_index > point.index]
                front = [cost for cost in costs if cost.spine_index <= point.index]
                assert pair.server_seconds == (
                    optimizer.server_predictor.predict_forward(rear)
                ), (exit.name, point.label)
                assert pair.client_seconds == (
                    optimizer.client_predictor.predict_forward(front)
                ), (exit.name, point.label)


class TestChooseUnderDeadline:
    def test_generous_deadline_picks_full_network(
        self, exits_network, optimizer, link
    ):
        choice = optimizer.choose_under_deadline(exits_network, link, 3600.0)
        assert choice.feasible
        assert choice.exit.is_final
        assert choice.accuracy == exits_network.final_accuracy

    def test_feasible_choice_meets_its_deadline(
        self, exits_network, optimizer, link
    ):
        for deadline_s in (0.05, 0.1, 0.5, 2.0):
            choice = optimizer.choose_under_deadline(
                exits_network, link, deadline_s
            )
            if choice.feasible:
                assert choice.best.total_seconds <= deadline_s

    def test_infeasible_deadline_falls_back_to_fastest(
        self, exits_network, optimizer, link
    ):
        choice = optimizer.choose_under_deadline(exits_network, link, 1e-6)
        assert not choice.feasible
        assert choice.best.total_seconds == min(
            pair.total_seconds for pair in choice.estimates
        )

    def test_splits_never_at_or_past_their_exit(
        self, exits_network, optimizer, link
    ):
        choice = optimizer.choose_under_deadline(exits_network, link, 1.0)
        assert all(
            pair.point.index < pair.exit.index for pair in choice.estimates
        )

    def test_invalid_deadline_rejected(self, exits_network, optimizer, link):
        with pytest.raises(ValueError):
            optimizer.choose_under_deadline(exits_network, link, 0.0)

    @settings(max_examples=30, deadline=None)
    @given(
        tight=st.floats(min_value=1e-3, max_value=10.0, allow_nan=False),
        slack=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    )
    def test_accuracy_monotone_in_deadline(self, tight, slack):
        # Module-scoped fixtures don't mix with Hypothesis; rebuild once
        # per example from the process-wide memoized model.
        network = build_model("smallnet_exits").network
        costs = network_costs(network)
        client_profile = odroid_xu4_client()
        server_profile = edge_server_x86()
        optimizer = PartitionOptimizer(
            fit_predictor_for(client_profile, costs, noise=0.0),
            fit_predictor_for(server_profile, costs, noise=0.0),
            client_profile,
            server_profile,
        )
        link = NetemProfile.wifi_30mbps()
        first = optimizer.choose_under_deadline(network, link, tight)
        second = optimizer.choose_under_deadline(network, link, tight + slack)
        # The feasible set only grows with the deadline, so accuracy can
        # never decrease — and a feasible choice never breaks its SLO.
        assert second.accuracy >= first.accuracy or not first.feasible
        for choice, deadline_s in ((first, tight), (second, tight + slack)):
            if choice.feasible:
                assert choice.best.total_seconds <= deadline_s


class _RiggedOptimizer(PartitionOptimizer):
    """Sweeps in reverse with rigged costs — tie-break order probe."""

    def __init__(self, inner: PartitionOptimizer, costs_by_index):
        super().__init__(
            inner.client_predictor,
            inner.server_predictor,
            inner.client_profile,
            inner.server_profile,
        )
        self._costs_by_index = costs_by_index

    def estimate(self, network, point, link):
        return PartitionEstimate(
            point=point,
            client_seconds=self._costs_by_index.get(point.index, 2.0),
            transfer_seconds=0.0,
            server_seconds=0.0,
            overhead_seconds=0.0,
            feature_bytes=1,
        )

    def sweep(self, network, link, points=None):
        if points is None:
            points = network.offload_points()
        # Reverse enumeration: a choice that leans on "first wins" picks
        # the *later* of two tied splits here.
        return [self.estimate(network, point, link) for point in reversed(points)]


class TestChooseTieBreak:
    def test_equal_cost_tie_resolves_to_earlier_split(
        self, exits_network, optimizer, link
    ):
        points = exits_network.offload_points()
        tied = (points[2].index, points[5].index)
        rigged = _RiggedOptimizer(
            optimizer, {index: 1.0 for index in tied}
        )
        choice = rigged.choose(exits_network, link, denature=False)
        # Both tied splits cost 1.0 (everything else 2.0); the earlier
        # index must win even though the sweep enumerated it last.
        assert choice.point.index == min(tied)

    def test_all_tied_picks_first_offload_point(
        self, exits_network, optimizer, link
    ):
        points = exits_network.offload_points()
        rigged = _RiggedOptimizer(
            optimizer, {point.index: 1.0 for point in points}
        )
        choice = rigged.choose(exits_network, link, denature=False)
        assert choice.point.index == min(point.index for point in points)


def _run_serving(deadline_s, exec_seconds, timeout_s):
    """One item through a bare serving loop; returns (loop, completed)."""
    sim = Simulator()
    device = Device(sim, edge_server_x86())
    loop = ServingLoop(
        sim,
        device,
        "edge-test",
        ServingConfig(max_batch=8, batch_timeout_s=timeout_s),
    )
    completed = []

    def submitter():
        yield sim.timeout(0.0)
        item = loop.submit(
            sender="user-0",
            request_id=1,
            browser=None,
            event=None,
            exec_seconds=exec_seconds,
            model_id="m",
            feature=object(),
            deadline_s=deadline_s,
        )
        item.done.add_callback(lambda event: completed.append(event.value))

    sim.spawn(submitter())
    sim.run(until=600.0)
    return loop, completed


class TestDeadOnArrival:
    def test_stale_item_counted_once_at_dequeue(self):
        # The deadline (1 ms) expires while the lone item waits out the
        # batch timeout of 50 ms: dead on arrival.  The miss is counted
        # once, at dequeue — the completion check must not re-count it.
        loop, completed = _run_serving(
            deadline_s=0.001, exec_seconds=0.001, timeout_s=0.05
        )
        assert len(completed) == 1
        assert completed[0].dead_on_arrival
        assert loop.stats["dead_on_arrival"] == 1
        assert loop.stats["deadline_misses"] == 1

    def test_stale_item_still_executes(self):
        # A late answer beats none: the item completes normally.
        _, completed = _run_serving(
            deadline_s=0.001, exec_seconds=0.001, timeout_s=0.05
        )
        assert completed[0].exec_share_seconds > 0.0

    def test_execution_miss_counted_at_completion_not_flagged(self):
        # Deadline survives the queue (10 ms timeout < 100 ms SLO) but
        # dies during the 1 s execution: a plain completion miss.
        loop, completed = _run_serving(
            deadline_s=0.1, exec_seconds=1.0, timeout_s=0.01
        )
        assert len(completed) == 1
        assert not completed[0].dead_on_arrival
        assert loop.stats["dead_on_arrival"] == 0
        assert loop.stats["deadline_misses"] == 1

    def test_met_deadline_counts_nothing(self):
        loop, completed = _run_serving(
            deadline_s=30.0, exec_seconds=0.001, timeout_s=0.01
        )
        assert len(completed) == 1
        assert loop.stats["dead_on_arrival"] == 0
        assert loop.stats["deadline_misses"] == 0
