"""Tests for the partition-point optimizer (paper §III.B.2)."""

import pytest

from repro.core.partition import (
    RETURN_DELTA_ALLOWANCE,
    SNAPSHOT_CODE_ALLOWANCE,
    PartitionOptimizer,
    predictions_by_label,
)
from repro.core.snapshot.codegen import render_tensor_text
from repro.devices import edge_server_x86, odroid_xu4_client
from repro.devices.predictor import fit_predictor_for
from repro.netsim import NetemProfile
from repro.nn.cost import network_costs
from repro.nn.zoo import BUILDERS, build_model, smallnet
from repro.sim import SeededRng


@pytest.fixture(scope="module")
def network():
    return smallnet().network


def make_optimizer_for(network, **kwargs):
    costs = network_costs(network)
    client_profile = odroid_xu4_client()
    server_profile = edge_server_x86()
    return PartitionOptimizer(
        fit_predictor_for(client_profile, costs, noise=0.0),
        fit_predictor_for(server_profile, costs, noise=0.0),
        client_profile,
        server_profile,
        **kwargs,
    )


@pytest.fixture(scope="module")
def optimizer(network):
    return make_optimizer_for(network)


@pytest.fixture
def link():
    return NetemProfile.wifi_30mbps()


class TestEstimates:
    def test_estimate_components_positive(self, network, optimizer, link):
        point = network.point_by_label("1st_pool")
        estimate = optimizer.estimate(network, point, link)
        assert estimate.client_seconds > 0
        assert estimate.server_seconds > 0
        assert estimate.transfer_seconds > 0
        assert estimate.total_seconds == pytest.approx(
            estimate.client_seconds
            + estimate.server_seconds
            + estimate.transfer_seconds
            + estimate.overhead_seconds
        )

    def test_deeper_split_shifts_work_to_client(self, network, optimizer, link):
        early = optimizer.estimate(network, network.point_by_label("input"), link)
        late = optimizer.estimate(network, network.point_by_label("2nd_pool"), link)
        assert late.client_seconds > early.client_seconds
        assert late.server_seconds < early.server_seconds

    def test_feature_bytes_match_layer_output(self, network, optimizer, link):
        from repro.nn.tensor import text_serialized_bytes

        point = network.point_by_label("1st_conv")
        estimate = optimizer.estimate(network, point, link)
        expected = text_serialized_bytes(network.layers[point.index].out_shape)
        assert estimate.feature_bytes == expected

    def test_sweep_covers_all_points(self, network, optimizer, link):
        estimates = optimizer.sweep(network, link)
        assert len(estimates) == len(network.offload_points())

    def test_predictions_by_label(self, network, optimizer, link):
        table = predictions_by_label(optimizer.sweep(network, link))
        assert "1st_pool" in table
        assert all(value > 0 for value in table.values())


class TestChoice:
    def test_choice_is_minimum_of_sweep(self, network, optimizer, link):
        choice = optimizer.choose(network, link, denature=False)
        best_total = min(e.total_seconds for e in choice.estimates)
        assert choice.best.total_seconds == best_total

    def test_denature_excludes_pre_conv_points(self, network, optimizer, link):
        choice = optimizer.choose(network, link, denature=True)
        first_conv = next(
            i for i, layer in enumerate(network.layers) if layer.kind == "conv"
        )
        assert all(e.point.index >= first_conv for e in choice.estimates)

    def test_without_denature_input_point_allowed(self, network, optimizer, link):
        choice = optimizer.choose(network, link, denature=False)
        labels = {e.point.label for e in choice.estimates}
        assert "input" in labels

    def test_fast_network_prefers_early_offload(self, network, optimizer):
        fast = NetemProfile(bandwidth_bps=1e9, latency_s=0.0001)
        choice = optimizer.choose(network, fast, denature=False)
        # With a gigabit link the client should do as little as possible.
        assert choice.point.label == "input"

    def test_slow_network_moves_split_deeper(self, network, optimizer):
        slow = NetemProfile(bandwidth_bps=2e5)  # 200 kbps
        fast = NetemProfile(bandwidth_bps=1e9)
        slow_choice = optimizer.choose(network, slow, denature=False)
        fast_choice = optimizer.choose(network, fast, denature=False)
        assert slow_choice.point.index >= fast_choice.point.index

    def test_estimate_for_label_lookup(self, network, optimizer, link):
        choice = optimizer.choose(network, link, denature=True)
        estimate = choice.estimate_for("1st_pool")
        assert estimate.point.label == "1st_pool"
        with pytest.raises(KeyError):
            choice.estimate_for("not-a-point")

    def test_optimizer_never_worse_than_any_candidate(self, network, optimizer, link):
        """The optimizer's choice is optimal among swept candidates."""
        choice = optimizer.choose(network, link, denature=True)
        for estimate in choice.estimates:
            assert choice.best.total_seconds <= estimate.total_seconds + 1e-9


class TestOneOffloadPrice:
    """The before-ACK decision and Fig. 8 read one price: ``estimate``,
    with the model files still pending added to the uplink message."""

    @pytest.mark.parametrize("model_name", sorted(BUILDERS))
    def test_pending_bytes_only_lengthen_the_uplink(self, model_name):
        network = build_model(model_name).network
        optimizer = make_optimizer_for(network)
        link = NetemProfile.wifi_30mbps()
        pending = 3_000_000
        for point in network.offload_points():
            after_ack = optimizer.estimate(network, point, link)
            assert optimizer.estimate(network, point, link, 0) == after_ack
            before_ack = optimizer.estimate(network, point, link, pending)
            outbound = after_ack.feature_bytes + SNAPSHOT_CODE_ALLOWANCE
            assert before_ack.transfer_seconds == link.transfer_seconds(
                pending + outbound
            ) + link.transfer_seconds(RETURN_DELTA_ALLOWANCE)
            assert before_ack.transfer_seconds > after_ack.transfer_seconds
            assert (
                before_ack.client_seconds,
                before_ack.server_seconds,
                before_ack.overhead_seconds,
                before_ack.feature_bytes,
            ) == (
                after_ack.client_seconds,
                after_ack.server_seconds,
                after_ack.overhead_seconds,
                after_ack.feature_bytes,
            )

    @pytest.mark.parametrize("model_name", sorted(BUILDERS))
    def test_decide_prices_offloading_at_the_input_point(self, model_name):
        network = build_model(model_name).network
        optimizer = make_optimizer_for(network)
        link = NetemProfile.wifi_30mbps()
        input_point = network.offload_points()[0]
        assert input_point.label == "input"
        local = optimizer.client_predictor.predict_forward(network_costs(network))
        for pending in (0, 45_000_000):
            decision = optimizer.decide(network, link, pending)
            offload = optimizer.estimate(
                network, input_point, link, pending
            ).total_seconds
            assert decision.predicted_offload_seconds == offload
            assert decision.predicted_local_seconds == local
            assert decision.action == ("local" if local <= offload else "offload")


class TestPriceIsWhatShips:
    """The optimizer prices a split's feature as the decimal text capture
    renders for it — 18 B per value, an upper bound on that text's length
    (17 B per finite non-negative value, 18 B per negative one, one
    separator fewer than values)."""

    @pytest.mark.parametrize(
        "model_name, labels",
        [
            ("smallnet", None),
            ("agenet", None),
            ("googlenet", ("1st_conv", "1st_pool", "5th_pool")),
        ],
    )
    def test_price_bounds_the_rendered_feature_text(self, model_name, labels):
        model = build_model(model_name)
        network = model.network
        optimizer = make_optimizer_for(network)
        link = NetemProfile.wifi_30mbps()
        image = SeededRng(1, "price").uniform_array(
            tuple(network.input_shape), 0, 255
        )
        points = network.offload_points()
        if labels is not None:
            points = [network.point_by_label(label) for label in labels]
        assert len(points) >= 3
        for point in points:
            front, _rear = model.split(point.index)
            feature = front.inference(image)
            text = render_tensor_text(feature)
            n = feature.size
            priced = optimizer.estimate(network, point, link).feature_bytes
            assert 17 * n - 1 <= len(text) <= 18 * n == priced, point.label

    def test_feature_size_is_not_settable(self, network):
        from repro.eval.fig8 import make_optimizer

        with pytest.raises(TypeError):
            make_optimizer_for(network, feature_bytes_fn=len)
        with pytest.raises(TypeError):
            make_optimizer("agenet", feature_bytes_fn=len)
