"""Tests for the local-vs-offload decision and the privacy toolkit."""

import numpy as np
import pytest

from repro.core.partition import PartitionOptimizer
from repro.core.privacy import (
    denaturing_score,
    hill_climb_invert,
    inversion_study,
    snapshot_exposes_input,
)
from repro.core.snapshot import CaptureOptions, capture_snapshot
from repro.devices import edge_server_x86, odroid_xu4_client
from repro.devices.predictor import fit_predictor_for
from repro.netsim import NetemProfile
from repro.nn.cost import network_costs
from repro.nn.zoo import googlenet, smallnet, tinynet
from repro.sim import SeededRng
from repro.web import WebRuntime
from repro.web.app import make_inference_app, make_partial_inference_app
from repro.web.events import Event
from repro.web.values import TypedArray


def optimizer_for(network):
    costs = network_costs(network)
    client_profile = odroid_xu4_client()
    server_profile = edge_server_x86()
    return PartitionOptimizer(
        fit_predictor_for(client_profile, costs, noise=0.0),
        fit_predictor_for(server_profile, costs, noise=0.0),
        client_profile,
        server_profile,
    )


class TestOffloadPolicy:
    """Local execution versus offloading, priced by
    :meth:`PartitionOptimizer.decide`."""

    def test_small_workload_after_ack_prefers_local(self):
        # smallnet is so cheap that migration overhead dominates: the
        # policy must notice offloading does not pay here.
        network = smallnet().network
        decision = optimizer_for(network).decide(
            network, NetemProfile.wifi_30mbps(), pending_model_bytes=0
        )
        assert decision.action == "local"

    def test_heavy_workload_after_ack_prefers_offload(self):
        network = googlenet().network
        decision = optimizer_for(network).decide(
            network, NetemProfile.wifi_30mbps(), pending_model_bytes=0
        )
        assert decision.action == "offload"

    def test_huge_pending_model_prefers_local(self):
        network = googlenet().network
        decision = optimizer_for(network).decide(
            network,
            NetemProfile.wifi_30mbps(),
            pending_model_bytes=500_000_000,  # 500 MB still to upload
        )
        assert decision.action == "local"

    def test_dead_link_prefers_local(self):
        network = googlenet().network
        decision = optimizer_for(network).decide(
            network,
            NetemProfile(bandwidth_bps=1e4),  # 10 kbps
            pending_model_bytes=0,
        )
        assert decision.action == "local"


class TestInputExposure:
    def _snapshot(self, app, pixels, event, options):
        runtime = WebRuntime("c")
        runtime.load_app(app)
        runtime.globals["pending_pixels"] = pixels
        runtime.dispatch("click", "load_btn")
        if event.event_type == "front_complete":
            runtime.events.set_interceptor(lambda ev: None)
            runtime.events.mark_offload_event("front_complete")
            runtime.dispatch("click", "infer_btn")  # runs front()
        return capture_snapshot(runtime, event, options)

    def test_full_offload_exposes_input(self):
        model = smallnet()
        pixels = TypedArray(SeededRng(4, "px").uniform_array((3, 32, 32), 0, 255))
        snapshot = self._snapshot(
            make_inference_app(model),
            pixels,
            Event("click", "infer_btn"),
            CaptureOptions(include_canvas_pixels=True),
        )
        assert snapshot_exposes_input(snapshot, pixels.data)

    def test_partial_offload_hides_input(self):
        model = smallnet()
        point = model.network.point_by_label("1st_pool")
        front, rear = model.split(point.index)
        pixels = TypedArray(SeededRng(4, "px").uniform_array((3, 32, 32), 0, 255))
        snapshot = self._snapshot(
            make_partial_inference_app(front, rear),
            pixels,
            Event("front_complete", "infer_btn"),
            CaptureOptions(),
        )
        assert not snapshot_exposes_input(snapshot, pixels.data)
        # but the feature data IS in the snapshot
        assert snapshot.feature_bytes > 0


class TestInversion:
    @pytest.fixture(scope="class")
    def setup(self):
        model = tinynet()
        point = model.network.point_by_label("1st_conv")
        front, _rear = model.split(point.index)
        surrogate_model = tinynet(seed=99)
        surrogate_front, _ = surrogate_model.split(point.index)
        rng = SeededRng(5, "inv")
        image = rng.uniform_array((1, 8, 8), 0, 255)
        return front, surrogate_front, image

    def test_hill_climbing_reduces_feature_loss(self, setup):
        front, _surrogate, image = setup
        feature = front.inference(image)
        result = hill_climb_invert(
            front, feature, (1, 8, 8), iterations=300, rng=SeededRng(6, "hc"),
            true_input=image,
        )
        assert result.feature_loss < result.initial_feature_loss
        assert result.loss_reduction > 0.3

    def test_withholding_front_model_defeats_attack(self, setup):
        front, surrogate, image = setup
        study = inversion_study(
            front, surrogate, image, iterations=300, rng=SeededRng(7, "study")
        )
        assert study.defense_effective
        assert study.with_front.loss_reduction > study.without_front.loss_reduction


class TestDenaturing:
    def test_identity_feature_not_denatured(self):
        rng = SeededRng(8, "d")
        image = rng.uniform_array((3, 16, 16), 0, 255)
        # "Feature" = the image's own channels: maximally recognizable.
        score = denaturing_score(image, image.mean(axis=0, keepdims=True))
        assert score < 0.2

    def test_conv_feature_is_denatured(self):
        model = smallnet()
        point = model.network.point_by_label("1st_pool")
        front, _ = model.split(point.index)
        rng = SeededRng(9, "d2")
        image = rng.uniform_array((3, 32, 32), 0, 255)
        feature = front.inference(image)
        assert denaturing_score(image, feature) > 0.5

    def test_flat_feature_fully_denatured(self):
        rng = SeededRng(10, "d3")
        image = rng.uniform_array((3, 8, 8), 0, 255)
        assert denaturing_score(image, np.zeros(10, dtype=np.float32)) == 1.0
