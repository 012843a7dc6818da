"""Unit tests for device profiles and the compute model."""

import pytest

from repro.devices import (
    Device,
    DeviceProfile,
    FifoResource,
    edge_server_x86,
    odroid_xu4_client,
)
from repro.nn.cost import LayerCost
from repro.sim import Simulator


def make_cost(kind="conv", flops=1e9, name="layer"):
    return LayerCost(
        name=name,
        kind=kind,
        flops=flops,
        params=0,
        output_shape=(1, 1, 1),
        spine_index=0,
    )


@pytest.fixture
def sim():
    return Simulator()


class TestDeviceProfile:
    def test_seconds_for_uses_kind_rate(self):
        profile = DeviceProfile(name="t", gflops_by_kind={"conv": 2.0})
        assert profile.seconds_for("conv", 2e9) == pytest.approx(1.0)

    def test_seconds_for_falls_back_to_default(self):
        profile = DeviceProfile(name="t", default_gflops=0.5)
        assert profile.seconds_for("mystery", 1e9) == pytest.approx(2.0)

    def test_per_layer_overhead_added(self):
        profile = DeviceProfile(
            name="t", gflops_by_kind={"conv": 1.0}, per_layer_overhead_s=0.01
        )
        assert profile.seconds_for("conv", 1e9) == pytest.approx(1.01)

    def test_paper_presets_preserve_client_server_gap(self):
        client = odroid_xu4_client()
        server = edge_server_x86()
        flops = 3.2e9  # ~GoogLeNet
        client_time = client.seconds_for("conv", flops)
        server_time = server.seconds_for("conv", flops)
        assert 5.0 < client_time / server_time < 12.0

    def test_gpu_server_is_80x(self):
        base = edge_server_x86()
        gpu = edge_server_x86(80.0)
        assert gpu.gflops_for("conv") == pytest.approx(80 * base.gflops_for("conv"))


class TestDevice:
    def test_forward_seconds_sums_layers(self, sim):
        device = Device(sim, DeviceProfile(name="t", gflops_by_kind={"conv": 1.0}))
        costs = [make_cost(flops=1e9), make_cost(flops=2e9)]
        assert device.forward_seconds(costs) == pytest.approx(3.0)

    def test_snapshot_costs_scale_with_size(self, sim):
        device = Device(sim, odroid_xu4_client())
        small = device.snapshot_capture_seconds(10_000)
        large = device.snapshot_capture_seconds(10_000_000)
        assert large > small
        # Paper: snapshot overhead for a ~0.1 MB snapshot is negligible.
        assert device.snapshot_capture_seconds(100_000) < 0.05

    def test_execute_occupies_virtual_time(self, sim):
        device = Device(sim, odroid_xu4_client())
        done = device.execute(2.5, label="inference")
        sim.run()
        assert done.ok
        assert sim.now == pytest.approx(2.5)
        assert device.busy_seconds == pytest.approx(2.5)

    def test_execute_serializes_fifo(self, sim):
        device = Device(sim, odroid_xu4_client())
        finish_times = []
        for seconds in (1.0, 2.0):
            device.execute(seconds).add_callback(
                lambda event: finish_times.append(sim.now)
            )
        sim.run()
        assert finish_times == [pytest.approx(1.0), pytest.approx(3.0)]

    def test_negative_work_rejected(self, sim):
        device = Device(sim, odroid_xu4_client())
        with pytest.raises(ValueError):
            device.execute(-1.0)


class TestFifoResource:
    def test_acquire_release_cycle(self, sim):
        resource = FifoResource(sim)
        order = []

        def user(name, hold):
            yield resource.acquire()
            order.append((name, sim.now))
            yield sim.timeout(hold)
            resource.release()

        sim.spawn(user("a", 2.0))
        sim.spawn(user("b", 1.0))
        sim.run()
        assert order == [("a", 0.0), ("b", 2.0)]

    def test_release_idle_raises(self, sim):
        resource = FifoResource(sim)
        with pytest.raises(RuntimeError):
            resource.release()
