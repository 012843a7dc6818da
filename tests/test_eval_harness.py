"""Integration tests for the experiment harness (paper-scale shape checks).

These run the actual figure/table generators — restricted to the cheaper
models where full sweeps would be slow — and assert the paper's shape
claims via the ``check_*_shape`` validators the benchmarks also use.
"""

import pytest

from repro.eval.fig1 import format_fig1, run_fig1
from repro.eval.fig6 import check_fig6_shape, format_fig6, run_fig6_model
from repro.eval.fig7 import check_fig7_shape, format_fig7, run_fig7
from repro.eval.fig8 import check_fig8_shape, format_fig8, run_fig8_model, sweep_labels
from repro.eval.reporting import format_series, format_stacked_bars, format_table
from repro.eval.table1 import check_table1_shape, format_table1, run_table1_model


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1.5], ["bb", 22.25]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "1.50" in text
        assert "22.25" in text

    def test_format_stacked_bars_percentages(self):
        text = format_stacked_bars({"bar": {"x": 1.0, "y": 3.0}})
        assert "75.0%" in text

    def test_format_series(self):
        text = format_series(["p1", "p2"], {"s": [1.0, 2.0]})
        assert "p1" in text and "2.00" in text

    def test_zero_segments_skipped(self):
        text = format_stacked_bars({"bar": {"x": 1.0, "zero": 0.0}})
        assert "zero" not in text


class TestFig1:
    def test_googlenet_walk_with_numeric_verification(self):
        rows = run_fig1("googlenet", verify_numerically=True)
        by_name = {row.name: row for row in rows}
        assert by_name["pool1_3x3_s2"].output_shape == (64, 56, 56)
        assert by_name["prob"].output_shape == (1000,)

    def test_format_contains_checkpoints(self):
        text = format_fig1(run_fig1("googlenet"))
        assert "64x56x56" in text
        assert "inception_5b" in text


class TestFig6:
    @pytest.fixture(scope="class")
    def agenet_row(self):
        return run_fig6_model("agenet")

    def test_agenet_shape(self, agenet_row):
        assert check_fig6_shape([agenet_row]) == []

    def test_agenet_before_ack_slower_than_client(self, agenet_row):
        assert agenet_row.seconds("offload_before_ack") > agenet_row.seconds("client")

    def test_format(self, agenet_row):
        text = format_fig6([agenet_row])
        assert "agenet" in text
        assert "offload_after_ack" in text


class TestFig7:
    @pytest.fixture(scope="class")
    def bars(self):
        return run_fig7(models=("agenet",))

    def test_shape(self, bars):
        assert check_fig7_shape(bars) == []

    def test_two_bars_per_model(self, bars):
        assert len(bars) == 2
        assert {bar.configuration for bar in bars} == {
            "offload_after_ack",
            "offload_partial",
        }

    def test_snapshot_overhead_negligible(self, bars):
        for bar in bars:
            assert bar.snapshot_overhead() < 0.25 * bar.total

    def test_format(self, bars):
        text = format_fig7(bars)
        assert "server_exec" in text


class TestFig8:
    @pytest.fixture(scope="class")
    def agenet_points(self):
        return run_fig8_model("agenet")

    def test_shape(self, agenet_points):
        assert check_fig8_shape({"agenet": agenet_points}) == []

    def test_sweep_labels_in_spine_order(self):
        labels = sweep_labels("agenet")
        assert labels[0] == "input"
        assert labels.index("1st_conv") < labels.index("1st_pool")
        assert sweep_labels("agenet", max_points=3) == labels[:3]

    @pytest.mark.parametrize("max_points", [0, -1])
    def test_sweep_labels_rejects_a_non_positive_cap(self, max_points):
        with pytest.raises(ValueError, match="max_points must be >= 1"):
            sweep_labels("agenet", max_points)

    def test_conv_surge_pool_dip(self, agenet_points):
        by_label = {point.label: point for point in agenet_points}
        assert by_label["1st_conv"].feature_mb > 2 * by_label["1st_pool"].feature_mb
        assert (
            by_label["1st_pool"].measured_seconds
            < by_label["1st_conv"].measured_seconds
        )

    def test_predictions_track_measurements(self, agenet_points):
        for point in agenet_points:
            assert point.predicted_seconds == pytest.approx(
                point.measured_seconds, rel=0.25
            )

    def test_all_points_correct(self, agenet_points):
        assert all(point.result.correct for point in agenet_points)

    def test_format(self, agenet_points):
        text = format_fig8({"agenet": agenet_points})
        assert "1st_pool" in text


class TestTable1:
    @pytest.fixture(scope="class")
    def row(self):
        return run_table1_model("agenet")

    def test_shape(self, row):
        assert check_table1_shape([row]) == []

    def test_overlay_near_82mb(self, row):
        assert row.overlay_mb == pytest.approx(82.0, rel=0.05)

    def test_migration_ordering(self, row):
        assert (
            row.presend_migration_seconds
            < row.nopresend_migration_seconds
            < row.synthesis_seconds
        )

    def test_format(self, row):
        text = format_table1([row])
        assert "VM synthesis" in text
