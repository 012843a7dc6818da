"""Tests for the streaming-video workload."""

import pytest

from repro.eval.streaming import FrameRecord, StreamReport, run_stream


class TestStreamMechanics:
    @pytest.fixture(scope="class")
    def report(self):
        return run_stream("smallnet", frames=5, fps=5.0, mode="offload")

    def test_all_frames_processed(self, report):
        assert len(report.records) == 5
        assert [record.index for record in report.records] == list(range(5))

    def test_every_frame_classified_correctly(self, report):
        assert report.all_correct

    def test_first_frame_full_then_deltas(self, report):
        kinds = [record.snapshot_kind for record in report.records]
        assert kinds[0] == "full"
        assert all(kind == "delta" for kind in kinds[1:])

    def test_each_delta_carries_its_own_frame(self):
        # Regression: a replaced ImageData global was invisible to the delta
        # diff, so follow-up deltas shipped no frame and the server answered
        # for frame 0 again.  tinynet tells seed 1's frames apart (label 3,
        # then 0s), which smallnet's constant answer used to mask.
        report = run_stream("tinynet", frames=4, fps=5.0, mode="offload", seed=1)
        assert len({record.expected_label for record in report.records}) > 1
        assert [record.snapshot_kind for record in report.records][1:] == ["delta"] * 3
        assert report.all_correct

    def test_smallnet_keeps_up_at_5fps(self, report):
        assert report.keeps_up
        assert report.mean_latency < 0.2

    def test_latency_positive_and_ordered(self, report):
        for record in report.records:
            assert record.latency_seconds > 0
        times = [record.completed_at for record in report.records]
        assert times == sorted(times)

    def test_client_mode_no_snapshots(self):
        report = run_stream("smallnet", frames=3, fps=10.0, mode="client")
        assert all(record.snapshot_kind == "" for record in report.records)
        assert report.all_correct

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            run_stream("smallnet", mode="teleport")

    def test_deterministic(self):
        a = run_stream("smallnet", frames=3, fps=5.0, mode="offload")
        b = run_stream("smallnet", frames=3, fps=5.0, mode="offload")
        assert a.mean_latency == pytest.approx(b.mean_latency, rel=1e-9)


class TestBacklog:
    def test_overloaded_stream_grows_latency(self):
        # Source faster than processing: later frames wait in line.
        report = run_stream("smallnet", frames=6, fps=200.0, mode="offload")
        latencies = [record.latency_seconds for record in report.records]
        assert latencies[-1] > latencies[1]
        assert not report.keeps_up

    def test_report_helpers_on_empty(self):
        empty = StreamReport(mode="offload", model_name="x", source_fps=1.0)
        assert empty.achieved_fps == 0.0
        assert empty.mean_latency == 0.0
        assert empty.all_correct
