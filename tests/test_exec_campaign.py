"""The campaign as a task list, and its run-to-run determinism.

The report markdown and the merged telemetry depend on the task list
alone — not on what the process ran before (warm model builds, plan
memos, the tensor-text memo).
"""

import pytest

from repro.eval.campaign import build_campaign_tasks, run_campaign
from repro.obs import to_prometheus_text


@pytest.fixture(scope="module")
def serial_result():
    return run_campaign(quick=True, include_ablations=False)


@pytest.fixture(scope="module")
def timed_result(serial_result):
    """A second campaign in the same process, timing block included."""
    return run_campaign(quick=True, include_ablations=False, include_timings=True)


def test_second_run_in_one_process_is_byte_identical(serial_result, timed_result):
    report, _, timings = timed_result.report_markdown.partition(
        "\n### Campaign timings"
    )
    assert timings
    assert report == serial_result.report_markdown
    assert to_prometheus_text(timed_result.metrics) == to_prometheus_text(
        serial_result.metrics
    )


class TestTaskList:
    def test_report_order_and_keys(self):
        tasks = build_campaign_tasks(["agenet"], include_ablations=True)
        assert [t.key for t in tasks] == [
            "fig1",
            "fig6/agenet",
            "fig7/agenet",
            "fig8/agenet",
            "table1/agenet",
            "ablations/bandwidth",
            "ablations/baselines",
            "ablations/session_cache",
        ]

    def test_quick_truncates_fig8(self):
        [fig8] = [
            t
            for t in build_campaign_tasks(["agenet"], quick=True)
            if t.key.startswith("fig8")
        ]
        assert fig8.kwargs["max_points"] == 6

    def test_timings_block_is_opt_in(self, serial_result, timed_result):
        assert "Campaign timings" not in serial_result.report_markdown
        _, _, timings = timed_result.report_markdown.partition("### Campaign timings")
        for stats in timed_result.engine_stats.tasks:
            assert stats.key in timings
        assert "cached" not in timings and "jobs" not in timings
