"""Campaign determinism across execution strategies.

The contract the execution engine must honor: fanning sections across
worker processes or serving them from the result cache changes wall-clock
only — the report markdown and the merged telemetry are byte-identical.
"""

import pytest

from repro.eval.campaign import build_campaign_tasks, run_campaign
from repro.obs import to_prometheus_text


@pytest.fixture(scope="module")
def serial_result():
    return run_campaign(quick=True, include_ablations=False, jobs=1)


class TestParallelDeterminism:
    @pytest.fixture(scope="class")
    def parallel_result(self):
        return run_campaign(quick=True, include_ablations=False, jobs=4)

    def test_report_byte_identical(self, serial_result, parallel_result):
        assert parallel_result.report_markdown == serial_result.report_markdown

    def test_merged_metrics_identical(self, serial_result, parallel_result):
        assert to_prometheus_text(parallel_result.metrics) == to_prometheus_text(
            serial_result.metrics
        )

    def test_engine_saw_all_sections(self, parallel_result):
        stats = parallel_result.engine_stats
        assert stats.jobs == 4
        assert stats.cache_misses == len(stats.tasks)


class TestCacheDeterminism:
    @pytest.fixture(scope="class")
    def cache_runs(self, tmp_path_factory):
        cache_dir = str(tmp_path_factory.mktemp("campaign-cache"))
        cold = run_campaign(
            quick=True, include_ablations=False, cache_dir=cache_dir
        )
        warm = run_campaign(
            quick=True, include_ablations=False, cache_dir=cache_dir
        )
        return cold, warm

    def test_cold_run_misses(self, cache_runs):
        cold, _ = cache_runs
        assert cold.engine_stats.cache_hits == 0

    def test_warm_run_all_hits(self, cache_runs):
        _, warm = cache_runs
        assert warm.engine_stats.cache_hits == len(warm.engine_stats.tasks)

    def test_reports_identical(self, serial_result, cache_runs):
        cold, warm = cache_runs
        assert cold.report_markdown == serial_result.report_markdown
        assert warm.report_markdown == serial_result.report_markdown

    def test_merged_metrics_identical(self, serial_result, cache_runs):
        _, warm = cache_runs
        assert to_prometheus_text(warm.metrics) == to_prometheus_text(
            serial_result.metrics
        )

    def test_cached_sections_keep_compute_cost(self, cache_runs):
        cold, warm = cache_runs
        assert warm.section_wall_seconds == cold.section_wall_seconds

    def test_no_cache_flag_recomputes(self, tmp_path):
        result = run_campaign(
            quick=True,
            include_ablations=False,
            cache_dir=str(tmp_path),
            use_cache=False,
        )
        result = run_campaign(
            quick=True,
            include_ablations=False,
            cache_dir=str(tmp_path),
            use_cache=False,
        )
        assert result.engine_stats.cache_hits == 0


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
        assert fig8.kwargs_dict()["max_points"] == 6

    def test_timings_block_is_opt_in(self, serial_result):
        assert "Campaign timings" not in serial_result.report_markdown
        timed = run_campaign(
            quick=True, include_ablations=False, include_timings=True
        )
        assert "Campaign timings" in timed.report_markdown
