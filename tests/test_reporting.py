"""Tests for report rendering and calibration constants."""

import pytest

from repro.eval import calibration
from repro.eval.reporting import (
    format_bar_chart,
    format_series,
    format_stacked_bars,
    format_table,
)


class TestFormatTable:
    def test_empty_rows(self):
        text = format_table(["a", "b"], [])
        assert "a" in text and "-" in text

    def test_numeric_right_alignment(self):
        text = format_table(["name", "v"], [["x", 1.0], ["longer", 123.45]])
        lines = text.splitlines()
        assert lines[-1].endswith("123.45")

    def test_title_optional(self):
        with_title = format_table(["a"], [[1]], title="T")
        without = format_table(["a"], [[1]])
        assert with_title.startswith("T\n")
        assert not without.startswith("T")

    def test_mixed_types(self):
        text = format_table(["k", "v"], [["flag", "True"], ["n", 7]])
        assert "flag" in text and "7" in text


class TestBarChart:
    def test_peak_gets_full_width(self):
        text = format_bar_chart({"a": 10.0, "b": 5.0}, width=10)
        lines = text.splitlines()
        assert "█" * 10 in lines[0]
        assert "█" * 5 in lines[1]
        assert "█" * 6 not in lines[1]

    def test_values_rendered(self):
        text = format_bar_chart({"x": 2.5})
        assert "2.50s" in text

    def test_custom_unit(self):
        text = format_bar_chart({"x": 1.0}, unit="MB")
        assert "1.00MB" in text

    def test_zero_values_allowed(self):
        text = format_bar_chart({"a": 0.0, "b": 0.0})
        assert "0.00" in text

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            format_bar_chart({})

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            format_bar_chart({"a": -1.0})

    def test_title(self):
        assert format_bar_chart({"a": 1.0}, title="T").startswith("T\n")


class TestStackedBarsAndSeries:
    def test_stacked_bars_total(self):
        text = format_stacked_bars({"bar": {"x": 2.0, "y": 2.0}})
        assert "total 4.00s" in text
        assert "50.0%" in text

    def test_stacked_bars_zero_total(self):
        text = format_stacked_bars({"bar": {}})
        assert "total 0.00s" in text

    def test_series_grid(self):
        text = format_series(["p1"], {"a": [1.0], "b": [2.0]})
        assert "p1" in text and "1.00" in text and "2.00" in text


class TestCalibration:
    def test_paper_link_is_30mbps(self):
        link = calibration.paper_link()
        assert link.bandwidth_bps == 30e6
        assert link.latency_s == pytest.approx(0.001)

    def test_partial_point_is_first_pool(self):
        assert calibration.FIG6_PARTIAL_POINT == "1st_pool"

    def test_input_seeds_cover_paper_models(self):
        from repro.nn.zoo import PAPER_MODELS

        assert set(calibration.INPUT_SEEDS) == set(PAPER_MODELS)
