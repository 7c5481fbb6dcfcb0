"""Unit tests for benchmark statistics, sweeps, and reporting."""

import pytest

from repro.bench import (
    Sweep,
    SweepPoint,
    ascii_plot,
    format_sweep,
    format_table,
    linear_fit,
    percentile,
    run_sweep,
    summarize,
)


class TestPercentile:
    def test_median_of_odd(self):
        assert percentile([3, 1, 2], 50) == 2

    def test_interpolation(self):
        assert percentile([0, 10], 25) == 2.5

    def test_extremes(self):
        values = list(range(100))
        assert percentile(values, 0) == 0
        assert percentile(values, 100) == 99

    def test_single_value(self):
        assert percentile([7], 99) == 7

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1], 101)


class TestSummary:
    def test_basic_summary(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0])
        assert summary.count == 4
        assert summary.mean == 2.5
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0
        assert summary.p50 == 2.5

    def test_single_sample_stdev_zero(self):
        assert summarize([5.0]).stdev == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestLinearFit:
    def test_perfect_line(self):
        fit = linear_fit([1, 2, 3, 4], [3, 5, 7, 9])
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(1.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_noisy_line_high_r2(self):
        xs = list(range(20))
        ys = [2 * x + 1 + (0.1 if x % 2 else -0.1) for x in xs]
        fit = linear_fit(xs, ys)
        assert fit.r_squared > 0.99

    def test_flat_line(self):
        fit = linear_fit([1, 2, 3], [5, 5, 5])
        assert fit.slope == 0.0
        assert fit.r_squared == 1.0

    def test_degenerate_x_rejected(self):
        with pytest.raises(ValueError):
            linear_fit([1, 1], [1, 2])

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            linear_fit([1], [1])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            linear_fit([1, 2], [1])


class TestSweep:
    def test_run_sweep_collects_points(self):
        sweep = run_sweep("demo", "n", [1, 2, 3], lambda n: {"square": n * n})
        assert sweep.parameters() == [1, 2, 3]
        assert sweep.series("square") == [1, 4, 9]
        assert sweep.columns() == ["square"]

    def test_sweep_point_row(self):
        point = SweepPoint(parameter=5, measurements={"a": 1, "b": 2})
        assert point.row(["b", "a"]) == [5, 2, 1]


class TestReport:
    def test_format_table_aligns(self):
        text = format_table(["n", "value"], [[1, 10.5], [100, 2]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "n" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_format_sweep(self):
        sweep = run_sweep("messages", "peers", [2, 4], lambda n: {"msgs": 10 * n})
        text = format_sweep(sweep)
        assert "peers" in text
        assert "msgs" in text
        assert "40" in text

    def test_ascii_plot_renders(self):
        text = ascii_plot([1, 2, 3, 4], [10, 20, 30, 40], width=20, height=5)
        assert text.count("*") == 4

    def test_ascii_plot_flat_series(self):
        text = ascii_plot([1, 2, 3], [5, 5, 5], width=10, height=4)
        assert text.count("*") == 3  # degenerate y-range still renders

    def test_ascii_plot_rejects_bad_input(self):
        with pytest.raises(ValueError):
            ascii_plot([1], [1, 2])
        with pytest.raises(ValueError):
            ascii_plot([], [])

    def test_bool_and_float_formatting(self):
        text = format_table(["x"], [[True], [0.12345], [12345.6]])
        assert "yes" in text
        assert "0.1235" in text or "0.1234" in text
        assert "12,346" in text
