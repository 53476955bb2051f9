"""Tests for benchmark report formatting."""

from repro.bench.report import (
    format_table,
    kv_block,
    rate_table,
    series_csv,
    series_table,
)
from repro.obs.metrics import TimeSeries


def make_series(name, samples):
    ts = TimeSeries(name)
    for t, v in samples:
        ts.append(t, v)
    return ts


class TestFormatTable:
    def test_alignment_and_separator(self):
        out = format_table(["a", "long"], [["1", "2"], ["333", "4"]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert set(lines[1]) <= {"-", " "}
        # all rows same width
        assert len({len(l) for l in lines}) == 1

    def test_non_string_cells_coerced(self):
        out = format_table(["x"], [[42]])
        assert "42" in out


class TestSeriesTable:
    def test_minutes_axis_and_interpolation(self):
        series = make_series("s", [(0.0, 0.0), (60.0, 100.0), (120.0, 300.0)])
        out = series_table({"s": series}, [60.0, 120.0])
        lines = out.splitlines()
        assert lines[0].split() == ["time(min)", "s"]
        assert lines[2].split() == ["1.0", "100"]
        assert lines[3].split() == ["2.0", "300"]

    def test_missing_values_render_dash(self):
        series = make_series("s", [(100.0, 1.0)])
        out = series_table({"s": series}, [50.0, 100.0])
        assert "-" in out.splitlines()[2]

    def test_multiple_columns(self):
        a = make_series("a", [(0.0, 1.0)])
        b = make_series("b", [(0.0, 2.0)])
        out = series_table({"a": a, "b": b}, [0.0])
        assert out.splitlines()[2].split() == ["0.0", "1", "2"]

    def test_custom_value_format(self):
        series = make_series("s", [(0.0, 1234567.0)])
        out = series_table({"s": series}, [0.0],
                           value_fmt=lambda v: f"{v / 1e6:.1f}M")
        assert "1.2M" in out


class TestRateTable:
    def test_rates_between_samples(self):
        series = make_series("s", [(0.0, 0.0), (60.0, 600.0), (120.0, 1800.0)])
        out = rate_table({"s": series}, [0.0, 60.0, 120.0])
        lines = out.splitlines()
        assert lines[2].split() == ["0.0-1.0", "10.0"]
        assert lines[3].split() == ["1.0-2.0", "20.0"]


class TestKvBlock:
    def test_title_and_alignment(self):
        out = kv_block("summary", {"a": 1, "longer": "x"})
        lines = out.splitlines()
        assert lines[0] == "summary"
        assert lines[1] == "-------"
        assert lines[2].startswith("a     ")

    def test_empty(self):
        assert kv_block("t", {}) == "t\n-"


class TestSeriesCsv:
    def test_header_and_rows(self):
        from repro.bench.report import series_csv

        a = make_series("a", [(0.0, 1.0), (10.0, 2.0)])
        out = series_csv({"a": a}, [0.0, 10.0])
        lines = out.splitlines()
        assert lines[0] == "time_s,a"
        assert lines[1] == "0,1"
        assert lines[2] == "10,2"

    def test_missing_values_are_empty_cells(self):
        from repro.bench.report import series_csv

        a = make_series("a", [(10.0, 5.0)])
        out = series_csv({"a": a}, [0.0, 10.0])
        assert out.splitlines()[1] == "0,"

    def test_multiple_columns(self):
        from repro.bench.report import series_csv

        a = make_series("a", [(0.0, 1.0)])
        b = make_series("b", [(0.0, 2.5)])
        out = series_csv({"a": a, "b": b}, [0.0])
        assert out.splitlines()[0] == "time_s,a,b"
        assert out.splitlines()[1] == "0,1,2.5"
