import numpy as np
import pytest

from soesn import svgplot

from conftest import per_point_line_chart

_t = np.arange(301)
_wave = np.sin(0.05 * _t)

CHARTS = {
    "integer_xs": [
        ("without ensemble", [4, 10, 25, 50], [0.0, 0.1, 0.35, 0.6]),
        ("with ensemble", [4, 10, 25, 50], [1.0, 0.9, 0.95, 1.0]),
    ],
    # a constant series spans only its 0.05 pad; at 1e15 (spacing 0.125)
    # the pad rounds away, and with one x both axes take their hi <= lo branch
    "constant_series": [("flat", _t, np.full(_t.size, 0.25))],
    "degenerate_axes": [("point", [3.0], [1e15]), ("", [3.0, 3.0], [1e15, 1e15])],
    "palette_wrap": [(f"x{i}", _t, np.cos(0.01 * (i + 1) * _t)) for i in range(9)],
    "unlabelled_and_negative": [("", -_t, _wave), ("", -_t, -_wave)],
}


@pytest.mark.parametrize("timestamp", [None, "2026-01-01T00:00:00Z"])
@pytest.mark.parametrize("chart", sorted(CHARTS))
def test_line_chart_matches_per_point_writer(chart, timestamp, tmp_path):
    ours, oracle = tmp_path / "ours.svg", tmp_path / "oracle.svg"
    args = (CHARTS[chart], f"chart {chart}", "x", "y")
    svgplot.line_chart(ours, *args, timestamp=timestamp)
    per_point_line_chart(oracle, *args, timestamp=timestamp)
    assert ours.read_bytes() == oracle.read_bytes()


@pytest.mark.parametrize("value", [1e16, -1e17, 1e300])
def test_constant_series_beyond_unit_spacing_still_draws(value, tmp_path):
    # at |y| >= 2**53 the pad and a unit step both round away, leaving an
    # empty axis range; it used to divide by zero
    path = tmp_path / "flat.svg"
    svgplot.line_chart(path, [("point", [3.0], [value])], "t")
    svg = path.read_text()
    assert svg.count("<polyline") == 1
    assert "nan" not in svg and "inf" not in svg
