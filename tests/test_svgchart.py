"""Deterministic SVG chart rendering."""

import hashlib
import re

import numpy as np
import pytest

from mortforecast.svgchart import PALETTE, render_line_chart


def _polyline_points(svg):
    return re.findall(r'<polyline[^>]*points="([^"]+)"', svg)


def test_single_series_structure():
    xs = np.arange(5)
    ys = np.array([1.0, 3.0, 2.0, 5.0, 4.0])
    svg = render_line_chart([("deaths", xs, ys)], "year", "rate", title="demo")
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert 'xmlns="http://www.w3.org/2000/svg"' in svg
    assert "demo" in svg and "year" in svg and "rate" in svg
    assert "deaths" in svg
    points = _polyline_points(svg)
    assert len(points) == 1
    assert len(points[0].split()) == 5


def test_flat_series_renders_mid_panel():
    svg = render_line_chart([("c", np.arange(4), np.full(4, 7.0))], "x", "y")
    pts = _polyline_points(svg)[0]
    y_coords = {pair.split(",")[1] for pair in pts.split()}
    assert len(y_coords) == 1  # a constant stays a horizontal line


def test_two_series_get_distinct_colors():
    xs = np.arange(6)
    svg = render_line_chart(
        [("one", xs, xs * 0.5), ("two", xs, xs * -0.25 + 3.0)], "x", "y")
    strokes = re.findall(r'<polyline[^>]*stroke="([^"]+)"', svg)
    assert strokes == [PALETTE[0], PALETTE[1]]
    assert "one" in svg and "two" in svg


def test_tick_labels_cover_data_range():
    years = np.arange(1950, 2051)
    svg = render_line_chart([("m", years, np.log(years))], "year", "log")
    assert ">1950<" in svg
    assert ">2050<" in svg


def test_byte_determinism():
    rng = np.random.default_rng(11)
    xs = np.arange(30)
    ys = rng.standard_normal(30)
    a = render_line_chart([("s", xs, ys)], "x", "y", title="t")
    b = render_line_chart([("s", xs, ys.copy())], "x", "y", title="t")
    assert a == b


def test_label_escaping():
    svg = render_line_chart([("a<b&c", [0, 1], [0.0, 1.0])], "x<y", "y&z")
    assert "a&lt;b&amp;c" in svg
    assert "x&lt;y" in svg and "y&amp;z" in svg
    assert "a<b" not in svg


def test_validation_errors():
    with pytest.raises(ValueError, match="at least one"):
        render_line_chart([], "x", "y")
    with pytest.raises(ValueError, match="equal-length"):
        render_line_chart([("s", [0, 1], [1.0])], "x", "y")
    with pytest.raises(ValueError, match="non-finite"):
        render_line_chart([("s", [0, 1], [np.nan, 1.0])], "x", "y")
    with pytest.raises(ValueError, match="equal-length"):
        render_line_chart([("s", [], [])], "x", "y")


# Edge inputs of render_line_chart and the sha256 of the SVG each renders:
# integer x, a flat series, one point, ranges holding both zeros, a wrapped
# palette and labels to escape. Every chart artifact is made the same way,
# so a rendering change that moves a byte here moves them too
GOLDEN_CHARTS = {
    "integer_x": ([("e0", [1922, 1923, 1925, 1930], [60.25, 61.5, 61.0, 64.125])],
                  "year", "e0", "integers"),
    "flat": ([("c", np.arange(4), np.full(4, 7.0))], "x", "y", None),
    "one_point": ([("p", [3.0], [2.5])], "x", "y", "one point"),
    "signed_zero": ([("a", [0.0, -0.0, 1.0], [-0.0, 0.0, 2.0]),
                     ("b", [-0.0, 0.5], [0.0, -0.0])], "x", "y", None),
    "signed_zero_flat": ([("z", [-0.0, 0.0], [0.0, -0.0])], "x", "y", None),
    "seven_series": ([(f"s{k}", np.arange(5), np.arange(5) * (k + 1) % 7 / 4.0)
                      for k in range(7)], "x", "y", "palette wraps"),
    "escaping": ([("a<b&c>d", [0, 1], [0.1, -0.2]), ("\"q\" 'r'", [0.5, 2], [0.0, 1e-3])],
                 "x<y", "y&z", "<title> & \"more\""),
}
GOLDEN_SHA256 = {
    "integer_x": "5c72dc30936eb8cd76a9fc4260c3cefc3a0da60e697f83678f035be58dc449d7",
    "flat": "64395eccd358faf9570e461a9704ddf53d523ba864b381b9636d5f3d29a50ed8",
    "one_point": "e5c7c962ee00dd8df76a04a8148dd57d3d2442abe0ca56912de93e4f1c8ddb5a",
    "signed_zero": "3d5c38bc6176393ce1281bc5c5f3c332cdd122bc0933db6417651656235c67fe",
    "signed_zero_flat": "0f0db9540996de5aa02a531abde5db695dfac7d4ad3c7259c406a60e46f8b413",
    "seven_series": "d1e5e776d132bfb259b72a98f9bdd3dc31423920c969cd8dfa489748bf240bce",
    "escaping": "12cfff7d1fc20b74bf6f10447363c5d8a721ecaea7e3e42af49c4dbf0cab5b30",
}


@pytest.mark.parametrize("case", GOLDEN_CHARTS)
def test_chart_bytes_match_golden(case):
    series, xlabel, ylabel, title = GOLDEN_CHARTS[case]
    svg = render_line_chart(series, xlabel, ylabel, title=title)
    assert hashlib.sha256(svg.encode("utf-8")).hexdigest() == GOLDEN_SHA256[case]
