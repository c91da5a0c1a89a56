"""Deterministic SVG chart rendering."""

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

