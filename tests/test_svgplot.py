import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lumped_pid import svgplot
from lumped_pid.svgplot import _points_text, line_plot_svg


def percent_text(xs, ys):
    """The points text of '%.2f' applied to each coordinate in turn."""
    return " ".join("%.2f,%.2f" % p for p in zip(xs, ys))


def assert_kernel_matches(values):
    """Every value, as an x and as a y, prints as '%.2f' does."""
    v = np.asarray(values, dtype=np.float64)
    assert _points_text(v, v[::-1]) == percent_text(v.tolist(), v[::-1].tolist())


def around(values, ulps=4):
    """``values`` and their neighbours up to ``ulps`` ulps away on each side."""
    out = [np.asarray(values, dtype=np.float64)]
    for direction in (np.inf, -np.inf):
        v = out[0]
        for _ in range(ulps):
            v = np.nextafter(v, direction)
            out.append(v)
    return np.concatenate(out)


# a coordinate below 9999.995 prints with at most four integer digits
COORDINATE = st.floats(0.0, 9999.995, exclude_max=True)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(COORDINATE, COORDINATE), min_size=1, max_size=50))
def test_the_kernel_prints_each_point_as_percent_2f(points):
    xs, ys = zip(*points)
    assert _points_text(np.array(xs), np.array(ys)) == percent_text(xs, ys)


class TestKernelFixedValues:
    def test_exact_binary_ties_round_half_to_even(self):
        # n + m/8 for odd m is a true tie at the second decimal
        n = np.arange(10**4, dtype=np.float64)[:, None]
        values = (n + np.array([0.125, 0.375, 0.625, 0.875])).ravel()
        assert_kernel_matches(around(values[values < 9999.99]))

    def test_decimal_half_way_values_round_by_their_binary_value(self):
        # k / 1000 with k = 5 (mod 10) is no double: its nearest double lies
        # above or below the tie, and within 4 ulps of it on both sides
        k = np.concatenate([np.arange(5, 2 * 10**5, 10), np.arange(5, 10**7 - 5, 9910)])
        assert_kernel_matches(around(k / 1000.0))

    def test_zero_and_the_view_box_ends(self):
        values = around([0.0, 70.0, 780.0, 36.0, 432.0, 800.0, 480.0])
        assert_kernel_matches(values[values >= 0.0])
        assert _points_text(np.array([0.0, 70.0]), np.array([432.0, 36.0])) == \
            "0.00,432.00 70.00,36.00"

    def test_the_time_axis_grid(self):
        assert_kernel_matches(70.0 + 0.355 * np.arange(2001))

    def test_a_coordinate_outside_its_domain_is_refused(self):
        assert_kernel_matches([np.nextafter(9999.995, 0.0)])  # prints 9999.99
        for bad in (9999.995, -1e-300, math.nan, math.inf):
            with pytest.raises(AssertionError):
                _points_text(np.array([1.0, bad]), np.array([1.0, 1.0]))


def per_point_text(px, py):
    return " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px.tolist(), py.tolist()))


T = np.arange(2001) * 0.005
HOLES = np.where(np.arange(2001) % 7 == 3, np.nan, np.sin(T))
HOLES[::50] = np.inf


@pytest.mark.parametrize("x,series", [
    ([0.5], {"u": [2.0]}),
    (T, {"u": np.sin(T)}),
    (T, {"u": HOLES, "v": -HOLES}),
    (T, {"u": np.full(2001, 3.0)}),
    (T, {f"s{i}": np.cos(T + i) * 10.0**i for i in range(7)}),
], ids=["one_point", "2001_points", "holes", "constant", "seven_series"])
def test_a_plot_draws_the_points_a_per_point_format_draws(monkeypatch, x, series):
    svg = line_plot_svg(x, series)
    monkeypatch.setattr(svgplot, "_points_text", per_point_text)
    assert svg == line_plot_svg(x, series)
    assert len(re.findall("<polyline", svg)) == len(series)


class TestNonFiniteX:
    """A sample whose x is not finite is left out, as one whose y is not."""

    @pytest.mark.parametrize("x,ys", [
        ([0.0, math.nan, 2.0], [1.0, 2.0, 3.0]),
        ([math.nan, 0.0, 2.0], [0.5, 1.0, 3.0]),  # the range was nan: _ticks recursed
        ([0.0, math.inf, 2.0], [1.0, 2.0, 3.0]),
        ([0.0, 2.0, -math.inf], [1.0, 3.0, 0.0]),
    ], ids=["nan_inside", "nan_first", "inf", "minus_inf"])
    def test_a_sample_at_a_non_finite_x_is_left_out(self, x, ys):
        svg = line_plot_svg(x, {"u": ys})
        assert "nan" not in svg and "inf" not in svg
        assert svg == line_plot_svg([0.0, 2.0], {"u": [1.0, 3.0]})

    def test_no_finite_x_is_an_error(self):
        with pytest.raises(ValueError, match="x has no finite sample"):
            line_plot_svg([math.nan, math.inf], {"u": [1.0, 2.0]})
