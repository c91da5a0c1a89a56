import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mortforecast.ingest import (
    HmdParseError,
    MortalitySurface,
    build_surface,
    parse_hmd_rates,
    slice_window,
    surface_from_csv,
    surface_to_csv,
)

SAMPLE = """Italy, Death rates (period 1x1)

  Year          Age             Female            Male           Total
  1950           0            0.060998          0.070998        0.066124
  1950           1            0.006099          0.007099        0.006612
  1950         110+           0.500000          0.600000        0.550000
  1951           0            0.059000          0.069000        0.064000
  1951           1            .                 0.006800        0.006300
  1951         110+           0.480000          0.590000        0.540000
"""


def test_parse_skips_headers_and_reads_rows():
    records = parse_hmd_rates(SAMPLE)
    assert len(records) == 6
    assert records[0].year == 1950
    assert records[0].age == 0
    assert records[0].male == pytest.approx(0.070998)


def test_parse_open_age_group():
    records = parse_hmd_rates(SAMPLE)
    assert {r.age for r in records} == {0, 1, 110}


def test_parse_missing_value_is_none():
    records = parse_hmd_rates(SAMPLE)
    row = [r for r in records if r.year == 1951 and r.age == 1][0]
    assert row.female is None
    assert row.male == pytest.approx(0.0068)


def test_parse_reports_line_number_on_bad_row():
    bad = SAMPLE + "  1952           0            0.05\n"
    with pytest.raises(HmdParseError, match="line 10"):
        parse_hmd_rates(bad)


def test_parse_bad_rate_token():
    bad = SAMPLE.replace("0.059000", "abc")
    with pytest.raises(HmdParseError, match="cannot parse rate"):
        parse_hmd_rates(bad)


def test_parse_rejects_duplicate_row():
    doubled = SAMPLE + "  1950           1            0.9 0.9 0.9\n"
    with pytest.raises(HmdParseError, match=r"line 10: .*year 1950, age 1 .*line 5"):
        parse_hmd_rates(doubled)


def test_parse_empty_input():
    with pytest.raises(HmdParseError, match="no data rows"):
        parse_hmd_rates("Header only\n\n")


def test_parse_accepts_stream():
    records = parse_hmd_rates(io.StringIO(SAMPLE))
    assert len(records) == 6


# ---------------------------------------------------------------------------
# build_surface


def test_build_surface_basic():
    records = parse_hmd_rates(SAMPLE)
    surface = build_surface(records, "male", 0, 1, 1950, 1951)
    assert surface.rates.shape == (2, 2)
    assert surface.rates[0, 0] == pytest.approx(0.070998)
    assert surface.gender == "male"


def test_build_surface_missing_cells_listed():
    records = parse_hmd_rates(SAMPLE)
    with pytest.raises(ValueError, match=r"\(age 2, year 1950\)"):
        build_surface(records, "male", 0, 2, 1950, 1951)


def test_build_surface_repairs_missing_value():
    # female age 1 is missing in 1951; the repair is half the smallest
    # positive rate at that age in the window
    records = parse_hmd_rates(SAMPLE)
    surface = build_surface(records, "female", 0, 1, 1950, 1951)
    assert surface.rates[1, 1] == pytest.approx(0.5 * 0.006099)


def test_build_surface_no_positive_rate_at_age():
    text = SAMPLE.replace("0.006099", ".").replace(".                 0.006800", ".                0.006800")
    records = parse_hmd_rates(text)
    with pytest.raises(ValueError, match="age 1"):
        build_surface(records, "female", 0, 1, 1950, 1951)


def test_build_surface_bad_gender():
    records = parse_hmd_rates(SAMPLE)
    with pytest.raises(ValueError, match="gender"):
        build_surface(records, "m", 0, 1, 1950, 1951)


# ---------------------------------------------------------------------------
# MortalitySurface validation


def test_surface_rejects_nonpositive_rates():
    with pytest.raises(ValueError, match="positive"):
        MortalitySurface(ages=np.arange(2), years=np.arange(1950, 1952),
                         rates=np.array([[0.1, 0.2], [0.0, 0.3]]))


def test_surface_rejects_gap_in_years():
    with pytest.raises(ValueError, match="steps of one"):
        MortalitySurface(ages=np.arange(2), years=np.array([1950, 1952]),
                         rates=np.full((2, 2), 0.1))


def test_surface_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        MortalitySurface(ages=np.arange(3), years=np.arange(1950, 1952),
                         rates=np.full((2, 2), 0.1))


def test_surface_log_rates_and_year_column():
    surface = MortalitySurface(ages=np.arange(2), years=np.arange(1950, 1953),
                               rates=np.full((2, 3), 0.5))
    np.testing.assert_allclose(surface.log_rates, np.log(0.5))
    np.testing.assert_allclose(surface.year_column(1951), [0.5, 0.5])
    with pytest.raises(ValueError, match="1960"):
        surface.year_column(1960)


def test_slice_window():
    surface = MortalitySurface(ages=np.arange(2), years=np.arange(1950, 1960),
                               rates=np.tile(np.linspace(0.1, 1.0, 10), (2, 1)))
    sliced = slice_window(surface, 1952, 1955)
    assert list(sliced.years) == [1952, 1953, 1954, 1955]
    np.testing.assert_array_equal(sliced.rates, surface.rates[:, 2:6])
    with pytest.raises(ValueError, match="outside"):
        slice_window(surface, 1940, 1955)


# ---------------------------------------------------------------------------
# CSV round trip


def test_csv_round_trip_bit_identical():
    rng = np.random.default_rng(9)
    rates = np.exp(rng.standard_normal((5, 4)) - 4.0)
    surface = MortalitySurface(ages=np.arange(5), years=np.arange(2000, 2004),
                               rates=rates, gender="female")
    buf = io.StringIO()
    surface_to_csv(surface, buf)
    buf.seek(0)
    back = surface_from_csv(buf, gender="female")
    assert np.array_equal(back.rates, surface.rates)  # exact, not approx
    assert list(back.ages) == list(surface.ages)
    assert list(back.years) == list(surface.years)


def test_csv_rejects_bad_header():
    with pytest.raises(ValueError, match="header"):
        surface_from_csv(io.StringIO("a,b,c\n"))


def test_csv_rejects_ragged_grid():
    text = "age,year,rate\n0,2000,0.1\n0,2001,0.1\n1,2000,0.2\n"
    with pytest.raises(ValueError, match="rectangular"):
        surface_from_csv(io.StringIO(text))


@settings(deadline=None, max_examples=25)
@given(
    n_ages=st.integers(min_value=1, max_value=6),
    n_years=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_csv_round_trip_property(n_ages, n_years, seed):
    rng = np.random.default_rng(seed)
    rates = np.exp(rng.standard_normal((n_ages, n_years)) * 3.0 - 3.0)
    surface = MortalitySurface(ages=np.arange(n_ages),
                               years=np.arange(1900, 1900 + n_years),
                               rates=rates)
    buf = io.StringIO()
    surface_to_csv(surface, buf)
    buf.seek(0)
    assert np.array_equal(surface_from_csv(buf).rates, surface.rates)
