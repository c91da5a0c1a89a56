import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mortforecast.ingest import (
    GENDERS,
    HmdParseError,
    MortalitySurface,
    RateRecord,
    RateTable,
    build_surface,
    parse_hmd_rates,
    slice_window,
)
from mortforecast.numerics import SettingsError

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
    table = parse_hmd_rates(SAMPLE)
    assert len(table) == 6
    assert table.year[0] == 1950
    assert table.age[0] == 0
    assert table.rates[0, GENDERS.index("male")] == pytest.approx(0.070998)


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
    # one rule and one message for build_surface and MortalitySurface
    records = parse_hmd_rates(SAMPLE)
    message = "^gender must be one of \\('female', 'male', 'total'\\), got 'm'$"
    with pytest.raises(ValueError, match=message):
        build_surface(records, "m", 0, 1, 1950, 1951)
    with pytest.raises(ValueError, match=message):
        MortalitySurface(ages=np.arange(2), years=np.arange(1950, 1952),
                         rates=np.full((2, 2), 0.1), gender="m")


# ---------------------------------------------------------------------------
# MortalitySurface validation


def test_surface_rejects_nonpositive_rates():
    with pytest.raises(ValueError, match="positive"):
        MortalitySurface(ages=np.arange(2), years=np.arange(1950, 1952),
                         rates=np.array([[0.1, 0.2], [0.0, 0.3]]))


def test_surface_rejects_gap_in_years():
    # the rule lifetable.rates_to_lifetable applies to its ages too
    with pytest.raises(ValueError, match="^years must step by one year, got 1950 then 1952$"):
        MortalitySurface(ages=np.arange(2), years=np.array([1950, 1952]),
                         rates=np.full((2, 2), 0.1))
    with pytest.raises(ValueError, match="^ages must step by one year, got 1 then 1$"):
        MortalitySurface(ages=np.array([0, 1, 1]), years=np.arange(1950, 1952),
                         rates=np.full((3, 2), 0.1))


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
    # a year that is a whole number in float form is that year; any other matches none
    np.testing.assert_allclose(surface.year_column(1951.0), [0.5, 0.5])
    with pytest.raises(SettingsError, match=r"^year 1951\.5 outside the surface's years 1950:1952$"):
        surface.year_column(1951.5)


def test_slice_window():
    surface = MortalitySurface(ages=np.arange(2), years=np.arange(1950, 1960),
                               rates=np.tile(np.linspace(0.1, 1.0, 10), (2, 1)))
    sliced = slice_window(surface, 1952, 1955)
    assert list(sliced.years) == [1952, 1953, 1954, 1955]
    np.testing.assert_array_equal(sliced.rates, surface.rates[:, 2:6])
    message = "^window 1940:1955 outside the surface's years 1950:1959$"
    with pytest.raises(SettingsError, match=message):
        slice_window(surface, 1940, 1955)


# ---------------------------------------------------------------------------
# RateTable


def test_parse_returns_columns():
    table = parse_hmd_rates(SAMPLE)
    assert isinstance(table, RateTable)
    assert table.year.tolist() == [1950, 1950, 1950, 1951, 1951, 1951]
    assert table.age.tolist() == [0, 1, 110, 0, 1, 110]
    assert table.line.tolist() == [4, 5, 6, 7, 8, 9]
    assert table.rates.shape == (6, len(GENDERS))
    assert np.isnan(table.rates[4, 0])


def test_rate_table_builds_records_on_demand():
    table = parse_hmd_rates(SAMPLE)
    records = list(table)
    assert [(r.year, r.age) for r in records] == list(zip(table.year.tolist(),
                                                          table.age.tolist()))
    assert records[4] == RateRecord(1951, 1, None, 0.0068, 0.0063)
    assert all(type(r.year) is int and type(r.male) is float for r in records)


def test_literal_nan_rate_reads_as_missing():
    table = parse_hmd_rates(SAMPLE.replace("0.006800", "nan"))
    assert list(table)[4].male is None


# ---------------------------------------------------------------------------
# the array parser and surface builder against the record-at-a-time ones
# they replaced


def _reference_value(token, line_no):
    if token == ".":
        return None
    try:
        return float(token)
    except ValueError:
        raise HmdParseError(f"line {line_no}: cannot parse rate {token!r}") from None


def _reference_parse(text):
    records = []
    first_line = {}
    data_started = False
    for line_no, raw in enumerate(io.StringIO(text), start=1):
        tokens = raw.split()
        if not tokens:
            continue
        if not data_started:
            try:
                int(tokens[0])
            except ValueError:
                continue
            data_started = True
        if len(tokens) != 5:
            raise HmdParseError(
                f"line {line_no}: expected 5 columns (Year Age Female Male Total), "
                f"got {len(tokens)}"
            )
        try:
            year = int(tokens[0])
        except ValueError:
            raise HmdParseError(f"line {line_no}: cannot parse year {tokens[0]!r}") from None
        age_token = tokens[1]
        if age_token.endswith("+"):
            age_token = age_token[:-1]
        try:
            age = int(age_token)
        except ValueError:
            raise HmdParseError(f"line {line_no}: cannot parse age {tokens[1]!r}") from None
        seen = first_line.setdefault((year, age), line_no)
        if seen != line_no:
            raise HmdParseError(f"line {line_no}: second row for year {year}, age {age} "
                                f"(first on line {seen})")
        records.append(RateRecord(year, age, *(_reference_value(t, line_no)
                                               for t in tokens[2:])))
    if not records:
        raise HmdParseError("no data rows found in input")
    return records


def _reference_build_surface(records, gender, age_min, age_max, year_min, year_max):
    ages = np.arange(age_min, age_max + 1)
    years = np.arange(year_min, year_max + 1)
    cells = {}
    for rec in records:
        if age_min <= rec.age <= age_max and year_min <= rec.year <= year_max:
            cells[(rec.age, rec.year)] = getattr(rec, gender)
    missing = [(a, y) for a in ages for y in years if (int(a), int(y)) not in cells]
    if missing:
        shown = ", ".join(f"(age {a}, year {y})" for a, y in missing[:10])
        more = f" and {len(missing) - 10} more" if len(missing) > 10 else ""
        raise ValueError(f"window not covered by records; missing {shown}{more}")
    out = np.array([[np.nan if cells[(int(a), int(y))] is None else cells[(int(a), int(y))]
                     for y in years] for a in ages])
    for i in range(out.shape[0]):
        row = out[i]
        bad = ~np.isfinite(row) | (row <= 0)
        if not bad.any():
            continue
        positive = row[np.isfinite(row) & (row > 0)]
        if len(positive) == 0:
            raise ValueError(f"age {ages[i]}: no positive rate in the window to repair from")
        out[i, bad] = 0.5 * positive.min()
    return out


HEADERS = ("Italy, Death rates (period 1x1),  Last modified: 01 Jan 2020",
           "  Year          Age             Female            Male           Total", "")
RATE_TOKENS = st.one_of(
    st.sampled_from([".", "nan", "NaN", "inf", "0.000000", "-0.0", "1.000000"]),
    st.floats(0, 2).map(lambda v: f"{v:.6f}"),
    st.floats(1e-300, 5).map(lambda v: f"{v:.4e}"),
    st.floats(1e-9, 5).map(lambda v: f"+{v:.6f}"),
    st.floats(1e-9, 5).map(repr),
)
BAD_TOKENS = {
    "year": ["19x0", "1950.0", "1e3", "0x7a", "--5", "1_", "year"],
    "age": ["x", "+", "5++", "1.5", "0b1", "+5+"],
    "rate": ["abc", "1.2.3", "..", "-", "e5", "0,5", "1e", "nan(1)", "+"],
}


@st.composite
def hmd_rows(draw):
    """Token rows of a file, sorted by (year, age) as HMD writes them;
    sometimes gappy."""
    n_years, n_ages = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    first_year = draw(st.integers(1900, 2000))
    cells = [(y, a) for y in range(first_year, first_year + n_years) for a in range(n_ages)]
    dropped = draw(st.sets(st.sampled_from(cells), max_size=2))
    cells = [c for c in cells if c not in dropped]
    rows = []
    for y, a in cells:
        year = draw(st.sampled_from([str(y), f"+{y}", f"0{y}", f"{y // 100}_{y % 100:02d}"]))
        age = f"{a}+" if a == n_ages - 1 and draw(st.booleans()) else str(a)
        rows.append([year, age, *(draw(RATE_TOKENS) for _ in GENDERS)])
    return rows


@st.composite
def hmd_text(draw, rows):
    lines = draw(st.lists(st.sampled_from(HEADERS), max_size=3))
    for row in rows:
        if draw(st.integers(0, 5)) == 0:
            lines.append("")
        sep = draw(st.sampled_from([" ", "    ", "\t", " \t  "]))
        lines.append("  " + sep.join(row) + draw(st.sampled_from(["", "  "])))
    return "\n".join(lines) + "\n"


def _parse_outcome(parse, text):
    """Rows as tuples with NaN and None both read as None, or the error."""
    try:
        return [(r.year, r.age, *(None if v is None or math.isnan(v) else v
                                  for v in (r.female, r.male, r.total)))
                for r in parse(text)]
    except HmdParseError as exc:
        return str(exc)


def _build_outcome(build, records, gender, window):
    try:
        surface = build(records, gender, *window)
    except ValueError as exc:
        return str(exc)
    return getattr(surface, "rates", surface).tolist()


def _both_orders(data, rows):
    """The rows as they are and shuffled: rows in increasing (year, age)
    order take the parser's one-pass duplicate check, others its sort."""
    return rows, data.draw(st.permutations(rows))


@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_parse_and_build_match_reference(data):
    for rows in _both_orders(data, data.draw(hmd_rows())):
        _check_parse_and_build(data.draw(hmd_text(rows)))


def _check_parse_and_build(text):
    expected = _parse_outcome(_reference_parse, text)
    assert _parse_outcome(parse_hmd_rates, text) == expected
    if isinstance(expected, str):
        return
    table, records = parse_hmd_rates(text), _reference_parse(text)
    window = (int(table.age.min()), int(table.age.max()),
              int(table.year.min()), int(table.year.max()))
    for gender in GENDERS:
        assert (_build_outcome(build_surface, table, gender, window)
                == _build_outcome(_reference_build_surface, records, gender, window))


@settings(deadline=None, max_examples=200)
@given(data=st.data())
def test_parse_faults_match_reference(data):
    rows = data.draw(hmd_rows().filter(len))
    i = data.draw(st.integers(0, len(rows) - 1))
    for n in range(data.draw(st.integers(1, 3))):
        if n and data.draw(st.booleans()):  # else another fault on the same row
            i = data.draw(st.integers(0, len(rows) - 1))
        kind = data.draw(st.sampled_from(["columns", "year", "age", "rate", "duplicate",
                                          "repeat"]))
        if kind == "columns":
            rows[i] = rows[i][:4] if data.draw(st.booleans()) else [*rows[i], "0.1"]
        elif kind == "duplicate":
            rows[i][:2] = rows[data.draw(st.integers(0, len(rows) - 1))][:2]
        elif kind == "repeat":  # the same (year, age) on the next line: still sorted
            rows.insert(i + 1, [*rows[i][:2], *(data.draw(RATE_TOKENS) for _ in GENDERS)])
        else:
            column = {"year": 0, "age": 1}.get(kind)
            if column is None:
                column = data.draw(st.integers(2, len(rows[i]) - 1))
            rows[i][column] = data.draw(st.sampled_from(BAD_TOKENS[kind]))
    for rows in _both_orders(data, rows):
        text = data.draw(hmd_text(rows))
        assert _parse_outcome(parse_hmd_rates, text) == _parse_outcome(_reference_parse, text)
