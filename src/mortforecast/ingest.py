"""Reading, validating, and windowing age-by-year death-rate surfaces.

Input is the Human Mortality Database ``Mx_1x1`` text layout: a few header
lines followed by whitespace-separated ``Year Age Female Male Total``
columns, with ``110+`` for the open age group and ``.`` for missing values.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Iterable, Optional, TextIO

import numpy as np

__all__ = [
    "GENDERS",
    "RateRecord",
    "MortalitySurface",
    "HmdParseError",
    "parse_hmd_rates",
    "build_surface",
    "slice_window",
    "surface_to_csv",
    "surface_from_csv",
]

GENDERS = ("female", "male", "total")


class HmdParseError(ValueError):
    """Malformed or incomplete mortality data."""


@dataclass(frozen=True)
class RateRecord:
    """One parsed data row; missing rates are ``None``, never zero."""

    year: int
    age: int
    female: Optional[float]
    male: Optional[float]
    total: Optional[float]

    def rate(self, gender: str) -> Optional[float]:
        return getattr(self, gender)


@dataclass(frozen=True)
class MortalitySurface:
    """Rectangular grid of central death rates m_{x,t}.

    ``rates[i, j]`` is the rate at age ``ages[i]`` in year ``years[j]``.
    Stored column-major so each year's age curve is contiguous, matching
    the per-year access pattern of the smoothing and decomposition steps.
    """

    ages: np.ndarray
    years: np.ndarray
    rates: np.ndarray
    gender: str = "total"

    def __post_init__(self):
        ages = np.asarray(self.ages, dtype=int)
        years = np.asarray(self.years, dtype=int)
        rates = np.asfortranarray(np.asarray(self.rates, dtype=float))
        if self.gender not in GENDERS:
            raise ValueError(f"gender must be one of {GENDERS}, got {self.gender!r}")
        for name, idx in (("ages", ages), ("years", years)):
            if idx.ndim != 1 or len(idx) == 0:
                raise ValueError(f"{name} must be a non-empty 1-d sequence")
            if len(idx) > 1 and not np.all(np.diff(idx) == 1):
                raise ValueError(f"{name} must increase in steps of one")
        if rates.shape != (len(ages), len(years)):
            raise ValueError(
                f"rates shape {rates.shape} does not match "
                f"{len(ages)} ages x {len(years)} years"
            )
        if not np.all(np.isfinite(rates)) or np.any(rates <= 0):
            raise ValueError("all rates must be finite and positive")
        object.__setattr__(self, "ages", ages)
        object.__setattr__(self, "years", years)
        object.__setattr__(self, "rates", rates)

    @property
    def n_ages(self) -> int:
        return len(self.ages)

    @property
    def n_years(self) -> int:
        return len(self.years)

    @property
    def log_rates(self) -> np.ndarray:
        return np.log(self.rates)

    def year_column(self, year: int) -> np.ndarray:
        j = int(np.searchsorted(self.years, year))
        if j >= self.n_years or self.years[j] != year:
            raise ValueError(f"year {year} not in surface range "
                             f"{self.years[0]}..{self.years[-1]}")
        return self.rates[:, j]


def _parse_value(token: str, line_no: int) -> Optional[float]:
    if token == ".":
        return None
    try:
        return float(token)
    except ValueError:
        raise HmdParseError(f"line {line_no}: cannot parse rate {token!r}") from None


def _iter_lines(text) -> Iterable[str]:
    if isinstance(text, str):
        return io.StringIO(text)
    return text


def parse_hmd_rates(text: "str | TextIO | Iterable[str]") -> list[RateRecord]:
    """Parse an ``Mx_1x1`` stream into one record per (year, age).

    Header lines before the first data row are skipped; once data starts,
    every nonblank line must be well formed or the error names its line
    number, as does a second row for the same (year, age). ``110+``
    parses as age 110 and ``.`` marks a missing value.
    """
    records: list[RateRecord] = []
    first_line: dict[tuple[int, int], int] = {}
    data_started = False
    for line_no, raw in enumerate(_iter_lines(text), start=1):
        tokens = raw.split()
        if not tokens:
            continue
        if not data_started:
            try:
                int(tokens[0])
            except ValueError:
                continue  # title or column-header line
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
        records.append(
            RateRecord(
                year=year,
                age=age,
                female=_parse_value(tokens[2], line_no),
                male=_parse_value(tokens[3], line_no),
                total=_parse_value(tokens[4], line_no),
            )
        )
    if not records:
        raise HmdParseError("no data rows found in input")
    return records


def _repair_column(rates: np.ndarray, ages: np.ndarray) -> np.ndarray:
    """Replace nonpositive/missing cells by half the smallest positive rate
    observed at the same age across years; the log transform needs
    positivity everywhere."""
    out = rates.copy()
    for i in range(out.shape[0]):
        row = out[i]
        bad = ~np.isfinite(row) | (row <= 0)
        if not bad.any():
            continue
        positive = row[np.isfinite(row) & (row > 0)]
        if len(positive) == 0:
            raise ValueError(
                f"age {ages[i]}: no positive rate in the window to repair from"
            )
        out[i, bad] = 0.5 * positive.min()
    return out


def build_surface(
    records: Iterable[RateRecord],
    gender: str,
    age_min: int,
    age_max: int,
    year_min: int,
    year_max: int,
) -> MortalitySurface:
    """Assemble a validated surface for one gender over a closed window.

    Every (age, year) cell of the window must be covered by a record;
    otherwise the error lists the missing pairs. Missing or nonpositive
    rates are repaired to half the smallest positive rate at that age.
    """
    if gender not in GENDERS:
        raise ValueError(f"gender must be one of {GENDERS}, got {gender!r}")
    if age_min > age_max or year_min > year_max:
        raise ValueError("window bounds must satisfy min <= max")
    ages = np.arange(age_min, age_max + 1)
    years = np.arange(year_min, year_max + 1)
    cells: dict[tuple[int, int], Optional[float]] = {}
    for rec in records:
        if age_min <= rec.age <= age_max and year_min <= rec.year <= year_max:
            cells[(rec.age, rec.year)] = rec.rate(gender)
    missing = [(a, y) for a in ages for y in years if (int(a), int(y)) not in cells]
    if missing:
        shown = ", ".join(f"(age {a}, year {y})" for a, y in missing[:10])
        more = f" and {len(missing) - 10} more" if len(missing) > 10 else ""
        raise ValueError(f"window not covered by records; missing {shown}{more}")
    raw = np.empty((len(ages), len(years)))
    for i, a in enumerate(ages):
        for j, y in enumerate(years):
            value = cells[(int(a), int(y))]
            raw[i, j] = np.nan if value is None else value
    return MortalitySurface(
        ages=ages, years=years, rates=_repair_column(raw, ages), gender=gender
    )


def slice_window(surface: MortalitySurface, year_min: int, year_max: int) -> MortalitySurface:
    """Restrict a surface to the closed year window, keeping all ages."""
    if year_min > year_max:
        raise ValueError("window bounds must satisfy min <= max")
    lo, hi = int(surface.years[0]), int(surface.years[-1])
    if year_min < lo or year_max > hi:
        raise ValueError(
            f"window {year_min}..{year_max} outside surface years {lo}..{hi}"
        )
    j0 = year_min - lo
    j1 = year_max - lo + 1
    return MortalitySurface(
        ages=surface.ages,
        years=surface.years[j0:j1],
        rates=surface.rates[:, j0:j1],
        gender=surface.gender,
    )


def surface_to_csv(surface: MortalitySurface, stream: TextIO) -> None:
    """Write ``age,year,rate`` rows, year-major, with full float precision
    so a read-back is bit-identical."""
    stream.write("age,year,rate\n")
    for j, year in enumerate(surface.years):
        for i, age in enumerate(surface.ages):
            stream.write(f"{age},{year},{float(surface.rates[i, j])!r}\n")


def surface_from_csv(stream: TextIO, gender: str = "total") -> MortalitySurface:
    header = stream.readline().strip()
    if header != "age,year,rate":
        raise ValueError(f"expected header 'age,year,rate', got {header!r}")
    cells: dict[tuple[int, int], float] = {}
    for line_no, raw in enumerate(stream, start=2):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ValueError(f"line {line_no}: expected 3 fields, got {len(parts)}")
        try:
            age, year, rate = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise ValueError(f"line {line_no}: cannot parse {line!r}") from None
        cells[(age, year)] = rate
    if not cells:
        raise ValueError("no data rows found in input")
    ages = np.array(sorted({a for a, _ in cells}))
    years = np.array(sorted({y for _, y in cells}))
    missing = [(a, y) for a in ages for y in years if (int(a), int(y)) not in cells]
    if missing:
        raise ValueError(f"grid not rectangular; first missing cell {missing[0]}")
    rates = np.array([[cells[(int(a), int(y))] for y in years] for a in ages])
    return MortalitySurface(ages=ages, years=years, rates=rates, gender=gender)
