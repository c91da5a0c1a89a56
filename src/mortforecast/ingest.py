"""Reading, validating, and windowing age-by-year death-rate surfaces.

Input is the Human Mortality Database ``Mx_1x1`` text layout: a few header
lines followed by whitespace-separated ``Year Age Female Male Total``
columns, with ``110+`` for the open age group and ``.`` for missing values.
"""

from __future__ import annotations

import io
from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Optional, TextIO

import numpy as np

from .numerics import SettingsError

__all__ = [
    "GENDERS",
    "RateRecord",
    "RateTable",
    "MortalitySurface",
    "HmdParseError",
    "parse_hmd_rates",
    "build_surface",
    "slice_window",
]

GENDERS = ("female", "male", "total")


def check_gender(gender: str) -> None:
    if gender not in GENDERS:
        raise ValueError(f"gender must be one of {GENDERS}, got {gender!r}")


def check_steps_of_one(name: str, values: np.ndarray) -> None:
    """``ValueError`` naming the first gap unless ``values`` step by one."""
    gaps = np.flatnonzero(np.diff(values) != 1)
    if gaps.size:
        i = int(gaps[0])
        raise ValueError(f"{name} must step by one year, got {values[i]} then {values[i + 1]}")


def valid_window(window) -> bool:
    """Whether ``window`` is A, B with A <= B, as --ages, --years, --train and --test must be."""
    return len(window) == 2 and window[0] <= window[1]


def check_window(what: str, first: int, last: int) -> None:
    if not valid_window((first, last)):
        raise SettingsError(f"{what} ends before it starts")


def year_columns(years: np.ndarray, first: int, last: int, what: str) -> slice:
    """Columns first..last of the consecutive ``years``, or ``SettingsError`` naming ``what``;
    a bound that is not a whole number matches no year, so it lies outside them."""
    check_window(what, first, last)
    lo, hi = int(years[0]), int(years[-1])
    if first < lo or last > hi or first != int(first) or last != int(last):
        raise SettingsError(f"{what} outside the surface's years {lo}:{hi}")
    return slice(int(first) - lo, int(last) - lo + 1)


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


@dataclass(frozen=True, eq=False)
class RateTable:
    """Parsed rows as columns: ``year``, ``age``, ``rates`` (one column per
    gender in ``GENDERS`` order, NaN where a rate is missing) and ``line``,
    each row's source line. Iteration builds records on demand, with
    ``None`` for a missing rate.
    """

    year: np.ndarray
    age: np.ndarray
    rates: np.ndarray
    line: np.ndarray

    def __len__(self) -> int:
        return len(self.year)

    def __iter__(self):
        rates = np.where(np.isnan(self.rates), None, self.rates).T.tolist()
        return map(RateRecord, self.year.tolist(), self.age.tolist(), *rates)


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
        check_gender(self.gender)
        for name, idx in (("ages", ages), ("years", years)):
            if idx.ndim != 1 or len(idx) == 0:
                raise ValueError(f"{name} must be a non-empty 1-d sequence")
            check_steps_of_one(name, idx)
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
    def log_rates(self) -> np.ndarray:
        return np.log(self.rates)

    def year_column(self, year: int) -> np.ndarray:
        return self.rates[:, year_columns(self.years, year, year, f"year {year}").start]


def _column(tokens: list, dtype) -> tuple:
    """A token column converted in one numpy call, and None; or, if a token
    does not convert, the tokens before it as an array, and its index."""
    try:
        return np.array(tokens, dtype=dtype), None
    except (ValueError, OverflowError):
        for bad, token in enumerate(tokens):
            try:
                np.array([token], dtype=dtype)
            except (ValueError, OverflowError):
                return np.array(tokens[:bad], dtype=dtype), bad
        raise


def parse_hmd_rates(text: "str | TextIO | Iterable[str]") -> RateTable:
    """Parse an ``Mx_1x1`` stream into one row per (year, age).

    Header lines before the first data row are skipped; once data starts,
    every nonblank line must be well formed or the error names its line
    number, as does a second row for the same (year, age). ``110+``
    parses as age 110 and ``.`` marks a missing value. When several rows
    are faulty, the first one is reported.
    """
    lines = enumerate(io.StringIO(text) if isinstance(text, str) else text, start=1)
    for line_no, raw in lines:
        tokens = raw.split()
        if tokens:
            try:
                int(tokens[0])
                break
            except ValueError:
                continue  # title or column-header line
    else:
        raise HmdParseError("no data rows found in input")
    flat: list[str] = []  # the rows' tokens, five per row
    line = array("q")
    faults = []  # (row, check order, message); the least one is raised
    for line_no, raw in chain([(line_no, raw)], lines):
        tokens = raw.split()
        if len(tokens) == 5:
            flat += tokens
            line.append(line_no)
        elif tokens:
            faults.append((len(line), 0, f"line {line_no}: expected 5 columns "
                                          f"(Year Age Female Male Total), got {len(tokens)}"))
            break
    year_tokens, age_tokens, *rate_tokens = (flat[k::5] for k in range(5))
    del flat  # the columns hold the tokens now
    year, bad_year = _column(year_tokens, np.int64)
    age, bad_age = _column([t.removesuffix("+") for t in age_tokens], np.int64)
    for bad, order, what, bad_tokens in ((bad_year, 1, "year", year_tokens),
                                         (bad_age, 2, "age", age_tokens)):
        if bad is not None:
            faults.append((bad, order, f"line {line[bad]}: cannot parse {what} "
                                       f"{bad_tokens[bad]!r}"))
    # a duplicate counts only before the first row whose year or age is bad;
    # files come sorted, and rows in strictly increasing (year, age) order
    # hold none, so the sort in np.unique runs only on rows out of order
    clean = min(len(year), len(age))
    y, a = year[:clean], age[:clean]
    repeats = ()
    if not np.all((y[1:] > y[:-1]) | ((y[1:] == y[:-1]) & (a[1:] > a[:-1]))):
        first = np.unique(np.stack((y, a), axis=1), axis=0, return_index=True)[1]
        repeats = np.setdiff1d(np.arange(clean), first, assume_unique=True)
    if len(repeats):
        row = repeats[0]
        seen = int(np.argmax((year[:row] == year[row]) & (age[:row] == age[row])))
        faults.append((row, 3, f"line {line[row]}: second row for year {year[row]}, "
                               f"age {age[row]} (first on line {line[seen]})"))
    rates = np.empty((len(line), len(GENDERS)))
    for k, tokens in enumerate(rate_tokens):
        if "." in tokens:
            tokens = [token if token != "." else "nan" for token in tokens]
        values, bad = _column(tokens, float)
        if bad is not None:
            faults.append((bad, 4 + k, f"line {line[bad]}: cannot parse rate "
                                       f"{tokens[bad]!r}"))
        rates[:len(values), k] = values
    if faults:
        raise HmdParseError(min(faults)[2])
    return RateTable(year=year, age=age, rates=rates, line=np.array(line))


def _repair_column(rates: np.ndarray, ages: np.ndarray) -> np.ndarray:
    """Replace nonpositive/missing cells by half the smallest positive rate
    observed at the same age across years; the log transform needs
    positivity everywhere."""
    bad = ~np.isfinite(rates) | (rates <= 0)
    smallest = np.where(bad, np.inf, rates).min(axis=1, keepdims=True)
    unrepairable = np.flatnonzero(np.isinf(smallest))
    if len(unrepairable):
        raise ValueError(f"age {ages[unrepairable[0]]}: no positive rate in the window "
                         "to repair from")
    return np.where(bad, 0.5 * smallest, rates)


def build_surface(
    table: RateTable,
    gender: str,
    age_min: int,
    age_max: int,
    year_min: int,
    year_max: int,
) -> MortalitySurface:
    """Assemble a validated surface for one gender over a closed window.

    Every (age, year) cell of the window must be covered by a row of
    ``table``; otherwise the error lists the missing pairs. Missing or
    nonpositive rates are repaired to half the smallest positive rate at
    that age.
    """
    check_gender(gender)
    check_window(f"age window {age_min}:{age_max}", age_min, age_max)
    check_window(f"year window {year_min}:{year_max}", year_min, year_max)
    ages = np.arange(age_min, age_max + 1)
    years = np.arange(year_min, year_max + 1)
    i, j = table.age - age_min, table.year - year_min
    inside = (i >= 0) & (i < len(ages)) & (j >= 0) & (j < len(years))
    i, j = i[inside], j[inside]
    covered = np.zeros((len(ages), len(years)), dtype=bool)
    covered[i, j] = True
    if not covered.all():
        missing = np.argwhere(~covered)
        shown = ", ".join(f"(age {ages[a]}, year {years[y]})" for a, y in missing[:10])
        more = f" and {len(missing) - 10} more" if len(missing) > 10 else ""
        raise ValueError(f"window not covered by records; missing {shown}{more}")
    raw = np.empty(covered.shape)
    raw[i, j] = table.rates[inside, GENDERS.index(gender)]
    return MortalitySurface(
        ages=ages, years=years, rates=_repair_column(raw, ages), gender=gender
    )


def slice_window(surface: MortalitySurface, year_min: int, year_max: int,
                 what: str = "window") -> MortalitySurface:
    """Restrict a surface to the closed year window, keeping all ages."""
    j = year_columns(surface.years, year_min, year_max, f"{what} {year_min}:{year_max}")
    return MortalitySurface(
        ages=surface.ages,
        years=surface.years[j],
        rates=surface.rates[:, j],
        gender=surface.gender,
    )
