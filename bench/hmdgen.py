"""Seeded generator of HMD ``Mx_1x1``-layout death-rate files.

The surface is built from three mortality components whose levels fall
at different speeds, so the improvement rate varies with age:

- an infant term that dies away over the first years of life (the
  infant dip), falling fastest over time;
- an accident hump around age 22, larger for males;
- a Gompertz senescent term with logistic deceleration at the oldest
  ages, improving less the older the age;

plus a small period random walk so the period index is not a line.
Exposures follow a survival curve scaled by a cohort size, so they
shrink steeply at old ages. Deaths are Poisson counts on those
exposures; a cell with no exposure is written as ``.`` and a cell with
no deaths as ``0.000000``, both of which the reader repairs. No age has
more than four non-positive cells in a row, so any window of five or
more years can be repaired.
"""

from __future__ import annotations

import hashlib

import numpy as np

AGE_MAX = 110
YEAR_MIN = 1922
YEAR_MAX = 2006
MAX_ZERO_RUN = 4

_HEADER = (
    "Synthetica, Death rates (period 1x1), \tLast modified: 01 Jan 2020;"
    "  Methods Protocol: v6 (2017)\n"
    "\n"
    "  Year          Age             Female            Male           Total\n"
)


def _hazard(ages: np.ndarray, tau: np.ndarray, male: bool,
            period: np.ndarray) -> np.ndarray:
    """Central death rates, ages x years, before noise."""
    x = ages[:, None].astype(float)
    t = tau[None, :]
    infant = (0.10 if male else 0.08) * np.exp(-3.0 * t) * np.exp(-1.3 * x)
    background = 0.0006 * np.exp(-1.8 * t)
    hump = ((0.0016 * np.exp(-0.4 * t)) if male else (0.0004 * np.exp(-1.0 * t))) \
        * np.exp(-(((x - 22.0) / 7.0) ** 2))
    improvement = 1.3 - 1.0 * x / AGE_MAX
    gompertz = (5.0e-5 if male else 2.6e-5) * np.exp(0.095 * x - improvement * t)
    senescent = gompertz / (1.0 + 0.6 * gompertz)
    m = infant + background + hump + senescent
    return m * np.exp(period[None, :] * (1.0 - x / 160.0))


def _exposure(ages: np.ndarray, tau: np.ndarray, male: bool) -> np.ndarray:
    """Person-years, ages x years, rounded to whole persons."""
    x = ages[:, None].astype(float)
    t = tau[None, :]
    cumulative = 1.1e-4 * x + (4.0e-5 if male else 3.5e-5) / 0.095 \
        * (np.exp(0.095 * x) - 1.0)
    survival = np.exp(-cumulative * (1.0 - (0.5 if male else 0.45) * t))
    cohort = (210_000.0 + 60_000.0 * t) * (1.04 if male else 1.0)
    return np.round(cohort * survival)


def _cap_zero_runs(deaths: np.ndarray, exposure: np.ndarray) -> np.ndarray:
    """Force one death where a cell would extend a run of non-positive
    cells at one age beyond MAX_ZERO_RUN years."""
    out = deaths.copy()
    for i in range(out.shape[0]):
        run = 0
        for j in range(out.shape[1]):
            if out[i, j] > 0:
                run = 0
                continue
            run += 1
            if run > MAX_ZERO_RUN:
                out[i, j] = 1
                exposure[i, j] = max(exposure[i, j], 1.0)
                run = 0
    return out


def _fmt(deaths: np.ndarray, exposure: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        rates = np.where(exposure > 0, deaths / np.maximum(exposure, 1.0), np.nan)
    text = np.char.mod("%.6f", np.nan_to_num(rates))
    return np.where(np.isnan(rates), ".", text)


def generate(seed: int, year_min: int = YEAR_MIN,
             year_max: int = YEAR_MAX) -> str:
    """Return the text of an ``Mx_1x1`` file; equal seeds give equal text."""
    rng = np.random.default_rng(seed)
    ages = np.arange(AGE_MAX + 1)
    years = np.arange(year_min, year_max + 1)
    tau = (years - YEAR_MIN) / float(YEAR_MAX - YEAR_MIN)
    steps = rng.normal(0.0, 0.012, size=len(years))
    period = np.cumsum(steps)
    period -= np.linspace(period[0], period[-1], len(years))
    columns = []
    deaths_total = np.zeros((len(ages), len(years)))
    exposure_total = np.zeros((len(ages), len(years)))
    for male in (False, True):
        m = _hazard(ages, tau, male, period)
        exposure = _exposure(ages, tau, male)
        deaths = rng.poisson(m * exposure).astype(float)
        deaths = _cap_zero_runs(deaths, exposure)
        deaths_total += deaths
        exposure_total += exposure
        columns.append(_fmt(deaths, exposure))
    columns.append(_fmt(deaths_total, exposure_total))
    female, male, total = columns
    lines = [_HEADER]
    for j, year in enumerate(years):
        for i, age in enumerate(ages):
            label = f"{age}+" if age == AGE_MAX else str(age)
            lines.append(f"  {year}          {label:<4}       {female[i, j]:>12}"
                         f"      {male[i, j]:>12}    {total[i, j]:>12}\n")
    return "".join(lines)


def write(path: str, seed: int, **window) -> str:
    """Write the file for ``seed`` to ``path`` and return its sha256."""
    text = generate(seed, **window)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)
    return hashlib.sha256(text.encode("ascii")).hexdigest()

