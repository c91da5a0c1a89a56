"""Period life tables and life expectancy from central death rates.

Tables are built one ``(tables, ages)`` block at a time: a forecast's e0
path is one block of its point and bound surfaces, and a single table is
the one-row case. Ages sit on the last, contiguous axis, so a table in a
block goes through the same floating-point operations in the same order
as the table alone, and its e0 has the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fdm import ForecastSurface
from .ingest import check_steps_of_one
from .numerics import SettingsError

__all__ = ["LifeTable", "E0Path", "E0RangeError", "rates_to_lifetable", "e0_path"]


class E0RangeError(SettingsError):
    """A forecast whose death rates underflow to 0 or overflow, so e0 has
    no life table."""


def starts_at_birth(ages) -> bool:
    """Whether ``ages`` start at 0, as a table that gives e0 must."""
    return int(ages[0]) == 0


def check_starts_at_birth(ages) -> None:
    """``SettingsError`` unless ``ages`` start at 0."""
    if not starts_at_birth(ages):
        raise SettingsError(f"life expectancy at birth needs ages from 0, got first age "
                            f"{int(ages[0])}")


@dataclass(frozen=True)
class LifeTable:
    """Single-year table from radix 1.0; the last age group is open."""

    ages: np.ndarray
    qx: np.ndarray
    lx: np.ndarray
    Lx: np.ndarray
    e0: float


def _lifetables(mx):
    """(qx, lx, Lx, e0) for a block of tables, one per row of ``mx``.

    ``mx`` is a 2-d ``(tables, ages)`` block of central rates, taken in
    C order (copied if it is not), so ages sit last and contiguous: ``exp`` and the
    row-wise ``cumprod`` then run element by element as on one table, and
    the row sum that gives e0 is the same pairwise reduction as a 1-d
    ``sum``. A table built in a block has the bits of the same table
    built alone.
    """
    mx = np.ascontiguousarray(mx, dtype=float)
    if not np.all(np.isfinite(mx)) or np.any(mx <= 0):
        raise ValueError("all rates must be finite and positive")
    qx = 1.0 - np.exp(-mx)
    qx[:, -1] = 1.0
    lx = np.empty_like(qx)
    lx[:, 0] = 1.0
    np.cumprod(1.0 - qx[:, :-1], axis=1, out=lx[:, 1:])
    dx = lx * qx
    Lx = lx - 0.5 * dx
    Lx[:, -1] = lx[:, -1] / mx[:, -1]
    return qx, lx, Lx, Lx.sum(axis=1)


def rates_to_lifetable(mx, ages=None) -> LifeTable:
    """Build a period life table from central rates m_x for ages 0..A.

    q_x = 1 - exp(-m_x), exact when the hazard is constant within the
    year and stable for large m. The terminal age is open-ended: everyone
    alive there dies at exposure 1/m_A, so L_A = l_A/m_A. e0 is the sum of
    the L_x column. The one-row case of the block kernel that ``e0_path``
    uses, so both give the same bits. Given ``ages`` must start at 0 and
    step by one year, as single-year rates do.
    """
    mx = np.asarray(mx, dtype=float)
    if mx.ndim != 1 or len(mx) == 0:
        raise ValueError("mx must be a non-empty 1-d array")
    ages = np.arange(len(mx)) if ages is None else np.asarray(ages, dtype=int)
    if ages.shape != mx.shape:
        raise ValueError("ages and mx must have the same length")
    check_starts_at_birth(ages)
    check_steps_of_one("ages", ages)
    qx, lx, Lx, e0 = _lifetables(mx[None, :])
    return LifeTable(ages=ages, qx=qx[0], lx=lx[0], Lx=Lx[0], e0=float(e0[0]))


@dataclass(frozen=True)
class E0Path:
    """Life expectancy at birth per forecast horizon with bounds.

    The bounds come from plugging the mortality interval envelopes into
    the life table, so they are a pointwise envelope, not a joint
    interval over the whole age schedule.
    """

    years: np.ndarray
    point: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    level: float


def e0_path(forecast: ForecastSurface) -> E0Path:
    """e0 per horizon from a log-rate forecast, every table in one block.

    Higher mortality means lower life expectancy, so the upper mortality
    bound yields the lower e0 bound and vice versa. From the first year
    whose death rates underflow to 0 or overflow, ``E0RangeError``.
    """
    check_starts_at_birth(forecast.ages)
    # one C-order (3h, ages) block: a row per horizon of the point
    # forecast, then of the upper and of the lower mortality bound
    log_rates = np.array([forecast.point.T, forecast.upper.T, forecast.lower.T])
    with np.errstate(over="ignore", under="ignore"):
        mx = np.exp(log_rates)
    bad = ~np.all(np.isfinite(mx) & (mx > 0), axis=(0, 2))
    if bad.any():
        raise E0RangeError(f"from {int(forecast.years[bad.argmax()])} its forecast "
                           "death rates underflow to 0 or overflow, so e0 has no life table")
    e0 = _lifetables(mx.reshape(-1, len(forecast.ages)))[3]
    point, lower, upper = e0.reshape(3, len(forecast.years))
    return E0Path(years=forecast.years.copy(), point=point, lower=lower,
                  upper=upper, level=forecast.level)
