"""Period life tables and life expectancy from central death rates."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fdm import ForecastSurface

__all__ = ["LifeTable", "E0Path", "rates_to_lifetable", "e0_from_rates", "e0_path"]


@dataclass(frozen=True)
class LifeTable:
    """Single-year table from radix 1.0; the last age group is open."""

    ages: np.ndarray
    qx: np.ndarray
    lx: np.ndarray
    Lx: np.ndarray
    e0: float


def rates_to_lifetable(mx, ages=None) -> LifeTable:
    """Build a period life table from central rates m_x for ages 0..A.

    q_x = 1 - exp(-m_x), exact when the hazard is constant within the
    year and stable for large m. The terminal age is open-ended: everyone
    alive there dies at exposure 1/m_A, so L_A = l_A/m_A. e0 is the sum of
    the L_x column.
    """
    mx = np.asarray(mx, dtype=float)
    if mx.ndim != 1 or len(mx) == 0:
        raise ValueError("mx must be a non-empty 1-d array")
    if not np.all(np.isfinite(mx)) or np.any(mx <= 0):
        raise ValueError("all rates must be finite and positive")
    ages = np.arange(len(mx)) if ages is None else np.asarray(ages, dtype=int)
    if ages.shape != mx.shape:
        raise ValueError("ages and mx must have the same length")

    A = len(mx) - 1
    qx = 1.0 - np.exp(-mx)
    qx[A] = 1.0

    lx = np.concatenate(([1.0], np.cumprod(1.0 - qx[:A])))
    dx = lx * qx
    Lx = lx - 0.5 * dx
    Lx[A] = lx[A] / mx[A]
    e0 = float(Lx.sum())
    return LifeTable(ages=ages, qx=qx, lx=lx, Lx=Lx, e0=e0)


def e0_from_rates(mx) -> float:
    return rates_to_lifetable(mx).e0


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
    """e0 per horizon from a log-rate forecast.

    Higher mortality means lower life expectancy, so the upper mortality
    bound yields the lower e0 bound and vice versa.
    """
    if int(forecast.ages[0]) != 0:
        raise ValueError(
            f"life expectancy at birth needs ages from 0, got first age "
            f"{int(forecast.ages[0])}"
        )
    h = len(forecast.years)
    point = np.empty(h)
    lower = np.empty(h)
    upper = np.empty(h)
    for j in range(h):
        point[j] = e0_from_rates(np.exp(forecast.point[:, j]))
        lower[j] = e0_from_rates(np.exp(forecast.upper[:, j]))
        upper[j] = e0_from_rates(np.exp(forecast.lower[:, j]))
    return E0Path(years=forecast.years.copy(), point=point, lower=lower,
                  upper=upper, level=forecast.level)
