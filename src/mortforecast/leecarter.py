"""Lee-Carter model: ln m_[x,t] = alpha_x + beta_x * kappa_t + eps.

Estimated by SVD of the centered log surface under the usual
identification constraints (beta sums to one, kappa sums to zero).
The LCS variant runs the identical fit on smoothed log rates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fdm import ForecastSurface, interval_bounds
from .ingest import MortalitySurface
from .numerics import svd_thin
from .smoothing import SmoothedSurface
from .tsforecast import TsSpec, fit_ts, forecast_ts

__all__ = ["LcModel", "fit_lc", "fit_lcs", "forecast_lc"]


@dataclass(frozen=True)
class LcModel:
    """Fitted parameters plus the residual matrix.

    ``explained_variance`` is the first-singular-value share s1^2/sum s^2;
    ``explained_variance_rss`` is the alternative 1 - RSS/TSS figure,
    kept alongside because the two differ once residuals are nonzero.
    """

    ages: np.ndarray
    years: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    kappa: np.ndarray
    residuals: np.ndarray
    explained_variance: float
    explained_variance_rss: float
    variant: str = "lc"

    def fitted_log_rates(self) -> np.ndarray:
        return self.alpha[:, None] + np.outer(self.beta, self.kappa)


def fit_lc(surface: MortalitySurface) -> LcModel:
    """SVD fit of the centered log surface.

    alpha is the across-year mean log rate; the first singular triple
    gives beta and kappa after normalizing so beta sums to one, with the
    sign chosen so beta sums positive before normalization (kappa then
    falls when mortality improves). kappa is recentered to sum zero with
    the shift absorbed into alpha.
    """
    return _fit_log_rates(surface.ages, surface.years, surface.log_rates, "lc")


def fit_lcs(smoothed: SmoothedSurface) -> LcModel:
    """Fit Lee-Carter to a surface smoothed year by year."""
    return _fit_log_rates(smoothed.ages, smoothed.years, smoothed.log_rates, "lcs")


def _fit_log_rates(ages: np.ndarray, years: np.ndarray, Y: np.ndarray,
                   variant: str) -> LcModel:
    n_ages, n_years = Y.shape
    if n_years < 3 or n_ages < 3:
        raise ValueError(f"need at least 3 ages and 3 years, got {n_ages} x {n_years}")
    alpha = Y.mean(axis=1)
    Z = Y - alpha[:, None]
    total_ss = float(np.sum(Z**2))

    svd = svd_thin(Z)
    s = svd.singular_values
    scale = max(1.0, float(np.linalg.norm(Y)))
    if s[0] <= 1e-12 * scale:
        # no temporal signal at all; a perfect fit by the level alone
        return LcModel(ages=ages, years=years, alpha=alpha,
                       beta=np.full(n_ages, 1.0 / n_ages), kappa=np.zeros(n_years),
                       residuals=Z, explained_variance=1.0, explained_variance_rss=1.0,
                       variant=variant)

    u1 = svd.left_vectors[:, 0]
    v1 = svd.right_vectors[:, 0]
    column_sum = float(u1.sum())
    if column_sum < 0:
        u1, v1, column_sum = -u1, -v1, -column_sum
    if column_sum < 1e-10:
        raise ValueError(
            "degenerate fit: the leading age pattern sums to zero, so the "
            "normalization beta = u1 / sum(u1) is undefined"
        )
    beta = u1 / column_sum
    kappa = s[0] * column_sum * v1

    shift = float(kappa.mean())
    kappa = kappa - shift
    alpha = alpha + beta * shift

    residuals = Y - alpha[:, None] - np.outer(beta, kappa)
    ev = float(s[0] ** 2 / np.sum(s**2))
    ev_rss = 1.0 - float(np.sum(residuals**2)) / total_ss if total_ss > 0 else 1.0
    return LcModel(ages=ages, years=years, alpha=alpha,
                   beta=beta, kappa=kappa, residuals=residuals,
                   explained_variance=ev, explained_variance_rss=ev_rss, variant=variant)


def forecast_lc(
    model: LcModel,
    ts_spec: TsSpec = TsSpec(),
    horizon: int = 20,
    level: float = 95.0,
) -> ForecastSurface:
    """Extrapolate kappa and map through the fitted age profile.

    Only kappa's forecast uncertainty enters the variance (beta squared
    times the kappa variance); estimation error in alpha and beta is
    ignored, the standard simplification for this model.
    """
    horizon = int(horizon)
    fit = fit_ts(model.kappa, ts_spec)
    k_point, k_var = forecast_ts(fit, horizon)
    point = model.alpha[:, None] + np.outer(model.beta, k_point)
    variance = np.outer(model.beta**2, k_var)
    lower, upper = interval_bounds(point, variance, level)
    years = model.years[-1] + np.arange(1, horizon + 1)
    return ForecastSurface(ages=model.ages, years=years, point=point,
                           variance=variance, lower=lower, upper=upper,
                           level=level)
