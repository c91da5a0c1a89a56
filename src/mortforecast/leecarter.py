"""Lee-Carter model: ln m_[x,t] = alpha_x + beta_x * kappa_t + eps.

The one-component case of the functional demographic model, with no
smoothing and no observational-error term: the fit takes the first
component of the FDM's decomposition (``fdm._decompose``) and the
forecast goes through its recombination (``fdm._recombine``). Only the
parametrisation is Lee-Carter's own, under the usual identification
constraints (beta sums to one, kappa sums to zero). The LCS variant runs
the identical fit on smoothed log rates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fdm import ForecastSurface, _decompose, _recombine
from .ingest import MortalitySurface
from .smoothing import SmoothedSurface
from .tsforecast import TsSpec, fit_ts

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
    FDM's sign, so beta sums positive before normalization (kappa then
    falls when mortality improves); a leading age pattern summing to
    within 1e-10 of zero cannot be normalized and raises. kappa is
    recentered to sum zero with the shift absorbed into alpha.
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
    alpha, Z, s, U, V, shares, degenerate = _decompose(Y, 1)
    if degenerate:
        # no temporal signal at all; a perfect fit by the level alone
        return LcModel(ages=ages, years=years, alpha=alpha,
                       beta=np.full(n_ages, 1.0 / n_ages), kappa=np.zeros(n_years),
                       residuals=Z, explained_variance=1.0, explained_variance_rss=1.0,
                       variant=variant)

    u1, v1 = U[:, 0], V[:, 0]
    column_sum = float(u1.sum())
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
    total_ss = float(np.sum(Z**2))
    ev_rss = 1.0 - float(np.sum(residuals**2)) / total_ss if total_ss > 0 else 1.0
    return LcModel(ages=ages, years=years, alpha=alpha,
                   beta=beta, kappa=kappa, residuals=residuals,
                   explained_variance=float(shares[0]), explained_variance_rss=ev_rss,
                   variant=variant)


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
    return _recombine(model.ages, model.years, model.alpha, model.beta[:, None],
                      [fit_ts(model.kappa, ts_spec)], int(horizon), level)
