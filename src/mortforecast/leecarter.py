"""Lee-Carter model: ln m_[x,t] = alpha_x + beta_x * kappa_t + eps.

The one-component case of the functional demographic model, with no
smoothing and no observational-error term: the fit takes the first
component of the FDM's decomposition (``fdm._decompose``) and returns
the FDM's model type, forecast by ``fdm.forecast_fdm``. Only the
parametrisation is Lee-Carter's own, under the usual identification
constraints (beta sums to one, kappa sums to zero). The LCS variant runs
the identical fit on smoothed log rates.
"""

from __future__ import annotations

import numpy as np

from .fdm import FittedModel, _decompose, _explained_rss
from .ingest import MortalitySurface
from .numerics import SettingsError
from .smoothing import SmoothedSurface

__all__ = ["fit_lc", "fit_lcs"]


def fit_lc(surface: MortalitySurface) -> FittedModel:
    """SVD fit of the centered log surface.

    alpha is the across-year mean log rate; the first singular triple
    gives beta and kappa after normalizing so beta sums to one, with the
    FDM's sign, so beta sums positive before normalization (kappa then
    falls when mortality improves); a leading age pattern summing to
    within 1e-10 of zero cannot be normalized and raises. kappa is
    recentered to sum zero with the shift absorbed into alpha. The model
    holds alpha as its center, beta as its one basis column and kappa as
    its one coefficient series.
    """
    return _fit_log_rates(surface.ages, surface.years, surface.log_rates, "lc")


def fit_lcs(smoothed: SmoothedSurface) -> FittedModel:
    """Fit Lee-Carter to a surface smoothed year by year."""
    return _fit_log_rates(smoothed.ages, smoothed.years, smoothed.log_rates, "lcs")


def _fit_log_rates(ages: np.ndarray, years: np.ndarray, Y: np.ndarray,
                   name: str) -> FittedModel:
    n_ages, n_years = Y.shape
    if n_years < 3 or n_ages < 3:
        raise SettingsError(f"{name} needs at least 3 ages and 3 years, "
                            f"got {n_ages} x {n_years}")
    alpha, Z, s, U, V, shares, degenerate = _decompose(Y, 1)
    if degenerate:
        # no temporal signal at all; a perfect fit by the level alone
        beta, kappa, residuals = np.full(n_ages, 1.0 / n_ages), np.zeros(n_years), Z
    else:
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
        # this exact expression, not Y - fitted_log_rates(), which rounds
        # differently
        residuals = Y - alpha[:, None] - np.outer(beta, kappa)

    return FittedModel(name=name, ages=ages, years=years, center=alpha,
                       basis=beta[:, None], coefficients=kappa[:, None],
                       residuals=residuals, v=np.zeros(n_ages), sigma2=np.zeros(n_ages),
                       explained_shares=shares,
                       explained_rss=_explained_rss(residuals, Z, degenerate))
