"""Univariate time-series models for the period indexes.

One model: AR(p) on d-th differences, with or without drift, fit by
conditional least squares. The default, AR(0) on first differences with
drift, is the random walk with drift used for mortality indexes.
Forecast variances include the drift-estimation term, so intervals widen
a little faster than the pure innovation variance would suggest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import SettingsError

__all__ = [
    "TsSpec",
    "TsFit",
    "fit_ts",
    "forecast_ts",
    "simulate_path",
]


@dataclass(frozen=True)
class TsSpec:
    """AR order p on d-th differences, with or without drift. The
    default, p=0, d=1 with drift, is the random walk with drift."""

    # the specs parse accepts, as --ts states them; __post_init__ holds p and d to it
    RULE = "rwd, ar:p,d[,drift] or arima:p,d[,drift] with p >= 0 and d 0 or 1"

    p: int = 0
    d: int = 1
    include_drift: bool = True

    def __post_init__(self):
        if self.p < 0:
            raise ValueError("p must be nonnegative")
        if self.d not in (0, 1):
            raise ValueError("d must be 0 or 1")

    @property
    def description(self) -> str:
        return ("a random walk with drift" if self == TsSpec()
                else f"AR({self.p}) on d={self.d} differences")

    @property
    def min_observations(self) -> int:
        """Shortest series the model can be fitted to: p + d + 2, so 3
        for the random walk with drift (level, drift and one df for the
        variance)."""
        return self.p + self.d + 2

    @classmethod
    def parse(cls, text: str) -> "TsSpec":
        """Parse 'rwd' (short for 'ar:0,1,drift') or 'ar:p,d[,drift]'
        (also accepts 'arima:' prefix)."""
        text = text.strip().lower()
        if text == "rwd":
            return cls()
        for prefix in ("ar:", "arima:"):
            if text.startswith(prefix):
                parts = [t.strip() for t in text[len(prefix):].split(",")]
                drift = False
                if parts and parts[-1] == "drift":
                    drift = True
                    parts = parts[:-1]
                if len(parts) not in (1, 2):
                    raise ValueError(f"cannot parse time-series spec {text!r}")
                try:
                    p = int(parts[0])
                    d = int(parts[1]) if len(parts) == 2 else 1
                except ValueError:
                    raise ValueError(f"cannot parse time-series spec {text!r}") from None
                return cls(p=p, d=d, include_drift=drift)
        raise ValueError(f"cannot parse time-series spec {text!r}")


@dataclass(frozen=True)
class TsFit:
    """Fitted model state, everything a forecast needs.

    ``residuals`` are the innovation residuals over the usable sample;
    ``diff_tail`` holds the last p values of the differenced, demeaned
    series so the AR recursion can start without the raw data.
    """

    spec: TsSpec
    drift: float
    ar_coeffs: np.ndarray
    innovation_variance: float
    residuals: np.ndarray
    last_level: float
    diff_tail: np.ndarray
    n_diff: int
    stationary: bool


def _check_series(series) -> np.ndarray:
    arr = np.asarray(series, dtype=float)
    if arr.ndim != 1:
        raise ValueError("series must be 1-d")
    if not np.all(np.isfinite(arr)):
        raise ValueError("series contains non-finite values")
    return arr


MIN_HORIZON = 1  # the shortest forecast, also --horizon's


def _check_horizon(h: int) -> int:
    h = int(h)
    if h < MIN_HORIZON:
        raise ValueError(f"horizon must be at least {MIN_HORIZON}")
    return h


def fit_ts(series, spec: TsSpec) -> TsFit:
    """AR(p) on d-th differences by conditional least squares.

    The mean of the differenced series is removed first when the spec
    includes drift. The fitted polynomial's roots are checked; a root on
    or inside the unit circle clears the ``stationary`` flag rather than
    raising, since an explosive κ fit is a diagnosis, not a crash. The
    default spec is the random walk with drift: the drift is the mean
    first difference and the innovation variance has denominator n−2.
    """
    arr = _check_series(series)
    n = len(arr)
    if n < spec.min_observations:
        raise SettingsError(
            f"need at least {spec.min_observations} observations (p+d+2) for "
            f"{spec.description}, got {n}"
        )
    z = np.diff(arr, n=spec.d) if spec.d else arr.copy()
    if spec.include_drift:
        drift = float(z.mean())
        zc = z - drift
    else:
        drift = 0.0
        zc = z

    p = spec.p
    if p == 0:
        coeffs = np.empty(0)
        residuals = zc.copy()
        rows = len(zc)
    else:
        X = np.column_stack([zc[p - lag - 1:len(zc) - lag - 1] for lag in range(p)])
        # column `lag` holds zc_{t-1-lag}, rows indexed by t = p..len(zc)-1
        y = zc[p:]
        rows = len(y)
        coeffs, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
        if rank < p:
            raise SettingsError(f"{spec.description} cannot be fitted: singular lag "
                                "regression; series has no usable variation")
        residuals = y - X @ coeffs

    dof = rows - p - (1 if spec.include_drift else 0)
    sigma2 = float(np.sum(residuals**2) / max(dof, 1))

    if p == 0:
        stationary = True
    else:
        # roots of 1 - phi_1 z - ... - phi_p z^p, highest degree first
        poly = np.concatenate([-coeffs[::-1], [1.0]])
        roots = np.roots(poly)
        stationary = bool(len(roots) == 0 or np.min(np.abs(roots)) > 1.0 + 1e-8)

    return TsFit(
        spec=spec,
        drift=drift,
        ar_coeffs=np.asarray(coeffs, dtype=float),
        innovation_variance=sigma2,
        residuals=residuals,
        last_level=float(arr[-1]),
        diff_tail=zc[len(zc) - p:].copy() if p else np.empty(0),
        n_diff=len(z),
        stationary=stationary,
    )


def _psi_weights(coeffs: np.ndarray, h: int) -> np.ndarray:
    """Moving-average weights of the AR part: psi_0 = 1,
    psi_j = sum_i phi_i psi_{j-i}."""
    psi = np.zeros(h)
    psi[0] = 1.0
    p = len(coeffs)
    for j in range(1, h):
        upto = min(j, p)
        psi[j] = float(np.dot(coeffs[:upto], psi[j - 1::-1][:upto]))
    return psi


def _ar_centered_path(fit: TsFit, h: int, innovations: np.ndarray) -> np.ndarray:
    """The AR recursion on the demeaned differenced scale, started from
    ``diff_tail``; innovations of shape (h,) or (h, B) give one or B paths."""
    p = len(fit.ar_coeffs)
    extra = innovations.shape[1:]
    values = np.empty((p + h, *extra))
    values[:p] = fit.diff_tail.reshape((p,) + (1,) * len(extra))
    for k in range(h):
        value = innovations[k]
        for i in range(p):
            value = value + fit.ar_coeffs[i] * values[p + k - 1 - i]
        values[p + k] = value
    return values[p:]


def _level_paths(fit: TsFit, centered: np.ndarray) -> np.ndarray:
    """Paths on the series scale from demeaned differenced-scale paths of
    shape (h,) or (h, B). On d=1 the level is the last observation plus
    k drifts plus the running sum of the centered differences."""
    if fit.spec.d == 0:
        return fit.drift + centered
    h = centered.shape[0]
    ks = np.arange(1, h + 1, dtype=float).reshape((h,) + (1,) * (centered.ndim - 1))
    return fit.last_level + ks * fit.drift + np.cumsum(centered, axis=0)


def forecast_ts(fit: TsFit, h: int) -> tuple[np.ndarray, np.ndarray]:
    """Recursive point forecasts with psi-weight variance accumulation.

    On d=1 the differenced-scale weights are cumulated before squaring
    (the level is a running sum of forecast differences). The drift term
    adds k²·σ²/n_diff when d=1 and σ²/n_diff when d=0.
    """
    h = _check_horizon(h)
    point = _level_paths(fit, _ar_centered_path(fit, h, np.zeros(h)))
    sigma2 = fit.innovation_variance
    psi = _psi_weights(fit.ar_coeffs, h)
    weights = np.cumsum(psi) if fit.spec.d == 1 else psi
    variance = sigma2 * np.cumsum(weights**2)
    if fit.spec.include_drift:
        ks = np.arange(1, h + 1, dtype=float)
        if fit.spec.d == 1:
            variance = variance + ks**2 * sigma2 / fit.n_diff
        else:
            variance = variance + sigma2 / fit.n_diff
    return point, variance


def simulate_path(fit: TsFit, h: int, innovations: np.ndarray) -> np.ndarray:
    """Future paths driven by the given innovations.

    Innovations of shape (h,) give one path; an (h, B) matrix gives B
    paths, column b of the result driven by column b of the innovations.
    With all-zero innovations this reproduces the point forecast
    exactly, which is what makes it usable as the bootstrap path
    generator.
    """
    h = _check_horizon(h)
    innovations = np.asarray(innovations, dtype=float)
    if innovations.ndim not in (1, 2) or innovations.shape[0] != h:
        raise ValueError(f"need innovations of shape ({h},) or ({h}, B), "
                         f"got shape {innovations.shape}")
    return _level_paths(fit, _ar_centered_path(fit, h, innovations))
