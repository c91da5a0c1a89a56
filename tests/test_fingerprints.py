"""Committed numeric fingerprints of artifacts, regenerated and compared.

The bootstrap's oracle in test_fdm.py draws from the same generators in
the same order as the code it checks, so a change to the random stream
passes it. Only numbers committed beforehand catch that.

The comparison is at a stated relative tolerance, not bit for bit: the
CI floors job runs the oldest numpy and scipy, whose LAPACK and BLAS may
round the last bits differently. A change that moves these numbers on
purpose rewrites the file (``python tests/test_fingerprints.py``, from
the root of a checkout with ``src`` on PYTHONPATH) and names the move in
CHANGES.md; an unexplained one is a regression, and the tolerance stays.
"""

from pathlib import Path

import numpy as np

from mortforecast.evaluate import fit_models, forecast_model
from mortforecast.tsforecast import TsSpec

from conftest import hmdgen_surface

BOOTSTRAP_FILE = Path(__file__).resolve().parent / "fingerprint_fdm_bootstrap.csv"
RTOL = 1e-12


def fdm_bootstrap_bounds():
    """fdm's bootstrap bounds on generated seed 7, total, ages 0:49 over
    1922-2006, at the default smoothing, K = 4 and rwd: B = 300,
    seed 3, h = 10. Returns (ages, years, lower, upper), each age by year."""
    surface = hmdgen_surface(7, "total", (0, 49), (1922, 2006))
    model = fit_models(surface, ("fdm",))["fdm"]
    fc = forecast_model(model, TsSpec(), horizon=10, bootstrap=300, seed=3)
    ages, years = np.meshgrid(fc.ages, fc.years, indexing="ij")
    return ages, years, fc.lower, fc.upper


def test_fdm_bootstrap_bounds_match_fingerprint():
    ages, years, lower, upper = fdm_bootstrap_bounds()
    want = np.loadtxt(BOOTSTRAP_FILE, delimiter=",", skiprows=1)
    np.testing.assert_array_equal(want[:, 0], ages.ravel())
    np.testing.assert_array_equal(want[:, 1], years.ravel())
    np.testing.assert_allclose(lower.ravel(), want[:, 2], rtol=RTOL, atol=0)
    np.testing.assert_allclose(upper.ravel(), want[:, 3], rtol=RTOL, atol=0)


def _write_bootstrap_file():
    ages, years, lower, upper = fdm_bootstrap_bounds()
    lines = ["age,year,lower,upper"]
    for age, year, lo, up in zip(ages.ravel(), years.ravel(), lower.ravel(), upper.ravel()):
        lines.append(f"{age},{year},{float(lo)!r},{float(up)!r}")
    BOOTSTRAP_FILE.write_text("\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _write_bootstrap_file()
