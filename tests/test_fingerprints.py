"""Committed numeric fingerprints of artifacts, regenerated and compared.

The bootstrap's oracle in test_fdm.py draws from the same generators in
the same order as the code it checks, so a change to the random stream
passes it. Only numbers committed beforehand catch that.

The comparison is at a stated relative tolerance, not bit for bit: the
CI floors job runs the oldest numpy and scipy, whose LAPACK and BLAS may
round the last bits differently. A change that moves these numbers on
purpose rewrites the files (``python tests/test_fingerprints.py``, from
the root of a checkout with ``src`` on PYTHONPATH) and names the move in
CHANGES.md; an unexplained one is a regression, and the tolerance stays.
"""

from pathlib import Path

import numpy as np

from mortforecast.evaluate import MODELS, fit_models, forecast_model
from mortforecast.lifetable import e0_path
from mortforecast.tsforecast import TsSpec

from conftest import hmdgen_surface

BOOTSTRAP_FILE = Path(__file__).resolve().parent / "fingerprint_fdm_bootstrap.csv"
E0_FILE = Path(__file__).resolve().parent / "fingerprint_e0_paths.csv"
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


def e0_paths():
    """The analytic e0 paths of lc, lcs and fdm on generated seed 7,
    total, 1922-2006, at the default smoothing, K = 4 and rwd, h = 10, at
    ages 0:100 and 0:110. Returns (header, rows): one row per (top age,
    year), with each model's point, lower and upper e0."""
    header = ["top_age", "year", *(f"{name}_{part}" for name in MODELS
                                   for part in ("point", "lower", "upper"))]
    rows = []
    for top in (100, 110):
        surface = hmdgen_surface(7, "total", (0, top), (1922, 2006))
        paths = [e0_path(forecast_model(model, TsSpec(), horizon=10))
                 for model in fit_models(surface, MODELS).values()]
        for j, year in enumerate(paths[0].years):
            rows.append([top, year, *(getattr(path, part)[j] for path in paths
                                      for part in ("point", "lower", "upper"))])
    return header, np.array(rows, dtype=float)


def test_e0_paths_match_fingerprint():
    header, got = e0_paths()
    assert E0_FILE.read_text(encoding="utf-8").split("\n", 1)[0] == ",".join(header)
    want = np.loadtxt(E0_FILE, delimiter=",", skiprows=1)
    np.testing.assert_array_equal(want[:, :2], got[:, :2])
    np.testing.assert_allclose(got[:, 2:], want[:, 2:], rtol=RTOL, atol=0)


def _write_e0_file():
    header, rows = e0_paths()
    lines = [",".join(header)]
    for row in rows.tolist():
        lines.append(",".join([str(int(row[0])), str(int(row[1])), *map(repr, row[2:])]))
    E0_FILE.write_text("\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _write_bootstrap_file()
    _write_e0_file()
