"""Committed numeric fingerprints of artifacts, regenerated and compared.

The bootstrap's oracle in test_fdm.py draws from the same generators in
the same order as the code it checks, so a change to the random stream
passes it. Only numbers committed beforehand catch that.

The comparison is at a stated relative tolerance, not bit for bit: the
CI floors job runs the oldest numpy, whose LAPACK and BLAS may round
the last bits differently. The fitted parameters also get an
absolute floor, ``RTOL`` times the largest |value| of each table (one
model's one quantity at one top age), because kappa, beta and phi cross
zero, where a relative bound alone would ask for more than the table's
rounding. A change that moves these numbers on
purpose rewrites the files (``python tests/test_fingerprints.py``, from
the root of a checkout with ``src`` on PYTHONPATH) and names the move in
CHANGES.md; an unexplained one is a regression, and the tolerance stays.
"""

from pathlib import Path

import numpy as np

from mortforecast.evaluate import MODELS, fit_models, forecast_model
from mortforecast.smoothing import SmoothConfig, smooth_surface
from mortforecast.tsforecast import TsSpec

from conftest import hmdgen_surface

BOOTSTRAP_FILE = Path(__file__).resolve().parent / "fingerprint_fdm_bootstrap.csv"
E0_FILE = Path(__file__).resolve().parent / "fingerprint_e0_paths.csv"
SMOOTHING_FILE = Path(__file__).resolve().parent / "fingerprint_smoothing.csv"
FIT_PARAMS_FILE = Path(__file__).resolve().parent / "fingerprint_fit_params.csv"
RTOL = 1e-12


def fdm_bootstrap_bounds():
    """fdm's bootstrap bounds on generated seed 7, total, ages 0:49 over
    1922-2006, at the default smoothing, K = 4 and rwd: B = 300,
    seed 3, h = 10. Returns (ages, years, lower, upper), each age by year."""
    surface = hmdgen_surface(7, "total", (0, 49), (1922, 2006))
    model = fit_models(surface, ("fdm",))["fdm"]
    fc, _ = forecast_model(model, TsSpec(), horizon=10, bootstrap=300, seed=3)
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
        paths = [forecast_model(model, TsSpec(), horizon=10)[1]
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


def smoothing_rows():
    """``smooth_surface`` on generated seed 7, total, 1922-2006, at ages
    0:100 and 0:110, by GCV and at lam = 0.003: each year's lambda, sigma2
    by age and the last year's smoothed log rates. Returns one
    (top_age, lam, quantity, key, value) row per number, key being the
    year of a lambda and the age of the others."""
    rows = []
    for top in (100, 110):
        surface = hmdgen_surface(7, "total", (0, top), (1922, 2006))
        for lam in ("auto", 0.003):
            out = smooth_surface(surface.log_rates, surface.ages, surface.years,
                                 SmoothConfig(lam=lam))
            for quantity, keys, values in (("lambda", out.years, out.lambdas),
                                           ("sigma2", out.ages, out.sigma2),
                                           ("log_rate", out.ages, out.log_rates[:, -1])):
                rows += [(top, str(lam), quantity, int(key), float(value))
                         for key, value in zip(keys, values)]
    return rows


def test_smoothing_matches_fingerprint():
    got = smoothing_rows()
    lines = SMOOTHING_FILE.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "top_age,lam,quantity,key,value"
    want = [line.split(",") for line in lines[1:]]
    assert [(int(top), lam, quantity, int(key)) for top, lam, quantity, key, _ in want] \
        == [row[:4] for row in got]
    exact = np.array([row[2] == "lambda" for row in got])
    got_values = np.array([row[4] for row in got])
    want_values = np.array([float(row[4]) for row in want])
    # lambda is a grid point or the fixed value, so it compares exactly
    np.testing.assert_array_equal(got_values[exact], want_values[exact])
    np.testing.assert_allclose(got_values[~exact], want_values[~exact], rtol=RTOL, atol=0)


def _write_smoothing_file():
    lines = ["top_age,lam,quantity,key,value"]
    for top, lam, quantity, key, value in smoothing_rows():
        lines.append(f"{top},{lam},{quantity},{key},{value!r}")
    SMOOTHING_FILE.write_text("\n".join(lines) + "\n", encoding="utf-8")


def fit_param_rows():
    """The fitted parameters of lc, lcs and fdm on generated seed 7,
    total, 1922-2006, at the default smoothing and K = 4, at ages 0:100
    and 0:110: lc's and lcs's alpha, beta and kappa, and fdm's mu, each
    phi and beta, v and sigma2. Returns one (top_age, model, quantity,
    key, value) row per number, key being the age or the year."""
    rows = []
    for top in (100, 110):
        surface = hmdgen_surface(7, "total", (0, top), (1922, 2006))
        for name, m in fit_models(surface, MODELS).items():
            if name == "fdm":
                tables = [("mu", m.ages, m.center),
                          *((f"phi{k + 1}", m.ages, m.basis[:, k]) for k in range(m.K)),
                          *((f"beta{k + 1}", m.years, m.coefficients[:, k]) for k in range(m.K)),
                          ("v", m.ages, m.v), ("sigma2", m.ages, m.sigma2)]
            else:
                tables = [("alpha", m.ages, m.center), ("beta", m.ages, m.basis[:, 0]),
                          ("kappa", m.years, m.coefficients[:, 0])]
            rows += [(top, name, quantity, int(key), float(value))
                     for quantity, keys, values in tables
                     for key, value in zip(keys, values)]
    return rows


def test_fit_params_match_fingerprint():
    got = fit_param_rows()
    lines = FIT_PARAMS_FILE.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "top_age,model,quantity,key,value"
    want = [line.split(",") for line in lines[1:]]
    labels = [(int(top), model, quantity, int(key)) for top, model, quantity, key, _ in want]
    assert labels == [row[:4] for row in got]
    got_values = np.array([row[4] for row in got])
    want_values = np.array([float(row[4]) for row in want])
    tables = np.array([f"{top},{model},{quantity}" for top, model, quantity, _ in labels])
    for table in dict.fromkeys(tables):
        rows = tables == table
        floor = RTOL * np.abs(want_values[rows]).max()
        np.testing.assert_allclose(got_values[rows], want_values[rows], rtol=RTOL,
                                   atol=floor, err_msg=table)


def _write_fit_params_file():
    lines = ["top_age,model,quantity,key,value"]
    for top, model, quantity, key, value in fit_param_rows():
        lines.append(f"{top},{model},{quantity},{key},{value!r}")
    FIT_PARAMS_FILE.write_text("\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _write_bootstrap_file()
    _write_e0_file()
    _write_smoothing_file()
    _write_fit_params_file()
