"""Shared fixtures: synthetic surfaces, a fake rates file, and the
optional real Italy data set.

The Italy-dependent tests need the HMD 1x1 death-rate file. They look
for it at $ITALY_MX_1X1 (a file), then $MORTFORECAST_DATA (a directory),
then ./data and tests/data, accepting either `ITA.Mx_1x1.txt` or
`Mx_1x1.txt`. Tests that need it skip with instructions when absent.
"""

import functools
import importlib.util
import os
from pathlib import Path

import numpy as np
import pytest

from mortforecast import build_surface, parse_hmd_rates, smooth_surface
from mortforecast.ingest import MortalitySurface

_DATA_NAMES = ("ITA.Mx_1x1.txt", "Mx_1x1.txt")


def italy_path():
    """Path to the Italy rates file, or None if it is not around."""
    direct = os.environ.get("ITALY_MX_1X1")
    if direct and os.path.isfile(direct):
        return direct
    roots = []
    env_dir = os.environ.get("MORTFORECAST_DATA")
    if env_dir:
        roots.append(Path(env_dir))
    here = Path(__file__).resolve().parent
    roots.extend([here / "data", here.parent / "data"])
    for root in roots:
        for name in _DATA_NAMES:
            candidate = root / name
            if candidate.is_file():
                return str(candidate)
    return None


ITALY_SKIP = (
    "Italy death rates not found; download the HMD 1x1 Mx file for Italy "
    "and place it at ./data/ITA.Mx_1x1.txt (or point $ITALY_MX_1X1 at it)"
)


@functools.lru_cache(maxsize=None)
def _italy_rates():
    path = italy_path()
    assert path is not None
    with open(path, encoding="utf-8") as fh:
        return parse_hmd_rates(fh)


@functools.lru_cache(maxsize=None)
def italy_surface(gender, year_min=1950, year_max=2006):
    return build_surface(_italy_rates(), gender, 0, 100, year_min, year_max)


def requires_italy():
    if italy_path() is None:
        pytest.skip(ITALY_SKIP)


def smooth(surface, config):
    """A surface's log rates smoothed year by year, the input of fit_lcs
    and fit_fdm."""
    return smooth_surface(surface.log_rates, surface.ages, surface.years, config)


@functools.lru_cache(maxsize=None)
def hmdgen():
    """The benchmark's seeded ``Mx_1x1`` generator, loaded from
    ``bench/hmdgen.py``."""
    path = Path(__file__).resolve().parents[1] / "bench" / "hmdgen.py"
    spec = importlib.util.spec_from_file_location("hmdgen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.lru_cache(maxsize=None)
def hmdgen_surface(seed, gender, ages, years):
    """One window of the generated surface for ``seed``: ``ages`` and
    ``years`` are inclusive (first, last) pairs."""
    return build_surface(parse_hmd_rates(hmdgen().generate(seed)), gender, *ages, *years)


# ---------------------------------------------------------------------------
# synthetic builders


def rank1_surface(n_ages=12, n_years=30, seed=None, noise=0.0,
                  first_year=1960):
    """Surface with ln m exactly (or nearly) alpha + beta*kappa.

    beta sums to one and kappa to zero, so a Lee-Carter fit should give
    these parameters back. kappa follows a line, which a random walk
    with drift forecasts exactly.
    """
    rng = np.random.default_rng(0 if seed is None else seed)
    ages = np.arange(n_ages)
    years = np.arange(first_year, first_year + n_years)
    alpha = -5.0 + 0.04 * ages
    beta = 0.5 + rng.random(n_ages)
    beta = beta / beta.sum()
    kappa = np.linspace(6.0, -6.0, n_years)
    kappa = kappa - kappa.mean()
    log_m = alpha[:, None] + np.outer(beta, kappa)
    if noise:
        log_m = log_m + noise * rng.standard_normal(log_m.shape)
    return MortalitySurface(ages=ages, years=years, rates=np.exp(log_m)), \
        alpha, beta, kappa


def make_surface(log_m, first_age=0, first_year=1950, gender="total"):
    log_m = np.asarray(log_m, dtype=float)
    n_ages, n_years = log_m.shape
    return MortalitySurface(
        ages=np.arange(first_age, first_age + n_ages),
        years=np.arange(first_year, first_year + n_years),
        rates=np.exp(log_m),
        gender=gender,
    )


def synthetic_hmd_text(n_ages=41, first_year=1950, last_year=2005, seed=7, age_slope=0.06):
    """A small but structurally faithful 1x1 rates file: header lines,
    five columns, an open '+' terminal age. Log rates rise by
    ``age_slope`` per year of age."""
    rng = np.random.default_rng(seed)
    ages = np.arange(n_ages)
    years = np.arange(first_year, last_year + 1)
    alpha = -6.0 + age_slope * ages
    beta = np.full(n_ages, 1.0 / n_ages)
    kappa = np.linspace(8.0, -8.0, len(years))
    kappa = kappa - kappa.mean()
    lines = [
        "Synthetica, Death rates (period 1x1),"
        " Last modified: 01 Jan 2020,  Methods Protocol: v6 (2017)",
        "",
        "  Year          Age             Female            Male           Total",
    ]
    for j, y in enumerate(years):
        for i, a in enumerate(ages):
            noise = 0.01 * rng.standard_normal(3)
            f = np.exp(alpha[i] + beta[i] * kappa[j] + noise[0])
            m = np.exp(alpha[i] + 0.1 + beta[i] * kappa[j] + noise[1])
            t = np.exp(alpha[i] + 0.05 + beta[i] * kappa[j] + noise[2])
            age_text = f"{a}+" if i == n_ages - 1 else str(a)
            lines.append(f"  {y}          {age_text:<4}          {f:.6f}"
                         f"          {m:.6f}          {t:.6f}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def hmd_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("rates") / "Mx_1x1.txt"
    path.write_text(synthetic_hmd_text(), encoding="utf-8")
    return str(path)


@pytest.fixture
def small_surface():
    surface, _, _, _ = rank1_surface(n_ages=10, n_years=20, seed=3, noise=0.02)
    return surface
