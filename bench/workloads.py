"""The benchmark's workloads: which CLI ops each one runs, at which size.

Every workload is a closed loop of ``mortforecast.cli.main`` calls on one
generated ``Mx_1x1`` file, one op at a time, each op writing into a fresh
``--output`` directory. The ops cycle through ``ops(...)`` in order.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass

import numpy as np

from hmdgen import AGE_MAX


@dataclass(frozen=True)
class Scale:
    """Input size and the windows the ops use on it."""

    year_min: int
    year_max: int
    train_end: int
    horizon: int
    replicates: int
    min_sweep_years: int
    sweep_length: int


FULL = Scale(year_min=1922, year_max=2006, train_end=1976,
             horizon=20, replicates=2000, min_sweep_years=20, sweep_length=8)
# Small enough for the self-test to run every workload in a few seconds.
TINY = Scale(year_min=1995, year_max=2006, train_end=2001,
             horizon=5, replicates=100, min_sweep_years=6, sweep_length=3)

# Fixed smoothing penalty for backtest-boot. GCV on the generated surfaces
# picks per-year lambdas between 1e-4 and about 0.03, so this lies inside
# that range while skipping the search.
BACKTEST_LAMBDA = "0.003"
BOOTSTRAP_SEED = "7"
GENDERS = ("female", "male", "total")


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = ("forecast-all", "backtest-boot", "fit-lc-sweep")


def ops(workload: str, data_path: str, seed: int, scale: Scale = FULL) -> list[list[str]]:
    """The argv cycle of one workload, without ``--output``."""
    ages = f"0:{AGE_MAX}"
    if workload == "forecast-all":
        return [["forecast", "--data", data_path, "--ages", ages,
                 "--models", "lc,lcs,fdm", "--horizon", str(scale.horizon)]]
    if workload == "backtest-boot":
        train = f"{scale.year_min}:{scale.train_end}"
        test = f"{scale.train_end + 1}:{scale.year_max}"
        return [["backtest", "--data", data_path, "--ages", ages,
                 "--models", "lc,fdm", "--train", train, "--test", test,
                 "--bootstrap", str(scale.replicates), "--seed", BOOTSTRAP_SEED,
                 "--lam", BACKTEST_LAMBDA]]
    if workload == "fit-lc-sweep":
        rng = np.random.default_rng(seed)
        span = scale.year_max - scale.year_min + 1
        # The first op fits the full window, so its counts repeat across
        # seeds; the other window lengths are evenly spaced and only their
        # order, start years and genders are drawn, so every seed sweeps
        # the same amount of data.
        lengths = np.linspace(scale.min_sweep_years, span, scale.sweep_length)[:-1]
        windows = [(str(rng.choice(GENDERS)), scale.year_min, scale.year_max)]
        for length in rng.permutation(lengths.round().astype(int)):
            start = int(rng.integers(scale.year_min, scale.year_max - length + 2))
            windows.append((str(rng.choice(GENDERS)), start, start + int(length) - 1))
        return [["fit", "--data", data_path, "--gender", gender, "--ages", ages,
                 "--years", f"{lo}:{hi}", "--models", "lc"]
                for gender, lo, hi in windows]
    raise ValueError(f"unknown workload {workload!r}")


def _models(argv: list[str]) -> list[str]:
    return argv[argv.index("--models") + 1].split(",")


def expected_artifacts(argv: list[str]) -> set[str]:
    """File names an op must leave in its output directory."""
    command, models = argv[0], _models(argv)
    names = {"summary.json"}
    if command == "forecast":
        for m in models:
            names |= {f"forecast_{m}.csv", f"fig_forecast_{m}.svg",
                      f"e0_{m}.csv", f"fig_e0_{m}.svg"}
    elif command == "backtest":
        figure = {"lc": "fig9", "lcs": "fig10", "fdm": "fig11"}
        for m in models:
            names |= {f"errors_{m}.csv", f"{figure[m]}_errors_{m}.svg"}
        names |= {"fig12_mean_error_by_age.csv", "fig12.svg",
                  "fig13_sd_error_by_age.csv", "fig13.svg",
                  "fig14_e0_fan.csv", "fig14.svg"}
    elif command == "fit":
        for m in models:
            names |= {f"{m}_{p}.csv" for p in ("alpha", "beta", "kappa")}
            names |= {f"fig3_{m}_{p}.svg" for p in ("alpha", "beta", "kappa")}
    return names


def _reject_constant(token):
    raise ValueError(f"summary.json holds {token}")


def read_summary(outdir: str) -> dict:
    """Parse summary.json; NaN and infinities are errors."""
    with open(os.path.join(outdir, "summary.json"), encoding="utf-8") as fh:
        return json.loads(fh.read(), parse_constant=_reject_constant)


def _fan_columns(outdir: str) -> dict[str, list[float]]:
    with open(os.path.join(outdir, "fig14_e0_fan.csv"), encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {key: [float(row[key]) for row in rows] for key in rows[0]}


def extract(argv: list[str], outdir: str) -> dict[str, object]:
    """The deterministic numbers an op is checked on."""
    summary = read_summary(outdir)
    models = summary["models"]
    values: dict[str, object] = {}
    if argv[0] == "forecast":
        for m in _models(argv):
            for key in ("point", "lower", "upper"):
                values[f"e0_{key}.{m}"] = models[m]["e0"][key]
    elif argv[0] == "backtest":
        for m in _models(argv):
            values[f"e0_error_mean.{m}"] = models[m]["e0_error_mean"]
        fan = _fan_columns(outdir)
        for m in _models(argv):
            # only fdm's fan bounds come from the bootstrap; the others
            # are analytic and as deterministic as the points
            prefix = "boot_e0" if m == "fdm" else "e0"
            for key in ("point", "lower", "upper"):
                values[f"{prefix}_{key}.{m}"] = fan[f"{m}_{key}"]
    elif argv[0] == "fit":
        for m in _models(argv):
            values[f"explained_variance.{m}"] = models[m]["explained_variance"]
    return values
