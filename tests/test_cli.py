"""End-to-end command-line runs against a synthetic rates file."""

import filecmp
import json
import os
import re
import shutil
import subprocess
import sys
import threading
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mortforecast
from mortforecast import build_surface, evaluate, fit_models, parse_hmd_rates, smooth_surface
from mortforecast.evaluate import normality_test, standardize_residuals
from mortforecast.tsforecast import TsSpec

from conftest import run_cli, synthetic_hmd_text

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SRC = Path(mortforecast.__file__).resolve().parents[1]


def base_args(hmd_file, out):
    return ["--data", hmd_file, "--ages", "0:40", "--years", "1950:2005",
            "--output", out]


def read_summary(out):
    with open(Path(out) / "summary.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_fit_writes_model_artifacts(hmd_file, tmp_path):
    out = tmp_path / "fit"
    code = run_cli(["fit", *base_args(hmd_file, out), "--models", "lc,lcs"])
    assert code == 0
    for name in ("lc", "lcs"):
        for part in ("alpha", "beta", "kappa"):
            assert (out / f"{name}_{part}.csv").is_file()
    summary = read_summary(out)
    assert summary["schema_version"] == 3
    assert summary["command"] == "fit"
    assert 0.0 < summary["models"]["lc"]["explained_variance"] <= 1.0
    # residuals have mean zero by construction, so no t-test is reported
    for name in ("lc", "lcs"):
        assert "t_test" not in summary["models"][name]
        assert summary["models"][name]["n_residuals"] > 0
    header = (out / "lc_kappa.csv").read_text().splitlines()[0]
    assert header == "year,value"


def test_fit_fdm_artifacts(hmd_file, tmp_path):
    out = tmp_path / "fdm"
    code = run_cli(["fit", *base_args(hmd_file, out), "--model", "fdm", "-K", "3"])
    assert code == 0
    for stem in ("fdm_mu", "fdm_phi", "fdm_beta", "fdm_variances"):
        assert (out / f"{stem}.csv").is_file()
    entry = read_summary(out)["models"]["fdm"]
    assert "t_test" not in entry
    shares = entry["explained_shares"]
    assert len(shares) == 3
    assert shares == sorted(shares, reverse=True)


def test_forecast_writes_paths_and_e0(hmd_file, tmp_path):
    out = tmp_path / "fc"
    code = run_cli(["forecast", *base_args(hmd_file, out), "--models", "lc,fdm",
                    "--horizon", "5"])
    assert code == 0
    for name in ("lc", "fdm"):
        assert (out / f"forecast_{name}.csv").is_file()
        assert (out / f"e0_{name}.csv").is_file()
    body = (out / "forecast_lc.csv").read_text().splitlines()
    assert body[0] == "age,year,point,variance,lower,upper"
    assert len(body) == 1 + 41 * 5
    summary = read_summary(out)
    assert summary["horizon"] == 5


def test_backtest_artifacts_and_summary(hmd_file, tmp_path):
    out = tmp_path / "bt"
    code = run_cli(["backtest", *base_args(hmd_file, out),
                    "--models", "lc,fdm", "--train", "1950:1979",
                    "--test", "1980:1995"])
    assert code == 0
    assert (out / "errors_lc.csv").is_file()
    assert (out / "errors_fdm.csv").is_file()
    assert (out / "fig9_errors_lc.svg").is_file()
    assert (out / "fig11_errors_fdm.svg").is_file()
    for stem in ("fig12", "fig13"):
        assert (out / f"{stem}.svg").is_file()
        assert (out / f"{stem[:5]}_{'mean' if stem == 'fig12' else 'sd'}_error_by_age.csv").is_file()
    assert (out / "fig14_e0_fan.csv").is_file()
    assert (out / "fig14.svg").is_file()
    summary = read_summary(out)
    assert summary["train"] == [1950, 1979]
    assert summary["test"] == [1980, 1995]
    assert set(summary["models"]) == {"lc", "fdm"}
    for entry in summary["models"].values():
        assert "e0_error_mean" in entry and "e0_error_variance" in entry


def test_lifetable_artifacts(hmd_file, tmp_path):
    out = tmp_path / "lt"
    code = run_cli(["lifetable", *base_args(hmd_file, out), "--year", "1980"])
    assert code == 0
    lines = (out / "lifetable.csv").read_text().splitlines()
    assert lines[0] == "age,qx,lx,Lx"
    assert lines[-1].startswith("e0,")
    assert (out / "fig_survival.svg").is_file()
    summary = read_summary(out)
    assert summary["year"] == 1980
    assert summary["e0"] > 0


def test_compare_tables(hmd_file, tmp_path):
    out = tmp_path / "cmp"
    code = run_cli(["compare", *base_args(hmd_file, out),
                    "--models", "lc,lcs,fdm"])
    assert code == 0
    t1 = (out / "table1.csv").read_text().splitlines()
    assert t1[0] == "model,aggregation,me,mse,mpe,mape"
    assert any(line.startswith("lc,across_ages") for line in t1)
    t2 = (out / "table2.csv").read_text().splitlines()
    assert any(line.startswith("fdm,across_ages") for line in t2)
    for name in ("lc", "lcs", "fdm"):
        assert (out / f"metrics_{name}_by_age.csv").is_file()
        assert (out / f"metrics_{name}_by_year.csv").is_file()
    # each model reports its one headline fit statistic
    summary = read_summary(out)["models"]
    for name, field in (("lc", "explained_variance"), ("lcs", "explained_variance"),
                        ("fdm", "explained_shares")):
        assert list(summary[name])[:4] == ["avg_across_ages", "avg_across_years",
                                           "excluded_cells", field]
    assert "explained_variance_rss" not in summary["lc"]
    assert "K" not in summary["fdm"]


@pytest.mark.parametrize("command,models", [
    (["fit"], ["lc"]),
    (["forecast", "--horizon", "2"], ["fdm", "lc", "lcs"]),
    (["compare"], ["fdm", "lc"]),
], ids=["fit", "forecast", "compare"])
def test_default_models_per_command(hmd_file, tmp_path, command, models):
    out = tmp_path / "defaults"
    code = run_cli([*command, *base_args(hmd_file, out), "--formats", "json"])
    assert code == 0
    assert sorted(read_summary(out)["models"]) == models


def test_formats_subset_skips_other_outputs(hmd_file, tmp_path):
    out = tmp_path / "csvonly"
    code = run_cli(["fit", *base_args(hmd_file, out), "--models", "lc",
                    "--formats", "csv"])
    assert code == 0
    assert (out / "lc_alpha.csv").is_file()
    assert not (out / "summary.json").exists()
    assert not list(out.glob("*.svg"))


def test_identical_runs_are_byte_identical(hmd_file, tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        code = run_cli(["backtest", *base_args(hmd_file, out),
                        "--models", "lc,fdm", "--train", "1950:1979",
                        "--test", "1980:1995", "--bootstrap", "150",
                        "--seed", "42"])
        assert code == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    match, mismatch, errors = filecmp.cmpfiles(outs[0], outs[1], names,
                                               shallow=False)
    assert mismatch == [] and errors == []
    assert len(match) == len(names)


def test_random_walk_spellings_write_identical_artifacts(hmd_file, tmp_path):
    spellings = ("rwd", "ar:0,1,drift", "arima:0,1,drift")
    assert all(TsSpec.parse(text) == TsSpec() for text in spellings)
    outs = []
    for tag, text in enumerate(spellings):
        out = tmp_path / str(tag)
        code = run_cli(["forecast", *base_args(hmd_file, out), "--models", "lc,fdm",
                        "--bootstrap", "200", "--ts", text])
        assert code == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    for out in outs[1:]:
        assert names == sorted(p.name for p in out.iterdir())
        match, mismatch, errors = filecmp.cmpfiles(outs[0], out, names, shallow=False)
        assert mismatch == [] and errors == []
        assert len(match) == len(names)


@pytest.mark.parametrize("command", [
    ["forecast"],
    ["backtest", "--train", "1950:1979", "--test", "1980:1995"],
])
def test_lee_carter_models_ignore_bootstrap(hmd_file, tmp_path, command):
    # only fdm bootstraps its intervals; lc and lcs keep their analytic
    # ones, and their summary names no bootstrap
    outs = []
    for tag, extra in (("analytic", []), ("boot", ["--bootstrap", "100", "--seed", "3"])):
        out = tmp_path / tag
        code = run_cli([command[0], *base_args(hmd_file, out), "--models", "lc,lcs",
                        *command[1:], *extra])
        assert code == 0
        outs.append(out)
    assert snapshot(outs[1]) == snapshot(outs[0])
    for name in ("lc", "lcs"):
        assert "bootstrap" not in read_summary(outs[1])["models"][name]


@pytest.mark.parametrize("command", [[], ["fit"], ["forecast"], ["backtest"],
                                     ["lifetable"], ["compare"]],
                         ids=lambda command: "_".join(command) or "top")
def test_help_renders(command, capsys):
    # argparse formats the help strings only here, so a stray % in one
    # fails nowhere else
    assert run_cli([*command, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: {' '.join(['mortforecast', *command])} ")


# The flags of each group, and of each command. The aliases --model and
# --components are the same settings as --models and -K.
DATA_FLAGS = {"--data", "--gender", "--ages", "--years"}
MODEL_FLAGS = {"--models", "--model", "-K", "--components", "--num-basis", "--lam",
               "--monotone-from"}
FORECAST_FLAGS = {"--ts", "--level", "--bootstrap", "--seed"}
OUTPUT_FLAGS = {"--output", "--formats"}
COMMAND_FLAGS = {
    "fit": DATA_FLAGS | MODEL_FLAGS | OUTPUT_FLAGS,
    "compare": DATA_FLAGS | MODEL_FLAGS | OUTPUT_FLAGS,
    "forecast": DATA_FLAGS | MODEL_FLAGS | FORECAST_FLAGS | OUTPUT_FLAGS | {"--horizon"},
    "backtest": DATA_FLAGS | MODEL_FLAGS | FORECAST_FLAGS | OUTPUT_FLAGS | {"--train", "--test"},
    "lifetable": DATA_FLAGS | OUTPUT_FLAGS | {"--year"},
}


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_help_lists_exactly_the_flags_the_command_reads(command, capsys):
    assert run_cli([command, "--help"]) == 0
    options = capsys.readouterr().out.split("\noptions:\n", 1)[1]
    # each option entry starts two spaces in: its spellings, ", "-separated,
    # each followed by its metavar, then the help text or a line break
    entries = re.findall(r"^  (-\S.*?)(?:  |$)", options, flags=re.M)
    flags = {spelling.split()[0] for entry in entries for spelling in entry.split(", ")}
    assert flags == COMMAND_FLAGS[command] | {"-h", "--help"}


@pytest.mark.parametrize("argv,rejected", [
    (["fit", "--bootstrap", "500"], ["--bootstrap"]),
    (["fit", "--level", "60"], ["--level"]),
    (["compare", "--ts", "ar:1,1"], ["--ts"]),
    (["lifetable", "--year", "1990", "--models", "lc"], ["--models"]),
    (["lifetable", "--year", "1990", "--lam", "7"], ["--lam"]),
    (["lifetable", "--year", "1990", "--models", "fdm", "--bootstrap", "500", "--ts",
      "ar:1,1", "-K", "3", "--lam", "7", "--level", "60"],
     ["--models", "--bootstrap", "--ts", "-K", "--lam", "--level"]),
    (["fit", "--models", "lc", "--bootstrap", "500", "--seed", "9", "--ts", "ar:2,1",
      "--level", "60"], ["--bootstrap", "--seed", "--ts", "--level"]),
    (["compare", "--models", "lc", "--bootstrap", "500", "--ts", "ar:3,0"],
     ["--bootstrap", "--ts"]),
], ids=["fit_bootstrap", "fit_level", "compare_ts", "lifetable_models", "lifetable_lam",
        "lifetable_many", "fit_many", "compare_many"])
def test_flag_the_command_does_not_read_exit_2(hmd_file, tmp_path, capsys, argv, rejected):
    # a flag the command would ignore is an error, not a silent no-op
    out = tmp_path / "o"
    assert run_cli([argv[0], *base_args(hmd_file, out), *argv[1:]]) == 2
    message = capsys.readouterr().err.splitlines()[-1]
    assert "error: unrecognized arguments: " in message
    assert all(f" {flag} " in message for flag in rejected)
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["forecast", "--boot", "100"],
    ["fit", "--year", "1990"],
], ids=["forecast_boot", "fit_year"])
def test_abbreviated_flag_exit_2(hmd_file, tmp_path, capsys, argv):
    # a flag is read only as spelled in full: --boot is not taken for
    # --bootstrap, nor --year for fit's --years
    out = tmp_path / "o"
    assert run_cli([argv[0], *base_args(hmd_file, out), *argv[1:]]) == 2
    message = capsys.readouterr().err.splitlines()[-1]
    assert message == f"mortforecast: error: unrecognized arguments: {' '.join(argv[1:])}"
    assert not out.exists()


@pytest.mark.parametrize("command, replicates", [
    ("forecast", "99"), ("backtest", "1"), ("forecast", "-100"),
])
def test_too_few_bootstrap_replicates_exit_2(hmd_file, tmp_path, capsys, command, replicates):
    # the parser's limit is fdm.MIN_REPLICATES, the library's own
    out = tmp_path / "o"
    windows = ["--train", "1950:1990", "--test", "1991:2005"] if command == "backtest" else []
    argv = [command, *base_args(hmd_file, out), *windows, "--bootstrap", replicates]
    assert run_cli(argv) == 2
    message = capsys.readouterr().err.splitlines()[-1]
    assert message == (f"mortforecast {command}: error: argument --bootstrap: "
                       f"expects 0 or at least 100 replicates, got '{replicates}'")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["backtest", "--models", "lc,lc", "--train", "1950:1990", "--test", "1991:2005"],
    ["forecast", "--models", "fdm,lc,fdm"],
    ["fit", "--model", "lcs,lcs"],
], ids=["backtest", "forecast", "fit_alias"])
def test_repeated_model_name_exit_2(hmd_file, tmp_path, capsys, argv):
    # a repeated name would write each of its columns twice
    out = tmp_path / "o"
    assert run_cli([argv[0], *base_args(hmd_file, out), *argv[1:]]) == 2
    message = capsys.readouterr().err.splitlines()[-1]
    assert "error: argument --models/--model: expects a comma list of distinct names" in message
    assert not out.exists()


def test_missing_data_file_exit_2(tmp_path, capsys):
    missing = tmp_path / "nope" / "ITA.Mx_1x1.txt"
    code = run_cli(["fit", "--data", missing, "--output", tmp_path / "o"])
    assert code == 2
    err = capsys.readouterr().err
    assert str(missing) in err


def test_overlapping_windows_exit_2(hmd_file, tmp_path, capsys):
    code = run_cli(["backtest", *base_args(hmd_file, tmp_path / "o"),
                    "--train", "1950:1990", "--test", "1985:1995"])
    assert code == 2
    assert "train" in capsys.readouterr().err


def test_bad_option_values_exit_2(hmd_file, tmp_path, capsys):
    out = tmp_path / "o"
    base = base_args(hmd_file, out)
    for command, flag, value in (("forecast", "--level", "120"), ("fit", "--models", "glm"),
                                 ("forecast", "--ts", "ar:x"), ("fit", "--ages", "40:0"),
                                 ("forecast", "--horizon", "0"),
                                 ("fit", "--gender", "beetle"),
                                 ("fit", "--lam", "nan"), ("fit", "--lam", "inf")):
        assert run_cli([command, *base, flag, value]) == 2
        assert f"error: argument {flag}" in capsys.readouterr().err
    assert not out.exists()


def test_negative_seed_exit_2_before_output(hmd_file, tmp_path, capsys):
    out = tmp_path / "o"
    code = run_cli(["forecast", *base_args(hmd_file, out), "--models", "lc,fdm",
                    "--bootstrap", "200", "--seed", "-1"])
    assert code == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_window_outside_data_exit_2(hmd_file, tmp_path, capsys):
    code = run_cli(["fit", "--data", hmd_file, "--ages", "0:40",
                    "--years", "1940:2005", "--output", tmp_path / "o"])
    assert code == 2
    assert "1940" in capsys.readouterr().err


def test_lifetable_year_outside_data_exit_2(hmd_file, tmp_path, capsys):
    out = tmp_path / "lt"
    code = run_cli(["lifetable", *base_args(hmd_file, out), "--year", "1940"])
    assert code == 2
    assert capsys.readouterr().err == "error: year 1940 outside the surface's years 1950:2005\n"
    assert not out.exists()


def count_calls(monkeypatch, func):
    """Count the calls made to ``func`` through any module of the package."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return func(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "mortforecast":
            for attr, value in list(vars(module).items()):
                if value is func:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_forecast_smooths_the_surface_once(hmd_file, tmp_path, monkeypatch):
    calls = count_calls(monkeypatch, mortforecast.smooth_surface)
    code = run_cli(["forecast", *base_args(hmd_file, tmp_path / "fc"),
                    "--models", "lcs,fdm", "--horizon", "3"])
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", [
    ["forecast", "--horizon", "5"],
    ["backtest", "--train", "1950:1979", "--test", "1980:1995"],
])
def test_life_tables_and_pava_run_once_per_block(tmp_path, monkeypatch, command):
    # each of the three forecasts' e0 tables are one block, and so are a
    # backtest's observed ones; PAVA runs on exactly the years whose
    # smoothed tail falls, which on these nearly flat curves is some of them
    data = tmp_path / "Mx_1x1.txt"
    data.write_text(synthetic_hmd_text(age_slope=0.001), encoding="utf-8")
    smooth = mortforecast.smooth_surface
    single = count_calls(monkeypatch, mortforecast.lifetable.rates_to_lifetable)
    blocks = count_calls(monkeypatch, mortforecast.lifetable._lifetables)
    pava = count_calls(monkeypatch, mortforecast.smoothing._pava)
    surfaces = count_calls(monkeypatch, smooth)
    code = run_cli([command[0], *base_args(data, tmp_path / "out"), *command[1:],
                    "--models", "lc,lcs,fdm", "--monotone-from", "20"])
    assert code == 0
    assert single == []
    assert len(blocks) == 3 + (command[0] == "backtest")
    falling = n_years = 0
    for log_rates, ages, years, config in surfaces:
        raw = smooth(log_rates, ages, years, replace(config, monotone_from=None))
        falling += (np.diff(raw.log_rates[ages >= 20], axis=0) < 0).any(axis=0).sum()
        n_years += len(years)
    assert 0 < len(pava) == falling < n_years


def test_backtest_bootstrap_fits_fdm_once(hmd_file, tmp_path, monkeypatch):
    calls = count_calls(monkeypatch, mortforecast.fit_fdm)
    code = run_cli(["backtest", *base_args(hmd_file, tmp_path / "bt"),
                    "--models", "fdm", "--train", "1950:1979", "--test", "1980:1995",
                    "--bootstrap", "100"])
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("train,test,message", [
    ("1950:1975", "1976:1976",
     "test window 1976:1976 spans 1 year(s); a backtest needs at least 2"),
    ("1950:1951", "1952:1960",
     "train window 1950:1951 spans 2 year(s); a backtest needs at least 3"),
], ids=["test_1_year", "train_2_years"])
def test_short_backtest_window_exit_2(hmd_file, tmp_path, capsys, train, test, message):
    out = tmp_path / "short"
    code = run_cli(["backtest", *base_args(hmd_file, out), "--models", "lc",
                    "--train", train, "--test", test])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["backtest", "--models", "lc,lcs,fdm", "--train", "1960:1990", "--test", "1991:2000"],
     "life expectancy at birth needs ages from 0, got first age 10"),
    (["lifetable", "--year", "1990"],
     "life expectancy at birth needs ages from 0, got first age 10"),
], ids=["backtest", "lifetable"])
def test_ages_not_from_0_exit_2(hmd_file, tmp_path, capsys, monkeypatch, argv, message):
    # a backtest and a life table report e0, which needs a life table from
    # birth; the window is rejected before any model or table is computed
    fits = count_calls(monkeypatch, mortforecast.fit_models)
    tables = count_calls(monkeypatch, mortforecast.lifetable._lifetables)
    out = tmp_path / "ages"
    code = run_cli([argv[0], "--data", hmd_file, "--ages", "10:30", "--output", out,
                    *argv[1:]])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert fits == [] and tables == []
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["fit", "--models", "fdm", "--years", "1950:1953"],
     "fdm needs 1 <= K <= 3 on a 41 x 4 surface, got K = 4"),
    (["backtest", "--models", "fdm", "--train", "1950:1952", "--test", "1953:1960"],
     "fdm needs 1 <= K <= 2 on a 41 x 3 surface, got K = 4"),
    (["fit", "--models", "lcs", "--ages", "20:40", "--num-basis", "40"],
     "num_basis 40 exceeds the 21 observations available"),
    (["fit", "--models", "lcs", "--num-basis", "0"],
     "num_basis 0 is below the minimum of 4"),
    (["forecast", "--models", "lcs", "--ages", "38:40"],
     "need at least 4 ages to smooth a curve, got 3"),
    (["compare", "--models", "lc", "--years", "1950:1951"],
     "lc needs at least 3 ages and 3 years, got 41 x 2"),
    (["forecast", "--models", "fdm", "-K", "1", "--years", "2004:2005"],
     "fdm: need at least 3 observations (p+d+2) for a random walk with drift, got 2"),
    (["forecast", "--models", "lc", "--years", "2003:2005", "--ts", "ar:1,1"],
     "lc: need at least 4 observations (p+d+2) for AR(1) on d=1 differences, got 3"),
    (["backtest", "--models", "lc,fdm", "--train", "1950:1976", "--test", "1977:2005",
      "--ts", "ar:30,1"],
     "lc: need at least 33 observations (p+d+2) for AR(30) on d=1 differences, got 27"),
], ids=["fdm_fit_4_years", "fdm_train_3_years", "num_basis_over_ages", "num_basis_zero",
        "smooth_3_ages",
        "lc_2_years", "rwd_2_years", "ar_3_years", "ar_train_27_years"])
def test_fit_too_small_for_settings_exit_2(hmd_file, tmp_path, capsys, argv, message):
    out = tmp_path / "small"
    code = run_cli([argv[0], *base_args(hmd_file, out), *argv[1:]])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("ages,years,K", [("0:40", "1950:1959", 9), ("0:5", "1950:2005", 5)],
                         ids=["years_bound", "ages_bound"])
def test_fdm_largest_K_accepted(hmd_file, tmp_path, ages, years, K):
    out = tmp_path / "fdm"
    code = run_cli(["forecast", *base_args(hmd_file, out), "--models", "fdm",
                    "--ages", ages, "--years", years, "-K", K, "--horizon", "2"])
    assert code == 0
    assert len(read_summary(out)["models"]["fdm"]["years"]) == 2
    assert (out / "forecast_fdm.csv").is_file()


def test_forecast_horizon_1_bootstrap_e0(hmd_file, tmp_path):
    out = tmp_path / "h1"
    code = run_cli(["forecast", *base_args(hmd_file, out), "--models", "lc,fdm",
                    "--horizon", "1", "--bootstrap", "100", "--seed", "3"])
    assert code == 0
    models = read_summary(out)["models"]
    assert models["fdm"]["bootstrap"] == {"B": 100, "seed": 3}
    for name in ("lc", "fdm"):
        e0 = models[name]["e0"]
        assert models[name]["years"] == [2006]
        assert len(e0["point"]) == 1
        assert e0["lower"][0] <= e0["point"][0] <= e0["upper"][0]
        rows = (out / f"e0_{name}.csv").read_text().splitlines()
        assert rows[0] == "year,point,lower,upper" and len(rows) == 2


@pytest.mark.parametrize("horizon", ["1", "150"])
def test_forecast_bootstrap_edge_horizons(hmd_file, tmp_path, horizon):
    # one forecast year, and more forecast years than replicates: each
    # age's noise sequence is B + horizon - 1 long either way
    def args(out):
        return ["forecast", *base_args(hmd_file, out), "--models", "fdm",
                "--horizon", horizon, "--bootstrap", "100", "--seed", "5"]

    first, second, one_thread = tmp_path / "a", tmp_path / "b", tmp_path / "blas1"
    for out in (first, second):
        assert run_cli(args(out)) == 0
    for name, columns in (("forecast_fdm.csv", [2, 4, 5]), ("e0_fdm.csv", [1, 2, 3])):
        point, lower, upper = np.loadtxt(first / name, delimiter=",", skiprows=1,
                                         usecols=columns, ndmin=2).T
        assert point.size == int(horizon) * (41 if name == "forecast_fdm.csv" else 1)
        assert np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))
        assert np.all(lower <= point) and np.all(point <= upper)
    assert snapshot(second) == snapshot(first)
    command, env = console_script_launch()
    env["OPENBLAS_NUM_THREADS"] = "1"
    proc = subprocess.run([*command, *map(str, args(one_thread))],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert snapshot(one_thread) == snapshot(first)


@pytest.mark.parametrize("ts", ["rwd", "ar:2,1,drift"])
def test_horizon_past_float_range_exit_2(hmd_file, tmp_path, capsys, ts):
    # the drift, about -0.007 a year in every log rate, carries the lower
    # bounds below exp's range (about -745) within 100000 years; that is
    # a horizon too long, not a failed computation
    out = tmp_path / "far"
    code = run_cli(["forecast", "--data", hmd_file, "--ages", "0:10", "--models", "lc,fdm",
                    "--horizon", "100000", "--ts", ts, "--output", out])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: --horizon 100000 is too long for lc")
    assert not out.exists()


@pytest.mark.parametrize("models", ["lc", "fdm", "lc,lcs,fdm"])
def test_backtest_test_window_past_float_range_exit_2(hmdgen_file, tmp_path, capsys, models):
    # five train years give an AR(2) drift that carries the log rates past
    # exp's range by the test window; like a --horizon too long, that is a
    # test window too far, not a failed computation, and no warning
    # escapes on the way
    out = tmp_path / "far"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli(["backtest", "--data", hmdgen_file, "--ages", "0:110", "--train",
                        "1922:1926", "--test", "2000:2006", "--ts", "ar:2,1,drift",
                        "--models", models, "--output", out])
    assert code == 2
    first = models.split(",")[0]
    assert capsys.readouterr().err.startswith(
        f"error: --test 2000:2006 is too far past --train 1922:1926 for {first}: from 2000 ")
    assert not out.exists()


@pytest.mark.parametrize("lam", ["1e16", "1e300"])
def test_fit_at_huge_lambda_smooths_each_year_to_its_line(hmdgen_file, tmp_path, monkeypatch,
                                                          lam):
    # a penalty this heavy leaves each year only the affine functions it
    # does not penalize, so each smoothed curve is the year's
    # least-squares line in age
    seen = []
    monkeypatch.setattr(evaluate, "smooth_surface",
                        lambda *a: seen.append((a[0], smooth_surface(*a))) or seen[-1][1])
    out = tmp_path / "flat"
    assert run_cli(["fit", "--data", hmdgen_file, "--ages", "0:100", "--models", "lcs",
                    "--lam", lam, "--monotone-from", "none", "--output", out]) == 0
    (log_rates, smoothed), = seen
    X = np.column_stack([np.ones(101), np.arange(101.0)])
    line = X @ np.linalg.lstsq(X, log_rates, rcond=None)[0]
    assert np.max(np.abs(smoothed.log_rates - line)) <= 1e-10


def test_forecast_e0_at_lambda_1e15_is_the_affine_limit(hmdgen_file, tmp_path):
    # by 1e15 every year's fit has reached its least-squares line, so e0
    # agrees with the fit at 1e300; a Cholesky solve of G + lambda P put
    # fdm's 2026 e0 at 103.7 years here, against 85.64
    e0 = {}
    for lam in ("1e15", "1e300"):
        out = tmp_path / lam
        assert run_cli(["forecast", "--data", hmdgen_file, "--ages", "0:100", "--models",
                        "lcs,fdm", "--lam", lam, "--horizon", "20", "--output", out]) == 0
        e0[lam] = np.array([entry["e0"][part] for entry in read_summary(out)["models"].values()
                            for part in ("point", "lower", "upper")])
    assert np.max(np.abs(e0["1e15"] - e0["1e300"])) <= 1e-6
    assert 80 < e0["1e15"].min() and e0["1e15"].max() < 95


@pytest.mark.parametrize("ages,num_basis", [("0:100", "101"), ("0:110", "111")])
def test_near_interpolating_basis_without_penalty_fails(hmdgen_file, tmp_path, capsys, ages,
                                                        num_basis):
    # one basis function per age at lambda 0 leaves G + lambda P singular
    # to working precision, its least Demmler-Reinsch eigenvalue near
    # 1e-17; settings the data cannot support exit 2, write nothing and
    # say what to change
    out = tmp_path / "singular"
    code = run_cli(["fit", "--data", hmdgen_file, "--ages", ages, "--models", "lcs",
                    "--num-basis", num_basis, "--lam", "0", "--output", out])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: singular penalized system: too many basis functions to fit with so small "
        "a lambda; use fewer basis functions or a larger lambda\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["forecast", "--models", "fdm", "--bootstrap", 10**13],
    ["backtest", "--models", "lc,fdm", "--train", "1950:1979", "--test", "1980:1995",
     "--bootstrap", 10**13],
    ["forecast", "--models", "lc", "--horizon", 10**15],
])
def test_replicates_or_horizon_past_memory_exit_2(hmd_file, tmp_path, capsys, argv):
    # the first array each run asks for is petabytes, past the 128 TiB
    # x86-64 address space, so it fails at once and touches nothing
    out = tmp_path / "huge"
    assert run_cli([*argv, *base_args(hmd_file, out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: not enough memory (Unable to allocate ")
    assert err.rstrip().endswith("; lower --bootstrap or --horizon")
    assert not out.exists()


def test_compare_diagnoses_observed_minus_fitted(hmd_file, tmp_path):
    out = tmp_path / "cmp"
    code = run_cli(["compare", *base_args(hmd_file, out), "--models", "lc,lcs,fdm"])
    assert code == 0
    summary = read_summary(out)["models"]
    with open(hmd_file, encoding="utf-8") as fh:
        surface = build_surface(parse_hmd_rates(fh), "total", 0, 40, 1950, 2005)
    for name, model in fit_models(surface, ("lc", "lcs", "fdm")).items():
        std = standardize_residuals(surface.log_rates - model.fitted_log_rates())
        w, p = normality_test(std)
        entry = summary[name]
        assert entry["n_residuals"] == std.size
        assert "t_test" not in entry
        assert entry["normality"] == {"statistic": w, "p_value": p, "subsampled": False}


# Each command once, with every model and the bootstrap where it applies
EVERY_COMMAND = [
    ["fit", "--models", "lc,lcs,fdm"],
    ["forecast", "--models", "lc,lcs,fdm", "--horizon", "5", "--bootstrap", "100"],
    ["backtest", "--models", "lc,lcs,fdm", "--train", "1950:1990", "--test", "1991:2005",
     "--bootstrap", "100"],
    ["lifetable", "--year", "1990"],
    ["compare", "--models", "lc,lcs,fdm"],
]

# Run in a fresh interpreter, where an import of scipy raises
WITHOUT_SCIPY = """
import importlib.abc, json, sys

class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)

sys.meta_path.insert(0, NoScipy())
import mortforecast.cli
loaded = [sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")]
codes = []
for argv in json.loads(sys.argv[1]):
    codes.append(mortforecast.cli.main(argv))
    loaded.append(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_every_command_runs_without_scipy(hmd_file, tmp_path):
    # scipy is a test dependency only: importing the CLI and running each
    # command load none of it, so a host without scipy runs them all
    runs = [[*argv, "--data", str(hmd_file), "--ages", "0:40",
             "--output", str(tmp_path / argv[0])] for argv in EVERY_COMMAND]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY, json.dumps(runs)],
                            capture_output=True, text=True, env=env, check=True)
    assert result.stderr == ""
    assert json.loads(result.stdout) == {"codes": [0] * len(runs),
                                         "loaded": [[]] * (len(runs) + 1)}
    for argv in EVERY_COMMAND:
        assert (tmp_path / argv[0] / "summary.json").is_file()


def test_duplicate_data_row_exit_2(tmp_path, capsys):
    lines = synthetic_hmd_text().splitlines(keepends=True)
    first = next(i for i, line in enumerate(lines) if line.split()[:2] == ["1990", "5"])
    lines.append(lines[first].replace("0.", "0.9", 1))
    data = tmp_path / "Mx_1x1.txt"
    data.write_text("".join(lines), encoding="utf-8")
    out = tmp_path / "dup"
    code = run_cli(["lifetable", "--data", data, "--ages", "0:40", "--year", "1990",
                    "--output", out])
    assert code == 2
    err = capsys.readouterr().err
    assert f"line {len(lines)}: second row for year 1990, age 5" in err
    assert f"first on line {first + 1}" in err
    assert not out.exists()


def console_script_launch():
    """Command prefix and environment that start the `mortforecast` script.

    An installed wrapper on PATH is run as is. Without one (a checkout run
    with `src` on PYTHONPATH) the `[project.scripts]` target is read from
    pyproject.toml and called in a fresh interpreter the way the generated
    wrapper calls it, so a wrong target still fails.
    """
    script = shutil.which("mortforecast")
    if script:
        return [script], None
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["mortforecast"]
    module, _, func = target.partition(":")
    launcher = ("import sys\n"
                f"from {module} import {func}\n"
                "sys.argv[0] = 'mortforecast'\n"
                f"sys.exit({func}())\n")
    # The child must import the same package as this suite, whatever the
    # working directory; a relative `src` on PYTHONPATH would not do that.
    package_root = str(Path(mortforecast.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    return [sys.executable, "-c", launcher], env


def test_console_script_runs(hmd_file, tmp_path):
    out = tmp_path / "script"
    command, env = console_script_launch()
    proc = subprocess.run(
        [*command, "fit", "--data", hmd_file, "--ages", "0:40",
         "--models", "lc", "--output", str(out)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert (out / "lc_alpha.csv").is_file()


# A sitecustomize for a child interpreter: when numpy is first imported,
# before BLAS loads and reads its thread count, it prints the BLAS thread
# variables as they are at that moment.
_BLAS_AT_NUMPY_IMPORT = """\
import importlib.abc, json, os, sys

class _Probe(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            sys.meta_path.remove(self)
            names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            print("BLAS at numpy import:", json.dumps({n: os.environ.get(n) for n in names}),
                  file=sys.stderr)
        return None

sys.meta_path.insert(0, _Probe())
"""


@pytest.mark.parametrize("user_set, want", [
    ({}, {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}),
    ({"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": "2"},
     {"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": "1"}),
])
def test_console_script_sets_one_blas_thread_before_numpy(tmp_path, user_set, want):
    # the script and `python -m mortforecast.cli` set each variable the
    # user left unset to 1, before numpy first loads; a value the user
    # set wins. The library leaves them alone
    (tmp_path / "sitecustomize.py").write_text(_BLAS_AT_NUMPY_IMPORT, encoding="utf-8")
    command, env = console_script_launch()
    env = dict(os.environ if env is None else env)
    for name in want:
        env.pop(name, None)
    env.update(user_set)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tmp_path), str(SRC),
                                                      env.get("PYTHONPATH")]))

    def blas_at_numpy_import(argv):
        proc = subprocess.run(argv, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        probes = [line for line in proc.stderr.splitlines()
                  if line.startswith("BLAS at numpy import: ")]
        assert len(probes) == 1, proc.stderr
        return json.loads(probes[0].partition(": ")[2])

    assert blas_at_numpy_import([*command, "--help"]) == want
    assert blas_at_numpy_import([sys.executable, "-m", "mortforecast.cli", "--help"]) == want
    library = blas_at_numpy_import(
        [sys.executable, "-c", "import mortforecast; mortforecast.fit_lc; import mortforecast.cli"])
    assert library == {name: user_set.get(name) for name in want}


def _numpy_blas_is_openblas():
    try:
        return "openblas" in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except TypeError:  # numpy before 1.26 lists each BLAS it looked for as a dict
        return any("openblas" in str(info.get("libraries", ""))
                   for info in vars(np.__config__).values() if isinstance(info, dict))


def test_blas_thread_lookup_finds_numpy_openblas():
    # a wheel that renames its library or symbols would otherwise leave
    # every run at BLAS's default thread count without a sign
    if not _numpy_blas_is_openblas():
        pytest.skip("numpy is not built on OpenBLAS")
    paths = mortforecast.cli._openblas_threads()
    root = os.path.dirname(np.__file__)
    assert paths and all(path.startswith(root) for path in paths), paths


@pytest.fixture
def blas_threads(monkeypatch):
    """A host at two OpenBLAS threads with no thread variable set; yields a
    reader of every bundled library's count, and restores the counts after."""
    libraries = mortforecast.cli._openblas_threads().values()
    if not libraries:
        pytest.skip("no bundled OpenBLAS whose thread count can be set")
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    before = [get_threads() for get_threads, _ in libraries]
    for _, set_threads in libraries:
        set_threads(2)
    yield lambda: {get_threads() for get_threads, _ in libraries}
    for (_, set_threads), count in zip(libraries, before):
        set_threads(count)


def record_blas_threads(monkeypatch, blas_threads):
    """Record the thread counts each time a run loads its surface."""
    load_surface, seen = mortforecast.cli.load_surface, []

    def recorded(args):
        seen.append(blas_threads())
        return load_surface(args)

    monkeypatch.setattr(mortforecast.cli, "load_surface", recorded)
    return seen


def _fail_fit(*args, **kwargs):
    raise RuntimeError("forced failure")


@pytest.mark.parametrize("case,code", [("success", 0), ("usage_error", 2),
                                       ("computation_failed", 1), ("argparse_error", 2)])
def test_run_uses_one_blas_thread_and_restores_the_count(hmd_file, tmp_path, monkeypatch,
                                                         blas_threads, case, code):
    seen = record_blas_threads(monkeypatch, blas_threads)
    argv = ["fit", *base_args(hmd_file, tmp_path / "out"), "--models", "lc,fdm"]
    if case == "usage_error":
        argv[2] = tmp_path / "missing.txt"
    elif case == "computation_failed":
        monkeypatch.setattr(mortforecast.cli, "fit_models", _fail_fit)
    elif case == "argparse_error":
        argv.append("--no-such-flag")
    assert run_cli(argv) == code
    assert seen == ([] if case == "argparse_error" else [{1}])
    assert blas_threads() == {2}


@pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_user_blas_variable_leaves_the_count_alone(hmd_file, tmp_path, monkeypatch,
                                                   blas_threads, name):
    monkeypatch.setenv(name, "2")
    seen = record_blas_threads(monkeypatch, blas_threads)
    assert run_cli(["fit", *base_args(hmd_file, tmp_path / "out")]) == 0
    assert seen == [{2}]
    assert blas_threads() == {2}


def test_overlapping_runs_restore_the_count_when_the_last_leaves(hmd_file, tmp_path,
                                                                 monkeypatch, blas_threads):
    # run a enters first and leaves first, while b is still running
    load_surface = mortforecast.cli.load_surface
    entered = {name: threading.Event() for name in "ab"}
    release = {name: threading.Event() for name in "ab"}
    seen, codes = {}, {}

    def held(args):
        name = Path(args.output).name
        entered[name].set()
        release[name].wait(60)
        seen[name] = blas_threads()
        return load_surface(args)

    monkeypatch.setattr(mortforecast.cli, "load_surface", held)

    def run(name):
        codes[name] = run_cli(["fit", *base_args(hmd_file, tmp_path / name)])

    threads = {name: threading.Thread(target=run, args=(name,)) for name in "ab"}
    try:
        threads["a"].start()
        assert entered["a"].wait(60)
        threads["b"].start()
        assert entered["b"].wait(60)
        release["a"].set()
        threads["a"].join(60)
        assert codes == {"a": 0}
        assert blas_threads() == {1}
    finally:
        for name in "ab":
            release[name].set()
            if threads[name].ident is not None:  # started
                threads[name].join(60)
    assert codes == {"a": 0, "b": 0}
    assert seen == {"a": {1}, "b": {1}}
    assert blas_threads() == {2}


def test_many_overlapping_runs_keep_the_count(blas_threads):
    # more threads than cores, switching often: a lost update of the count
    # of runs inside would restore the thread count during a run, or never
    scope, inside, n_threads, n_runs = mortforecast.cli._one_blas_thread, [], 8, 200

    def runs():
        for _ in range(n_runs):
            with scope():
                inside.append(blas_threads())

    threads = [threading.Thread(target=runs) for _ in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(inside) == n_threads * n_runs
    assert all(seen == {1} for seen in inside)
    assert blas_threads() == {2}


def test_undecodable_data_file_exit_2(tmp_path, capsys):
    data = tmp_path / "Mx_1x1.txt"
    data.write_bytes(synthetic_hmd_text().encode("utf-8") + b"  2006  0  \xff\n")
    out = tmp_path / "bad"
    code = run_cli(["fit", "--data", data, "--ages", "0:40", "--output", out])
    assert code == 2
    err = capsys.readouterr().err
    assert f"cannot read {data}: 'utf-8' codec can't decode byte 0xff" in err
    assert not out.exists()


def _write_rates(path, log_m, first_year=1950):
    """A rates file with one age-by-year surface for all three genders."""
    lines = ["Edge case, Death rates (period 1x1)", "", "  Year  Age  Female  Male  Total"]
    for j in range(log_m.shape[1]):
        for i in range(log_m.shape[0]):
            rate = f"{np.exp(log_m[i, j]):.6f}"
            lines.append(f"  {first_year + j}  {i}  {rate}  {rate}  {rate}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _edge_log_rates(kind):
    ages, years = np.arange(12), np.arange(20)
    alpha = -6.0 + 0.4 * ages
    if kind == "flat_kappa":  # the same curve every year
        return np.repeat(alpha[:, None], len(years), axis=1)
    log_m = alpha[:, None] - 0.02 * (ages[:, None] + 5) * (years - 10.0)
    log_m[-1] = 0.0  # m = 1 at the top age in every year
    log_m[4, 7] = 0.0
    return log_m


@pytest.mark.parametrize("command", [
    ["fit"],
    ["forecast", "--horizon", "5"],
    # flat_kappa makes every beta series flat, so the fdm bootstrap
    # resamples all-zero innovations
    ["forecast", "--horizon", "5", "--bootstrap", "100"],
    ["backtest", "--train", "1950:1964", "--test", "1965:1969", "--bootstrap", "100"],
])
@pytest.mark.parametrize("kind", ["unit_rates", "flat_kappa"])
def test_edge_surfaces_fit_and_forecast(tmp_path, command, kind):
    data = tmp_path / "Mx_1x1.txt"
    _write_rates(data, _edge_log_rates(kind))
    out = tmp_path / "out"
    code = run_cli([*command, "--data", data, "--ages", "0:11", "--models", "lc,lcs,fdm",
                    "--output", out])
    assert code == 0

    def reject(constant):
        raise AssertionError(f"{constant} in summary.json")

    with open(out / "summary.json", encoding="utf-8") as fh:
        summary = json.load(fh, parse_constant=reject)
    assert set(summary["models"]) == {"lc", "lcs", "fdm"}


@pytest.mark.parametrize("command", [
    ["forecast", "--horizon", "5"],
    ["forecast", "--horizon", "5", "--bootstrap", "100"],
    ["backtest", "--train", "1950:1964", "--test", "1965:1969"],
])
@pytest.mark.parametrize("ts,described", [("ar:1,1", "AR(1) on d=1 differences"),
                                          ("ar:1,0", "AR(1) on d=0 differences"),
                                          ("ar:2,1,drift", "AR(2) on d=1 differences")])
@pytest.mark.parametrize("model", ["lc", "lcs", "fdm"])
def test_edge_surface_flat_series_ar_ts_exit_2(tmp_path, capsys, command, ts, described, model):
    # the same curve every year leaves every kappa and beta series flat,
    # so an AR lag regression has nothing to regress on; the random walk
    # with drift, which has none, runs (test_edge_surfaces_fit_and_forecast)
    data = tmp_path / "Mx_1x1.txt"
    _write_rates(data, _edge_log_rates("flat_kappa"))
    out = tmp_path / "out"
    code = run_cli([*command, "--data", data, "--ages", "0:11", "--models", model,
                    "--ts", ts, "--output", out])
    assert code == 2
    assert capsys.readouterr().err == (f"error: {model}: {described} cannot be fitted: "
                                       "singular lag regression; series has no usable "
                                       "variation\n")
    assert not out.exists()


# ---------------------------------------------------------------------------
# writing: every artifact is computed before any is written


def snapshot(out):
    """Every file in ``out``, name -> bytes."""
    return {p.name: p.read_bytes() for p in Path(out).iterdir() if p.is_file()}


@pytest.fixture
def earlier_run(hmd_file, tmp_path):
    """An --output holding a finished fit plus one file of the user's own."""
    out = tmp_path / "out"
    assert run_cli(["fit", *base_args(hmd_file, out), "--models", "lc,fdm"]) == 0
    (out / "notes.txt").write_text("kept\n", encoding="utf-8")
    return out


def test_output_that_is_a_file_exit_2_before_reading_data(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("not a directory\n", encoding="utf-8")
    code = run_cli(["fit", "--data", tmp_path / "missing.txt", "--output", out])
    assert code == 2
    assert capsys.readouterr().err == (f"error: --output {out} exists and is not "
                                       "a directory\n")
    assert out.read_text(encoding="utf-8") == "not a directory\n"


def _fail_last_forecast(monkeypatch, n_models):
    """Make the ``n_models``-th forecast raise, after the others succeed."""
    forecast_model, calls = mortforecast.cli.forecast_model, []

    def fake(*args, **kwargs):
        calls.append(args)
        if len(calls) == n_models:
            raise ValueError("forced failure in the last model")
        return forecast_model(*args, **kwargs)

    monkeypatch.setattr(mortforecast.cli, "forecast_model", fake)
    return calls


def test_failed_forecast_creates_no_output(hmd_file, tmp_path, monkeypatch, capsys):
    calls = _fail_last_forecast(monkeypatch, 2)
    out = tmp_path / "fresh"
    code = run_cli(["forecast", *base_args(hmd_file, out), "--models", "lc,fdm"])
    assert code == 1
    assert len(calls) == 2
    assert "computation failed: forced failure" in capsys.readouterr().err
    assert not out.exists()


def test_failed_forecast_changes_no_earlier_file(hmd_file, earlier_run, monkeypatch):
    before = snapshot(earlier_run)
    _fail_last_forecast(monkeypatch, 2)
    code = run_cli(["forecast", *base_args(hmd_file, earlier_run), "--models", "lc,fdm"])
    assert code == 1
    assert sorted(p.name for p in earlier_run.iterdir()) == sorted(before)
    assert snapshot(earlier_run) == before


def _block_the_last_partial(out, monkeypatch):
    # summary.json is staged last, so every other artifact is staged first
    (out / ".summary.json.partial").mkdir()


def _fail_every_rename(out, monkeypatch):
    def fail(src, dst):
        raise PermissionError(f"cannot rename {src}")

    monkeypatch.setattr(os, "replace", fail)


@pytest.mark.parametrize("break_write", [_block_the_last_partial, _fail_every_rename],
                         ids=lambda fn: fn.__name__.strip("_"))
def test_failed_write_exit_2_changes_no_earlier_file(hmd_file, earlier_run, monkeypatch,
                                                     capsys, break_write):
    break_write(earlier_run, monkeypatch)
    before = snapshot(earlier_run)
    names = sorted(p.name for p in earlier_run.iterdir())
    # a shorter window, so every artifact would change
    code = run_cli(["fit", "--data", hmd_file, "--ages", "0:40", "--years", "1950:1990",
                    "--models", "lc,fdm", "--output", earlier_run])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(p.name for p in earlier_run.iterdir()) == names
    assert snapshot(earlier_run) == before


def test_nan_summary_exit_1_under_any_formats(hmd_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(mortforecast.evaluate, "normality_test",
                        lambda sample: (float("nan"), float("nan")))
    out = tmp_path / "csvonly"
    code = run_cli(["fit", *base_args(hmd_file, out), "--models", "fdm",
                    "--formats", "csv"])
    assert code == 1
    assert "computation failed: Out of range float values" in capsys.readouterr().err
    assert not out.exists()


def test_rerun_replaces_artifacts_and_keeps_other_files(hmd_file, earlier_run):
    code = run_cli(["fit", "--data", hmd_file, "--ages", "0:40", "--years", "1950:1990",
                    "--models", "lc", "--formats", "csv", "--output", earlier_run])
    assert code == 0
    assert (earlier_run / "notes.txt").read_text(encoding="utf-8") == "kept\n"
    assert (earlier_run / "lc_kappa.csv").read_text().splitlines()[-1].startswith("1990,")
    assert (earlier_run / "fdm_mu.csv").is_file()
    assert not list(earlier_run.glob(".*.partial"))
