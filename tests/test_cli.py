"""End-to-end command-line runs against a synthetic rates file."""

import filecmp
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mortforecast
from mortforecast import build_surface, fit_models, parse_hmd_rates
from mortforecast.evaluate import normality_test, standardize_residuals
from mortforecast.cli import main
from mortforecast.tsforecast import TsSpec

from conftest import synthetic_hmd_text

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SRC = Path(mortforecast.__file__).resolve().parents[1]


def run_cli(argv):
    """main() returns an exit code, but argparse exits by raising."""
    try:
        return main([str(a) for a in argv])
    except SystemExit as exc:
        return int(exc.code or 0)


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
    for command, flag, value in (("fit", "--level", "120"), ("fit", "--models", "glm"),
                                 ("fit", "--ts", "ar:x"), ("fit", "--ages", "40:0"),
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
    assert "--year 1940 outside data years 1950:2005" in capsys.readouterr().err
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
    ("1950:1975", "1976:1976", "--test 1976:1976 spans 1 year(s)"),
    ("1950:1951", "1952:1960", "--train 1950:1951 spans 2 year(s)"),
])
def test_short_backtest_window_exit_2(hmd_file, tmp_path, capsys, train, test, message):
    out = tmp_path / "short"
    code = run_cli(["backtest", *base_args(hmd_file, out), "--models", "lc",
                    "--train", train, "--test", test])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,reason", [
    (["backtest", "--models", "lc,lcs,fdm", "--train", "1960:1990", "--test", "1991:2000"],
     "a backtest scores"),
    (["lifetable", "--year", "1990"], "a life table reports"),
], ids=["backtest", "lifetable"])
def test_ages_not_from_0_exit_2(hmd_file, tmp_path, capsys, monkeypatch, argv, reason):
    # a backtest and a life table report e0, which needs a life table from
    # birth; the window is rejected before any model or table is computed
    fits = count_calls(monkeypatch, mortforecast.fit_models)
    tables = count_calls(monkeypatch, mortforecast.lifetable.rates_to_lifetable)
    out = tmp_path / "ages"
    code = run_cli([argv[0], "--data", hmd_file, "--ages", "10:30", "--output", out,
                    *argv[1:]])
    assert code == 2
    assert (f"error: --ages 10:30 starts at age 10; {reason} life expectancy at "
            "birth, which needs ages from 0") in capsys.readouterr().err
    assert fits == [] and tables == []
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["fit", "--models", "fdm", "--years", "1950:1953"],
     "-K 4 does not fit a 41 x 4 surface; fdm needs 1 <= K <= 3"),
    (["backtest", "--models", "fdm", "--train", "1950:1952", "--test", "1953:1960"],
     "-K 4 does not fit a 41 x 3 surface; fdm needs 1 <= K <= 2"),
    (["fit", "--models", "lcs", "--ages", "20:40", "--num-basis", "40"],
     "--num-basis with --ages 20:40: num_basis 40 exceeds the 21 observations"),
    (["fit", "--models", "lcs", "--num-basis", "0"],
     "--num-basis with --ages 0:40: num_basis 0 is below the minimum of 4"),
    (["forecast", "--models", "lcs", "--ages", "38:40"],
     "smoothing needs at least 4 ages; --ages 38:40 has 3"),
    (["compare", "--models", "lc", "--years", "1950:1951"],
     "lc and lcs need at least 3 ages and 3 years; the fitted surface is 41 x 2"),
    (["forecast", "--models", "fdm", "-K", "1", "--years", "2004:2005"],
     "--ts: a random walk with drift needs at least 3 years; the fitted surface has 2"),
    (["forecast", "--models", "lc", "--years", "2003:2005", "--ts", "ar:1,1"],
     "--ts: AR(1) on d=1 differences needs at least 4 years; the fitted surface has 3"),
    (["backtest", "--models", "lc,fdm", "--train", "1950:1976", "--test", "1977:2005",
      "--ts", "ar:30,1"],
     "--ts: AR(30) on d=1 differences needs at least 33 years; the fitted surface has 27"),
], ids=["fdm_fit_4_years", "fdm_train_3_years", "num_basis_over_ages", "num_basis_zero",
        "smooth_3_ages",
        "lc_2_years", "rwd_2_years", "ar_3_years", "ar_train_27_years"])
def test_fit_too_small_for_settings_exit_2(hmd_file, tmp_path, capsys, argv, message):
    out = tmp_path / "small"
    code = run_cli([argv[0], *base_args(hmd_file, out), *argv[1:]])
    assert code == 2
    assert message in capsys.readouterr().err
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


def test_cli_import_leaves_out_heavy_scipy_modules():
    # scipy.stats and scipy.interpolate each add a large share of start-up
    # time; the package only needs scipy.linalg and scipy.special
    code = ("import sys, mortforecast.cli\n"
            "print(sorted(m for m in ('scipy.stats', 'scipy.interpolate') "
            "if m in sys.modules))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=env, check=True)
    assert result.stdout.strip() == "[]"


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
    # the script sets each variable the user left unset to 1, before
    # numpy first loads; a value the user set wins. The library leaves
    # them alone
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
    library = blas_at_numpy_import([sys.executable, "-c", "import mortforecast.cli"])
    assert library == {name: user_set.get(name) for name in want}


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
    assert capsys.readouterr().err == (f"error: --ts: {described} cannot be fitted to {model}: "
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
    monkeypatch.setattr(mortforecast.cli, "normality_test",
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
