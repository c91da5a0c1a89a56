"""Release gate: one test per acceptance criterion.

Each test prints a single [PASS]/[FAIL]/[SKIP] line straight to the
real stdout so the verdicts survive pytest's capture and show up in
piped logs. Criteria 1-6 score the package against published Italian
mortality results and skip (with download instructions) when the data
file is absent, and their library calls also run on generated surfaces,
checked only for what holds on any surface; criteria 7-13 are
self-contained and must always pass.
"""

import contextlib
import dataclasses
import filecmp
import sys
import time

import numpy as np
import pytest
import scipy.stats

from mortforecast.cli import main as cli_main
from mortforecast.evaluate import (error_metrics, normality_test, run_backtest,
                                   standardize_residuals)
from mortforecast.fdm import FittedModel, bootstrap_intervals, fit_fdm, forecast_fdm
from mortforecast.leecarter import fit_lc, fit_lcs
from mortforecast.lifetable import rates_to_lifetable
from mortforecast.smoothing import SmoothConfig, smooth_surface
from mortforecast.tsforecast import TsSpec, fit_ts, forecast_ts

from conftest import (ITALY_SKIP, hmdgen_surface, italy_path, italy_surface, make_surface,
                      rank1_surface, smooth)
from test_lifetable import _e0_by_integration
from test_smoothing import _brute_force_isotonic, _monotone_curve, _smooth_one

_PROPERTY_CLOCK = {}
_EMITTER = {}


@pytest.fixture(autouse=True)
def _verdicts_reach_terminal(capsys):
    # pytest captures at the fd level, so plain prints would vanish;
    # capsys.disabled() punches through for the verdict lines
    _EMITTER["ctx"] = capsys.disabled
    yield
    _EMITTER.pop("ctx", None)


def _emit(line):
    ctx = _EMITTER.get("ctx")
    if ctx is None:
        print(line, file=sys.stderr, flush=True)
        return
    with ctx():
        print(line, flush=True)


@contextlib.contextmanager
def criterion(num, label):
    try:
        yield
    except Exception:
        _emit(f"[FAIL] criterion {num}: {label}")
        raise
    _emit(f"[PASS] criterion {num}: {label}")


def _italy_or_skip(num, label):
    if italy_path() is None:
        _emit(f"[SKIP] criterion {num}: {label} (no Italy data file; "
              "place ITA.Mx_1x1.txt under ./data or set $ITALY_MX_1X1)")
        pytest.skip(ITALY_SKIP)


def _close_pp(value, target, pp=0.015):
    assert abs(value - target) <= pp, f"{value:.4f} not within {pp} of {target}"


def _close_rel(value, target, rel=0.30):
    assert abs(value - target) <= rel * abs(target), \
        f"{value:.6g} not within {rel:.0%} of {target:.6g}"


# ---------------------------------------------------------------------------
# data-dependent criteria (published Italian 1950-2006 results)


def test_criterion_01_lc_explained_variance():
    label = "LC explained variance, Italy 1950-2006"
    _italy_or_skip(1, label)
    with criterion(1, label):
        start = time.perf_counter()
        male = fit_lc(italy_surface("male"))
        female = fit_lc(italy_surface("female"))
        elapsed = time.perf_counter() - start
        _close_pp(male.explained_shares[0], 0.916)
        _close_pp(female.explained_shares[0], 0.957)
        assert female.explained_shares[0] > male.explained_shares[0]
        assert elapsed < 5.0, f"fit took {elapsed:.2f}s"


def test_criterion_02_fdm_explained_shares():
    label = "FDM explained shares, Italy 1950-2006"
    _italy_or_skip(2, label)
    with criterion(2, label):
        targets = {"male": (0.918, 0.039, 0.016, 0.004),
                   "female": (0.960, 0.016, 0.004, 0.003)}
        for gender, want in targets.items():
            model = fit_fdm(smooth(italy_surface(gender), SmoothConfig()), K=4)
            for got, ref in zip(model.explained_shares, want):
                _close_pp(float(got), ref)
            assert np.all(np.diff(model.explained_shares) < 0)


def test_criterion_03_lcs_explained_variance():
    label = "LCS explained variance above LC, Italy 1950-2006"
    _italy_or_skip(3, label)
    with criterion(3, label):
        for gender, want in (("male", 0.934), ("female", 0.975)):
            lc = fit_lc(italy_surface(gender))
            lcs = fit_lcs(smooth(italy_surface(gender), SmoothConfig()))
            _close_pp(lcs.explained_shares[0], want)
            assert lcs.explained_shares[0] > lc.explained_shares[0]


def test_criterion_04_backtest_e0_errors():
    label = "backtest 1950:1975 vs 1976:2005 e0 error moments"
    _italy_or_skip(4, label)
    with criterion(4, label):
        targets = {
            "male": {"mean": (-3.210096, -3.215095, -2.507768),
                     "var": (1.693628, 1.691588, 1.612351)},
            "female": {"mean": (-1.632653, -1.637128, -1.010379),
                       "var": (0.6561454, 0.654672, 0.49403)},
        }
        for gender, want in targets.items():
            surface = italy_surface(gender, 1950, 2005)
            start = time.perf_counter()
            report = run_backtest(surface, ("lc", "lcs", "fdm"),
                                  train=(1950, 1975), test=(1976, 2005),
                                  ts_spec=TsSpec())
            elapsed = time.perf_counter() - start
            assert elapsed < 60.0, f"{gender} backtest took {elapsed:.1f}s"
            means = [report.models[m].e0_error_mean for m in ("lc", "lcs", "fdm")]
            variances = [report.models[m].e0_error_variance
                         for m in ("lc", "lcs", "fdm")]
            for got, ref in zip(means, want["mean"]):
                assert abs(got - ref) <= 0.5, f"{gender} mean {got} vs {ref}"
            for got, ref in zip(variances, want["var"]):
                assert abs(got - ref) <= 0.3, f"{gender} var {got} vs {ref}"
            # orderings hold regardless of data revisions
            lc_m, lcs_m, fdm_m = means
            assert fdm_m > lc_m and fdm_m > lcs_m, "FDM must err least"
            assert abs(lcs_m - lc_m) < 0.25, "LCS and LC should sit together"
            assert all(m < 0 for m in means), "all models overpredict mortality"
            assert variances[2] == min(variances), "FDM variance smallest"


def test_criterion_05_error_tables():
    label = "in-sample error tables, across-ages rows"
    _italy_or_skip(5, label)
    with criterion(5, label):
        table1 = {"male": (0.00786, 0.01947, -0.01290, 0.03697),
                  "female": (0.00190, 0.01462, 0.00038, 0.01694)}
        table2 = {"male": (0.00001, 0.00367, -0.01037, 0.02764),
                  "female": (0.00001, 0.00403, 0.00070, 0.01145)}
        for gender in ("male", "female"):
            surface = italy_surface(gender)
            lc = fit_lc(surface)
            lc_report = error_metrics(surface, lc.fitted_log_rates())
            fdm = fit_fdm(smooth(surface, SmoothConfig()), K=4)
            fdm_fitted = fdm.fitted_log_rates()
            fdm_report = error_metrics(surface, fdm_fitted)
            for got, ref in zip(lc_report.avg_across_ages, table1[gender]):
                _close_rel(got, ref)
            for got, ref in zip(fdm_report.avg_across_ages, table2[gender]):
                _close_rel(got, ref)
            assert fdm_report.avg_across_ages[1] < lc_report.avg_across_ages[1]
            assert fdm_report.avg_across_years[1] < lc_report.avg_across_years[1]


def test_criterion_06_residual_diagnostics():
    label = "residual t-tests accept, LC normality rejected"
    _italy_or_skip(6, label)
    with criterion(6, label):
        for gender in ("male", "female"):
            surface = italy_surface(gender, 1950, 1975)
            lc = fit_lc(surface)
            fdm = fit_fdm(smooth(surface, SmoothConfig()), K=4)
            fdm_resid = surface.log_rates - fdm.fitted_log_rates()
            for resid in (lc.residuals, fdm_resid):
                p = scipy.stats.ttest_1samp(standardize_residuals(resid), 0.0).pvalue
                assert p >= 0.99, f"{gender}: zero-mean test p={p:.4f}"
            _, p_norm = normality_test(standardize_residuals(lc.residuals))
            assert p_norm < 0.01, f"{gender}: LC normality p={p_norm:.4g}"


@pytest.mark.parametrize("gender", ["male", "female"])
@pytest.mark.parametrize("seed", [7, 301])
def test_criteria_01_to_06_calls_on_generated_surfaces(seed, gender):
    # the library calls of criteria 1-6 on a generated surface in their
    # windows, asserting only what holds on any surface, no Italy number
    surface = hmdgen_surface(seed, gender, (0, 100), (1950, 2006))
    smoothed = smooth(surface, SmoothConfig())
    lc, lcs, fdm = fit_lc(surface), fit_lcs(smoothed), fit_fdm(smoothed, K=4)
    for model in (lc, lcs, fdm):
        shares = model.explained_shares
        assert np.all(np.isfinite(model.fitted_log_rates()))
        assert np.all((shares > 0) & (shares <= 1)) and np.all(np.diff(shares) <= 0)
        assert shares.sum() <= 1 + 4 * np.finfo(float).eps
    for model in (lc, fdm):
        report = error_metrics(surface, model.fitted_log_rates())
        rows = [report.avg_across_ages, report.avg_across_years]
        for table, index in ((report.by_age, surface.ages), (report.by_year, surface.years)):
            assert np.array_equal(table.index, index)
            assert {np.shape(c) for c in (table.me, table.mse, table.mpe, table.mape)} == \
                {index.shape}
            rows += zip(table.me, table.mse, table.mpe, table.mape)
        for me, mse, mpe, mape in rows:
            assert np.all(np.isfinite([me, mse, mpe, mape]))
            assert mse >= 0 and mape >= abs(mpe)

    report = run_backtest(hmdgen_surface(seed, gender, (0, 100), (1950, 2005)),
                          ("lc", "lcs", "fdm"), train=(1950, 1975), test=(1976, 2005))
    assert np.all(np.isfinite(report.e0_observed))
    for entry in report.models.values():
        assert np.all(np.isfinite(entry.errors))
        assert all(np.all(np.isfinite(getattr(entry.e0_interval, part)))
                   for part in ("point", "lower", "upper"))
        assert np.isfinite(entry.e0_error_mean) and entry.e0_error_variance >= 0

    early = hmdgen_surface(seed, gender, (0, 100), (1950, 1975))
    fdm_early = fit_fdm(smooth(early, SmoothConfig()), K=4)
    for resid in (fit_lc(early).residuals, early.log_rates - fdm_early.fitted_log_rates()):
        std = standardize_residuals(resid)
        w, p = normality_test(std)
        assert 0 < w <= 1 and 0 <= p <= 1
        assert 0 <= scipy.stats.ttest_1samp(std, 0.0).pvalue <= 1


# ---------------------------------------------------------------------------
# self-contained criteria


def test_criterion_07_rank1_recovery():
    label = "rank-1 surfaces recovered to 1e-10"
    _PROPERTY_CLOCK.setdefault("start", time.perf_counter())
    with criterion(7, label):
        for seed in (0, 1, 2):
            surface, alpha, beta, kappa = rank1_surface(n_ages=14, n_years=22,
                                                        seed=seed)
            model = fit_lc(surface)
            assert np.abs(model.center - alpha).max() < 1e-10
            assert np.abs(model.basis[:, 0] - beta).max() < 1e-10
            assert np.abs(model.coefficients[:, 0] - kappa).max() < 1e-10
            assert abs(model.explained_shares[0] - 1.0) < 1e-10


def test_criterion_08_constraint_invariants():
    label = "beta/kappa constraints on 100 surfaces, phi orthonormal"
    with criterion(8, label):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            n_ages = int(rng.integers(3, 14))
            n_years = int(rng.integers(3, 16))
            log_m = rng.standard_normal((n_ages, n_years)) - 4.0
            model = fit_lc(make_surface(log_m))
            kappa = model.coefficients[:, 0]
            assert abs(model.basis.sum() - 1.0) < 1e-12
            assert abs(kappa.sum()) < 1e-12 * max(1.0, np.abs(kappa).sum())
        for seed in (5, 6):
            log_m = np.random.default_rng(seed).standard_normal((12, 16)) - 4.0
            fdm = fit_fdm(smooth(make_surface(log_m),
                                 SmoothConfig(monotone_from=None)), K=4)
            gram = fdm.basis.T @ fdm.basis
            assert np.abs(gram - np.eye(4)).max() < 1e-10


def test_criterion_09_reconstruction_and_variance_sum():
    label = "reconstruction identities and forecast-variance term sum"
    with criterion(9, label):
        rng = np.random.default_rng(9)
        log_m = rng.standard_normal((10, 14)) - 4.0
        surface = make_surface(log_m)
        lc = fit_lc(surface)
        assert np.abs(lc.fitted_log_rates() + lc.residuals - log_m).max() < 1e-12
        smoothed = smooth(surface, SmoothConfig(monotone_from=None))
        fdm = fit_fdm(smoothed, K=3)
        recon = fdm.center[:, None] + fdm.basis @ fdm.coefficients.T + fdm.residuals
        assert np.abs(recon - smoothed.log_rates).max() < 1e-12

        # three-age fixture with every variance ingredient hand-computed:
        # beta1 (0,2,1,3,2,4): drift 0.8, rss 10.8, sigma2 10.8/4 = 2.7
        # beta2 (0,1,3,2,4,5): drift 1.0, rss 6.0, sigma2 6/4 = 1.5
        beta1 = np.array([0.0, 2.0, 1.0, 3.0, 2.0, 4.0])
        beta2 = np.array([0.0, 1.0, 3.0, 2.0, 4.0, 5.0])
        beta = np.column_stack([beta1 - beta1.mean(), beta2 - beta2.mean()])
        phi = np.column_stack([np.full(3, 1.0 / np.sqrt(3.0)),
                               np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0)])
        v = np.array([0.01, 0.02, 0.03])
        sigma2 = np.array([0.001, 0.002, 0.003])
        mu = np.array([-4.0, -4.5, -5.0])
        model = FittedModel(name="fdm", ages=np.arange(3), years=np.arange(2000, 2006),
                            center=mu, basis=phi, coefficients=beta,
                            residuals=np.zeros((3, 6)), v=v, sigma2=sigma2,
                            explained_shares=np.array([0.9, 0.1]), explained_rss=1.0)
        fc = forecast_fdm(model, TsSpec(), horizon=3)
        phi2 = phi**2
        for h in (1, 2, 3):
            u1 = 2.7 * h + 2.7 * h * h / 5.0
            u2 = 1.5 * h + 1.5 * h * h / 5.0
            expected = (v / 6.0 + phi2[:, 0] * u1 + phi2[:, 1] * u2
                        + v + sigma2)
            assert np.abs(fc.variance[:, h - 1] - expected).max() < 1e-12
            want_point = (mu + phi[:, 0] * (beta[-1, 0] + 0.8 * h)
                          + phi[:, 1] * (beta[-1, 1] + 1.0 * h))
            assert np.abs(fc.point[:, h - 1] - want_point).max() < 1e-12


def test_criterion_10_rwd_closed_forms():
    label = "random-walk-with-drift closed forms"
    with criterion(10, label):
        line = fit_ts(np.arange(5.0), TsSpec())
        assert line.drift == pytest.approx(1.0, abs=1e-12)
        assert line.innovation_variance == pytest.approx(0.0, abs=1e-12)
        hand = fit_ts(np.array([0.0, 2.0, 1.0, 3.0]), TsSpec())
        assert hand.drift == pytest.approx(1.0, abs=1e-12)
        assert hand.innovation_variance == pytest.approx(3.0, abs=1e-12)
        base = fit_ts(np.linspace(0.0, 25.0, 26), TsSpec())
        unit = dataclasses.replace(base, innovation_variance=1.0)
        _, variance = forecast_ts(unit, 30)
        assert variance[29] == pytest.approx(30.0 + 900.0 / 25.0, abs=1e-10)
        assert np.all(np.diff(variance) > 0)


def test_criterion_11_smoothing_properties():
    label = "affine fixed point, exact tail isotonics"
    with criterion(11, label):
        xs = np.arange(20, dtype=float)
        affine = -3.0 + 0.05 * xs
        for lam in (0.0, 1.0, 1e6):
            values, _ = _smooth_one(affine, SmoothConfig(lam=lam, monotone_from=None))
            assert np.abs(values - affine).max() < 1e-8
        rng = np.random.default_rng(7)
        for n in range(1, 7):
            for _ in range(20):
                y = rng.standard_normal(n)
                brute, _ = _brute_force_isotonic(y)
                got = _monotone_curve(np.concatenate([[y.min() - 1.0], y]), 1)
                assert np.abs(got[1:] - brute).max() < 1e-10
        surface = rng.standard_normal((30, 8)) - 3.0
        smoothed = smooth_surface(surface, np.arange(30), np.arange(8),
                                  SmoothConfig(monotone_from=12))
        tails = np.diff(smoothed.log_rates[12:, :], axis=0)
        assert np.all(tails >= -1e-10)


def test_criterion_12_lifetable_oracle():
    label = "life table antitone with e0 integration oracle"
    with criterion(12, label):
        mx = np.full(101, 0.01)
        assert abs(rates_to_lifetable(mx).e0 - _e0_by_integration(mx)) < 0.01
        rng = np.random.default_rng(12)
        for _ in range(25):
            schedule = np.exp(rng.uniform(-7.0, 0.0, size=40))
            gamma = rng.uniform(0.2, 0.95)
            assert rates_to_lifetable(gamma * schedule).e0 >= rates_to_lifetable(schedule).e0


def test_criterion_13_determinism(hmd_file, tmp_path):
    label = "bootstrap and CLI artifacts byte-identical under one seed"
    with criterion(13, label):
        rng = np.random.default_rng(13)
        log_m = rng.standard_normal((8, 15)) * 0.2 - 4.0
        model = fit_fdm(smooth(make_surface(log_m), SmoothConfig(monotone_from=None)), K=2)
        a = bootstrap_intervals(model, TsSpec(), horizon=4, B=150, seed=21)
        b = bootstrap_intervals(model, TsSpec(), horizon=4, B=150, seed=21)
        assert np.array_equal(a.lower, b.lower) and np.array_equal(a.upper, b.upper)

        outs = []
        for tag in ("one", "two"):
            out = tmp_path / tag
            code = cli_main(["backtest", "--data", hmd_file, "--ages", "0:40",
                             "--years", "1950:2005", "--models", "lc,lcs,fdm",
                             "--train", "1950:1979", "--test", "1980:1995",
                             "--bootstrap", "150", "--seed", "21",
                             "--output", str(out)])
            assert code == 0
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        match, mismatch, errors = filecmp.cmpfiles(outs[0], outs[1], names,
                                                   shallow=False)
        assert mismatch == [] and errors == [], (mismatch, errors)

        if "start" in _PROPERTY_CLOCK:
            elapsed = time.perf_counter() - _PROPERTY_CLOCK["start"]
            assert elapsed < 10.0, f"property criteria took {elapsed:.1f}s"
