"""Every artifact of a fixed CLI argv matrix, parsed and compared with
committed numbers.

The matrix runs every command on two generated surfaces (hmdgen seeds 7
and 301) over small year windows: lc, lcs and fdm, fdm with and without
``--bootstrap 200 --seed 3``, GCV and ``--lam 0.003``, ``--monotone-from
none``, ``--ts ar:1,0,drift`` and ``arima:1,1`` beside the default random
walk with drift, and ages 0:100 and 0:110 beside the small 0:10 window
that keeps the file small. ``fit_lc_110`` fits 111 ages over 46 years,
so its normality test reads the 5,000-point subsample, as every large
window does.

``fingerprint_cli_matrix.csv`` holds one row per field of an artifact:
a CSV column, a number or list of numbers in ``summary.json`` (strings
left out) or an SVG polyline's coordinates, with its values separated by
spaces. Ints and flags compare exactly, SVG coordinates at atol 0.01 (one
step of their ``.2f``) and other floats at rtol 1e-12 with a floor of
1e-12 times the field's largest |value|, since kappa, beta and the
errors cross zero. A mean error (``me``) of an in-sample fit is a sum of
residuals that cancel to rounding, so its floor is 1e-12 times the
largest |value| in the whole artifact. The floats are not compared bit
for bit because the CI floors job runs another numpy and LAPACK; byte
identity within one environment is a stronger claim, shown by diffing
two runs' artifacts.

A change that moves these numbers on purpose rewrites the file
(``python tests/test_cli_matrix.py``, from the root of a checkout with
``src`` on PYTHONPATH) and names the move in CHANGES.md.
"""

import json
import math
import re
from pathlib import Path

import numpy as np

from conftest import hmdgen, run_cli

FILE = Path(__file__).resolve().parent / "fingerprint_cli_matrix.csv"
HEADER = "seed,argv,file,field,kind,values"
SEEDS = (7, 301)
RTOL = 1e-12
SVG_ATOL = 0.01
NOISE_FIELD = "me"

SMALL = ["--ages", "0:10", "--years", "2001:2006"]
BACKTEST = ["backtest", "--ages", "0:10", "--years", "1997:2005", "--train", "1997:2002",
            "--test", "2003:2005"]
BOOT = ["--bootstrap", "200", "--seed", "3"]
MATRIX = {
    "fit_lc_110": ["fit", "--models", "lc", "--ages", "0:110", "--years", "1922:1967"],
    "fit_all": ["fit", "--models", "lc,lcs,fdm", *SMALL],
    "fit_lcs_100_monotone_none": ["fit", "--models", "lcs", "--ages", "0:100", "--years",
                                  "2001:2006", "--monotone-from", "none"],
    "compare_lc_fdm": ["compare", "--models", "lc,fdm", *SMALL],
    "forecast_all": ["forecast", "--models", "lc,lcs,fdm", "--horizon", "2", *SMALL],
    "forecast_fdm_boot": ["forecast", "--models", "fdm", "--horizon", "2", *BOOT, *SMALL],
    "backtest_lam": [*BACKTEST, "--models", "lc,lcs", "--lam", "0.003"],
    "backtest_fdm_boot": [*BACKTEST, "--models", "lc,fdm", "--lam", "0.003", *BOOT],
    "lifetable_100": ["lifetable", "--ages", "0:100", "--years", "1999:2006", "--year", "2003"],
    "forecast_ar1_drift": ["forecast", "--models", "lc,fdm", "--horizon", "2", "--ts",
                           "ar:1,0,drift", *SMALL],
    "backtest_arima_1_1": [*BACKTEST, "--models", "lc,fdm", "--lam", "0.003", "--ts",
                           "arima:1,1"],
}


def _float_cell(cell):
    # the life table's last row, e0, leaves its other columns empty
    return float(cell) if cell else math.nan


def _csv_fields(text):
    """One (column, kind, values) per column: ints, else floats, else text."""
    header, *rows = text.splitlines()
    for name, cells in zip(header.split(","), zip(*(row.split(",") for row in rows))):
        for kind, parse in (("int", int), ("float", _float_cell)):
            try:
                yield name, kind, [parse(cell) for cell in cells]
                break
            except ValueError:
                pass
        else:
            yield name, "text", list(cells)


def _json_fields(obj, path=""):
    """One (dotted path, kind, values) per number, flag or list of them."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _json_fields(value, f"{path}.{key}" if path else key)
        return
    values = obj if isinstance(obj, list) else [obj]
    if any(isinstance(v, (dict, list)) for v in values):
        for i, value in enumerate(values):
            yield from _json_fields(value, f"{path}.{i}")
    elif values and all(isinstance(v, bool) for v in values):
        yield path, "flag", [str(v).lower() for v in values]
    elif values and all(isinstance(v, int) and not isinstance(v, bool) for v in values):
        yield path, "int", values
    elif values and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                        for v in values):
        yield path, "float", [float(v) for v in values]


def _svg_fields(text):
    for i, points in enumerate(re.findall(r'<polyline[^>]*points="([^"]+)"', text)):
        yield f"polyline{i}", "svg", [float(v) for pair in points.split()
                                      for v in pair.split(",")]


def artifact_rows(tmp_path):
    """Every field of every artifact the matrix writes, as (seed, argv
    id, file, field, kind, values) rows in a fixed order."""
    rows = []
    for seed in SEEDS:
        data = tmp_path / f"Mx_1x1_seed{seed}.txt"
        hmdgen().write(str(data), seed)
        for name, argv in MATRIX.items():
            out = tmp_path / f"seed{seed}" / name
            code = run_cli([*argv, "--data", data, "--output", out])
            assert code == 0, (seed, name)
            for path in sorted(out.iterdir()):
                text = path.read_text(encoding="utf-8")
                fields = {".csv": _csv_fields, ".svg": _svg_fields,
                          ".json": lambda t: _json_fields(json.loads(t))}[path.suffix](text)
                rows += [(seed, name, path.name, *field) for field in fields]
    return rows


def _format(kind, values):
    return " ".join(map(repr if kind == "float" else str, values))


def _floats(values):
    return np.array(values.split(), dtype=float)


def test_cli_matrix_matches_fingerprint(tmp_path):
    got = artifact_rows(tmp_path)
    lines = FILE.read_text(encoding="utf-8").splitlines()
    assert lines[0] == HEADER
    want = [line.split(",", 5) for line in lines[1:]]
    assert [(int(seed), name, file, field, kind) for seed, name, file, field, kind, _ in want] \
        == [row[:5] for row in got]
    scale = {}  # the largest |float| of each artifact, the floor of its mean errors
    for seed, name, file, _, kind, values in want:
        if kind == "float":
            key = (seed, name, file)
            scale[key] = max(scale.get(key, 0.0), np.nanmax(np.abs(_floats(values))))
    for (seed, name, file, field, kind, values), row in zip(want, got):
        label = f"seed {seed} {name} {file} {field}"
        if kind in ("float", "svg"):
            expect = _floats(values)
            if kind == "svg":
                atol = SVG_ATOL
            elif field.rsplit(".", 1)[-1] == NOISE_FIELD:
                atol = RTOL * scale[seed, name, file]
            else:
                atol = RTOL * np.nanmax(np.abs(expect))
            rtol = 0.0 if kind == "svg" else RTOL
            np.testing.assert_allclose(row[5], expect, rtol=rtol, atol=atol, err_msg=label)
        else:
            assert _format(kind, row[5]) == values, label


def _write_file(tmp_path):
    lines = [HEADER]
    for *labels, kind, values in artifact_rows(tmp_path):
        lines.append(",".join(map(str, [*labels, kind, _format(kind, values)])))
    FILE.write_text("\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _write_file(Path(tmp))
