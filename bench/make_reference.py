"""Write bench/reference.json from the current program.

    python3 bench/make_reference.py

The committed file was written at the commit that introduced the
benchmark; it is the oracle later changes are checked against, so
regenerate it only when a change to the program's numbers is intended
and stated. It records, per workload:

- the input hash and the op list on the reference input;
- the checked numbers of each op (bench/checks.py);
- for bootstrap bounds, a Monte Carlo tolerance per test year: twice
  the largest deviation from the committed bounds over ``MC_SEEDS``
  other bootstrap seeds;
- the per-layer counts of one traced run, for later changes to cite.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import run
from checks import check_op
from workloads import WORKLOADS, ops

MC_SEEDS = range(100, 124)
COUNT_NAMES = (*run.CALL_COUNTS, *run.AMOUNT_COUNTS, "cli.artifact_files")


def _values(runner: run.Runner, argv: list[str]) -> dict:
    outdir = tempfile.mkdtemp(dir=runner.workdir)
    rc = runner.cli.main([*argv, "--output", outdir])
    problems, values = check_op(argv, rc, outdir)
    if problems:
        raise RuntimeError(f"{argv}: {problems}")
    return values


def _mc_tolerance(runner: run.Runner, argv: list[str], values: dict) -> dict:
    seed_at = argv.index("--seed") + 1
    worst = {key: [0.0] * len(values[key]) for key in ("boot_e0_lower.fdm",
                                                      "boot_e0_upper.fdm")}
    for seed in MC_SEEDS:
        other = _values(runner, [*argv[:seed_at], str(seed), *argv[seed_at + 1:]])
        for key, dev in worst.items():
            for i, (a, b) in enumerate(zip(other[key], values[key])):
                dev[i] = max(dev[i], abs(a - b))
    return {key: [2.0 * d for d in dev] for key, dev in worst.items()}


def _counts(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(run.BENCH, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, check=True)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in COUNT_NAMES}


def main() -> None:
    sys.path.insert(0, str(run.SRC))
    import mortforecast.cli as cli

    run.WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="reference-", dir=run.WORK)
    try:
        data = os.path.join(workdir, "Mx_1x1.txt")
        sha = run.hmdgen.write(data, run.REF_SEED)
        runner = run.Runner(workdir, cli)
        out = {"reference_seed": run.REF_SEED, "workloads": {}}
        for workload in WORKLOADS:
            entries = []
            for argv in ops(workload, data, run.REF_SEED):
                values = _values(runner, argv)
                entry = {"argv": [a.replace(data, "{data}") for a in argv], "values": values}
                if workload == "backtest-boot":
                    entry["mc_tolerance"] = _mc_tolerance(runner, argv, values)
                entries.append(entry)
            out["workloads"][workload] = {"input_sha256": sha, "ops": entries}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = os.path.join(run.BENCH, "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
    for workload in WORKLOADS:
        out["workloads"][workload]["seed_commit_counts"] = _counts(workload)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
