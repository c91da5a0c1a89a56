"""Benchmark of the mortforecast fit -> forecast -> backtest pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--seed N] [--seconds S]

Run from the root of a checkout; the program is imported from ``src/``.
Each run writes a seeded HMD-scale ``Mx_1x1`` file (bench/hmdgen.py)
and drives ``mortforecast.cli.main`` on it in a closed loop, one op at
a time, for ``--seconds`` (workloads in bench/workloads.py). Before the
loop, the workload's ops run once on the reference input (generator
seed ``REF_SEED``) and are compared with bench/reference.json; those
ops double as the warm-up. Every op's output is checked (bench/checks.py).

``--trace 0`` reports the end-to-end metrics:

- ``setup_s``: median over fresh interpreters of the time from before
  ``import mortforecast.cli`` until the first surface is built;
- ``cold_s``: median wall time of one op as a fresh
  ``python -m mortforecast.cli`` process;
- ``op_p50_s`` and ``op_tail_s``: median and tail warm in-process op
  latency (the tail percentile is fixed per workload);
- ``peak_rss_mb``: peak resident memory of the warm-loop process;
- ``ok_ratio``: ops that exited 0 and passed every check, over ops
  attempted (one minus the fail ratio, so it is never 0).

Every timing is bracketed by timings of a fixed pure-Python loop and
reported in reference-host seconds, which cancels most of the slowdown
that other tenants of a shared machine cause (``HostSpeed``).

``--trace 1`` is a separate run that wraps the package's public
functions (bench/layertrace.py), alternating traced and untraced passes
over the op cycle, and reports per-layer self time and work counts per
op, import times from ``-X importtime`` and the tracing overhead. Spans
are written to ``.bench_out/traces/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it list every metric with its unit, the environment, and the tail
percentile with its sample count. Full results go to
``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH))

import hmdgen  # noqa: E402
import layertrace  # noqa: E402
from checks import check_op, compare_reference, digest  # noqa: E402
from workloads import WORKLOADS, ops  # noqa: E402

REF_SEED = 20110803
# Fresh-process samples per run, (cold ops, set-up probes); set-up
# probes run just before cold ops, spread evenly among them. Cold ops vary
# most from run to run, so they get the most samples, except on
# forecast-all, where each takes about 3 s and more would leave too few
# warm ops for op_tail_s.
PROBES = {"forecast-all": (4, 3), "backtest-boot": (6, 3), "fit-lc-sweep": (6, 3)}
N_IMPORT = 3
# Percentile reported as op_tail_s, fixed per workload so that runs
# compare like with like. It should be the highest one with at least ten
# ops beyond it, but a 36-second run on a 2-core x86-64 VM reaches only
# 12-17 forecast-all and 14-22 backtest-boot ops, so on those two it is
# p60, the lowest nearest-rank percentile that never falls below the
# median, with 4-8 ops beyond it; fit-lc-sweep reaches 190-390 ops
# (11-23 beyond p94).
TAIL_PERCENTILE = {"forecast-all": 60, "backtest-boot": 60, "fit-lc-sweep": 94}
CHILD_TIMEOUT = 60
# Host speed. Other tenants of the machine slow it down in bursts of a
# few seconds, by up to ~1.8x, and a run's median moves with the share of
# its ops that hit a burst. So every op is bracketed by timings of a
# fixed pure-Python loop, and its seconds are scaled by REF_HOST_LOOP_S
# over the mean of the two: timings are reported in seconds at the loop
# speed of a quiet 2-core x86-64 VM. On forecast-all this cut the spread
# of 20-op medians from 0.20 to 0.05 of the median. One 7 ms loop is too
# short a sample to scale a single fresh-process probe by (fit-lc-sweep's
# cold_s then spread by 0.16 of its median over ten runs, against 0.09
# unscaled), so a probe is bracketed by PROBE_LOOPS loops on each side
# and scaled by their medians (cold_s spread 0.05-0.10 on every
# workload). Raw seconds and the factors are in the results file.
HOST_LOOP_ITERATIONS = 100_000
REF_HOST_LOOP_S = 0.007
PROBE_LOOPS = 5

SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
import mortforecast.cli
from mortforecast import build_surface, parse_hmd_rates
with open(sys.argv[1], encoding="utf-8") as fh:
    records = parse_hmd_rates(fh)
years = [r.year for r in records]
build_surface(records, "total", 0, int(sys.argv[2]), min(years), max(years))
print(time.perf_counter() - t0)
"""

END_TO_END_UNITS = {
    "setup_s": "s", "cold_s": "s", "op_p50_s": "s", "op_tail_s": "s",
    "peak_rss_mb": "MB", "ok_ratio": "ratio",
}

# per-op call counts of single functions, read from the cycle's first op
CALL_COUNTS = {
    "smoothing.surface_calls": "smoothing.smooth_surface",
    "numerics.design_builds": "numerics.bspline_design",
    "numerics.quantile_calls": "numerics.normal_quantile",
    "fdm.fits": "fdm.fit_fdm",
    "tsforecast.path_sims": "tsforecast.simulate_path",
    "lifetable.tables": "lifetable.rates_to_lifetable",
}
AMOUNT_COUNTS = ("ingest.rows", "smoothing.gcv_evals")

PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in layertrace.LAYERS},
    **{name: "count" for name in (*CALL_COUNTS, *AMOUNT_COUNTS)},
    "numerics.svd_s": "s",
    "fdm.replicates_per_s": "1/s",
    "cli.artifact_files": "count",
    "cli.artifact_bytes": "bytes",
    "import.package_s": "s",
    "import.scipy_stats_s": "s",
    "trace.overhead": "ratio",
    "trace.accounted": "ratio",
}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _child(cmd: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, env=_child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT, check=False)


class Runner:
    """Runs ops into fresh output directories and checks what they write."""

    def __init__(self, workdir: str, cli):
        self.workdir = workdir
        self.cli = cli
        self.corrupt = None  # the self-test damages outputs through this
        self.attempted = 0
        self.failures: list[dict] = []
        self._digests: dict[tuple, str] = {}

    def _outdir(self) -> str:
        return tempfile.mkdtemp(prefix="op-", dir=self.workdir)

    def run(self, argv: list[str], tracer=None, op: int = -1, reference=None):
        """One in-process op; returns (seconds, artifact files, artifact bytes)."""
        outdir = self._outdir()
        full = [*argv, "--output", outdir]
        t0 = time.perf_counter()
        try:
            if tracer is None:
                rc = self.cli.main(full)
            else:
                with tracer.attached(op):
                    rc = self.cli.main(full)
        except SystemExit as exc:
            rc = exc.code
        elapsed = time.perf_counter() - t0
        files, size = self._finish(argv, rc, outdir, reference)
        return elapsed, files, size

    def run_cold(self, argv: list[str]) -> float:
        """One op as a fresh ``python -m mortforecast.cli`` process."""
        outdir = self._outdir()
        cmd = [sys.executable, "-m", "mortforecast.cli", *argv, "--output", outdir]
        t0 = time.perf_counter()
        try:
            rc = _child(cmd).returncode
        except subprocess.TimeoutExpired:
            rc = "timeout"
        elapsed = time.perf_counter() - t0
        self._finish(argv, rc, outdir, None)
        return elapsed

    def _finish(self, argv, rc, outdir, reference):
        if self.corrupt is not None:
            self.corrupt(outdir)
        self.attempted += 1
        problems, values = check_op(argv, rc, outdir)
        if not problems:
            current = digest(outdir)
            if self._digests.setdefault(tuple(argv), current) != current:
                problems.append("artifacts differ from an earlier op with the same argv")
        if reference is not None and values:
            problems += compare_reference(values, reference)
        if problems:
            self.failures.append({"argv": argv, "problems": problems})
        names = os.listdir(outdir)
        size = sum(os.path.getsize(os.path.join(outdir, n)) for n in names)
        shutil.rmtree(outdir)
        return len(names), size


def setup_seconds(data_path: str) -> float:
    proc = _child([sys.executable, "-c", SETUP_PROBE, data_path, str(hmdgen.AGE_MAX)])
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def import_seconds() -> dict[str, float]:
    """Cumulative import time of the package and of scipy.stats.

    ``-X importtime`` lists each module after the modules it imported,
    indented one step deeper. scipy.stats is charged with every
    ``scipy.stats*`` entry whose importer is outside scipy.stats, since
    lazy loading can leave the package itself without a line.
    """
    proc = _child([sys.executable, "-X", "importtime", "-c", "import mortforecast.cli"])
    if proc.returncode != 0:
        raise RuntimeError(f"import probe failed: {proc.stderr.strip()}")
    rows = []  # (cumulative us, depth, module)
    for line in proc.stderr.splitlines():
        match = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|( *)(\S+)\s*$", line)
        if match:
            rows.append((int(match.group(1)), len(match.group(2)), match.group(3)))
    importer: dict[int, str] = {}
    waiting: dict[int, list[int]] = {}
    for i, (_, depth, name) in enumerate(rows):
        for deeper in [d for d in waiting if d > depth]:
            for child in waiting.pop(deeper):
                importer[child] = name
        waiting.setdefault(depth, []).append(i)
    package = sum(cum for cum, _, name in rows if name == layertrace.PACKAGE)
    stats = sum(cum for i, (cum, _, name) in enumerate(rows)
                if name.startswith("scipy.stats")
                and not importer.get(i, "").startswith("scipy.stats"))
    return {"package": package / 1e6, "scipy_stats": stats / 1e6}


def host_loop_seconds() -> float:
    """Time of a fixed pure-Python loop, a probe of the host's speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(HOST_LOOP_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - t0


class HostSpeed:
    """Scale factors from raw to reference-host seconds."""

    def __init__(self):
        self._last = host_loop_seconds()

    def scale(self) -> float:
        """Factor for the work done since the previous call (or creation)."""
        now = host_loop_seconds()
        factor = 2.0 * REF_HOST_LOOP_S / (self._last + now)
        self._last = now
        return factor

    def bracket(self, probe):
        """Run ``probe``; return its result and the factor for it.

        One loop is too short a sample for a single probe, so the factor
        comes from the median of PROBE_LOOPS loops on each side.
        """
        before = statistics.median(host_loop_seconds() for _ in range(PROBE_LOOPS))
        result = probe()
        self._last = statistics.median(host_loop_seconds() for _ in range(PROBE_LOOPS))
        return result, 2.0 * REF_HOST_LOOP_S / (before + self._last)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def _blas_threads():
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") \
        or "library default"


def environment(seed: int, data_sha: str, ref_sha: str) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "generator_seed": seed,
        "input_sha256": data_sha,
        "reference_seed": REF_SEED,
        "reference_input_sha256": ref_sha,
    }


def load_reference(workload: str) -> dict:
    with open(BENCH / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)["workloads"][workload]


def reference_ops(runner: Runner, workload: str, ref_path: str, ref_sha: str) -> None:
    """Warm up on the reference input and compare with committed values."""
    reference = load_reference(workload)
    if ref_sha != reference["input_sha256"]:
        runner.attempted += 1
        runner.failures.append({"argv": [], "problems": [
            "reference input differs from the one the committed values came from"]})
        return
    cycle = ops(workload, ref_path, REF_SEED)
    for argv, entry in zip(cycle, reference["ops"]):
        if [a.replace(ref_path, "{data}") for a in argv] != entry["argv"]:
            raise RuntimeError(f"{workload}: op list no longer matches reference.json")
        runner.run(argv, reference=entry)


def timed_loop(runner: Runner, cycle: list[list[str]], seconds: float, tracer=None,
               interludes=()):
    """Closed loop for ``seconds``.

    With a tracer, every other pass over the cycle is traced, and at
    least one pass of each kind runs. Each of ``interludes`` (callables
    taking the HostSpeed; fresh-process probes) runs once between ops,
    spread evenly over the run so that host slow phases hit every metric
    alike; their time counts toward ``seconds`` but not toward any op.
    Returns [(op, position, traced, seconds, files, bytes, host scale)].
    """
    records = []
    speed = HostSpeed()
    start = time.perf_counter()
    deadline = start + seconds
    pending = list(interludes)
    due = [start + seconds * (i + 0.5) / len(pending) for i in range(len(pending))]
    min_ops = 1 if tracer is None else 2 * len(cycle)
    op = 0
    while op < min_ops or time.perf_counter() < deadline:
        while due and time.perf_counter() >= due[0]:
            due.pop(0)
            pending.pop(0)(speed)
        position = op % len(cycle)
        traced = tracer is not None and (op // len(cycle)) % 2 == 0
        elapsed, files, size = runner.run(cycle[position], tracer if traced else None, op)
        records.append((op, position, traced, elapsed, files, size, speed.scale()))
        op += 1
    for interlude in pending:
        interlude(speed)
    return records


def end_to_end(workload: str, runner: Runner, cycle, seconds: float, data_path: str,
               notes: dict) -> dict:
    setup, cold = [], []  # (raw seconds, host scale)

    def cold_probe(speed: HostSpeed):
        cold.append(speed.bracket(lambda: runner.run_cold(cycle[0])))

    def setup_and_cold_probe(speed: HostSpeed):
        setup.append(speed.bracket(lambda: setup_seconds(data_path)))
        cold_probe(speed)

    n_cold, n_setup = PROBES[workload]
    probes = [setup_and_cold_probe if i * n_setup % n_cold < n_setup else cold_probe
              for i in range(n_cold)]
    records = timed_loop(runner, cycle, seconds, interludes=probes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    latencies = [r[3] * r[6] for r in records]
    q = TAIL_PERCENTILE[workload]
    tail = percentile(latencies, q)
    notes.update({
        "ops": len(latencies),
        "tail_percentile": q,
        "ops_beyond_tail": sum(1 for x in latencies if x > tail),
        "raw_op_p50_s": statistics.median(r[3] for r in records),
        "op_raw_s_and_scale": [(r[3], r[6]) for r in records],
        "setup_raw_s_and_scale": setup,
        "cold_raw_s_and_scale": cold,
    })
    return {
        "setup_s": statistics.median(raw * f for raw, f in setup),
        "cold_s": statistics.median(raw * f for raw, f in cold),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail,
        "peak_rss_mb": peak_rss_mb,
        "ok_ratio": (runner.attempted - len(runner.failures)) / runner.attempted,
    }


def per_layer(runner: Runner, cycle, seconds: float, notes: dict, trace_path: Path) -> dict:
    imports = []  # ({"package": s, "scipy_stats": s}, host scale)

    def probe(speed: HostSpeed):
        imports.append(speed.bracket(import_seconds))

    tracer = layertrace.LayerTracer()
    records = timed_loop(runner, cycle, seconds, tracer, interludes=[probe] * N_IMPORT)
    tracer.write(str(trace_path))
    spans = {"names": tracer.names, **tracer.arrays()}
    breakdown = layertrace.op_breakdown(spans)
    traced = [r for r in records if r[2]]
    untraced = [r for r in records if not r[2]]
    reference_ops_ = [breakdown[r[0]] for r in traced if r[1] == 0]
    metrics: dict[str, float] = {}
    for layer in layertrace.LAYERS:
        metrics[f"{layer}.self_s"] = statistics.median(
            breakdown[r[0]]["self_s"][layer] * r[6] for r in traced)
    for name, span in CALL_COUNTS.items():
        metrics[name] = statistics.median(b["calls"].get(span, 0) for b in reference_ops_)
    for name in AMOUNT_COUNTS:
        metrics[name] = statistics.median(
            tracer.amounts[r[0]].get(name, 0) for r in traced if r[1] == 0)
    metrics["numerics.svd_s"] = statistics.median(
        breakdown[r[0]]["inclusive_s"].get("numerics.svd_thin", 0.0) * r[6] for r in traced)
    boot_s = sum(breakdown[r[0]]["inclusive_s"].get("fdm.bootstrap_intervals", 0.0) * r[6]
                 for r in traced)
    replicates = sum(tracer.amounts[r[0]].get("fdm.replicates", 0) for r in traced)
    metrics["fdm.replicates_per_s"] = replicates / boot_s if boot_s > 0 else 0.0
    metrics["cli.artifact_files"] = statistics.median(r[4] for r in traced if r[1] == 0)
    metrics["cli.artifact_bytes"] = statistics.median(r[5] for r in traced if r[1] == 0)
    metrics["import.package_s"] = statistics.median(i["package"] * f for i, f in imports)
    metrics["import.scipy_stats_s"] = statistics.median(
        i["scipy_stats"] * f for i, f in imports)
    metrics["trace.overhead"] = (statistics.median(r[3] * r[6] for r in traced)
                                 / statistics.median(r[3] * r[6] for r in untraced))
    metrics["trace.accounted"] = statistics.median(
        breakdown[r[0]]["root_s"] / r[3] for r in traced)
    notes.update({
        "traced_ops": len(traced),
        "untraced_ops": len(untraced),
        "spans": len(spans["start"]),
        "bindings_patched": tracer.binding_count,
        "trace_file": str(trace_path),
        "reference_op_calls": reference_ops_[0]["calls"] if reference_ops_ else {},
    })
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, str(SRC))
    import mortforecast.cli as cli

    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    try:
        data_path = os.path.join(workdir, "Mx_1x1.txt")
        data_sha = hmdgen.write(data_path, seed)
        os.mkdir(os.path.join(workdir, "reference"))
        ref_path = os.path.join(workdir, "reference", "Mx_1x1.txt")
        ref_sha = hmdgen.write(ref_path, REF_SEED)
        runner = Runner(workdir, cli)
        reference_ops(runner, workload, ref_path, ref_sha)
        cycle = ops(workload, data_path, seed)
        notes: dict = {"environment": environment(seed, data_sha, ref_sha)}
        if trace:
            trace_dir = WORK / "traces"
            trace_dir.mkdir(exist_ok=True)
            trace_path = trace_dir / f"{workload}-seed{seed}.npz"
            metrics = per_layer(runner, cycle, seconds, notes, trace_path)
            units = PER_LAYER_UNITS
        else:
            metrics = end_to_end(workload, runner, cycle, seconds, data_path, notes)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "notes": notes,
        "failures": runner.failures,
        "result": {
            "correct": not runner.failures,
            "attempted": runner.attempted,
            "failed": len(runner.failures),
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        },
    }


def report(out: dict) -> None:
    result, notes = out["result"], out["notes"]
    print(f"workload {out['workload']}  seed {out['seed']}  trace {out['trace']}")
    for key, value in notes["environment"].items():
        print(f"  env {key} = {value}")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print("  timings are in reference-host seconds (see HostSpeed)")
    if "raw_op_p50_s" in notes:
        print(f"  raw op_p50_s = {notes['raw_op_p50_s']:.6g} s")
    if "ops" in notes:
        print(f"  op latency: n = {notes['ops']} ops; op_tail_s is "
              f"p{notes['tail_percentile']} with {notes['ops_beyond_tail']} ops beyond it")
    if "traced_ops" in notes:
        print(f"  trace: {notes['traced_ops']} traced and {notes['untraced_ops']} untraced "
              f"ops, {notes['spans']} spans in {notes['trace_file']}")
    print(f"  fail_ratio = {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} ops)")
    for failure in out["failures"][:5]:
        print(f"  FAILED {' '.join(failure['argv'][:1])}: {'; '.join(failure['problems'])}")


def run_all(seed: int, seconds: float) -> int:
    """Every workload with tracing off, each in its own process."""
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {workload} exited {proc.returncode}: {proc.stderr.strip()}")
            status = 1
        elif not json.loads(lines[-1])["correct"]:
            status = 1
    return status


class Terminated(BaseException):
    """SIGTERM arrived; unwinds the run so work directories and child
    processes are cleaned up (SystemExit would be caught as an op's exit)."""


def _terminate(signum, frame):
    raise Terminated


def main() -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "mortforecast" / "cli.py").is_file():
        print(f"error: no mortforecast sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload is None and not args.all:
        parser.error("give --workload NAME or --all")
    try:
        if args.all:
            return run_all(args.seed, args.seconds)
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except Terminated:
        return 128 + signal.SIGTERM
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(results / name, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
    report(out)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
