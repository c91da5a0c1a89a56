"""Self-test of the benchmark at a tiny input size.

    python3 bench/selftest.py

Checks, in well under a minute:

- the generator: equal seeds give equal bytes, and the full-size and
  tiny files parse and build through the public API for every gender,
  with missing and zero cells present for the reader to repair;
- every workload runs its op cycle at the tiny size, traced and
  untraced, with every output check passing;
- damaged outputs count as failed ops: NaN in summary.json, a missing
  artifact, bytes that differ from an earlier op with the same argv,
  and numbers outside the reference tolerances;
- the trace writer: spans written and read back nest inside one
  ``cli.main`` root per op, and the per-layer self times of each op add
  up to its root span.

Exits 0 when everything passes.
"""

from __future__ import annotations

import os
import re
import shutil
import sys
import tempfile

import run
from checks import compare_reference
from layertrace import LayerTracer, load, op_breakdown
from workloads import GENDERS, TINY, WORKLOADS, ops


def _tiny_file(workdir: str, seed: int = 5) -> str:
    path = os.path.join(workdir, f"tiny-{seed}.txt")
    run.hmdgen.write(path, seed, year_min=TINY.year_min, year_max=TINY.year_max)
    return path


def check_generator() -> None:
    from mortforecast import build_surface, parse_hmd_rates

    text = run.hmdgen.generate(5)
    assert text == run.hmdgen.generate(5), "same seed gave different files"
    assert text != run.hmdgen.generate(6), "different seeds gave the same file"
    records = parse_hmd_rates(text)
    assert len(records) == 111 * 85
    assert any(r.male is None for r in records), "no missing cells"
    assert any(r.female == 0.0 for r in records), "no zero cells"
    tiny = parse_hmd_rates(run.hmdgen.generate(5, year_min=TINY.year_min,
                                               year_max=TINY.year_max))
    for gender in GENDERS:
        build_surface(records, gender, 0, 110, 1922, 2006)
        build_surface(tiny, gender, 0, run.hmdgen.AGE_MAX, TINY.year_min, TINY.year_max)


def check_workloads(workdir: str, cli) -> None:
    data = _tiny_file(workdir)
    for workload in WORKLOADS:
        runner = run.Runner(workdir, cli)
        cycle = ops(workload, data, 3, TINY)
        run.timed_loop(runner, cycle, 0.0)
        tracer = LayerTracer()
        records = run.timed_loop(runner, cycle, 0.0, tracer)
        assert all(r[6] > 0 for r in records)
        assert not runner.failures, f"{workload}: {runner.failures}"
        traced_ops = {r[0] for r in records if r[2]}
        assert traced_ops and len(traced_ops) < len(records)

        path = os.path.join(workdir, f"{workload}.npz")
        tracer.write(path)
        spans = load(path)
        assert len(spans["start"]) == len(tracer.arrays()["start"])
        names = [str(n) for n in spans["names"]]
        parent = spans["parent"]
        for i in range(len(parent)):
            if parent[i] >= 0:
                p = parent[i]
                assert spans["op"][p] == spans["op"][i]
                assert spans["start"][p] <= spans["start"][i] <= spans["end"][i] <= spans["end"][p]
            else:
                assert names[spans["name"][i]] == "cli.main"
        breakdown = op_breakdown(spans)
        assert set(breakdown) == traced_ops
        for op, entry in breakdown.items():
            assert entry["calls"]["cli.main"] == 1
            total = sum(entry["self_s"].values())
            assert abs(total - entry["root_s"]) < 1e-6, (workload, op, total, entry["root_s"])


def check_metrics(workdir: str, cli) -> None:
    """Both kinds of run, fresh-process probes included, on one workload."""
    data = _tiny_file(workdir)
    cycle = ops("fit-lc-sweep", data, 3, TINY)
    runner = run.Runner(workdir, cli)
    notes: dict = {}
    timed = run.end_to_end("fit-lc-sweep", runner, cycle, 0.0, data, notes)
    traced = run.per_layer(runner, cycle, 0.0, notes,
                           run.Path(workdir) / "fit-lc-sweep.npz")
    assert not runner.failures, runner.failures
    assert set(timed) == set(run.END_TO_END_UNITS)
    assert set(traced) == set(run.PER_LAYER_UNITS)
    assert all(v > 0 for v in timed.values()), timed
    assert traced["numerics.quantile_calls"] > 0 and traced["ingest.rows"] == 111 * 12
    assert 0.9 < traced["trace.accounted"] <= 1.0, traced["trace.accounted"]


def _nan_in_summary(outdir: str) -> None:
    path = os.path.join(outdir, "summary.json")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(re.sub(r"(: )-?\d+\.\d+", r"\1NaN", text, count=1))


def _drop_artifact(outdir: str) -> None:
    os.remove(os.path.join(outdir, sorted(n for n in os.listdir(outdir)
                                          if n.endswith(".csv"))[0]))


def _flip_digit(outdir: str) -> None:
    path = os.path.join(outdir, sorted(n for n in os.listdir(outdir) if n.endswith(".csv"))[0])
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(re.sub(r"(\d)(\d)\n", lambda m: f"{m.group(1)}{(int(m.group(2)) + 1) % 10}\n",
                        text, count=1))


def check_corruption(workdir: str, cli) -> None:
    data = _tiny_file(workdir)
    argv = ops("fit-lc-sweep", data, 3, TINY)[0]
    for damage in (_nan_in_summary, _drop_artifact, _flip_digit):
        runner = run.Runner(workdir, cli)
        runner.run(argv)
        assert not runner.failures, runner.failures
        runner.corrupt = damage
        runner.run(argv)
        assert runner.attempted == 2 and len(runner.failures) == 1, \
            f"{damage.__name__}: {runner.failures}"

    values = {"explained_variance.lc": 0.9, "boot_e0_lower.fdm": [70.0, 71.0]}
    reference = {"values": dict(values),
                 "mc_tolerance": {"boot_e0_lower.fdm": [0.05, 0.05]}}
    assert not compare_reference(values, reference)
    assert not compare_reference({**values, "boot_e0_lower.fdm": [70.04, 70.96]}, reference)
    assert compare_reference({**values, "explained_variance.lc": 0.9 + 1e-5}, reference)
    assert compare_reference({**values, "boot_e0_lower.fdm": [70.0, 71.1]}, reference)


def main() -> int:
    if not __debug__:
        print("error: the self-test uses assert; run it without -O", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    import mortforecast.cli as cli

    run.WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK)
    try:
        for check in (check_generator, check_workloads, check_metrics, check_corruption):
            args = () if check is check_generator else (workdir, cli)
            check(*args)
            print(f"ok   {check.__name__}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
