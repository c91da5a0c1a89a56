"""Output checks applied to every op the benchmark runs.

An op passes when it exits 0, leaves exactly the expected artifact set,
writes a summary.json with no NaN or infinity, and its numbers are
plausible. Ops on the reference input are also compared with the values
committed in ``reference.json``:

- deterministic numbers (e0 points and analytic bounds, explained
  variance, mean e0 error) within ``ABS_TOL``, room for reordered
  floating-point sums but not for a changed model;
- bootstrap e0 bounds within a Monte Carlo tolerance per test year,
  twice the largest deviation that other bootstrap seeds produced at
  the seed commit, so a different random stream layout passes while a
  wrong interval (another level, or the analytic one) fails.

Same-argv ops must also be byte-identical within a run; the runner
checks that with ``digest``.
"""

from __future__ import annotations

import hashlib
import math
import os

from workloads import expected_artifacts, extract

ABS_TOL = 1e-6
MC_TOLERANCE_KEYS = ("boot_e0_lower.fdm", "boot_e0_upper.fdm")


def digest(outdir: str) -> str:
    """sha256 over every artifact's name and bytes."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(outdir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(outdir, name), "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def _plausible(values: dict) -> list[str]:
    problems = []
    for key, value in values.items():
        items = value if isinstance(value, list) else [value]
        if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in items):
            problems.append(f"{key}: non-finite value")
            continue
        if key.startswith(("e0_point", "boot_e0_point")) and not all(0 < v < 120 for v in items):
            problems.append(f"{key}: life expectancy outside (0, 120)")
        if key.startswith("explained_variance") and not 0 < value <= 1:
            problems.append(f"{key}: {value} outside (0, 1]")
    for prefix in ("e0_{}", "boot_e0_{}"):
        for key in values:
            if not key.startswith(prefix.format("point")):
                continue
            model = key.split(".", 1)[1]
            lower = values[f"{prefix.format('lower')}.{model}"]
            upper = values[f"{prefix.format('upper')}.{model}"]
            if any(not lo <= p <= hi for lo, p, hi in zip(lower, values[key], upper)):
                problems.append(f"{key}: point outside its interval")
    return problems


def check_op(argv: list[str], returncode, outdir: str) -> tuple[list[str], dict]:
    """Problems with one op's output, and the numbers extracted from it."""
    if returncode != 0:
        return [f"exit status {returncode}"], {}
    present = set(os.listdir(outdir))
    expected = expected_artifacts(argv)
    problems = []
    if present != expected:
        missing = sorted(expected - present)
        extra = sorted(present - expected)
        problems.append(f"artifact set differs: missing {missing}, extra {extra}")
    try:
        values = extract(argv, outdir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return problems + [f"cannot read outputs: {exc}"], {}
    return problems + _plausible(values), values


def compare_reference(values: dict, reference: dict) -> list[str]:
    """Differences from the committed values of the same op."""
    expected = reference["values"]
    if set(values) != set(expected):
        return [f"value keys differ from reference: {sorted(set(values) ^ set(expected))}"]
    problems = []
    for key, ref in expected.items():
        got = values[key] if isinstance(values[key], list) else [values[key]]
        ref = ref if isinstance(ref, list) else [ref]
        if len(got) != len(ref):
            problems.append(f"{key}: {len(got)} values, reference has {len(ref)}")
            continue
        tol = reference["mc_tolerance"][key] if key in MC_TOLERANCE_KEYS else [ABS_TOL] * len(ref)
        worst = max(range(len(ref)), key=lambda i: abs(got[i] - ref[i]) - tol[i])
        if abs(got[worst] - ref[worst]) > tol[worst]:
            problems.append(f"{key}[{worst}]: {got[worst]!r} vs reference "
                            f"{ref[worst]!r} (tolerance {tol[worst]:.3g})")
    return problems
