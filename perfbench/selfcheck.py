#!/usr/bin/env python3
"""Check the benchmark itself, in about a minute.

    python3 perfbench/selfcheck.py

1. BENCHMARK.json lists exactly the workloads and metrics this directory
   reports, with bounds inside the contract.
2. A tiny pass of every workload, untraced and traced, prints a last line
   with exactly the documented keys, metric names and units.
3. A reference perturbed by 1 + 1e-3 (the simplex metric) turns every
   geometry op into a failed op, clears `correct` and raises ref_err_ratio.
4. The baseline-defect rules accept the recorded failures and nothing
   wider: an unlisted unconverged maxent op, a residual miss, a metric miss
   or an FD miss above its envelope clears `correct`.
5. A copy holding only BENCHMARK.json and this directory exits non-zero
   without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

harness.pin_blas()

import numpy as np  # noqa: E402

import geometry_sweep  # noqa: E402
import maxent_solve  # noqa: E402
import metrics  # noqa: E402
import refs  # noqa: E402
import run  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def check_manifest() -> None:
    doc = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    expect(set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
           "BENCHMARK.json has exactly the contract keys")
    expect([w["name"] for w in doc["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json workloads match run.WORKLOADS")
    expect([(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]]
           == list(metrics.END_TO_END), "end_to_end metrics match metrics.END_TO_END")
    expect(all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"]), "bounds within (0, 0.25]")
    expect([(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
           == list(metrics.PER_LAYER), "per_layer metrics match metrics.PER_LAYER")
    expect(len(json.dumps(doc)) <= 64 * 1024, "BENCHMARK.json under 64 KiB")


def check_tiny_runs() -> None:
    for workload in run.WORKLOADS:
        for trace, spec in ((0, metrics.END_TO_END), (1, metrics.PER_LAYER)):
            argv = [sys.executable, str(harness.HERE / "run.py"), "--workload", workload,
                    "--seed", "3", "--seconds", "0.2", "--trace", str(trace),
                    "--size", "tiny"]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=170,
                                  cwd=harness.ROOT)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{label} exits 0: {proc.stderr[-500:]}")
                continue
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(last) == {"correct", "attempted", "failed", "metrics"}, f"{label} keys")
            expect(isinstance(last["attempted"], int) and last["attempted"] >= 1
                   and isinstance(last["failed"], int), f"{label} counts are integers")
            got = [(k, v["unit"]) for k, v in last["metrics"].items()]
            expect(got == [(name, unit) for name, unit, _ in spec], f"{label} metric names/units")
            expect(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                       for v in last["metrics"].values()), f"{label} values finite")


def check_perturbed_reference() -> None:
    lib = harness.load_library()
    built = geometry_sweep.build(lib, "tiny")

    def one_pass():
        ops = geometry_sweep.make_ops(lib, built, np.random.default_rng(5), "tiny", None)
        loop = harness.closed_loop(ops, 0.0, np.random.default_rng(5), max_passes=1)
        values, _ = harness.end_to_end(loop, ops, [(1.0, harness.PROBE_REF_MS)], 1.0)
        return ops, loop, values["ref_err_ratio"]["value"]

    ops, loop, base = one_pass()
    expect(loop.failed == 0 and run.correct(geometry_sweep, ops, loop),
           "unperturbed tiny geometry pass is correct")
    original = refs.simplex_metric
    refs.simplex_metric = lambda p, c: original(p, c) * (1.0 + 1e-3)
    try:
        ops, loop, perturbed = one_pass()
    finally:
        refs.simplex_metric = original
    expect(loop.failed == loop.attempted, "perturbed metric reference fails every op")
    expect(not run.correct(geometry_sweep, ops, loop), "perturbed run is not correct")
    expect(perturbed > base and perturbed >= 50.0,
           f"ref_err_ratio rises ({base:.3g} -> {perturbed:.3g})")


def check_known_defects() -> None:
    known = maxent_solve.is_known_defect
    unconverged = "not converged after 99 iterations; over tolerance: stationarity 9x"
    recorded = harness.Op("shannon:w50", None, None)
    expect(known(recorded, 9.0, unconverged), "maxent: a recorded unconverged op is known")
    expect(not known(harness.Op("shannon:w10", None, None), 9.0, unconverged),
           "maxent: an unlisted unconverged op is not known")
    expect(not known(recorded, 9.0, unconverged + ", residual 2x"),
           "maxent: a residual miss on a recorded op is not known")

    known = geometry_sweep.is_known_defect
    op = harness.Op("power:w12@0", None, None, {"p_min": 0.04})  # envelope 7.5x
    expect(known(op, 6.0, "over tolerance: gamma_star 6x, duality 2x"),
           "geometry: an FD miss inside the envelope is known")
    expect(not known(op, 8.0, "over tolerance: gamma_star 8x"),
           "geometry: an FD miss above the envelope is not known")
    expect(not known(op, 2.0, "over tolerance: metric 2x, gamma 2x"),
           "geometry: a metric miss is not known")


def check_bare_copy() -> None:
    bare = harness.HERE / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    ignore = shutil.ignore_patterns("_work", "_out", "__pycache__")
    shutil.copytree(harness.HERE, bare / harness.HERE.name, ignore=ignore)
    shutil.copy(harness.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, f"{harness.HERE.name}/run.py", "--workload", "batch-eval",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=170, cwd=bare,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"copy without src/ exits {proc.returncode} and prints no result")


def main() -> int:
    check_manifest()
    check_perturbed_reference()
    check_known_defects()
    check_bare_copy()
    check_tiny_runs()
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    raise SystemExit(main())
