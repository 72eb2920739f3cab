#!/usr/bin/env python3
"""entrogeo benchmark: one closed-loop caller per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: geometry-sweep, maxent-solve, batch-eval, cli-corpus (see the
modules of the same names and README.md).  Inputs come from --seed.  One
caller runs the workload's ops back to back for --seconds, with BLAS pinned
to one thread, and checks every op against a reference computed here.

--trace 0 prints the end-to-end metrics; --trace 1 runs the workload once
untraced and once with spans around every public entrogeo function, and
prints the per-layer metrics and the tracing overhead (spans are written to
perfbench/_out/).  The line before the last holds the machine record and
the details; the last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

entrogeo is imported from src/ of the checkout this file sits in; without
it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

harness.pin_blas()  # before numpy starts its BLAS threads in this process

import importlib  # noqa: E402

import numpy as np  # noqa: E402

import metrics  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("geometry-sweep", "maxent-solve", "batch-eval", "cli-corpus")

#: Fresh processes timed for setup_s, per --size; the median is reported.
SETUP_REPS = {"full": 5, "tiny": 1}


def module_name(workload: str) -> str:
    return workload.replace("-", "_")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few small ops, for selfcheck.py")
    return parser.parse_args(argv)


def correct(wl, ops, loop) -> bool:
    """No failure outside the workload's recorded baseline defects."""
    known = getattr(wl, "is_known_defect", None)
    return all(
        known is not None and known(ops[i], loop.first_ratio[i], reason)
        for i, reason in loop.failures.items()
    )


def run_timed(lib, wl, args, workdir: Path) -> tuple[dict, dict]:
    setup = harness.measure_setup(module_name(args.workload), wl.IMPORT, args.size,
                                  SETUP_REPS[args.size])
    built = wl.build(lib, args.size)
    rng = np.random.default_rng(args.seed)
    ops = wl.make_ops(lib, built, rng, args.size, workdir)
    loop = harness.closed_loop(ops, args.seconds, rng)
    if getattr(wl, "RSS_OF_CHILDREN", False):
        rss = harness.children_peak_rss_mb()
    else:
        rss = harness.self_peak_rss_mb()
    values, details = harness.end_to_end(loop, ops, setup, rss)
    result = {
        "correct": correct(wl, ops, loop),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": values,
    }
    return result, details


def generic_layer_metrics(tracer, ops_spans, children) -> dict:
    out = {}
    div_calls, div_s, _ = tracer.leaf_totals("divergence.fn", ops_spans)
    op_s = sum(op.duration for op in ops_spans)
    out["divergence.calls"] = div_calls
    if div_calls:
        out["divergence.us_per_call"] = 1e6 * div_s / div_calls
    if op_s:
        out["divergence.busy_frac"] = div_s / op_s
    values, value_s, _ = tracer.leaf_totals("hf_entropy.fn", ops_spans)
    grads, grad_s, _ = tracer.leaf_totals("hf_entropy.gradient", ops_spans)
    out["hf_entropy.value_calls"] = values
    out["hf_entropy.gradient_calls"] = grads
    out["hf_entropy.busy_s"] = value_s + grad_s
    build = [s for s in tracer.spans if s.name == "build"]
    if build:
        under = children.get(tracer.spans.index(build[0]), [])
        out["hf_entropy.build_ms"] = 1e3 * sum(
            s.duration for s in under if s.name.startswith("hf_entropy."))
        out["composition.group_compose_build_ms"] = 1e3 * sum(
            s.duration for s in under if s.name == "composition.group_compose")
    return out


def run_traced(lib, wl, args, workdir: Path) -> tuple[dict, dict]:
    make = getattr(wl, "trace_ops", wl.make_ops)
    built = wl.build(lib, args.size)
    ops = make(lib, built, np.random.default_rng(args.seed), args.size, workdir)
    plain = harness.closed_loop(ops, args.seconds / 2, np.random.default_rng(args.seed))

    tracer = tracing.Tracer()
    with tracing.patch_modules(tracer):
        with tracer.span("build"):
            traced_built = wl.build(lib, args.size)
        traced_built = tracing.instrument(traced_built, tracer, lib)
        traced_ops = make(lib, traced_built, np.random.default_rng(args.seed), args.size, workdir)
        traced = harness.closed_loop(traced_ops, 0.0, np.random.default_rng(args.seed),
                                     tracer=tracer, max_passes=1)

    ops_spans = tracer.ops()
    children = tracer.children()
    values = dict.fromkeys((name for name, _, _ in metrics.PER_LAYER), 0.0)
    values.update(generic_layer_metrics(tracer, ops_spans, children))
    values.update(wl.layer_metrics(tracer, ops_spans, children))
    if hasattr(wl, "traced_extras"):
        values.update(wl.traced_extras(args.size, workdir, ops_spans))
    values["trace_overhead_frac"] = (
        harness.scaled_op_ms(traced).sum() / harness.scaled_op_ms(plain).sum() - 1.0
    )

    out = harness.OUT / f"trace-{args.workload}-{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    tracer.dump(out)
    units = {name: unit for name, unit, _ in metrics.PER_LAYER}
    result = {
        "correct": correct(wl, traced_ops, traced) and correct(wl, ops, plain),
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in values.items()},
    }
    details = {
        "spans": len(tracer.spans),
        "spans_file": str(out.relative_to(harness.ROOT)),
        "untraced_passes": plain.passes,
    }
    return result, details


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        lib = harness.load_library()
    except harness.MissingLibrary as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wl = importlib.import_module(module_name(args.workload))
    workdir = harness.HERE / "_work" / f"{args.workload}-{os.getpid()}"
    try:
        runner = run_traced if args.trace else run_timed
        result, details = runner(lib, wl, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = {
        "benchmark": "entrogeo",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "machine": harness.machine_record(),
        "details": details,
    }
    print(json.dumps(record, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
