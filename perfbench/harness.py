"""Shared machinery: loading entrogeo from the checkout, the closed loop,
statistics, set-up timing in fresh processes, and the machine record."""

from __future__ import annotations

import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

#: BLAS/OpenMP thread variables pinned in this process and its children.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

#: Op errors below this share of their tolerance read as this share.
ERR_FLOOR = 0.01

#: Prefix of a failure reason that names the checks over their tolerance.
OVER_TOLERANCE = "over tolerance: "


class MissingLibrary(RuntimeError):
    """The checkout holds no importable entrogeo under src/."""


def pin_blas() -> None:
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS


def child_env() -> dict:
    env = dict(os.environ, **{var: BLAS_THREADS for var in BLAS_ENV})
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env.pop("ENTROGEO_SEED", None)
    return env


def load_library():
    """Import entrogeo from <checkout>/src and nowhere else."""
    init = SRC / "entrogeo" / "__init__.py"
    if not init.is_file():
        raise MissingLibrary(f"no entrogeo package under {SRC}")
    sys.path.insert(0, str(SRC))
    import entrogeo
    import entrogeo.cli  # noqa: F401 - the cli layer is traced too

    if Path(entrogeo.__file__).resolve() != init.resolve():
        raise MissingLibrary(f"entrogeo imported from {entrogeo.__file__}, not {SRC}")
    return entrogeo


def over_tolerance(ratios: dict[str, float]) -> str | None:
    """A failure reason naming every check whose error / tolerance exceeds 1, or None."""
    over = [f"{k} {v:.3g}x" for k, v in ratios.items() if not v <= 1.0]
    return OVER_TOLERANCE + ", ".join(over) if over else None


def missed(reason: str) -> set[str]:
    """The checks a failure reason names as over tolerance."""
    _, _, tail = reason.partition(OVER_TOLERANCE)
    return {item.split()[0] for item in tail.split(", ") if item}


# --- ops and the closed loop ---------------------------------------------------------


@dataclass
class Op:
    """One unit of work: `run` is timed, `check` judges its output.

    `check` returns (error / tolerance, failure reason or None).
    """

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[float, str | None]]
    attrs: dict = field(default_factory=dict)
    #: Facts about an output (e.g. solver iterations) added to its traced span.
    facts: Callable[[Any], dict] | None = None


#: Iterations of the speed probe: a fixed pure-Python loop, timed 3 times.
PROBE_LOOP = 10_000
#: The probe's time when no other tenant slows it (2-vCPU shared VM,
#: Python 3.11); scaled times are in ms at this speed.
PROBE_REF_MS = 0.55
#: Longest gap between probes inside the closed loop.
PROBE_EVERY_S = 0.1


def probe_ms() -> float:
    """The fastest of three timings of the probe loop, in ms.

    Taking the fastest drops an interrupt that lands inside one timing.
    """
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOP):
            total += i * i
        best = min(best, time.perf_counter() - t0)
    return 1e3 * best


@dataclass
class LoopResult:
    latencies: list[float]
    executions: list[tuple[int, float, str | None]]  # (op index, ratio, failure)
    first_ratio: dict[int, float]
    failures: dict[int, str]
    passes: int
    wall_s: float
    # Probe times bracketing each execution: (before, after), in ms.
    probes: list[tuple[float, float]] = field(default_factory=list)

    # An op counts once however many passes fit in the time, so that
    # `attempted` and `failed` depend on the seed alone; an op fails if any
    # of its executions failed.
    @property
    def attempted(self) -> int:
        return len(self.first_ratio)

    @property
    def failed(self) -> int:
        return len(self.failures)


def _judge(op: Op, span=None) -> tuple[float, float, str | None]:
    t0 = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # a raising op is a failed op, never a crash
        return time.perf_counter() - t0, math.inf, f"raised {type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    if span is not None and op.facts is not None:
        span.attrs.update(op.facts(out))
    try:
        ratio, reason = op.check(out)
    except Exception as exc:
        return dt, math.inf, f"check raised {type(exc).__name__}: {exc}"
    if not ratio <= 1.0 and reason is None:
        reason = f"error {ratio:.3g} x tolerance"
    return dt, ratio, reason


def closed_loop(
    ops: list[Op],
    seconds: float,
    rng: np.random.Generator,
    tracer=None,
    max_passes: int | None = None,
) -> LoopResult:
    """One caller runs whole passes over the ops, each op right after the last.

    Every pass runs every op once, in one seeded order, so the mix measured
    is the same however many passes fit.  The first pass always runs; another
    starts only if a pass of the mean length so far ends within `seconds`.
    The speed probe runs between ops at least every PROBE_EVERY_S and after
    any longer op, so every execution has a probe just before and just after.
    With a tracer, each op runs inside an "op" span tagged with its attrs.
    """
    order = rng.permutation(len(ops))
    result = LoopResult([], [], {}, {}, 0, 0.0)
    start = time.perf_counter()
    last = probe_ms()
    last_at = time.perf_counter()
    pending: list[int] = []  # executions still waiting for their after-probe
    while True:
        for i in order:
            op = ops[i]
            if time.perf_counter() - last_at > PROBE_EVERY_S:
                last = probe_ms()
                last_at = time.perf_counter()
                for k in pending:
                    result.probes[k] = (result.probes[k][0], last)
                pending.clear()
            if tracer is None:
                dt, ratio, reason = _judge(op)
            else:
                with tracer.span("op", name=op.name, pass_no=result.passes, **op.attrs) as span:
                    dt, ratio, reason = _judge(op, span)
            pending.append(len(result.probes))
            result.probes.append((last, last))
            result.latencies.append(dt)
            result.executions.append((int(i), ratio, reason))
            result.first_ratio.setdefault(int(i), ratio)
            if reason is not None:
                result.failures.setdefault(int(i), reason)
        result.passes += 1
        elapsed = time.perf_counter() - start
        if result.passes == max_passes or elapsed * (result.passes + 1) / result.passes > seconds:
            break
    last = probe_ms()
    for k in pending:
        result.probes[k] = (result.probes[k][0], last)
    result.wall_s = time.perf_counter() - start
    return result


def scaled_op_ms(loop: LoopResult) -> np.ndarray:
    """Each distinct op's mean latency in ms at the probe's reference speed.

    On a shared host other tenants slow every process by up to 1.45x (a
    2-vCPU VM), in spells of seconds to minutes, and a run sees a varying
    share of them.  Each execution's latency is multiplied by PROBE_REF_MS over the
    mean of the probes timed just before and just after it, which cancels
    that common factor and keeps the program's own cost.
    """
    per_op: dict[int, list[float]] = {}
    for (i, _, _), dt, (before, after) in zip(loop.executions, loop.latencies, loop.probes):
        per_op.setdefault(i, []).append(1e3 * dt * PROBE_REF_MS / (0.5 * (before + after)))
    return np.array([float(np.mean(per_op[i])) for i in sorted(per_op)])


def hd_quantile(values: np.ndarray, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile, discretised at mid-ranks.

    The sorted values are weighted by the Beta(q(n+1), (1-q)(n+1)) density
    at (i + 1/2)/n, so the estimate averages the ops around the quantile
    instead of reading the one op that sits there.  That one op's own
    run-to-run noise (10-20% after speed scaling, on a shared 2-vCPU VM) would
    otherwise pass straight into the metric.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    t = (np.arange(n) + 0.5) / n
    log_w = (q * (n + 1) - 1) * np.log(t) + ((1 - q) * (n + 1) - 1) * np.log1p(-t)
    w = np.exp(log_w - log_w.max())
    return float(w @ x / w.sum())


def end_to_end(
    loop: LoopResult, ops: list[Op], setup: list[tuple[float, float]], rss_mb: float
) -> tuple[dict, dict]:
    """The end-to-end metrics plus the details printed beside them.

    `setup` holds (seconds, probe ms) per fresh process.
    """
    op_ms = scaled_op_ms(loop)
    p90 = hd_quantile(op_ms, 0.9)
    setup_s = statistics.median(s * PROBE_REF_MS / p for s, p in setup)
    floored = [max(r, ERR_FLOOR) for r in loop.first_ratio.values()]
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (op_ms.size / (op_ms.sum() / 1e3), "1/s"),
        "op_p50_ms": (hd_quantile(op_ms, 0.5), "ms"),
        "op_p90_ms": (p90, "ms"),
        "ok_frac": (1.0 - loop.failed / loop.attempted, "ratio"),
        "ref_err_ratio": (float(statistics.median(floored)), "ratio"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }
    raw_ms = np.asarray(loop.latencies) * 1e3
    probes = [p for pair in loop.probes for p in pair]
    worst = max(loop.first_ratio, key=lambda i: loop.first_ratio[i])
    details = {
        "distinct_ops": len(ops),
        "ops_above_p90": int((op_ms > p90).sum()),
        "executions": len(loop.executions),
        "passes": loop.passes,
        "wall_s": loop.wall_s,
        "probe_ms_median": statistics.median(probes),
        "probe_ref_ms": PROBE_REF_MS,
        "raw_ops_per_s": raw_ms.size / (raw_ms.sum() / 1e3),
        "raw_p50_ms": float(np.median(raw_ms)),
        "raw_p90_ms": float(np.percentile(raw_ms, 90)),
        "raw_setup_s": statistics.median(s for s, _ in setup),
        "failed": loop.failed,
        "ref_err_max": loop.first_ratio[worst],
        "ref_err_max_op": ops[worst].name,
        "failed_ops": {ops[i].name: reason for i, reason in sorted(loop.failures.items())},
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, details


# --- processes -----------------------------------------------------------------------


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Peak RSS of the largest child this process has waited for."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def run_child(argv: list[str], cwd: Path | None = None, timeout: float = 120.0):
    """Run a child to completion with the pinned environment; stdout and stderr as bytes."""
    return subprocess.run(argv, cwd=cwd, env=child_env(), capture_output=True, timeout=timeout)


# Import time plus build time (importing the benchmark's own module between
# the two is left out), then the speed probe.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import {module}
t1 = time.perf_counter()
import {workload} as w
t2 = time.perf_counter()
w.build(sys.modules["entrogeo"], "{size}")
seconds = (t1 - t0) + (time.perf_counter() - t2)
import harness
print(seconds, harness.probe_ms())
"""


def measure_setup(
    workload_module: str, import_module: str, size: str, reps: int
) -> list[tuple[float, float]]:
    """(seconds from import to a built workload, probe ms) per fresh interpreter."""
    code = SETUP_CODE.format(module=import_module, workload=workload_module, size=size)
    samples = []
    for _ in range(reps):
        proc = run_child([sys.executable, "-c", code], cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.decode(errors='replace')}")
        seconds, probe = proc.stdout.decode().split()
        samples.append((float(seconds), float(probe)))
    return samples


# --- machine record --------------------------------------------------------------------


def _lscpu_caches() -> dict:
    exe = shutil.which("lscpu")
    if exe is None:
        return {"l2": None, "l3": None}
    text = subprocess.run([exe], capture_output=True, text=True, timeout=10).stdout
    caches = {"l2": None, "l3": None}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        if key.strip() == "L2 cache":
            caches["l2"] = value.strip()
        elif key.strip() == "L3 cache":
            caches["l3"] = value.strip()
    return caches


def machine_record() -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {"name": deps["blas"].get("name"), "version": deps["blas"].get("version")}
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "caches": _lscpu_caches(),
        "bytes_per_s_note": (
            "hf_entropy.bytes_per_s is computed from array sizes, not measured traffic; no "
            "bandwidth-to-roofline ratio is reported, because a STREAM array 4x the reported "
            "L3 is too large for the memory this machine shares"
        ),
    }
