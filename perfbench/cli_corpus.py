"""cli-corpus: one `entrogeo` process per op over a fixed corpus.

The corpus is the seven README invocations, `connection` on simplex:6,
`connection --alpha`, `metric --divergence fisher`, `divergence --family
composed`, `verify all` and one bad-input call.  Each op must reproduce the
golden exit code and stdout bytes in golden/, captured with
capture_golden.py.  The seed only orders the ops.

The traced run calls `entrogeo.cli.execute` in-process instead, so spans
inside the library are visible, and adds `python -X importtime`.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from harness import HERE, Op, run_child

IMPORT = "entrogeo.cli"
#: peak_rss_mb is that of the largest `entrogeo` child, not of this process.
RSS_OF_CHILDREN = True
GOLDEN = HERE / "golden"

#: What the installed `entrogeo` console script runs.
CLI_MAIN = "import sys\nfrom entrogeo.cli import main\nsys.exit(main())"

FILES = {
    "p.json": {"weights": [0.2, 0.3, 0.5]},
    "q.json": {"weights": [0.25, 0.25, 0.5]},
}

CORPUS = {
    "readme-entropy": ["entropy", "--family", "tsallis:q=1.5", "--dist", "p.json"],
    "readme-divergence": ["divergence", "--family", "sm", "--params", "alpha=0.5", "beta=0.7",
                          "--p", "p.json", "--q", "q.json"],
    "readme-compose": ["compose", "--constituent", "sharma-mittal:alpha=0.3,beta=0.5",
                       "--constituent", "sharma-mittal:alpha=0.7,beta=0.5", "--m", "1",
                       "--dist", "p.json"],
    "readme-metric": ["metric", "--model", "simplex:2", "--divergence", "kl",
                      "--point", "0.3,0.25"],
    "readme-connection": ["connection", "--model", "simplex:2", "--divergence", "kl",
                          "--point", "0.3,0.25"],
    "readme-maxent": ["maxent", "--family", "shannon", "--w", "3", "--constraint", "0,1,2:1.2"],
    "readme-verify": ["verify", "all", "--seed", "7"],
    "connection-w6": ["connection", "--model", "simplex:6", "--divergence", "kl",
                      "--point", "0.1,0.15,0.12,0.13,0.14,0.16"],
    "connection-alpha": ["connection", "--model", "simplex:2", "--alpha", "0.5",
                         "--point", "0.3,0.25"],
    "metric-fisher": ["metric", "--model", "simplex:2", "--divergence", "fisher",
                      "--point", "0.3,0.25"],
    "divergence-composed": ["divergence", "--family", "composed", "--of", "kl",
                            "--of", "power:a=2", "--coeffs", "1,0.5", "--p", "p.json",
                            "--q", "q.json"],
    "verify-all": ["verify", "all"],
    "bad-family": ["entropy", "--family", "nosuch", "--dist", "p.json"],
}
SIZES = {"full": tuple(CORPUS), "tiny": ("readme-entropy", "bad-family")}
SUBCOMMANDS = ("entropy", "divergence", "compose", "metric", "connection", "maxent", "verify")


def build(lib, size: str) -> dict:
    return {"parser": lib.cli.build_parser()}


def write_inputs(workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    for name, doc in FILES.items():
        (workdir / name).write_text(json.dumps(doc))


def load_golden() -> dict:
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    return {name: (code, (GOLDEN / f"{name}.stdout").read_bytes()) for name, code in codes.items()}


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-c", CLI_MAIN, *args]


def make_ops(lib, built: dict, rng, size: str, workdir: Path) -> list[Op]:
    write_inputs(workdir)
    golden = load_golden()
    ops = []
    for name in SIZES[size]:
        want_code, want_out = golden[name]

        def run(args=CORPUS[name]):
            proc = run_child(cli_argv(args), cwd=workdir)
            return proc.returncode, proc.stdout

        def check(result, want_code=want_code, want_out=want_out):
            code, out = result
            if code != want_code:
                return float("inf"), f"exit {code}, golden {want_code}"
            if out != want_out:
                return float("inf"), "stdout differs from golden"
            return 0.0, None

        ops.append(Op(name, run, check, {"sub": CORPUS[name][0]}))
    return ops


# --- traced run ------------------------------------------------------------------------------


def trace_ops(lib, built: dict, rng, size: str, workdir: Path) -> list[Op]:
    """The same corpus through `entrogeo.cli.execute` in this process."""
    write_inputs(workdir)
    golden = load_golden()
    ops = []
    for name in SIZES[size]:
        want_code, want_out = golden[name]

        def run(args=CORPUS[name]):
            cwd = os.getcwd()
            os.chdir(workdir)
            try:
                # The bad-input call reports on stderr; the golden check covers it.
                with contextlib.redirect_stderr(io.StringIO()):
                    return lib.cli.execute(args)
            finally:
                os.chdir(cwd)

        def check(result, want_code=want_code, want_out=want_out):
            code, text = result
            out = (text + "\n").encode() if text else b""
            if code != want_code or out != want_out:
                return float("inf"), "in-process output differs from golden"
            return 0.0, None

        attrs = {"sub": CORPUS[name][0], "expect_error": want_code == 2}
        ops.append(Op(name, run, check, attrs))
    return ops


def _import_times_ms() -> tuple[float, float]:
    """(import entrogeo.cli, numpy's share) from -X importtime, in ms."""
    argv = [sys.executable, "-X", "importtime", "-c", "import entrogeo.cli"]
    proc = run_child(argv)
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr.decode(errors="replace"))
    total = numpy_us = 0
    for line in proc.stderr.decode().splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if name.rstrip() in (" entrogeo", " entrogeo.cli"):
            total += int(cumulative)
        if name.strip() == "numpy":
            numpy_us = max(numpy_us, int(cumulative))
    return total / 1e3, numpy_us / 1e3


def traced_extras(size: str, workdir: Path, ops_spans) -> dict:
    """Import timings (median of 3) and per-process overhead, beside the trace."""
    imports = [_import_times_ms() for _ in range(3)]
    import_ms = statistics.median(t for t, _ in imports)
    execute_ms = {}
    for op in ops_spans:
        execute_ms.setdefault(op.attrs["name"], []).append(1e3 * op.duration)
    walls = []
    for name in SIZES[size]:
        t0 = time.perf_counter()
        run_child(cli_argv(CORPUS[name]), cwd=workdir)
        wall_ms = 1e3 * (time.perf_counter() - t0)
        walls.append(wall_ms - import_ms - statistics.median(execute_ms[name]))
    return {
        "cli.import_ms": import_ms,
        "cli.import_numpy_ms": statistics.median(n for _, n in imports),
        "cli.process_ms": statistics.median(walls),
    }


def layer_metrics(tracer, ops_spans, children) -> dict:
    out = {}
    for sub in SUBCOMMANDS:
        spans = [
            s for op in ops_spans
            if op.attrs["sub"] == sub and not op.attrs["expect_error"]
            for s in children.get(op.op, []) if s.name == "cli.execute"
        ]
        if spans:
            out[f"cli.execute_ms.{sub}"] = 1e3 * float(np.mean([s.duration for s in spans]))
    readme = [op.op for op in ops_spans if op.attrs["name"] == "readme-connection"]
    if readme:
        out["cli.connection.div_connections_calls"] = sum(
            1 for s in tracer.spans if s.op == readme[0] and s.name == "geometry.div_connections"
        )
    return out
