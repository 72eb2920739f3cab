#!/usr/bin/env python3
"""Compare two entrogeo source trees in one process, op by op.

    python tests/two_trees.py PARENT_SRC [CHANGE_SRC]

Each SRC is a directory holding an `entrogeo` package (a checkout's src/);
CHANGE_SRC defaults to the src/ beside this file.  Both trees are loaded as
two packages of one process.  Every op of the three in-process perfbench
workloads (geometry-sweep, maxent-solve, batch-eval) is built on seed 7919 by
the unchanged workload modules and run once on each tree; the 13 golden CLI
argv's of cli-corpus run through each tree's `cli.execute` in a temporary
directory that holds the corpus input files.  Each case whose output bytes,
exit code or stderr differ is printed, and the exit code is 1 if any did.
An A/A run prints nothing.

This script is not collected by pytest.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib
import importlib.util
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import harness  # noqa: E402

harness.pin_blas()  # before numpy starts its BLAS threads, as perfbench/run.py does

import numpy as np  # noqa: E402

import batch_eval  # noqa: E402
import cli_corpus  # noqa: E402
import geometry_sweep  # noqa: E402
import maxent_solve  # noqa: E402

SEED = 7919
WORKLOADS = {
    "geometry-sweep": geometry_sweep,
    "maxent-solve": maxent_solve,
    "batch-eval": batch_eval,
}


def load_tree(src: Path, name: str):
    """The entrogeo package under src, imported as the package `name`, with its cli loaded."""
    init = src / "entrogeo" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"no entrogeo package under {src}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    # cli.py binds `import entrogeo` when it is imported: bind it to this tree.
    sys.modules["entrogeo"] = package
    try:
        importlib.import_module(f"{name}.cli")
    finally:
        del sys.modules["entrogeo"]
    return package


def canonical(value):
    """value as nested tuples of text and raw bytes: equal exactly when outputs are bit for bit."""
    if dataclasses.is_dataclass(value):
        fields = tuple((f.name, getattr(value, f.name)) for f in dataclasses.fields(value))
        return type(value).__name__, canonical(fields)
    if isinstance(value, (np.ndarray, np.generic, float)):
        array = np.asarray(value)
        return array.dtype.str, array.shape, array.tobytes()
    if isinstance(value, dict):
        return tuple((key, canonical(item)) for key, item in value.items())
    if isinstance(value, (list, tuple)):
        return tuple(canonical(item) for item in value)
    return repr(value)


def run_op(op):
    try:
        return canonical(op.run())
    except Exception as exc:  # an op that raises is compared by its exception
        return "raised", type(exc).__name__, str(exc)


def workload_outputs(lib, module, workdir: Path) -> dict:
    built = module.build(lib, "full")
    ops = module.make_ops(lib, built, np.random.default_rng(SEED), "full", workdir)
    return {op.name: run_op(op) for op in ops}


def cli_outputs(lib, workdir: Path) -> dict:
    cli_corpus.write_inputs(workdir)
    out = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for name, argv in cli_corpus.CORPUS.items():
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code, text = lib.cli.execute(argv)
            out[name] = {"exit code": code, "stdout": text, "stderr": err.getvalue()}
    finally:
        os.chdir(cwd)
    return out


def differences(parent: dict, change: dict) -> list[str]:
    lines = [f"{name}: only in one tree" for name in sorted(parent.keys() ^ change.keys())]
    for name in parent.keys() & change.keys():
        a, b = parent[name], change[name]
        if a == b:
            continue
        if isinstance(a, dict):  # a CLI call: name what differs
            lines.append(f"{name}: differs in {', '.join(key for key in a if a[key] != b[key])}")
        else:
            lines.append(f"{name}: differs")
    return sorted(lines)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path, nargs="?", default=ROOT / "src")
    args = parser.parse_args(argv)
    trees = [load_tree(args.parent_src, "entrogeo_parent"),
             load_tree(args.change_src, "entrogeo_change")]
    found = False
    with tempfile.TemporaryDirectory() as tmp:
        for workload, module in WORKLOADS.items():
            parent, change = (workload_outputs(lib, module, Path(tmp)) for lib in trees)
            for line in differences(parent, change):
                print(f"{workload} {line}")
                found = True
        parent, change = (cli_outputs(lib, Path(tmp) / lib.__name__) for lib in trees)
        for line in differences(parent, change):
            print(f"cli-corpus {line}")
            found = True
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
