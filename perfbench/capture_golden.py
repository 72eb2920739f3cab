#!/usr/bin/env python3
"""Capture the cli-corpus golden output from the checkout's entrogeo.

    python3 perfbench/capture_golden.py

Writes golden/<name>.stdout (stdout bytes) and golden/exit_codes.json for
every invocation in cli_corpus.CORPUS.  Run it only when a change to the
CLI's output is intended; cli-corpus fails every op whose output differs.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

harness.pin_blas()

import cli_corpus  # noqa: E402


def main() -> int:
    harness.load_library()
    workdir = harness.HERE / "_work" / "capture"
    cli_corpus.write_inputs(workdir)
    codes = {}
    try:
        for name, args in cli_corpus.CORPUS.items():
            proc = harness.run_child(cli_corpus.cli_argv(args), cwd=workdir)
            code, out = proc.returncode, proc.stdout
            (cli_corpus.GOLDEN / f"{name}.stdout").write_bytes(out)
            codes[name] = code
            print(f"{name}: exit {code}, {len(out)} bytes")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (cli_corpus.GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
