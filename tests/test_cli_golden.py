"""CLI stdout is byte-identical to the benchmark's golden corpus.

The corpus (argv lists and input files) and the golden outputs live under
perfbench/; this test only reads them.  Each invocation runs in-process
through `entrogeo.cli.execute` from a directory holding the input files.
A clean call writes nothing to stderr; a failing one writes one `error:` line.
When a call's exit code or bytes differ, the failure lists what changed:
the exit code, each JSON field by path with its relative change, and keys
added or removed (`diff_report`).
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

from entrogeo.cli import execute

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GOLDEN = PERFBENCH / "golden"

sys.path.insert(0, str(PERFBENCH))
from cli_corpus import CORPUS, FILES  # noqa: E402

EXIT_CODES = json.loads((GOLDEN / "exit_codes.json").read_text())


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _field_changes(old, new, path: str, changes: list[str], rel: dict[str, float]) -> None:
    """Append one line per differing leaf of two JSON values; record each float's change."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in [*old, *(k for k in new if k not in old)]:
            where = f"{path}.{key}" if path else key
            if key not in new:
                changes.append(f"removed key {where}")
            elif key not in old:
                changes.append(f"added key {where}")
            else:
                _field_changes(old[key], new[key], where, changes, rel)
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            changes.append(f"{path}: length {len(old)} -> {len(new)}")
        for i, (a, b) in enumerate(zip(old, new)):
            _field_changes(a, b, f"{path}[{i}]", changes, rel)
    elif _is_number(old) and _is_number(new):
        if old != new:
            rel[path] = abs(new - old) / abs(old) if old else math.inf
            changes.append(f"{path}: {old!r} -> {new!r} (relative change {rel[path]:.3g})")
    elif old != new or type(old) is not type(new):
        changes.append(f"{path}: {json.dumps(old)} -> {json.dumps(new)}")


def diff_report(want_code: int, code: int, want: bytes, out: bytes) -> list[str]:
    """What differs between a golden (exit code, stdout) and a fresh one, one line each.

    Empty when both match byte for byte.  Stdout that is JSON on both sides
    is compared field by field; otherwise only its sizes are reported.
    """
    lines = [f"exit code {want_code} -> {code}"] if code != want_code else []
    if out == want:
        return lines
    try:
        old, new = json.loads(want), json.loads(out)
    except ValueError:
        return [*lines, f"stdout {len(want)} -> {len(out)} bytes, not JSON on both sides"]
    changes: list[str] = []
    rel: dict[str, float] = {}
    _field_changes(old, new, "", changes, rel)
    if rel:
        worst = max(rel, key=rel.get)
        changes.append(f"largest relative change {rel[worst]:.3g} at {worst}")
    return [*lines, *(changes or ["stdout bytes differ but parse to the same JSON values"])]


def test_diff_report_names_each_changed_field():
    want = b'{"weights":[0.25,0.5],"law_report":{"passed":true,"residual":0.0},"n":3}\n'
    out = b'{"weights":[0.25,0.5000001],"law_report":{"passed":true,"residual":0.0},"m":3}\n'
    assert diff_report(0, 0, want, want) == []
    assert diff_report(0, 0, want, out) == [
        "weights[1]: 0.5 -> 0.5000001 (relative change 2e-07)",
        "removed key n",
        "added key m",
        "largest relative change 2e-07 at weights[1]",
    ]
    assert diff_report(0, 2, want, b"") == [
        "exit code 0 -> 2",
        f"stdout {len(want)} -> 0 bytes, not JSON on both sides",
    ]
    nested = b'{"law_report":{"passed":false,"extra":1}}'
    assert diff_report(1, 1, b'{"law_report":{"passed":true}}', nested) == [
        "law_report.passed: true -> false",
        "added key law_report.extra",
    ]
    assert diff_report(0, 0, b'{"a":1}', b'{"a": 1}') == [
        "stdout bytes differ but parse to the same JSON values"
    ]


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_cli_stdout_matches_golden(name, tmp_path, monkeypatch):
    for filename, doc in FILES.items():
        (tmp_path / filename).write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("ENTROGEO_SEED", raising=False)
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code, text = execute(CORPUS[name])
    out = (text + "\n").encode() if text else b""
    want = (GOLDEN / f"{name}.stdout").read_bytes()
    if (code, out) != (EXIT_CODES[name], want):
        report = diff_report(EXIT_CODES[name], code, want, out)
        pytest.fail(f"{name} differs from its golden output:\n" + "\n".join(report))
    lines = err.getvalue().splitlines()
    if code == 2:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    else:
        assert lines == []
