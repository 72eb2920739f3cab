"""CLI stdout is byte-identical to the benchmark's golden corpus.

The corpus (argv lists and input files) and the golden outputs live under
perfbench/; this test only reads them.  Each invocation runs in-process
through `entrogeo.cli.execute` from a directory holding the input files.
A clean call writes nothing to stderr; a failing one writes one `error:` line.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from entrogeo.cli import execute

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GOLDEN = PERFBENCH / "golden"

sys.path.insert(0, str(PERFBENCH))
from cli_corpus import CORPUS, FILES  # noqa: E402

EXIT_CODES = json.loads((GOLDEN / "exit_codes.json").read_text())


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_cli_stdout_matches_golden(name, tmp_path, monkeypatch):
    for filename, doc in FILES.items():
        (tmp_path / filename).write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("ENTROGEO_SEED", raising=False)
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code, text = execute(CORPUS[name])
    out = (text + "\n").encode() if text else b""
    assert code == EXIT_CODES[name]
    assert out == (GOLDEN / f"{name}.stdout").read_bytes()
    lines = err.getvalue().splitlines()
    if code == 2:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    else:
        assert lines == []
