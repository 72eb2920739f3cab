"""What a fresh interpreter loads: the lazy package surface and each subcommand's layers.

`import entrogeo` loads no layer; a name loads its module on first use.  An
`entrogeo` process loads the layers its subcommand uses and no others, so a
new top-level import in `cli` or between layers shows up here as a changed
module set.  Each case runs in its own interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Every `entrogeo` process loads these; the table below lists the rest.
BASE = {"cli", "errors", "probability", "formal_group", "hf_entropy"}


def _child(code: str, *args: str, cwd=None) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("ENTROGEO_SEED", None)
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


_SURFACE_CHECK = """
import importlib, json, sys
import entrogeo
loaded = sorted(m for m in sys.modules if m.startswith("entrogeo.") or m == "numpy")
values = {n: getattr(entrogeo, n) for n in entrogeo.__all__}
homes = {n: v.__module__ for n, v in values.items()}
layers = sorted(set(homes.values()))
try:
    entrogeo.no_such_name
    unknown = "resolved"
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({
    "loaded": loaded,
    "names": list(entrogeo.__all__),
    "homes": layers,
    "same": all(v is getattr(sys.modules[homes[n]], n) for n, v in values.items()),
    "layers_resolve": all(
        getattr(entrogeo, m.split(".")[1]) is importlib.import_module(m) for m in layers
    ),
    "dir_covers": set(entrogeo.__all__) <= set(dir(entrogeo)),
    "unknown": unknown,
}))
"""


def test_the_package_loads_its_layers_on_first_use():
    doc = json.loads(_child(_SURFACE_CHECK))
    assert doc["loaded"] == []
    assert len(doc["names"]) == 66 and doc["names"] == sorted(doc["names"])
    assert doc["homes"] == [
        "entrogeo.composition", "entrogeo.divergence", "entrogeo.errors",
        "entrogeo.formal_group", "entrogeo.geometry", "entrogeo.hf_entropy",
        "entrogeo.maxent", "entrogeo.probability",
    ]
    assert doc["same"]
    assert doc["layers_resolve"]
    assert doc["dir_covers"]
    assert doc["unknown"] == "module 'entrogeo' has no attribute 'no_such_name'"


_RUN_CLI = """
import sys
from entrogeo.cli import main
code = main(sys.argv[1:])
print(code, *sorted(m.partition(".")[2] for m in sys.modules if m.startswith("entrogeo.")))
"""

_POINT = ["--model", "simplex:2", "--point", "0.3,0.3"]

#: (argv, exit code, layers loaded besides BASE).
_SUBCOMMANDS = {
    "entropy": (["entropy", "--family", "tsallis:q=1.5", "--dist", "p.json"], 0, set()),
    "entropy-bad-family": (["entropy", "--family", "nosuch", "--dist", "p.json"], 2, set()),
    "entropy-sm-pair": (
        ["entropy", "--family", "sm-pair:alpha1=0.3,alpha2=0.7,beta=0.5", "--dist", "p.json"],
        0,
        {"composition"},
    ),
    "maxent": (["maxent", "--family", "shannon", "--w", "4"], 0, {"maxent"}),
    "compose": (
        ["compose", "--constituent", "shannon", "--dist", "p.json", "--samples", "20"],
        0,
        {"composition"},
    ),
    "divergence": (
        ["divergence", "--family", "kl", "--p", "p.json", "--q", "q.json"], 0, {"divergence"}
    ),
    "divergence-composed": (
        ["divergence", "--family", "composed", "--of", "kl", "--of", "power:a=2",
         "--p", "p.json", "--q", "q.json"],
        0,
        {"composition", "divergence"},
    ),
    "metric": (["metric", *_POINT, "--divergence", "kl"], 0, {"divergence", "geometry"}),
    "metric-fisher": (["metric", *_POINT, "--divergence", "fisher"], 0, {"geometry"}),
    "connection": (["connection", *_POINT, "--divergence", "kl"], 0, {"divergence", "geometry"}),
    "connection-alpha": (["connection", *_POINT, "--alpha", "0.5"], 0, {"geometry"}),
    "verify-all": (
        ["verify", "all", "--samples", "20", "--pairs", "9", "--points", "1", "--w-max", "2"],
        0,
        {"divergence", "geometry"},
    ),
}


@pytest.mark.parametrize("case", sorted(_SUBCOMMANDS))
def test_each_subcommand_loads_only_its_layers(case, tmp_path):
    argv, want_code, extra = _SUBCOMMANDS[case]
    (tmp_path / "p.json").write_text(json.dumps({"weights": [0.2, 0.3, 0.5]}))
    (tmp_path / "q.json").write_text(json.dumps({"weights": [0.25, 0.25, 0.5]}))
    code, _, modules = _child(_RUN_CLI, *argv, cwd=tmp_path).splitlines()[-1].partition(" ")
    assert int(code) == want_code
    assert set(modules.split()) == BASE | extra
