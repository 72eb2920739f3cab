"""What a fresh interpreter loads: the lazy package surface and each subcommand's layers.

`import entrogeo` loads no layer; a name loads its module on first use.  An
`entrogeo` process loads the layers its subcommand uses and no others, so a
new top-level import in `cli` or between layers shows up here as a changed
module set.  Each case runs in its own interpreter.  `cli` reaches the layers
beyond its own imports as `entrogeo.<name>`; an `ast` rule keeps it from
importing them by hand.
"""

import ast
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
    "entropy-sm-tsallis": (
        ["entropy", "--family", "sm-tsallis:alpha=0.5,q=1.5", "--dist", "p.json"],
        0,
        {"composition"},
    ),
    "maxent": (["maxent", "--family", "shannon", "--w", "4"], 0, {"maxent"}),
    "maxent-sm-pair": (
        ["maxent", "--family", "sm-pair:alpha1=0.3,alpha2=0.7,beta=0.5", "--w", "4"],
        0,
        {"composition", "maxent"},
    ),
    "compose": (
        ["compose", "--constituent", "shannon", "--dist", "p.json", "--samples", "20"],
        0,
        {"composition"},
    ),
    "divergence": (
        ["divergence", "--family", "kl", "--p", "p.json", "--q", "q.json"], 0, {"divergence"}
    ),
    "divergence-sm": (
        ["divergence", "--family", "sm:alpha=0.5,beta=0.7", "--p", "p.json", "--q", "q.json"],
        0,
        {"divergence"},
    ),
    "divergence-power": (
        ["divergence", "--family", "power:a=2", "--p", "p.json", "--q", "q.json"],
        0,
        {"divergence"},
    ),
    "divergence-tsallis-relative": (
        ["divergence", "--family", "tsallis-relative:alpha=0.5", "--p", "p.json", "--q", "q.json"],
        0,
        {"divergence"},
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


def _entrogeo_modules(node: ast.AST) -> set[str]:
    """What an import statement of cli.py loads: its entrogeo modules, "entrogeo" for the package."""
    if isinstance(node, ast.Import):
        paths = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        base = ".".join(filter(None, ["entrogeo" if node.level else "", node.module]))
        paths = [f"{base}.{alias.name}" for alias in node.names] if base == "entrogeo" else [base]
    else:
        return set()
    modules = set()
    for path in paths:
        package, _, module = path.partition(".")
        if package == "entrogeo":
            modules.add(module.partition(".")[0] or "entrogeo")
    return modules


def _cli_imports() -> tuple[set[str], list[str]]:
    """The entrogeo modules cli.py imports outside its functions, and each import inside one."""
    outside: set[str] = set()
    inside: list[str] = []

    def visit(node: ast.AST, function: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            owner = child.name if is_function else function
            modules = _entrogeo_modules(child)
            if owner is None:
                outside.update(modules)
            elif modules:
                inside.append(f"{owner} (line {child.lineno}): {sorted(modules)}")
            visit(child, owner)

    visit(ast.parse((SRC / "entrogeo" / "cli.py").read_text()), None)
    return outside, inside


def test_the_cli_reaches_the_other_layers_through_the_package():
    outside, inside = _cli_imports()
    assert inside == [], "a function in cli.py imports an entrogeo module; call entrogeo.<name>"
    assert outside <= BASE | {"entrogeo"}


def test_the_import_rule_sees_every_form_of_import():
    tree = ast.parse(
        "import entrogeo\nimport entrogeo.maxent\nfrom . import hf_entropy, simplex_model\n"
        "from .geometry import simplex_model\nfrom entrogeo import composition\nimport numpy\n"
    )
    assert [_entrogeo_modules(node) for node in tree.body] == [
        {"entrogeo"}, {"maxent"}, {"hf_entropy", "simplex_model"}, {"geometry"}, {"composition"},
        set(),
    ]
