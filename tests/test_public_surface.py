"""Every public name has a consumer outside the unit tests, and settable values are counted.

A name in `entrogeo.__all__` must be referenced (as a name, an attribute or
an import) by the library's own modules, the benchmark scripts, the
acceptance battery or the README's python code.  A name that only its unit
tests call goes, or is listed below with the reason it stays.  Likewise a
parameter with a default must be given another value by one of those
consumers; one that always keeps its default is a constant, or is listed
below with the reason it stays a parameter.

The parameters of the public callables, the CLI options and the source lines
are pinned counts, so a new knob, or code gained or lost, shows up as a
changed number in the diff.
"""

import argparse
import ast
import inspect
import re
from pathlib import Path

import entrogeo
from entrogeo.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]

EXEMPT = {
    # the paper's induced-law construction Phi = h . chi . (h^-1, h^-1)
    "phi_from_chi",
    # the trace-level law chi(x, y) = x y that phi_from_chi lifts for the power families
    "product_chi",
}

#: "name.parameter" -> why a defaulted parameter that no consumer varies stays a parameter.
ONE_VALUE_EXEMPT: dict[str, str] = {}

#: Parameters of every callable in `entrogeo.__all__`: functions, dataclass
#: fields and public methods (without self); exceptions are not counted.
PUBLIC_PARAMETERS = 188

#: Options and positionals of the CLI parser and its subcommands, without --help.
CLI_OPTIONS = 45

#: Lines of src/entrogeo/*.py, as `wc -l` counts them.
SOURCE_LINES = 3625


def _consumer_sources() -> dict[str, str]:
    paths = [p for p in sorted((ROOT / "src" / "entrogeo").glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "perfbench").glob("*.py"))
    paths.append(ROOT / "tests" / "test_acceptance.py")
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in paths}
    readme = (ROOT / "README.md").read_text()
    for k, block in enumerate(re.findall(r"```python\n(.*?)```", readme, re.S)):
        sources[f"README.md[python {k}]"] = block
    return sources


def _referenced_names(source: str, filename: str) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


REFERENCED = set().union(
    *(_referenced_names(text, name) for name, text in _consumer_sources().items())
)


def test_every_public_name_has_a_consumer():
    unused = sorted(set(entrogeo.__all__) - EXEMPT - REFERENCED)
    assert unused == [], f"public names with no consumer outside tests/: {unused}"


def test_every_exemption_is_public_and_still_needed():
    assert EXEMPT <= set(entrogeo.__all__)
    assert EXEMPT.isdisjoint(REFERENCED), "an exempt name gained a consumer; drop its exemption"


def _public_signatures() -> dict[str, inspect.Signature]:
    """Each public function and class constructor in `entrogeo.__all__`, exceptions aside."""
    signatures = {}
    for name in entrogeo.__all__:
        obj = getattr(entrogeo, name)
        if not (isinstance(obj, type) and issubclass(obj, BaseException)):
            signatures[name] = inspect.signature(obj)
    return signatures


def _varied_parameters(
    signatures: dict[str, inspect.Signature], sources: dict[str, str]
) -> set[str]:
    """Each "name.parameter" that some consumer call sets to other than its default literal.

    A call is matched by the called name (`f(...)` or `module.f(...)`) and bound
    to the public signature; one that does not bind calls another function of
    that name (`rng.uniform`, `itertools.product`).  A literal equal to the
    default is no second value; a non-literal argument is, and `*args` or
    `**kwargs` count for every parameter.
    """
    varied = set()
    for filename, text in sources.items():
        for node in ast.walk(ast.parse(text, filename)):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            signature = signatures.get(name)
            if signature is None:
                continue
            keywords = {k.arg: k.value for k in node.keywords}
            if None in keywords or any(isinstance(a, ast.Starred) for a in node.args):
                varied.update(f"{name}.{p}" for p in signature.parameters)
                continue
            try:
                bound = signature.bind_partial(*node.args, **keywords).arguments
            except TypeError:
                continue
            for param, value in bound.items():
                try:
                    same = ast.literal_eval(value) == signature.parameters[param].default
                except ValueError:
                    same = False
                if not same:
                    varied.add(f"{name}.{param}")
    return varied


def test_every_defaulted_parameter_is_varied():
    signatures = _public_signatures()
    defaulted = {
        f"{name}.{param.name}"
        for name, signature in signatures.items()
        for param in signature.parameters.values()
        if param.default is not inspect.Parameter.empty
    }
    varied = _varied_parameters(signatures, _consumer_sources())
    one_value = sorted(defaulted - varied - set(ONE_VALUE_EXEMPT))
    assert one_value == [], f"defaulted parameters no consumer sets off their default: {one_value}"
    stale = sorted(set(ONE_VALUE_EXEMPT) - (defaulted - varied))
    assert stale == [], f"exempt parameters that are gone or now varied: {stale}"


def test_a_default_literal_is_one_value_and_anything_else_a_second():
    signatures = {"f": inspect.signature(lambda a, b=1.0, c=(0.0, 1.0), d=None: None)}

    def varied(source):
        return _varied_parameters(signatures, {"consumer.py": source})

    assert varied("f(0)\nf(0, 1.0, c=(0.0, 1.0))\nf(1, d=None)") == {"f.a"}
    assert varied("f(0, b=-1.0)") == {"f.a", "f.b"}
    assert varied("module.f(0, d=x)") == {"f.a", "f.d"}  # a name may hold any value
    assert varied("f(0, **options)") == varied("f(*args)") == {"f.a", "f.b", "f.c", "f.d"}
    assert varied("rng.f(0, 1, 2, 3, 4)") == set()  # binds to no public signature


def _parameters(obj) -> int:
    if not isinstance(obj, type):
        return len(inspect.signature(obj).parameters)
    methods = [m for name, m in vars(obj).items() if not name.startswith("_")]
    own = [len(inspect.signature(m).parameters) - 1 for m in methods if inspect.isfunction(m)]
    return len(inspect.signature(obj).parameters) + sum(own)


def _options(parser: argparse.ArgumentParser) -> int:
    count = 0
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            count += sum(_options(sub) for sub in action.choices.values())
        elif not isinstance(action, argparse._HelpAction):
            count += 1
    return count


def test_settable_values_are_counted():
    objects = [getattr(entrogeo, name) for name in entrogeo.__all__]
    counted = [
        obj
        for obj in objects
        if callable(obj) and not (isinstance(obj, type) and issubclass(obj, BaseException))
    ]
    assert sum(_parameters(obj) for obj in counted) == PUBLIC_PARAMETERS
    assert _options(build_parser()) == CLI_OPTIONS
    sources = (ROOT / "src" / "entrogeo").glob("*.py")
    assert sum(path.read_bytes().count(b"\n") for path in sources) == SOURCE_LINES
