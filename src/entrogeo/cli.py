"""Command-line interface.

Subcommands: entropy, divergence, compose, metric, connection, verify,
maxent.  Every run emits one JSON document on stdout (or an aligned
key/value listing with --pretty).  Output is deterministic: same argv and
input files, byte-identical bytes.  Floats are printed with 17 significant
digits so they round-trip exactly.

Exit codes: 0 on success, 1 when a verification (or convergence) check
fails, 2 on usage or input errors.  The default RNG seed is 0, overridable
per-invocation with --seed or globally with the ENTROGEO_SEED environment
variable.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from typing import Callable, Sequence

import numpy as np

from . import composition, divergence, formal_group, geometry, hf_entropy, maxent
from .errors import EntrogeoError, InvalidArgument, ParamOutOfRange
from .probability import FILE_TOL, ProbDist, load_distribution

_METRIC_REL_TOL = 1e-5
_CONN_TOL = 1e-4
_DUALITY_TOL = 5e-4
_COMPOSABILITY_TOL = 1e-10
_FALSIFICATION_FLOOR = 1e-3


# --- deterministic rendering -------------------------------------------------


def render_json(doc) -> str:
    """Compact JSON with insertion-ordered keys and 17-digit floats."""
    pieces: list[str] = []
    _write_json(doc, pieces)
    return "".join(pieces)


def _write_json(x, out: list[str]) -> None:
    if isinstance(x, dict):
        out.append("{")
        for i, (k, v) in enumerate(x.items()):
            if i:
                out.append(",")
            out.append(_escape(str(k)))
            out.append(":")
            _write_json(v, out)
        out.append("}")
    elif isinstance(x, (list, tuple)):
        out.append("[")
        for i, v in enumerate(x):
            if i:
                out.append(",")
            _write_json(v, out)
        out.append("]")
    elif isinstance(x, (bool, np.bool_)):
        out.append("true" if x else "false")
    elif isinstance(x, (int, np.integer)):
        out.append(str(int(x)))
    elif isinstance(x, (float, np.floating)):
        v = float(x)
        out.append(format(v, ".17g") if math.isfinite(v) else "null")
    elif x is None:
        out.append("null")
    elif isinstance(x, str):
        out.append(_escape(x))
    else:
        raise TypeError(f"cannot render {type(x).__name__} as JSON")


def _escape(s: str) -> str:
    import json

    return json.dumps(s, ensure_ascii=True)


def render_pretty(doc) -> str:
    """Human-readable aligned listing of the same document."""
    lines: list[str] = []
    _write_pretty(doc, 0, lines, key=None)
    return "\n".join(lines)


def _write_pretty(x, depth: int, lines: list[str], key) -> None:
    pad = "  " * depth
    label = f"{pad}{key}: " if key is not None else pad
    if isinstance(x, dict):
        if key is not None:
            lines.append(f"{pad}{key}:")
        for k, v in x.items():
            _write_pretty(v, depth + (key is not None), lines, k)
    elif isinstance(x, (list, tuple)) and any(isinstance(v, (dict, list, tuple)) for v in x):
        if key is not None:
            lines.append(f"{pad}{key}:")
        for v in x:
            _write_pretty(v, depth + 1, lines, "-")
    else:
        if isinstance(x, (list, tuple)):
            body = "[" + ", ".join(_pretty_scalar(v) for v in x) + "]"
        else:
            body = _pretty_scalar(x)
        lines.append(label + body)


def _pretty_scalar(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "yes" if x else "no"
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".12g")
    return str(x)


# --- spec grammars --------------------------------------------------------------


def _parse_spec(text: str, extra_params: Sequence[str] | None = None) -> tuple[str, dict]:
    """Split 'name:k=v,...' into a normalised name and float parameters.

    `extra_params` are further 'k=v' items (the --params option); they are
    read after the inline ones, so a key given in both takes their value.
    """
    head, _, tail = text.partition(":")
    params: dict[str, float] = {}
    for item in [*(tail.split(",") if tail else ()), *(extra_params or ())]:
        k, eq, v = item.partition("=")
        if not eq:
            raise ParamOutOfRange(f"expected key=value in {text!r}, got {item!r}")
        try:
            params[k.strip()] = float(v)
        except ValueError as exc:
            raise ParamOutOfRange(f"bad numeric value in {text!r}: {item!r}") from exc
    return head.strip().lower().replace("_", "-"), params


def _hf_div(pair_builder: Callable) -> Callable[..., divergence.DivergenceFunctional]:
    return lambda **params: divergence.hf_div_functional(pair_builder(**params))


#: Entropy families by CLI name; each builder takes the spec's parameters.
_ENTROPIES: dict[str, Callable[..., hf_entropy.EntropyFunctional]] = {
    **{
        name: functools.partial(hf_entropy.builtin_functional, name)
        for name in ("shannon", "renyi", "tsallis", "sharma-mittal", "kaniadakis")
    },
    "sm-pair": composition.sm_pair_entropy,
    "sm-tsallis": composition.sm_tsallis_entropy,
}

#: Divergence families by CLI name; each builder takes the spec's parameters.
_DIVERGENCES: dict[str, Callable[..., divergence.DivergenceFunctional]] = {
    "kl": divergence.kl_functional,
    "sm": divergence.sm_div_functional,
    "power": _hf_div(divergence.power_pair),
    "tsallis-rel": _hf_div(divergence.tsallis_relative_pair),
    "tsallis-relative": _hf_div(divergence.tsallis_relative_pair),
}


def _resolve(table: dict[str, Callable], kind: str, text: str, extra_params=None):
    name, params = _parse_spec(text, extra_params)
    build = table.get(name)
    if build is None:
        raise ParamOutOfRange(f"unknown {kind} {text!r}; expected one of {sorted(table)}")
    try:
        return build(**params)
    except TypeError as exc:
        raise ParamOutOfRange(f"bad parameters for {kind} {name!r}: {exc}") from exc


def _entropy(text: str, extra_params=None) -> hf_entropy.EntropyFunctional:
    return _resolve(_ENTROPIES, "entropy", text, extra_params)


def _divergence(text: str, extra_params=None) -> divergence.DivergenceFunctional:
    return _resolve(_DIVERGENCES, "divergence", text, extra_params)


def _model_from_spec(text: str) -> geometry.StatModel:
    fam, _, tail = text.partition(":")
    if fam.strip().lower() != "simplex":
        raise ParamOutOfRange(f"unknown model {text!r} (expected simplex:W)")
    try:
        size = int(tail)
    except ValueError as exc:
        raise ParamOutOfRange(f"bad simplex size in {text!r}") from exc
    return geometry.simplex_model(size)


def _point_from_text(text: str) -> np.ndarray:
    try:
        return np.asarray([float(v) for v in text.split(",") if v.strip()], dtype=float)
    except ValueError as exc:
        raise ParamOutOfRange(f"bad point {text!r}") from exc


def _reject_inapplicable(args, applies: dict[str, bool], where: str) -> None:
    """Raise InvalidArgument for an option that was given where it is not read."""
    for name, ok in applies.items():
        if getattr(args, name) is not None and not ok:
            raise InvalidArgument(f"--{name} does not apply to {where}")


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return int(value)
    env = os.environ.get("ENTROGEO_SEED", "")
    if not env:
        return 0
    try:
        return int(env)
    except ValueError as exc:
        raise ParamOutOfRange(f"ENTROGEO_SEED must be an integer, got {env!r}") from exc


# --- subcommand handlers ------------------------------------------------------------


def _cmd_entropy(args) -> tuple[int, dict]:
    functional = _entropy(args.family, args.params)
    dist = load_distribution(args.dist, tol=args.tol)
    doc = {
        "command": "entropy",
        "entropy": functional.name,
        "w": dist.size,
        "value": functional.eval(dist),
    }
    return 0, doc


def _cmd_divergence(args) -> tuple[int, dict]:
    fam = args.family.strip().lower()
    _reject_inapplicable(
        args,
        {"of": fam == "composed", "coeffs": fam == "composed", "params": fam != "composed"},
        f"divergence --family {fam}",
    )
    if fam == "composed":
        if not args.of:
            raise ParamOutOfRange("--family composed requires at least one --of")
        coeffs = _point_from_text(args.coeffs) if args.coeffs else np.ones(len(args.of))
        composer = composition.linear_composer(coeffs)
        functional = divergence.zeta_compose_div([_divergence(s) for s in args.of], composer)
    else:
        functional = _divergence(args.family, args.params)
    p = load_distribution(args.p, tol=args.tol)
    q = load_distribution(args.q, tol=args.tol)
    doc = {
        "command": "divergence",
        "divergence": functional.name,
        "w": p.size,
        "value": functional.eval(p, q),
    }
    return 0, doc


def _cmd_compose(args) -> tuple[int, dict]:
    seed = _resolve_seed(args.seed)
    constituents = [_entropy(s) for s in args.constituent]
    xi = formal_group.conjugator_by_name(args.xi)
    z, omega = composition.group_compose(constituents, xi, args.m, seed=seed)
    dist = load_distribution(args.dist, tol=args.tol)
    report = formal_group.check_group_axioms(
        omega, domain=(0.0, 1.0), samples=args.samples, seed=seed
    )
    doc = {
        "command": "compose",
        "m": args.m,
        "xi": xi.name,
        "constituents": [c.name for c in constituents],
        "law": omega.name,
        "w": dist.size,
        "value": z.eval(dist),
        "law_report": report.as_dict(),
    }
    return (0 if report.passed else 1), doc


def _cmd_metric(args) -> tuple[int, dict]:
    model = _model_from_spec(args.model)
    point = _point_from_text(args.point)
    doc = {
        "command": "metric",
        "model": model.name,
        "point": point.tolist(),
    }
    if args.divergence.strip().lower() == "fisher":
        tensor = geometry.fisher_metric(model, point, step=args.step)
        doc["divergence"] = "fisher"
        doc["entries"] = tensor.entries.tolist()
        doc["positive_definite"] = tensor.is_positive_definite()
        return 0, doc
    functional = _divergence(args.divergence)
    tensor = geometry.div_metric(functional, model, point, step=args.step)
    doc["divergence"] = functional.name
    doc["entries"] = tensor.entries.tolist()
    doc["positive_definite"] = tensor.is_positive_definite()
    if functional.pair is not None:
        closed = geometry.hf_closed_metric(functional.pair, point, model.n_params)
        rel = np.max(
            np.abs(tensor.entries - closed.entries) / np.maximum(np.abs(closed.entries), 1e-300)
        )
        doc["closed_form_entries"] = closed.entries.tolist()
        doc["closed_form_max_rel_error"] = float(rel)
    return 0, doc


def _cmd_connection(args) -> tuple[int, dict]:
    model = _model_from_spec(args.model)
    point = _point_from_text(args.point)
    doc = {
        "command": "connection",
        "model": model.name,
        "point": point.tolist(),
    }
    _reject_inapplicable(args, {"divergence": args.alpha is None}, "connection --alpha")
    if args.alpha is not None:
        conn = geometry.alpha_connection(model, point, args.alpha, step=args.step)
        doc["alpha"] = float(args.alpha)
        doc["gamma"] = conn.entries.tolist()
        return 0, doc
    if not args.divergence:
        raise ParamOutOfRange("connection needs --divergence or --alpha")
    functional = _divergence(args.divergence)
    gamma, gamma_star = geometry.div_connections(functional, model, point, step=args.step)
    doc["divergence"] = functional.name
    doc["gamma"] = gamma.entries.tolist()
    doc["gamma_star"] = gamma_star.entries.tolist()
    doc["duality_residual"] = _duality_residual(functional, model, point, gamma, gamma_star)
    if functional.pair is not None:
        doc["hf_alpha"] = geometry.hf_alpha_of(functional.pair)
    return 0, doc


def _cmd_maxent(args) -> tuple[int, dict]:
    seed = _resolve_seed(args.seed)
    functional = _entropy(args.family, args.params)
    constraints = None
    if args.constraint:
        rows = []
        targets = []
        for item in args.constraint:
            coeffs_text, sep, target_text = item.rpartition(":")
            if not sep:
                raise ParamOutOfRange(
                    f"constraint must look like 'c1,c2,...:target', got {item!r}"
                )
            rows.append(_point_from_text(coeffs_text))
            try:
                targets.append(float(target_text))
            except ValueError as exc:
                raise ParamOutOfRange(f"bad constraint target in {item!r}") from exc
        constraints = maxent.ConstraintSet(np.vstack(rows), np.asarray(targets))
    result = maxent.maximize(
        functional,
        args.w,
        constraints,
        max_iter=args.max_iter,
        tol=args.tol,
        seed=seed,
        restarts=args.restarts,
    )
    doc = {"command": "maxent", "entropy": functional.name, "w": args.w}
    doc.update(result.as_dict())
    return (0 if result.converged else 1), doc


# --- verification checks ----------------------------------------------------------


def _check(name: str, passed: bool, details: dict | None = None, **extra) -> dict:
    merged = dict(details or {})
    merged.update(extra)
    merged.pop("name", None)
    merged.pop("passed", None)
    doc = {"name": name}
    doc.update(merged)
    doc["passed"] = bool(passed)
    return doc


def _checks_group_law(qs: Sequence[float], samples: int, seed: int) -> list[dict]:
    checks = []
    for q in qs:
        law = formal_group.q_sum(q)
        report = formal_group.check_group_axioms(law, (0.0, 1.0), samples, seed)
        checks.append(_check(f"group-law[{law.name}]", report.passed, report.as_dict()))
        phi4 = formal_group.check_phi4_symmetry(law, min(samples, 1000), seed)
        checks.append(
            _check(
                f"phi4-symmetry[{law.name}]",
                phi4 <= formal_group.PERM_TOL,
                residual=phi4,
                tol=formal_group.PERM_TOL,
            )
        )
    return checks


_SK_PANEL = (
    "shannon",
    "renyi:alpha=0.5",
    "renyi:alpha=2",
    "tsallis:q=0.5",
    "tsallis:q=2",
    "sharma-mittal:alpha=0.5,beta=0.7",
    "sharma-mittal:alpha=2,beta=3",
    "kaniadakis:kappa=0.3",
    "kaniadakis:kappa=0.9",
)


def _checks_sk(
    panel: Sequence[hf_entropy.EntropyFunctional], w_max: int, samples: int, seed: int
) -> list[dict]:
    checks = []
    for functional in panel:
        report = hf_entropy.sk_suite(functional, w_max, samples, seed)
        checks.append(_check(f"sk-suite[{functional.name}]", report.passed, report.as_dict()))
    return checks


def _max_product_residual(fn: Callable, law: formal_group.BinaryLaw, rng, count: int) -> float:
    """Max |S(p x q) - Phi(S(p), S(q))| over sampled product pairs."""
    combos = [(w1, w2) for w1 in (2, 3, 4) for w2 in (2, 3, 4)]
    each = max(1, count // len(combos))
    worst = 0.0
    for w1, w2 in combos:
        p = rng.dirichlet(np.ones(w1), size=each)
        q = rng.dirichlet(np.ones(w2), size=each)
        worst = max(worst, float(np.max(hf_entropy.product_residuals(fn, law, p, q))))
    return worst


def _checks_composability(pairs: int, seed: int) -> list[dict]:
    checks = []
    for spec in ("shannon", "renyi:alpha=2", "tsallis:q=1.5", "sharma-mittal:alpha=0.5,beta=0.7"):
        functional = _entropy(spec)
        rng = np.random.default_rng(seed)
        worst = _max_product_residual(functional.fn, functional.law, rng, pairs)
        checks.append(
            _check(
                f"composability[{functional.name}]",
                worst <= _COMPOSABILITY_TOL,
                max_residual=worst,
                tol=_COMPOSABILITY_TOL,
                law=functional.law.name,
            )
        )
    # Kaniadakis must fail against every deformed sum tried (falsification).
    functional = _entropy("kaniadakis:kappa=0.4")
    witnesses = {}
    for q in (0.0, 0.5, 1.0, 1.5, 2.0):
        rng = np.random.default_rng(seed)
        worst = _max_product_residual(functional.fn, formal_group.q_sum(q), rng, pairs)
        witnesses[f"q={q:g}"] = worst
    checks.append(
        _check(
            "composability-falsification[kaniadakis(0.4)]",
            all(v > _FALSIFICATION_FLOOR for v in witnesses.values()),
            floor=_FALSIFICATION_FLOOR,
            max_residual_per_law=witnesses,
        )
    )
    return checks


def _duality_residual(functional, model, xi, gamma, gamma_star) -> float:
    """Duality defect of a divergence's FD metric field and connections already at xi."""
    return geometry.duality_residual(
        lambda x: geometry.div_metric(functional, model, x),
        lambda x: gamma,
        lambda x: gamma_star,
        model,
        xi,
    )


def _interior_points(rng, size: int, count: int, floor: float = 0.04) -> list[np.ndarray]:
    points = []
    while len(points) < count:
        p = rng.dirichlet(8.0 * np.ones(size + 1))
        if float(p.min()) >= floor:
            points.append(p[1:])
    return points


def _checks_geometry(w_max: int, points: int, seed: int) -> list[dict]:
    checks = []
    rng = np.random.default_rng(seed)
    for functional in (_divergence("kl"), _divergence("sm:alpha=0.5,beta=0.7")):
        worst = 0.0
        for size in range(1, w_max + 1):
            model = geometry.simplex_model(size)
            for xi in _interior_points(rng, size, points):
                fd = geometry.div_metric(functional, model, xi)
                closed = geometry.hf_closed_metric(functional.pair, xi, size)
                rel = float(
                    np.max(np.abs(fd.entries - closed.entries) / np.abs(closed.entries))
                )
                worst = max(worst, rel)
        checks.append(
            _check(
                f"metric-closed-form[{functional.name}]",
                worst <= _METRIC_REL_TOL,
                max_rel_error=worst,
                tol=_METRIC_REL_TOL,
            )
        )

    functional = _divergence("power:a=2")
    pair = functional.pair
    size = 2
    model = geometry.simplex_model(size)
    xi = _interior_points(rng, size, 1)[0]
    gamma, gamma_star = geometry.div_connections(functional, model, xi)
    c = float(pair.h_prime(pair.f1)) * pair.d2f1
    a = geometry.hf_alpha_of(pair)
    ref = c * geometry.alpha_connection(model, xi, -a).entries
    ref_star = c * geometry.alpha_connection(model, xi, a).entries
    err = float(np.max(np.abs(gamma.entries - ref) / (1.0 + np.abs(ref))))
    err_star = float(np.max(np.abs(gamma_star.entries - ref_star) / (1.0 + np.abs(ref_star))))
    checks.append(
        _check(
            "connections-closed-form[power(2)]",
            max(err, err_star) <= _CONN_TOL,
            gamma_error=err,
            gamma_star_error=err_star,
            tol=_CONN_TOL,
            alpha=a,
        )
    )

    kl_div = _divergence("kl")
    residual = _duality_residual(kl_div, model, xi, *geometry.div_connections(kl_div, model, xi))
    checks.append(
        _check(
            "duality[kl]",
            residual <= _DUALITY_TOL,
            residual=residual,
            tol=_DUALITY_TOL,
        )
    )
    return checks


def _cmd_verify(args) -> tuple[int, dict]:
    seed = _resolve_seed(args.seed)
    for flag, value, least in (
        ("--samples", args.samples, 1),
        ("--pairs", args.pairs, 1),
        ("--points", args.points, 1),
        ("--w-max", args.w_max, 2),
    ):
        if value < least:
            raise InvalidArgument(f"{flag} must be at least {least}, got {value}")
    what = args.what
    _reject_inapplicable(
        args,
        {"family": what == "sk", "params": what == "sk", "q": what in ("group-law", "all")},
        f"verify {what}",
    )
    if args.params is not None and args.family is None:
        raise InvalidArgument("--params needs --family")
    checks: list[dict] = []
    if what in ("group-law", "all"):
        qs = args.q if args.q else [0.0, 0.5, 1.0, 2.0]
        checks.extend(_checks_group_law(qs, args.samples, seed))
    if what in ("sk", "all"):
        if what == "sk" and args.family:
            panel = [_entropy(args.family, args.params)]
        else:
            panel = [_entropy(spec) for spec in _SK_PANEL]
        checks.extend(_checks_sk(panel, args.w_max, args.samples, seed))
    if what in ("composability", "all"):
        checks.extend(_checks_composability(args.pairs, seed))
    if what in ("geometry", "all"):
        checks.extend(_checks_geometry(min(args.w_max, 3), args.points, seed))
    failures = sum(1 for c in checks if not c["passed"])
    doc = {
        "command": "verify",
        "what": what,
        "seed": seed,
        "checks": checks,
        "failures": failures,
        "passed": failures == 0,
    }
    return (0 if failures == 0 else 1), doc


# --- parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entrogeo",
        description="Group entropies, divergences, and their induced geometry.",
        epilog="Seeds default to 0; set ENTROGEO_SEED or pass --seed to change.",
    )
    parser.add_argument("--pretty", action="store_true", help="aligned text instead of JSON")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("entropy", help="evaluate an entropy on a distribution")
    p.add_argument("--family", required=True, help="shannon|renyi|tsallis|sharma-mittal|kaniadakis|sm-pair|sm-tsallis")
    p.add_argument("--params", nargs="*", metavar="K=V", help="family parameters")
    p.add_argument("--dist", required=True, help="distribution file (JSON or one-column CSV)")
    p.add_argument("--tol", type=float, default=FILE_TOL, help="simplex sum tolerance for file input")
    p.set_defaults(handler=_cmd_entropy)

    p = sub.add_parser("divergence", help="evaluate a divergence D(p || q)")
    p.add_argument("--family", required=True, help="kl|sm|power|tsallis-rel spec or composed")
    p.add_argument("--params", nargs="*", metavar="K=V", help="family parameters")
    p.add_argument("--of", action="append", metavar="SPEC", help="constituent for --family composed (repeatable)")
    p.add_argument("--coeffs", help="comma-separated weights for --family composed")
    p.add_argument("--p", required=True, help="first distribution file")
    p.add_argument("--q", required=True, help="reference distribution file (strictly positive)")
    p.add_argument("--tol", type=float, default=FILE_TOL)
    p.set_defaults(handler=_cmd_divergence)

    p = sub.add_parser("compose", help="group-compose entropies and verify the induced law")
    p.add_argument("--constituent", action="append", required=True, metavar="SPEC",
                   help="entropy spec, e.g. sharma-mittal:alpha=0.5,beta=0.7 (repeat 2^m times)")
    p.add_argument("--xi", default="id", help="conjugator: id, expm1, or scale:C")
    p.add_argument("--m", type=int, default=0, help="composition depth (2^m constituents)")
    p.add_argument("--dist", required=True, help="distribution file to evaluate on")
    p.add_argument("--samples", type=int, default=1000, help="axiom-check sample count")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tol", type=float, default=FILE_TOL)
    p.set_defaults(handler=_cmd_compose)

    p = sub.add_parser("metric", help="metric tensor at a model point")
    p.add_argument("--model", required=True, help="simplex:W")
    p.add_argument("--point", required=True, help="comma-separated coordinates")
    p.add_argument("--divergence", required=True, help="kl|sm:...|power:...|tsallis-rel:...|fisher")
    p.add_argument("--step", type=float, default=None, help="finite-difference step override")
    p.set_defaults(handler=_cmd_metric)

    p = sub.add_parser("connection", help="dual connection coefficients at a model point")
    p.add_argument("--model", required=True, help="simplex:W")
    p.add_argument("--point", required=True, help="comma-separated coordinates")
    p.add_argument("--divergence", help="kl|sm:...|power:...|tsallis-rel:...")
    p.add_argument("--alpha", type=float, default=None, help="emit the alpha-connection instead")
    p.add_argument("--step", type=float, default=None, help="finite-difference step override")
    p.set_defaults(handler=_cmd_connection)

    p = sub.add_parser("verify", help="run named verification checks")
    p.add_argument("what", choices=["group-law", "sk", "composability", "geometry", "all"])
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--pairs", type=int, default=180, help="product pairs per composability check")
    p.add_argument("--points", type=int, default=2, help="interior points per geometry check")
    p.add_argument("--w-max", type=int, default=5)
    p.add_argument("--q", type=float, action="append", help="deformation(s) for group-law checks")
    p.add_argument("--family", help="restrict sk checks to one family")
    p.add_argument("--params", nargs="*", metavar="K=V")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("maxent", help="maximize an entropy under linear constraints")
    p.add_argument("--family", required=True)
    p.add_argument("--params", nargs="*", metavar="K=V")
    p.add_argument("--w", type=int, required=True, help="number of outcomes")
    p.add_argument("--constraint", action="append", metavar="C1,...,CW:T",
                   help="expectation constraint row and target (repeatable)")
    p.add_argument("--max-iter", type=int, default=100_000)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--restarts", type=int, default=1)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(handler=_cmd_maxent)

    return parser


def execute(argv: Sequence[str]) -> tuple[int, str]:
    """Run one CLI invocation; returns (exit code, stdout text)."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 2), ""
    try:
        code, doc = args.handler(args)
    except EntrogeoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2, ""
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2, ""
    text = render_pretty(doc) if args.pretty else render_json(doc)
    return code, text


def main(argv: Sequence[str] | None = None) -> int:
    code, text = execute(sys.argv[1:] if argv is None else argv)
    if text:
        print(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
