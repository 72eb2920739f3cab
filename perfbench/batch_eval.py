"""batch-eval: entropies, divergences and checkers on large arrays.

One op is one `eval_batch` (entropies) or `fn` (divergences) call on one
batch, or one bulk checker call.  Batches: `small` 256 x 64 (fits in L2),
`large` 10^4 x 100 dense (8 MB per array) and `sparse` 10^4 x 100 with half
the weights exactly 0 (the zero-preserving masking path; the reference rows
q of the divergences stay strictly positive).  Few Python calls, large
arrays: geometry and maxent stay idle.
"""

from __future__ import annotations

import json

import numpy as np

import refs
from harness import Op

IMPORT = "entrogeo"

REL_TOL = 1e-12

SHAPES = {
    "full": {"small": (256, 64), "large": (10_000, 100), "sparse": (10_000, 100)},
    "tiny": {"small": (16, 8), "sparse": (16, 8)},
}
CHECKER_SAMPLES = {
    "full": {"sk": 10_000, "concavity": 100_000, "axioms": 1_000_000, "phi4": 100_000,
             "validate": 1_000_000, "loads": 100_000, "product": 1_000},
    "tiny": {"sk": 50, "concavity": 200, "axioms": 1_000, "phi4": 200,
             "validate": 1_000, "loads": 100, "product": 10},
}
BUILTINS = ("shannon", "renyi", "tsallis", "sharma_mittal", "kaniadakis")

#: Direct numpy formula for each entropy, on an (N, W) batch.
ENTROPY_REFS = {
    "shannon": refs.shannon,
    "renyi": lambda p: refs.renyi(p, 0.5),
    "tsallis": lambda p: refs.tsallis(p, 1.5),
    "sharma_mittal": lambda p: refs.sharma_mittal(p, 0.5, 0.7),
    "kaniadakis": lambda p: refs.kaniadakis(p, 0.3),
    # sm-pair and the group composition at m = 1 with the identity
    # conjugator are both SM(0.3, 0.5) and SM(0.7, 0.5) combined by the 0.5-sum.
    "sm_pair": lambda p: refs.q_sum(
        refs.sharma_mittal(p, 0.3, 0.5), refs.sharma_mittal(p, 0.7, 0.5), 0.5
    ),
    "sm_tsallis": lambda p: refs.q_sum(
        refs.sharma_mittal(p, 0.5, 1.5), refs.tsallis(p, 1.5), 1.5
    ),
    "group_compose": lambda p: refs.q_sum(
        refs.sharma_mittal(p, 0.3, 0.5), refs.sharma_mittal(p, 0.7, 0.5), 0.5
    ),
    "zeta_compose": lambda p: refs.shannon(p) + 0.5 * refs.tsallis(p, 1.5),
}
DIVERGENCE_REFS = {
    "kl": refs.kl,
    "sm": lambda p, q: refs.sharma_mittal_div(p, q, 0.5, 0.7),
    "power": refs.power2,
    "composed": lambda p, q: refs.kl(p, q) + 0.5 * refs.power2(p, q),
    "tsallis_rel": lambda p, q: refs.tsallis_relative(p, q, 0.5),
}


def build(lib, size: str) -> dict:
    h, c, d, fg = lib.hf_entropy, lib.composition, lib.divergence, lib.formal_group
    shannon = h.builtin_functional("shannon")
    tsallis = h.builtin_functional("tsallis", q=1.5)
    composed_z, _ = c.group_compose(
        [
            h.builtin_functional("sharma_mittal", alpha=0.3, beta=0.5),
            h.builtin_functional("sharma_mittal", alpha=0.7, beta=0.5),
        ],
        fg.identity_conjugator(),
        m=1,
    )
    entropies = {
        "shannon": shannon,
        "renyi": h.builtin_functional("renyi", alpha=0.5),
        "tsallis": tsallis,
        "sharma_mittal": h.builtin_functional("sharma_mittal", alpha=0.5, beta=0.7),
        "kaniadakis": h.builtin_functional("kaniadakis", kappa=0.3),
        "sm_pair": c.sm_pair_entropy(0.3, 0.7, 0.5),
        "sm_tsallis": c.sm_tsallis_entropy(0.5, 1.5),
        "group_compose": composed_z,
        "zeta_compose": c.zeta_compose([shannon, tsallis], c.linear_composer([1.0, 0.5])),
    }
    divergences = {
        "kl": d.kl_functional(),
        "sm": d.sm_div_functional(0.5, 0.7),
        "power": d.hf_div_functional(d.power_pair(2.0)),
        "composed": d.zeta_compose_div(
            [d.kl_functional(), d.hf_div_functional(d.power_pair(2.0))],
            c.linear_composer([1.0, 0.5]),
        ),
        "tsallis_rel": d.hf_div_functional(d.tsallis_relative_pair(0.5)),
    }
    return {"entropies": entropies, "divergences": divergences, "law": fg.q_sum(0.5)}


def make_batches(rng: np.random.Generator, size: str) -> dict:
    """(weights, strictly positive reference rows) per shape."""
    out = {}
    for shape, (n, w) in SHAPES[size].items():
        q = rng.dirichlet(np.ones(w), size=n)
        if shape == "sparse":
            raw = rng.random((n, w))
            raw[np.argsort(rng.random((n, w)), axis=1) < w // 2] = 0.0
            p = raw / raw.sum(axis=1, keepdims=True)
        else:
            p = rng.dirichlet(np.ones(w), size=n)
        out[shape] = (p, q)
    return out


def _rel_check(ref):
    def check(value):
        if not refs.is_finite_array(value):
            return float("inf"), "non-finite output"
        return refs.ratio(refs.rel_error(value, ref), REL_TOL), None

    return check


def _passed(report):
    return 0.0, None if report.passed else "checker reported failure"


def make_ops(lib, built: dict, rng: np.random.Generator, size: str, workdir) -> list[Op]:
    ops = []
    batches = make_batches(rng, size)
    for shape, (p, q) in batches.items():
        nbytes = p.nbytes
        for name, entropy in built["entropies"].items():
            ops.append(Op(
                f"entropy:{name}:{shape}",
                lambda e=entropy, x=p: e.eval_batch(x),
                _rel_check(ENTROPY_REFS[name](p)),
                {"kind": "entropy", "family": name, "shape": shape, "bytes": nbytes},
            ))
        for name, divergence in built["divergences"].items():
            ops.append(Op(
                f"divergence:{name}:{shape}",
                lambda dv=divergence, x=p, y=q: dv.fn(x, y),
                _rel_check(DIVERGENCE_REFS[name](p, q)),
                {"kind": "divergence", "family": name, "shape": shape, "bytes": 2 * nbytes},
            ))

    n = CHECKER_SAMPLES[size]
    seed = int(rng.integers(2**31))
    h, c, fg, pr = lib.hf_entropy, lib.composition, lib.formal_group, lib.probability
    tsallis = built["entropies"]["tsallis"]
    zeta = built["entropies"]["zeta_compose"]
    law = built["law"]
    weights = rng.random(n["validate"])
    weights /= weights.sum()
    loaded = rng.dirichlet(np.ones(n["loads"]))
    text = json.dumps({"weights": loaded.tolist()})
    left = pr.validate(rng.dirichlet(np.ones(n["product"])))
    right = pr.validate(rng.dirichlet(np.ones(n["product"])))
    outer = np.outer(left.weights, right.weights).reshape(-1)

    def exact(ref):
        def check(dist):
            diff = float(np.max(np.abs(np.asarray(dist.weights) - ref)))
            return (0.0, None) if diff == 0.0 else (float("inf"), f"differs by {diff:.3e}")

        return check

    def phi4_check(residual):
        return refs.ratio(residual, 1e-9), None

    checkers = [
        ("hf_entropy.sk_suite", lambda: h.sk_suite(tsallis, samples=n["sk"], seed=seed), _passed),
        ("composition.concavity_probe",
         lambda: c.concavity_probe(zeta, samples=n["concavity"], seed=seed), _passed),
        ("formal_group.check_group_axioms",
         lambda: fg.check_group_axioms(law, samples=n["axioms"], seed=seed), _passed),
        ("formal_group.check_phi4_symmetry",
         lambda: fg.check_phi4_symmetry(law, samples=n["phi4"], seed=seed), phi4_check),
        ("probability.validate", lambda: pr.validate(weights), exact(weights)),
        ("probability.loads", lambda: pr.loads_distribution(text), exact(loaded)),
        ("probability.product", lambda: pr.product(left, right), exact(outer)),
    ]
    for name, run, check in checkers:
        ops.append(Op(f"checker:{name}", run, check, {"kind": "checker", "family": name}))
    return ops


# --- traced-run metrics ------------------------------------------------------------------


def layer_metrics(tracer, ops_spans, children) -> dict:
    def mean_ms(kind, family, shape=None):
        spans = [
            op for op in ops_spans
            if op.attrs.get("kind") == kind and op.attrs.get("family") == family
            and (shape is None or op.attrs.get("shape") == shape)
        ]
        return 1e3 * float(np.mean([s.duration for s in spans])) if spans else 0.0

    out = {}
    for family in BUILTINS:
        out[f"hf_entropy.eval_batch_ms.{family}"] = mean_ms("entropy", family, "large")
    for shape in ("small", "large", "sparse"):
        spans = [op for op in ops_spans
                 if op.attrs.get("kind") == "entropy" and op.attrs.get("shape") == shape]
        seconds = sum(op.duration for op in spans)
        if seconds:
            nbytes = sum(op.attrs["bytes"] for op in spans)
            out[f"hf_entropy.bytes_per_s.{shape}"] = nbytes / seconds
    out["composition.group_compose_eval_ms"] = mean_ms("entropy", "group_compose", "large")
    out["composition.sm_pair_eval_ms"] = mean_ms("entropy", "sm_pair", "large")
    out["composition.zeta_compose_eval_ms"] = mean_ms("entropy", "zeta_compose", "large")
    for family in DIVERGENCE_REFS:
        out[f"divergence.fn_ms.{family}"] = mean_ms("divergence", family, "large")
    for checker, metric in (
        ("hf_entropy.sk_suite", "hf_entropy.sk_suite_ms"),
        ("composition.concavity_probe", "composition.concavity_probe_ms"),
        ("formal_group.check_group_axioms", "formal_group.check_group_axioms_ms"),
        ("formal_group.check_phi4_symmetry", "formal_group.check_phi4_symmetry_ms"),
        ("probability.validate", "probability.validate_ms"),
        ("probability.loads", "probability.loads_ms"),
        ("probability.product", "probability.product_ms"),
    ):
        out[metric] = mean_ms("checker", checker)
    return out
