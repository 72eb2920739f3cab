"""maxent-solve: one `maximize` call per op, at the library defaults.

A seven-family panel at W in {10, 50, 200} under one constraint row
a_i = i/W with target 0.3, plus sm_pair_entropy at W in {10, 50}, which has
no analytic gradient and so takes the finite-difference gradient path.  The
problems are fixed; the seed only orders the ops.
"""

from __future__ import annotations

import numpy as np

import refs
from harness import Op, missed, over_tolerance

IMPORT = "entrogeo"

TARGET = 0.3
RESIDUAL_TOL = 1e-9
GIBBS_TOL = 1e-6

PANEL = (
    ("shannon", {}),
    ("renyi", {"alpha": 0.5}),
    ("renyi", {"alpha": 2.0}),
    ("tsallis", {"q": 0.5}),
    ("tsallis", {"q": 2.0}),
    ("sharma_mittal", {"alpha": 0.5, "beta": 0.7}),
    ("kaniadakis", {"kappa": 0.3}),
)
SIZES = {"full": ((10, 50, 200), (10, 50)), "tiny": ((10,), (10,))}


#: The ops whose projected ascent stops with converged=False at the library
#: defaults, as measured (13 of 23; `maximize` is deterministic, so the set
#: does not depend on the seed).  Their constraint residuals and the Gibbs
#: answer stay within tolerance; only stationarity misses.
KNOWN_UNCONVERGED = frozenset({
    "shannon:w50", "shannon:w200",
    "renyi(0.5):w50", "renyi(0.5):w200",
    "tsallis(0.5):w50", "tsallis(0.5):w200",
    "sharma_mittal(0.5,0.7):w10", "sharma_mittal(0.5,0.7):w50", "sharma_mittal(0.5,0.7):w200",
    "kaniadakis(0.3):w50", "kaniadakis(0.3):w200",
    "sm_pair(0.3,0.7,0.5):w10", "sm_pair(0.3,0.7,0.5):w50",
})


def is_known_defect(op: Op, ratio: float, reason: str) -> bool:
    """A baseline defect: a recorded op stops unconverged, missing only stationarity."""
    return (
        op.name in KNOWN_UNCONVERGED
        and reason.startswith("not converged")
        and missed(reason) <= {"stationarity"}
    )


def _label(family: str, params: dict) -> str:
    inner = ",".join(f"{v:g}" for v in params.values())
    return f"{family}({inner})" if inner else family


def build(lib, size: str) -> dict:
    panel_sizes, fd_sizes = SIZES[size]
    entropies = {
        _label(f, p): lib.hf_entropy.builtin_functional(f, **p) for f, p in PANEL
    }
    entropies["sm_pair(0.3,0.7,0.5)"] = lib.composition.sm_pair_entropy(0.3, 0.7, 0.5)
    constraints = {
        w: lib.maxent.ConstraintSet((np.arange(w) / w)[None, :], np.array([TARGET]))
        for w in sorted(set(panel_sizes) | set(fd_sizes))
    }
    return {"entropies": entropies, "constraints": constraints}


def _op(lib, label, entropy, w, constraints, gibbs) -> Op:
    a = np.arange(w) / w

    def run():
        return lib.maxent.maximize(entropy, w, constraints)

    def check(result):
        p = np.asarray(result.dist.weights)
        if not (refs.is_finite_array(p) and np.isfinite(result.stationarity)):
            return float("inf"), "non-finite output"
        residual = max(abs(float(p @ a) - TARGET), abs(float(p.sum()) - 1.0))
        ratios = {
            "residual": refs.ratio(residual, RESIDUAL_TOL),
            "stationarity": refs.ratio(result.stationarity, 1e-8),  # maximize's default tol
        }
        if gibbs is not None:
            ratios["gibbs"] = refs.ratio(float(np.max(np.abs(p - gibbs))), GIBBS_TOL)
        reasons = [over_tolerance(ratios)]
        if not result.converged:
            reasons.insert(0, f"not converged after {result.iterations} iterations")
        return max(ratios.values()), "; ".join(r for r in reasons if r) or None

    def facts(result):
        return {"iterations": result.iterations, "converged": result.converged}

    attrs = {
        "w": w,
        "extra": label.startswith("sm_pair"),
        "analytic": entropy.gradient is not None,
    }
    return Op(f"{label}:w{w}", run, check, attrs, facts)


def make_ops(lib, built: dict, rng, size: str, workdir) -> list[Op]:
    panel_sizes, fd_sizes = SIZES[size]
    ops = []
    for label, entropy in built["entropies"].items():
        sizes = fd_sizes if label.startswith("sm_pair") else panel_sizes
        for w in sizes:
            gibbs = refs.gibbs(np.arange(w) / w, TARGET) if label == "shannon" else None
            ops.append(_op(lib, label, entropy, w, built["constraints"][w], gibbs))
    return ops


# --- traced-run metrics ------------------------------------------------------------------


def layer_metrics(tracer, ops_spans, children) -> dict:
    out = {}
    solves = {
        op.op: [s for s in children.get(op.op, []) if s.name == "maxent.maximize"]
        for op in ops_spans
    }
    for w in (10, 50, 200):
        spans = [s for op in ops_spans if op.attrs["w"] == w and not op.attrs["extra"]
                 for s in solves[op.op]]
        if spans:
            out[f"maxent.solve_ms.w{w}"] = 1e3 * float(np.mean([s.duration for s in spans]))
    fd = [s for op in ops_spans if op.attrs["extra"] for s in solves[op.op]]
    if fd:
        out["maxent.fd_grad_solve_ms"] = 1e3 * float(np.mean([s.duration for s in fd]))

    iterations = sum(op.attrs.get("iterations", 0) for op in ops_spans)
    _, value_s, _ = tracer.leaf_totals("hf_entropy.fn", ops_spans)
    _, grad_s, _ = tracer.leaf_totals("hf_entropy.gradient", ops_spans)
    solve_s = sum(s.duration for spans in solves.values() for s in spans)
    out["maxent.iterations"] = iterations
    # Line-search work: value calls per iteration where the gradient is analytic.
    analytic = [op for op in ops_spans if op.attrs["analytic"]]
    analytic_iters = sum(op.attrs.get("iterations", 0) for op in analytic)
    if analytic_iters:
        values = tracer.leaf_totals("hf_entropy.fn", analytic)[0]
        out["maxent.value_evals_per_iter"] = values / analytic_iters
    if solve_s:
        out["maxent.self_frac"] = (solve_s - value_s - grad_s) / solve_s
    for w in (10, 50, 200):
        out[f"maxent.unconverged.w{w}"] = sum(
            1 for op in ops_spans if op.attrs["w"] == w and not op.attrs.get("converged", True)
        )
    return out
