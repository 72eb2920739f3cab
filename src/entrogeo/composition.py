"""Composing entropies into new entropies.

Two mechanisms, same output type:

* `zeta_compose`: feed m entropies through a monotone map zeta with
  zeta(0) >= 0.  Monotone here means order-preserving for the componentwise
  partial order on the non-negative orthant, which is exactly what keeps
  maximality at uniform and expansibility intact.

* `group_compose`: combine 2^m entropies that share one composition law Phi
  through the iterated law, then rescale by a conjugator xi:

      Z(p) = xi(Phi^(2^m)(S_1(p), ..., S_{2^m}(p))).

  Z then composes over products through omega = xi . Phi . xi^-1 (computed by
  `formal_group.conjugate`), so Z is again a group entropy.  Law sharing is
  not taken on faith: every constituent is probed on concrete product
  distributions before composition.

Two closed forms are provided for the Sharma-Mittal stack: `sm_pair_entropy`
(two S-M entropies with a common beta combined through the beta-deformed sum)
and `sm_tsallis_entropy` (an S-M entropy combined with the Tsallis entropy of
the same q).  Both come with direct formulas that the engine must reproduce
to rounding accuracy, which is what the acceptance suite checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ArityMismatch, InvalidArgument, LawMismatch, MonotonicityViolation
from .formal_group import BinaryLaw, Conjugator, conjugate, iterate_pow2, q_sum
from .hf_entropy import EntropyFunctional, _f_power, _guard_param, _trace, product_residuals

MONO_SLACK = 1e-12

#: Largest product residual a constituent may show against the shared law.
PROBE_TOL = 1e-9


@dataclass(frozen=True)
class Composer:
    """An m-ary map for combining entropy (or divergence) values.

    `fn` consumes values along the last axis.  `grad0` is the gradient at the
    origin when it is known in closed form; geometry needs it to weight the
    constituent metrics.  The flags record what the builder could certify:
    `monotone` for the componentwise order on the non-negative orthant,
    `zero_at_origin` for fn(0) = 0.
    """

    fn: Callable
    arity: int
    name: str
    grad0: tuple[float, ...] | None = None
    monotone: bool = True
    zero_at_origin: bool = True

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise ArityMismatch(f"arity must be >= 1, got {self.arity}")
        if self.grad0 is not None and len(self.grad0) != self.arity:
            raise ArityMismatch(
                f"grad0 has {len(self.grad0)} entries for arity {self.arity}"
            )


def identity_composer() -> Composer:
    """The 1-ary identity."""
    return Composer(
        fn=lambda v: np.asarray(v, dtype=float)[..., 0],
        arity=1,
        name="identity",
        grad0=(1.0,),
    )


def linear_composer(coeffs: Sequence[float]) -> Composer:
    """zeta(x) = sum_j c_j x_j; monotone iff every coefficient is >= 0."""
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 1 or c.size < 1:
        raise ArityMismatch("coeffs must be a non-empty 1-d sequence")
    return Composer(
        fn=lambda v: np.asarray(v, dtype=float) @ c,
        arity=int(c.size),
        name=f"linear({','.join(format(x, 'g') for x in c)})",
        grad0=tuple(float(x) for x in c),
        monotone=bool(np.all(c >= 0.0)),
        zero_at_origin=True,
    )


def polynomial_composer(
    terms: Sequence[tuple[float, Sequence[int]]], arity: int
) -> Composer:
    """zeta(x) = sum_k c_k * prod_j x_j^(e_kj) with non-negative integer powers.

    Monotonicity on the orthant is certified when every coefficient is
    non-negative.  The gradient at 0 collects the degree-one terms.
    """
    if arity < 1:
        raise ArityMismatch(f"arity must be >= 1, got {arity}")
    parsed: list[tuple[float, np.ndarray]] = []
    grad0 = np.zeros(arity)
    constant = 0.0
    for coef, exponents in terms:
        e = np.asarray(exponents, dtype=int)
        if e.shape != (arity,) or np.any(e < 0):
            raise ArityMismatch(f"exponents {exponents!r} do not fit arity {arity}")
        parsed.append((float(coef), e))
        degree = int(e.sum())
        if degree == 0:
            constant += float(coef)
        elif degree == 1:
            grad0[int(np.argmax(e))] += float(coef)

    def fn(v):
        v = np.asarray(v, dtype=float)
        total = np.zeros(v.shape[:-1])
        for coef, e in parsed:
            total = total + coef * np.prod(v ** e, axis=-1)
        return total

    return Composer(
        fn=fn,
        arity=arity,
        name=f"poly[{len(parsed)} terms]",
        grad0=tuple(grad0),
        monotone=all(coef >= 0.0 for coef, _ in parsed),
        zero_at_origin=constant == 0.0,
    )


def zeta_compose(
    entropies: Sequence[EntropyFunctional],
    composer: Composer,
    samples: int = 100,
    seed: int = 0,
) -> EntropyFunctional:
    """Compose entropies through a monotone map; the result is an entropy again.

    The composer must be flagged monotone and survives a seeded spot check:
    componentwise-ordered pairs in [0, 5]^m must map to ordered values, and
    the sampled values must stay non-negative.  Violations raise
    MonotonicityViolation rather than producing a silent pseudo-entropy.
    """
    entropies = list(entropies)
    if len(entropies) != composer.arity:
        raise ArityMismatch(
            f"{composer.name} takes {composer.arity} entropies, got {len(entropies)}"
        )
    if not composer.monotone:
        raise MonotonicityViolation(f"{composer.name} is not flagged monotone")
    _spot_check_monotone(composer, samples, seed)

    fns = [s.fn for s in entropies]

    def fn(weights):
        vals = np.stack(
            [np.asarray(f(weights), dtype=float) for f in fns], axis=-1
        )
        return composer.fn(vals)

    inner = ", ".join(s.name for s in entropies)
    return EntropyFunctional(fn=fn, name=f"{composer.name}({inner})")


def _spot_check_monotone(composer: Composer, samples: int, seed: int) -> None:
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 5.0, size=(samples, composer.arity))
    y = x + rng.uniform(0.0, 5.0, size=(samples, composer.arity))
    zx = np.asarray(composer.fn(x), dtype=float)
    zy = np.asarray(composer.fn(y), dtype=float)
    worst = float(np.max(zx - zy))
    if worst > MONO_SLACK:
        raise MonotonicityViolation(
            f"{composer.name} decreases along the componentwise order by {worst:.3e}"
        )
    low = min(float(zx.min()), float(zy.min()))
    origin = float(composer.fn(np.zeros(composer.arity)))
    if min(low, origin) < -MONO_SLACK:
        raise MonotonicityViolation(
            f"{composer.name} leaves the non-negative range on sampled points"
        )


def group_compose(
    entropies: Sequence[EntropyFunctional],
    xi: Conjugator,
    m: int,
    seed: int = 0,
) -> tuple[EntropyFunctional, BinaryLaw]:
    """Combine 2^m law-sharing entropies through the iterated law and xi.

    Returns (Z, omega): the composed entropy and the law it provably composes
    with over product distributions.  Before composing, every constituent is
    checked on seeded probe pairs at W in {2, 3} against the shared law of
    the first constituent; a residual above PROBE_TOL raises LawMismatch.
    """
    entropies = list(entropies)
    arity = 2**m
    if len(entropies) != arity:
        raise ArityMismatch(f"group composition at m={m} takes {arity} entropies")
    law = entropies[0].law
    if law is None:
        raise LawMismatch(f"{entropies[0].name} carries no composition law")
    for s in entropies:
        if s.law is None:
            raise LawMismatch(f"{s.name} carries no composition law")
        _probe_law(s, law, seed)

    phi_n = iterate_pow2(law, m)
    fns = [s.fn for s in entropies]

    def fn(weights):
        vals = [np.asarray(f(weights), dtype=float) for f in fns]
        return xi.forward(phi_n(*vals))

    omega = conjugate(law, xi)
    inner = ", ".join(s.name for s in entropies)
    name = f"{xi.name}*{law.name}^{arity}[{inner}]"
    return EntropyFunctional(fn=fn, name=name, law=omega), omega


def _probe_law(entropy: EntropyFunctional, law: BinaryLaw, seed: int) -> None:
    rng = np.random.default_rng(seed)
    for w1, w2 in ((2, 3), (3, 2), (2, 2)):
        p = rng.dirichlet(np.ones(w1))
        q = rng.dirichlet(np.ones(w2))
        residual = float(product_residuals(entropy.fn, law, p[None], q[None])[0])
        if not residual <= PROBE_TOL:
            raise LawMismatch(
                f"{entropy.name} misses {law.name} by {residual:.3e} on a "
                f"{w1}x{w2} probe pair (tol {PROBE_TOL:.1e})"
            )


# --- closed forms -------------------------------------------------------------


def sm_pair_value(alpha1: float, alpha2: float, beta: float, weights) -> np.ndarray:
    """Two Sharma-Mittal entropies with shared beta, combined by the beta-sum.

    Direct formula:
        (1 - (sum p^a1)^((b-1)/(a1-1)) * (sum p^a2)^((b-1)/(a2-1))) / (b - 1).
    """
    a1 = _guard_param(alpha1, "alpha1")
    a2 = _guard_param(alpha2, "alpha2")
    b = _guard_param(beta, "beta", positive=False)
    p = np.asarray(weights, dtype=float)
    s1 = _trace(_f_power(a1)["f"], p)
    s2 = _trace(_f_power(a2)["f"], p)
    prod = np.power(s1, (b - 1.0) / (a1 - 1.0)) * np.power(s2, (b - 1.0) / (a2 - 1.0))
    return (1.0 - prod) / (b - 1.0)


def sm_pair_entropy(alpha1: float, alpha2: float, beta: float) -> EntropyFunctional:
    """The `sm_pair_value` formula as a functional, carrying its q-sum law."""
    a1, a2, b = float(alpha1), float(alpha2), float(beta)
    sm_pair_value(a1, a2, b, np.array([1.0]))  # parameter validation
    return EntropyFunctional(
        fn=lambda weights: sm_pair_value(a1, a2, b, weights),
        name=f"sm-pair({a1:g},{a2:g};{b:g})",
        law=q_sum(b),
    )


def sm_tsallis_value(alpha: float, q: float, weights) -> np.ndarray:
    """A Sharma-Mittal entropy combined with the Tsallis entropy of the same q.

    Direct formula:
        (1 - (sum p^q) * (sum p^alpha)^((q-1)/(alpha-1))) / (q - 1),
    which is `sm_pair_value(alpha, q, q, weights)`: Tsallis(q) is
    Sharma-Mittal(q, q), and its factor (sum p^q)^1 is exact.
    """
    _guard_param(alpha, "alpha")  # the errors name this function's parameters
    _guard_param(q, "q")
    return sm_pair_value(alpha, q, q, weights)


def sm_tsallis_entropy(alpha: float, q: float) -> EntropyFunctional:
    """The `sm_tsallis_value` formula as a functional, carrying its q-sum law."""
    a, qq = float(alpha), float(q)
    sm_tsallis_value(a, qq, np.array([1.0]))  # parameter validation
    return EntropyFunctional(
        fn=lambda weights: sm_tsallis_value(a, qq, weights),
        name=f"sm-tsallis({a:g};{qq:g})",
        law=q_sum(qq),
    )


# --- concavity ------------------------------------------------------------------


@dataclass(frozen=True)
class ConcavityReport:
    """Outcome of a sampled concavity probe."""

    entropy: str
    w_max: int
    samples: int
    tol: float
    min_margin: float
    counterexample: dict | None

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    def as_dict(self) -> dict:
        return {
            "entropy": self.entropy,
            "w_max": self.w_max,
            "samples": self.samples,
            "tol": self.tol,
            "min_margin": self.min_margin,
            "counterexample": self.counterexample,
            "passed": self.passed,
        }


def concavity_probe(
    entropy: EntropyFunctional,
    w_max: int = 6,
    samples: int = 10000,
    seed: int = 0,
    tol: float = 1e-9,
) -> ConcavityReport:
    """Sample mixing triples (p, q, lambda) and test the concavity inequality.

    The margin S(lam p + (1-lam) q) - lam S(p) - (1-lam) S(q) must stay above
    -tol; the most negative sampled margin and, if it crosses the line, the
    witnessing triple are reported.  Samples are spread over W = 2..w_max.
    """
    if w_max < 2:
        raise InvalidArgument("w_max must be at least 2")
    rng = np.random.default_rng(seed)
    sizes = list(range(2, w_max + 1))
    per = [samples // len(sizes)] * len(sizes)
    per[0] += samples - sum(per)

    min_margin = math.inf
    counterexample = None
    for w, count in zip(sizes, per):
        if count < 1:
            continue
        p = rng.dirichlet(np.ones(w), size=count)
        q = rng.dirichlet(np.ones(w), size=count)
        lam = rng.uniform(0.0, 1.0, size=(count, 1))
        mixed = lam * p + (1.0 - lam) * q
        margin = entropy.eval_batch(mixed) - (
            lam[:, 0] * entropy.eval_batch(p)
            + (1.0 - lam[:, 0]) * entropy.eval_batch(q)
        )
        low = float(margin.min())
        if low < min_margin:
            min_margin = low
            if low < -tol:
                i = int(np.argmin(margin))
                counterexample = {
                    "w": w,
                    "p": p[i].tolist(),
                    "q": q[i].tolist(),
                    "lam": float(lam[i, 0]),
                    "margin": low,
                }
    return ConcavityReport(
        entropy=entropy.name,
        w_max=w_max,
        samples=samples,
        tol=tol,
        min_margin=min_margin,
        counterexample=counterexample,
    )
