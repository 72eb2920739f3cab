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
the same q).  The `fn` of each is its direct formula, summing the f table's
t^a as given; `group_compose` on the constituent entropies must reproduce it
to rounding accuracy, which is what the acceptance suite checks.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import ArityMismatch, InvalidArgument, LawMismatch, MonotonicityViolation
from .formal_group import (
    BinaryLaw, Conjugator, _fmt, _require_pow2, _seed, conjugate, iterate_pow2, q_sum
)
from .hf_entropy import (
    EntropyFunctional, _guard_param, _PowerTraces, _product_pairs, product_residuals
)

MONO_SLACK = 1e-12

#: Seeded ordered pairs on which `zeta_compose` spot-checks monotonicity.
MONO_SAMPLES = 100

#: Largest product residual a constituent may show against the shared law.
PROBE_TOL = 1e-9

#: How far below the chord a sampled concavity margin may fall.
CONCAVITY_TOL = 1e-9

#: `concavity_probe` samples mixtures over W = 2..CONCAVITY_W_MAX outcomes.
CONCAVITY_W_MAX = 6


@dataclass(frozen=True)
class Composer:
    """An m-ary map for combining entropy (or divergence) values.

    `fn` consumes values along the last axis.  `grad0` is the gradient at the
    origin when it is known in closed form; geometry needs it to weight the
    constituent metrics.  `monotone` records whether the builder could
    certify the componentwise order on the non-negative orthant.  It is applied
    to m entropies by `zeta_compose` and to m divergences by `zeta_compose_div`.
    """

    fn: Callable
    arity: int
    name: str
    grad0: tuple[float, ...] | None = None
    monotone: bool = True

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise ArityMismatch(f"arity must be >= 1, got {self.arity}")
        if self.grad0 is not None and len(self.grad0) != self.arity:
            raise ArityMismatch(
                f"grad0 has {len(self.grad0)} entries for arity {self.arity}"
            )

    def _over(self, functionals: Sequence, kind: str) -> tuple[list, Callable, str]:
        """Check there are `arity` functionals; return (them as a list, composed fn, its name).

        The composed fn passes its arguments to every functional and applies this map to their
        values stacked along a last axis.  `kind` ("entropies", "divergences") names them in errors.
        """
        functionals = list(functionals)
        if len(functionals) != self.arity:
            raise ArityMismatch(f"{self.name} takes {self.arity} {kind}, got {len(functionals)}")
        fns = [member.fn for member in functionals]

        def fn(*args):
            values = [np.asarray(f(*args), dtype=float)[..., None] for f in fns]
            return self.fn(np.concatenate(values, axis=-1))  # unequal shapes raise, as in np.stack

        inner = ", ".join(member.name for member in functionals)
        return functionals, fn, f"{self.name}({inner})"


def linear_composer(coeffs: Sequence[float]) -> Composer:
    """zeta(x) = sum_j c_j x_j; monotone iff every coefficient is >= 0."""
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 1 or c.size < 1:
        raise ArityMismatch("coeffs must be a non-empty 1-d sequence")
    return Composer(
        fn=lambda v: np.asarray(v, dtype=float) @ c,
        arity=int(c.size),
        name=f"linear({_fmt(*c)})",
        grad0=tuple(float(x) for x in c),
        monotone=bool(np.all(c >= 0.0)),
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
    for coef, exponents in terms:
        e = np.asarray(exponents, dtype=int)
        if e.shape != (arity,) or np.any(e < 0):
            raise ArityMismatch(f"exponents {exponents!r} do not fit arity {arity}")
        parsed.append((float(coef), e))
        if int(e.sum()) == 1:
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
    )


def zeta_compose(entropies: Sequence[EntropyFunctional], composer: Composer) -> EntropyFunctional:
    """Compose entropies through a monotone map; the result is an entropy again.

    The composer must take the m entropies given (else ArityMismatch), be
    flagged monotone, and survive a spot check: MONO_SAMPLES componentwise-ordered
    pairs in [0, 5]^m, drawn with seed 0, must map to ordered values, and
    the sampled values must stay non-negative.  Violations raise
    MonotonicityViolation rather than producing a silent pseudo-entropy.
    """
    _, fn, name = composer._over(entropies, "entropies")
    if not composer.monotone:
        raise MonotonicityViolation(f"{composer.name} is not flagged monotone")
    _spot_check_monotone(composer)
    return EntropyFunctional(fn=fn, name=name)


def _spot_check_monotone(composer: Composer) -> None:
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 5.0, size=(MONO_SAMPLES, composer.arity))
    y = x + rng.uniform(0.0, 5.0, size=(MONO_SAMPLES, composer.arity))
    zx = np.asarray(composer.fn(x), dtype=float)
    zy = np.asarray(composer.fn(y), dtype=float)
    worst = float(np.max(zx - zy))
    if not worst <= MONO_SLACK:  # a nan fails too
        raise MonotonicityViolation(
            f"{composer.name} decreases along the componentwise order by {worst:.3e}"
        )
    origin = float(composer.fn(np.zeros(composer.arity)))
    if not float(np.min((zx.min(), zy.min(), origin))) >= -MONO_SLACK:
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
    _require_pow2("group composition", m, len(entropies))
    law = entropies[0].law
    probes = _product_pairs(seed, ((2, 3), (3, 2), (2, 2)), 1)
    for s in entropies:
        if s.law is None:
            raise LawMismatch(f"{s.name} carries no composition law")
        for p, q in probes:
            residual = float(product_residuals(s.fn, law, p, q)[0])
            if not residual <= PROBE_TOL:
                raise LawMismatch(
                    f"{s.name} misses {law.name} by {residual:.3e} on a "
                    f"{p.shape[1]}x{q.shape[1]} probe pair (tol {PROBE_TOL:.1e})"
                )

    phi_n = iterate_pow2(law, m)
    fns = [s.fn for s in entropies]

    def fn(weights):
        vals = [np.asarray(f(weights), dtype=float) for f in fns]
        return xi.forward(phi_n(*vals))

    omega = conjugate(law, xi)
    inner = ", ".join(s.name for s in entropies)
    name = f"{xi.name}*{law.name}^{len(entropies)}[{inner}]"
    return EntropyFunctional(fn=fn, name=name, law=omega), omega


# --- closed forms -------------------------------------------------------------


def sm_pair_entropy(alpha1: float, alpha2: float, beta: float) -> EntropyFunctional:
    """Two Sharma-Mittal entropies with shared beta, combined by the beta-sum.

    The functional carries the q-sum law of beta; its `fn` is the direct formula
        (1 - (sum p^a1)^((b-1)/(a1-1)) * (sum p^a2)^((b-1)/(a2-1))) / (b - 1).
    """
    a1 = _guard_param(alpha1, "alpha1")
    a2 = _guard_param(alpha2, "alpha2")
    b = _guard_param(beta, "beta", positive=False)
    e1, e2 = (b - 1.0) / (a1 - 1.0), (b - 1.0) / (a2 - 1.0)

    def product(s):
        return np.power(s[0], e1) * np.power(s[1], e2)

    def outer_gradient(s):  # dF/ds_k = -s1^e1 s2^e2 / ((a_k - 1) s_k)
        prod = product(s)
        return np.stack([-prod / ((a - 1.0) * s_k) for a, s_k in zip((a1, a2), s)])

    form = _PowerTraces((a1, a2), lambda s: (1.0 - product(s)) / (b - 1.0), outer_gradient)
    return EntropyFunctional(
        fn=form.value,
        name=f"sm-pair({_fmt(a1, a2)};{_fmt(b)})",
        law=q_sum(b),
        gradient=form.gradient,
        traces=form,
    )


def sm_tsallis_entropy(alpha: float, q: float) -> EntropyFunctional:
    """A Sharma-Mittal entropy combined with the Tsallis entropy of the same q.

    The functional carries the q-sum law of q; its `fn` is the direct formula
        (1 - (sum p^q) * (sum p^alpha)^((q-1)/(alpha-1))) / (q - 1),
    which is `sm_pair_entropy(alpha, q, q)`: Tsallis(q) is Sharma-Mittal(q, q),
    and its factor (sum p^q)^1 is exact.
    """
    a = _guard_param(alpha, "alpha")  # the errors name this function's parameters
    qq = _guard_param(q, "q")
    return replace(sm_pair_entropy(a, qq, qq), name=f"sm-tsallis({_fmt(a)};{_fmt(qq)})")


# --- concavity ------------------------------------------------------------------


@dataclass(frozen=True)
class ConcavityReport:
    """A sampled concavity probe's outcome, in output order.

    passed iff `min_margin` >= -tol, which a nan margin fails; the counterexample
    is the first triple whose margin set a new minimum below -tol.
    """

    entropy: str
    w_max: int
    samples: int
    tol: float
    min_margin: float
    counterexample: dict | None
    passed: bool

    def as_dict(self) -> dict:
        return asdict(self)


def concavity_probe(
    entropy: EntropyFunctional, samples: int = 10000, seed: int = 0
) -> ConcavityReport:
    """Sample mixing triples (p, q, lambda) and test the concavity inequality.

    The margin S(lam p + (1-lam) q) - lam S(p) - (1-lam) S(q) must stay above
    -CONCAVITY_TOL; the most negative sampled margin and, if it crosses the
    line, the witnessing triple are reported.  A nan margin is reported as
    the minimum and fails the probe.  Samples are spread over W = 2..
    CONCAVITY_W_MAX, at least one each.
    """
    if samples < CONCAVITY_W_MAX - 1:
        raise InvalidArgument(
            f"need at least one sample per W in 2..{CONCAVITY_W_MAX}, got {samples}"
        )
    rng = np.random.default_rng(_seed(seed))
    sizes = list(range(2, CONCAVITY_W_MAX + 1))
    per = [samples // len(sizes)] * len(sizes)
    per[0] += samples - sum(per)

    min_margin = math.inf
    counterexample = None
    for w, count in zip(sizes, per):
        p = rng.dirichlet(np.ones(w), size=count)
        q = rng.dirichlet(np.ones(w), size=count)
        lam = rng.uniform(0.0, 1.0, size=(count, 1))
        mixed = lam * p + (1.0 - lam) * q
        margin = entropy.eval_batch(mixed) - (
            lam[:, 0] * entropy.eval_batch(p)
            + (1.0 - lam[:, 0]) * entropy.eval_batch(q)
        )
        low = float(margin.min())
        if low < min_margin or math.isnan(low):  # a nan margin sticks
            min_margin = low
            if low < -CONCAVITY_TOL:
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
        w_max=CONCAVITY_W_MAX,
        samples=samples,
        tol=CONCAVITY_TOL,
        min_margin=min_margin,
        counterexample=counterexample,
        passed=min_margin >= -CONCAVITY_TOL,
    )
