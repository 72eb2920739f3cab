"""Relative-entropy functionals D(p || q) = h(sum_i q_i f(p_i / q_i)).

The shape pairing is the mirror of the entropy one: convex f goes with
increasing h (Kullback-Leibler: f = t ln t, h = x) and concave f with
decreasing h.  Either way D(p || q) >= 0 with equality at p = q, which is
what makes the second-order expansion around the diagonal a metric.

The reference distribution q must be strictly positive; p may contain zeros
(f(0) = 0 kills those terms).  Divergences can be composed through a map
zeta that is non-negative and vanishes only at the origin; the composed
object is again a divergence, and its gradient at 0 tells geometry how to
weight the constituent metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .composition import Composer
from .errors import ArityMismatch, DomainError, LengthMismatch, ZetaRangeViolation
from .hf_entropy import (
    _IDENTITY_H,
    HFPair,
    _guard_param,
    _sm_rescale,
    custom_pair,
    require_divergence_shape,
    zero_preserving,
)
from .probability import ProbDist

#: |D(p, p)| allowed for a true divergence.
DIAGONAL_TOL = 1e-12


@dataclass(frozen=True)
class DivergenceFunctional:
    """A callable divergence with optional provenance attached.

    `fn(p, q)` consumes weight arrays with outcomes along the last axis and
    assumes q strictly positive; `eval` adds the validation layer for
    distribution objects.  `pair` is set when the divergence is of (h, f)
    form, `constituents` and `grad0` when it was composed from others.
    """

    fn: Callable
    name: str
    pair: HFPair | None = None
    constituents: tuple["DivergenceFunctional", ...] | None = None
    grad0: tuple[float, ...] | None = None

    def eval(self, p: ProbDist, q: ProbDist) -> float:
        if p.size != q.size:
            raise LengthMismatch(f"lengths differ: {p.size} vs {q.size}")
        if np.any(q.weights <= 0.0):
            raise DomainError("reference distribution must be strictly positive")
        value = float(self.fn(p.weights, q.weights))
        if not math.isfinite(value):
            raise DomainError(f"{self.name} is not finite at the given pair")
        return value

    def __call__(self, p: ProbDist, q: ProbDist) -> float:
        return self.eval(p, q)


def hf_div_functional(pair: HFPair) -> DivergenceFunctional:
    """Wrap a divergence-shaped pair as h(sum q f(p/q))."""
    require_divergence_shape(pair)

    def fn(p, q):
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        return pair.h((np.asarray(pair.f(p / q)) * q).sum(axis=-1))

    return DivergenceFunctional(fn=fn, name=f"D[{pair.name}]", pair=pair)


def hf_divergence(pair: HFPair, p: ProbDist, q: ProbDist) -> float:
    """Evaluate the (h, f)-divergence of one pair of distributions."""
    return hf_div_functional(pair).eval(p, q)


# --- built-in pairs and families -----------------------------------------------


def kl_pair() -> HFPair:
    """f = t ln t with h = x: the Kullback-Leibler pair."""
    return custom_pair(
        name="kl",
        f=zero_preserving(lambda t: t * np.log(t)),
        **_IDENTITY_H,
        f_prime=zero_preserving(lambda t: np.log(t) + 1.0),
        derivs=(1.0, 1.0, -1.0),
        f_shape="convex",
        h_direction="increasing",
    )


def kl_functional() -> DivergenceFunctional:
    """Kullback-Leibler divergence, computed directly as sum p ln(p/q)."""

    def fn(p, q):
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        ratio = np.where(p > 0.0, p / q, 1.0)
        return np.where(p > 0.0, p * np.log(ratio), 0.0).sum(axis=-1)

    return DivergenceFunctional(fn=fn, name="kl", pair=kl_pair())


def kl(p: ProbDist, q: ProbDist) -> float:
    """Kullback-Leibler divergence of p from strictly positive q."""
    return kl_functional().eval(p, q)


def power_pair(a: float) -> HFPair:
    """f = t^a with the affine h that makes it a divergence either side of 1.

    For a > 1 the pair is (t^a, x - 1); for 0 < a < 1 it is (t^a, 1 - x).
    Both are anchored at h(1) = 0 and induce the metric scale a(a-1) resp.
    a(1-a).
    """
    a = _guard_param(a, "a")
    convex = a > 1.0
    sign = 1.0 if convex else -1.0
    return custom_pair(
        name=f"power({a:g})",
        f=lambda t: np.power(t, a),
        h=lambda x: sign * (np.asarray(x, dtype=float) - 1.0),
        h_inverse=lambda y: sign * np.asarray(y, dtype=float) + 1.0,
        h_prime=lambda x: np.full_like(np.asarray(x, dtype=float), sign),
        f_prime=lambda t: a * np.power(t, a - 1.0),
        derivs=(a, a * (a - 1.0), a * (a - 1.0) * (a - 2.0)),
        f_shape="convex" if convex else "concave",
        h_direction="increasing" if convex else "decreasing",
    )


def tsallis_relative_pair(alpha: float) -> HFPair:
    """f = (t^alpha - t)/(alpha - 1) with h = x: the Tsallis relative pair."""
    a = _guard_param(alpha, "alpha")
    return custom_pair(
        name=f"tsallis-relative({a:g})",
        f=lambda t: (np.power(t, a) - t) / (a - 1.0),
        **_IDENTITY_H,
        f_prime=lambda t: (a * np.power(t, a - 1.0) - 1.0) / (a - 1.0),
        derivs=(1.0, a, a * (a - 2.0)),
        f_shape="convex",
        h_direction="increasing",
    )


def sm_divergence_pair(alpha: float, beta: float) -> HFPair:
    """The (h, f) pair behind the Sharma-Mittal divergence.

    f(t) = t^alpha and h(x) = (x^((1-beta)/(1-alpha)) - 1)/(beta - 1); the
    pairing mirrors the S-M entropy one (alpha > 1: convex f, increasing h).
    """
    a = _guard_param(alpha, "alpha")
    b = _guard_param(beta, "beta", positive=False)
    h, h_inverse, h_prime = _sm_rescale(a, b, sign=-1.0)
    return custom_pair(
        name=f"sm-div({a:g},{b:g})",
        f=lambda t: np.power(t, a),
        h=h,
        h_inverse=h_inverse,
        h_prime=h_prime,
        f_prime=lambda t: a * np.power(t, a - 1.0),
        derivs=(a, a * (a - 1.0), a * (a - 1.0) * (a - 2.0)),
        f_shape="convex" if a > 1.0 else "concave",
        h_direction="increasing" if a > 1.0 else "decreasing",
    )


def sm_div_functional(alpha: float, beta: float) -> DivergenceFunctional:
    """Sharma-Mittal divergence, computed directly from its closed form.

    D(p || q) = ((sum p^alpha q^(1-alpha))^((1-beta)/(1-alpha)) - 1)/(beta - 1).
    The equivalent (h, f) pair rides along for the geometry layer.
    """
    pair = sm_divergence_pair(alpha, beta)  # validates parameters
    a, b = float(alpha), float(beta)

    def fn(p, q):
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        return pair.h((np.power(p, a) * np.power(q, 1.0 - a)).sum(axis=-1))

    return DivergenceFunctional(fn=fn, name=f"sm({a:g},{b:g})", pair=pair)


def sm_divergence(alpha: float, beta: float, p: ProbDist, q: ProbDist) -> float:
    """Evaluate the Sharma-Mittal divergence at one pair of distributions."""
    return sm_div_functional(alpha, beta).eval(p, q)


# --- composition -----------------------------------------------------------------


def zeta_compose_div(
    divergences: Sequence[DivergenceFunctional],
    composer: Composer,
    samples: int = 50,
    seed: int = 0,
) -> DivergenceFunctional:
    """Compose divergences through zeta >= 0 with zeta(x) = 0 iff x = 0.

    Both properties are spot-checked on seeded samples of the non-negative
    orthant (including points on its faces): violations raise
    ZetaRangeViolation.  The result records its constituents and the gradient
    of zeta at the origin, which downstream geometry uses as mixture weights.
    """
    divergences = list(divergences)
    if len(divergences) != composer.arity:
        raise ArityMismatch(
            f"{composer.name} takes {composer.arity} divergences, got {len(divergences)}"
        )
    _spot_check_zeta(composer, samples, seed)

    fns = [d.fn for d in divergences]

    def fn(p, q):
        vals = np.stack([np.asarray(f(p, q), dtype=float) for f in fns], axis=-1)
        return composer.fn(vals)

    inner = ", ".join(d.name for d in divergences)
    return DivergenceFunctional(
        fn=fn,
        name=f"{composer.name}({inner})",
        constituents=tuple(divergences),
        grad0=composer.grad0,
    )


def _spot_check_zeta(composer: Composer, samples: int, seed: int) -> None:
    m = composer.arity
    origin = float(composer.fn(np.zeros(m)))
    if abs(origin) > DIAGONAL_TOL:
        raise ZetaRangeViolation(f"{composer.name}(0) = {origin:.3e}, must vanish")
    rng = np.random.default_rng(seed)
    interior = rng.uniform(0.01, 5.0, size=(samples, m))
    batches = [interior]
    # Points on the faces of the orthant: nonzero input, one coordinate dead.
    if m >= 2:
        for j in range(m):
            face = rng.uniform(0.01, 5.0, size=(samples, m))
            face[:, j] = 0.0
            batches.append(face)
    for batch in batches:
        vals = np.asarray(composer.fn(batch), dtype=float)
        if float(vals.min()) <= 0.0:
            raise ZetaRangeViolation(
                f"{composer.name} is not strictly positive away from the origin"
            )
