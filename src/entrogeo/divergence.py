"""Relative-entropy functionals D(p || q) = h(sum_i q_i f(p_i / q_i)).

The shape pairing is the mirror of the entropy one, c = h'(f(1)) f''(1) > 0:
convex f with increasing h (Kullback-Leibler: f = t ln t, h = x) or concave
f with decreasing h.  Either way D(p || q) >= 0 with equality at p = q, which
is what makes the second-order expansion around the diagonal a metric.

The reference distribution q must be strictly positive; p may contain zeros
(f(0) = 0 kills those terms).  Divergences can be composed through a map
zeta that is non-negative and vanishes only at the origin; the composed
object is again a divergence, and its gradient at 0 tells geometry how to
weight the constituent metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .errors import DomainError, LengthMismatch, ZetaRangeViolation
from .formal_group import _fmt
from .hf_entropy import (
    _IDENTITY_H,
    HFPair,
    _f_power,
    _f_t_log_t,
    _f_tsallis,
    _finite_value,
    _guard_param,
    _log_in_place,
    _sm_pair,
    _trace,
    require_shape,
)
from .probability import ProbDist

if TYPE_CHECKING:
    from .composition import Composer

#: |D(p, p)| allowed for a true divergence.
DIAGONAL_TOL = 1e-12

#: Seeded points per batch on which `zeta_compose_div` spot-checks zeta.
ZETA_SAMPLES = 50


@dataclass(frozen=True)
class DivergenceFunctional:
    """A divergence with optional provenance attached.

    `fn(p, q)` consumes weight arrays with outcomes along the last axis and
    assumes q strictly positive; it is used as given.  `eval` adds the
    validation layer for distribution objects.  `pair` is set when the
    divergence is of (h, f) form, `constituents` and `grad0` when it was
    composed from others.
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
        return _finite_value(self, "pair", p.weights, q.weights)


def hf_div_functional(pair: HFPair) -> DivergenceFunctional:
    """Wrap a divergence-shaped pair as h(sum q f(p/q)).

    A term with p_i exactly 0 is q_i f(0) = 0; a nan in p makes its row nan.
    """
    require_shape(pair, "divergence")

    def terms(p, q):  # scales f's values in place, where the block is still in cache
        values = pair.f(np.asarray(p, dtype=float) / q)
        values *= q
        return values

    def fn(p, q):
        return pair.h(_trace(terms, p, q))

    return DivergenceFunctional(fn=fn, name=f"D[{pair.name}]", pair=pair)


# --- built-in pairs and families -----------------------------------------------


def kl_pair() -> HFPair:
    """f = t ln t with h = x: the Kullback-Leibler pair."""
    return HFPair(name="kl", **_f_t_log_t(1.0), **_IDENTITY_H)


def kl_functional() -> DivergenceFunctional:
    """Kullback-Leibler divergence, computed directly as sum p ln(p/q).

    A term with p_i exactly 0 is 0; a nan or negative p_i makes its row nan.
    """

    def terms(p, q):
        p = np.asarray(p, dtype=float)
        values = _log_in_place(p / q)  # logs the p / q temporary in place
        values *= p
        return values

    def fn(p, q):
        return _trace(terms, p, q)

    return DivergenceFunctional(fn=fn, name="kl", pair=kl_pair())


def power_pair(a: float) -> HFPair:
    """f = t^a with the affine h that makes it a divergence either side of 1.

    For a > 1 the pair is (t^a, x - 1); for 0 < a < 1 it is (t^a, 1 - x).
    Both are anchored at h(1) = 0 and induce the metric scale a(a-1) resp.
    a(1-a).
    """
    a = _guard_param(a, "a")
    sign = 1.0 if a > 1.0 else -1.0
    return HFPair(
        name=f"power({_fmt(a)})",
        **_f_power(a),
        h=lambda x: sign * (np.asarray(x, dtype=float) - 1.0),
        h_inverse=lambda y: sign * np.asarray(y, dtype=float) + 1.0,
        h_prime=lambda x: np.full_like(np.asarray(x, dtype=float), sign),
    )


def tsallis_relative_pair(alpha: float) -> HFPair:
    """f = (t^alpha - t)/(alpha - 1) with h = x: the Tsallis relative pair."""
    a = _guard_param(alpha, "alpha")
    return HFPair(name=f"tsallis-relative({_fmt(a)})", **_f_tsallis(a, 1.0), **_IDENTITY_H)


def sm_divergence_pair(alpha: float, beta: float) -> HFPair:
    """The (h, f) pair behind the Sharma-Mittal divergence.

    f(t) = t^alpha and h(x) = (x^((1-beta)/(1-alpha)) - 1)/(beta - 1); the
    pairing mirrors the S-M entropy one (alpha > 1: convex f, increasing h).
    """
    return _sm_pair(alpha, beta, -1.0, "sm-div")


def sm_div_functional(alpha: float, beta: float) -> DivergenceFunctional:
    """Sharma-Mittal divergence, computed directly from its closed form.

    D(p || q) = ((sum p^alpha q^(1-alpha))^((1-beta)/(1-alpha)) - 1)/(beta - 1).
    The equivalent (h, f) pair rides along for the geometry layer.
    """
    pair = sm_divergence_pair(alpha, beta)  # validates parameters
    a, b = float(alpha), float(beta)

    def terms(p, q):  # in place where q broadcasts into p's shape
        values, weight = pair.f(p), np.power(q, 1.0 - a)
        full = np.broadcast(values, weight).shape == values.shape
        return np.multiply(values, weight, out=values if full else None)

    def fn(p, q):
        return pair.h(_trace(terms, p, q))

    return DivergenceFunctional(fn=fn, name=f"sm({_fmt(a, b)})", pair=pair)


# --- composition -----------------------------------------------------------------


def zeta_compose_div(
    divergences: Sequence[DivergenceFunctional], composer: Composer
) -> DivergenceFunctional:
    """Compose divergences through zeta >= 0 with zeta(x) = 0 iff x = 0.

    The composer must take the m divergences given (else ArityMismatch), zeta(0)
    must vanish to DIAGONAL_TOL, and zeta must be strictly positive on
    ZETA_SAMPLES points per batch drawn with seed 0 from the orthant's
    interior and, for m >= 2, from each of its faces; violations raise
    ZetaRangeViolation.  The result records its constituents and the gradient
    of zeta at the origin, which downstream geometry uses as mixture weights.
    """
    divergences, fn, name = composer._over(divergences, "divergences")
    _spot_check_zeta(composer)
    return DivergenceFunctional(
        fn=fn, name=name, constituents=tuple(divergences), grad0=composer.grad0
    )


def _spot_check_zeta(composer: Composer) -> None:
    m = composer.arity
    origin = float(composer.fn(np.zeros(m)))
    if not abs(origin) <= DIAGONAL_TOL:  # a nan fails too
        raise ZetaRangeViolation(f"{composer.name}(0) = {origin:.3e}, must vanish")
    rng = np.random.default_rng(0)
    interior = rng.uniform(0.01, 5.0, size=(ZETA_SAMPLES, m))
    batches = [interior]
    # Points on the faces of the orthant: nonzero input, one coordinate dead.
    if m >= 2:
        for j in range(m):
            face = rng.uniform(0.01, 5.0, size=(ZETA_SAMPLES, m))
            face[:, j] = 0.0
            batches.append(face)
    for batch in batches:
        vals = np.asarray(composer.fn(batch), dtype=float)
        if not float(vals.min()) > 0.0:
            raise ZetaRangeViolation(
                f"{composer.name} is not strictly positive away from the origin"
            )
