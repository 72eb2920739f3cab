"""Generalized entropies of trace-plus-rescale form S(p) = h(sum_i f(p_i)).

A pair (h, f) fixes an entropy once it is anchored (h(f(1)) = 0, f(0) = 0)
and correctly shaped: concave f with increasing h, or convex f with
decreasing h, so that S is maximized at the uniform distribution.  The
classical families are all of this form:

    shannon            f = -t ln t,                    h = x
    renyi(alpha)       f = t^alpha,                    h = ln(x) / (1 - alpha)
    tsallis(q)         f = (t - t^q) / (q - 1),        h = x
    sharma_mittal(a,b) f = t^a,   h = (x^((1-b)/(1-a)) - 1) / (1 - b)
    kaniadakis(kappa)  f = (t^(1-kappa) - t^(1+kappa)) / (2 kappa),  h = x

Besides evaluation, this module checks the Shannon-Khinchin axioms on seeded
samples (`sk_suite`), and connects entropies to composition laws: if the raw
sums compose through some chi, sum_ij f(p_i q_j) = chi(sum f(p), sum f(q)),
then the entropy itself composes through Phi(x, y) = h(chi(h^-1 x, h^-1 y))
(`phi_from_chi`), and `composability_residual` measures how far a candidate
law is from that identity on concrete product distributions.

Each f of the built-in pairs is written once, in the f table (t ln t, t^a
and the Tsallis f, the last two with their divergence mirror); the entropy
families here and the divergence pairs all build from it.  `HFPair` takes
any other (h, f) and fills a missing h' and f', f'', f''' at 1 by central
differences.

Conventions: f(0) = 0 exactly.  Traces keep exact zeros off the slow path
that log and pow take at 0 by passing them to f as 1 and multiplying their
terms by 0 (`_trace`).  Only an exact 0 reads as 0; a nan weight makes its
row nan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    AnchorViolation,
    DomainError,
    InvalidArgument,
    InversionFailure,
    ParamOutOfRange,
    ShapeMismatch,
)
from .formal_group import BinaryLaw, Interval, additive_law, q_sum
from .probability import ProbDist

#: Do not approach the removable singularities closer than this.
PARAM_GUARD = 1e-8

#: |h(f(1))| allowed at pair construction.
ANCHOR_TOL = 1e-12

#: S(p) >= -NONNEG_TOL for valid pairs.
NONNEG_TOL = 1e-12

#: Step of the 5-point stencils that fill a pair's missing derivative data.
DERIV_STEP = 1e-4

#: Largest factor h' may change by across the construction probes.
_H_SPREAD = math.exp(4.0)

_ENTROPY_PAIRINGS = {("concave", "increasing"), ("convex", "decreasing")}
_DIVERGENCE_PAIRINGS = {("convex", "increasing"), ("concave", "decreasing")}


def zero_preserving(raw: Callable) -> Callable:
    """Extend a map on positive reals to t = 0 with value exactly 0.

    Needed for integrands like t ln t whose naive evaluation at 0 is nan.
    The wrapper accepts scalars or arrays and never calls `raw` at an exact
    0: an array with no entry <= 0 goes to `raw` whole, in one call;
    otherwise every exact 0 goes to `raw` as 1 and its value is multiplied
    by 0.  Any other entry, nan or negative included, goes to `raw` as it
    is.  `raw` always gets an array of at least one dimension.
    """

    def f(t):
        arr = np.atleast_1d(np.asarray(t, dtype=float))
        if arr.min(initial=np.inf) > 0.0:  # no 0, negative or nan
            out = np.asarray(raw(arr), dtype=float)
        else:
            out = _substituted(raw, arr)
        return float(out[0]) if np.ndim(t) == 0 else out

    f.zero_ok = True
    return f


def _substituted(f: Callable, x: np.ndarray) -> np.ndarray:
    """f(x) elementwise, with each exact 0 of x passed to f as 1 and its value multiplied by 0.

    Float arithmetic, several times cheaper than a masked gather or write;
    f(1) is finite for every anchored pair, so each such value is 0.
    """
    zero = x == 0.0
    terms = np.asarray(f(x + zero), dtype=float)
    terms *= ~zero
    return terms


#: Exponents that np.power routes to sqrt and square: t^a costs no more at
#: t = 0 than elsewhere, where log and general powers take a slow path.
_FAST_EXPONENTS = frozenset({0.5, 2.0})


def _zero_ok(f: Callable, *exponents: float) -> Callable:
    """Mark f, whose only nonlinearities are t^a at these exponents, as cheap at 0.

    `_trace` passes exact zeros straight to a marked f, which is faster
    where np.power takes no slow path at 0.
    """
    f.zero_ok = _FAST_EXPONENTS.issuperset(exponents)
    return f


def _trace(f: Callable, x, weight=None) -> np.ndarray:
    """sum_i f(x_i), or sum_i weight_i f(x_i), along the last axis.

    The one trace behind every (h, f) entropy and divergence.  f must give
    exactly 0 at 0, as every anchored pair's f does (a map like t ln t gets
    there through `zero_preserving`).  log and general powers take a slow
    path at 0, so when the first row of x holds a 0 (or any entry that is
    not positive) the zeros go to f as 1 and their values are multiplied
    by 0.  Otherwise x goes to f whole: reading one row costs a dense batch
    nothing, and zeros further down cost f what they cost before.  f marked
    `zero_ok` always gets x whole.  The values are scaled by `weight` in
    place, so f must return a new array, or x itself when x is the
    caller's own temporary.
    """
    x = np.asarray(x, dtype=float)
    first = x[(0,) * (x.ndim - 1)] if x.ndim > 1 and x.size else x
    if getattr(f, "zero_ok", False) or first.min(initial=np.inf) > 0.0:
        terms = np.asarray(f(x), dtype=float)
    else:
        terms = _substituted(f, x)
    if weight is not None:
        full = np.broadcast(terms, weight).shape == terms.shape
        terms = np.multiply(terms, weight, out=terms if full else None)
    return terms.sum(axis=-1)


@dataclass(frozen=True)
class HFPair:
    """An anchored (h, f) pair with the derivative data geometry needs.

    `f` maps [0, inf) to the reals with f(0) = 0; `h` rescales the sum and
    must carry an explicit inverse (no root-finding happens at evaluation
    time).  `h_prime` is h', and df1, d2f1, d3f1 are f', f'', f''' at t = 1.
    The built-in families give them analytically; any left out are filled
    from 5-point central stencils at step DERIV_STEP, so f must then be
    evaluable on [1 - 2 DERIV_STEP, 1 + 2 DERIV_STEP], and the stencil's
    f''' carries rounding noise of order 1e-4.  `f_prime`, when given, makes
    the entropy gradient h'(sum f(p)) f'(p) analytic downstream.
    """

    name: str
    f: Callable
    h: Callable
    h_inverse: Callable
    f_shape: str
    h_direction: str
    h_prime: Callable | None = None
    df1: float | None = None
    d2f1: float | None = None
    d3f1: float | None = None
    f_prime: Callable | None = None

    def __post_init__(self) -> None:
        if self.h_prime is None:
            object.__setattr__(self, "h_prime", _fd_first_derivative(self.h, DERIV_STEP))
        if None in (self.df1, self.d2f1, self.d3f1):
            filled = _derivs_at_one(self.f, DERIV_STEP)
            for field, value in zip(("df1", "d2f1", "d3f1"), filled):
                if getattr(self, field) is None:
                    object.__setattr__(self, field, value)
        if self.f_shape not in ("concave", "convex"):
            raise ShapeMismatch(f"f_shape must be 'concave' or 'convex', got {self.f_shape!r}")
        if self.h_direction not in ("increasing", "decreasing"):
            raise ShapeMismatch(
                f"h_direction must be 'increasing' or 'decreasing', got {self.h_direction!r}"
            )
        if float(self.f(0.0)) != 0.0:
            raise AnchorViolation(f"{self.name}: f(0) must be exactly 0")
        anchor = float(self.h(self.f1))
        if not abs(anchor) <= ANCHOR_TOL:
            raise AnchorViolation(f"{self.name}: h(f(1)) = {anchor:.3e}, must vanish")
        self._check_f_shape()
        width = self._probe_width()
        self._check_h_direction(min(1e-3, width))
        self._check_h_inverse(width)

    @property
    def f1(self) -> float:
        """f evaluated at 1 (the argument h must send to 0)."""
        return float(self.f(1.0))

    def _check_f_shape(self) -> None:
        t = np.linspace(0.1, 0.9, 9)
        d = 1e-3
        second = self.f(t + d) - 2.0 * np.asarray(self.f(t)) + self.f(t - d)
        if self.f_shape == "concave" and np.any(second > 1e-10):
            raise ShapeMismatch(f"{self.name}: f is not concave on (0, 1)")
        if self.f_shape == "convex" and np.any(second < -1e-10):
            raise ShapeMismatch(f"{self.name}: f is not convex on (0, 1)")

    def _probe_width(self) -> float:
        """Half-width around f(1), at most 0.4, on which h' stays within e^4 of h'(f(1)).

        Farther out a steep h such as x^r with |r| ~ 1/PARAM_GUARD overflows
        or underflows, and a probe there would test floating point, not h.
        """
        f1 = self.f1
        ref = abs(float(self.h_prime(f1)))
        width = 0.4
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            while width > 1e-12:
                ends = np.abs(np.asarray(self.h_prime(f1 + np.array([-width, width]))))
                if np.all(ends <= _H_SPREAD * ref) and np.all(ends * _H_SPREAD >= ref):
                    break
                width *= 0.5
        return width

    def _check_h_direction(self, d: float) -> None:
        step = float(self.h(self.f1 + d)) - float(self.h(self.f1 - d))
        if self.h_direction == "increasing" and step <= 0.0:
            raise ShapeMismatch(f"{self.name}: h is not increasing near f(1)")
        if self.h_direction == "decreasing" and step >= 0.0:
            raise ShapeMismatch(f"{self.name}: h is not decreasing near f(1)")

    def _check_h_inverse(self, width: float) -> None:
        xs = self.f1 + np.linspace(-width, width, 5)
        back = self.h_inverse(self.h(xs))
        worst = float(np.max(np.abs(back - xs)))
        if not (np.all(np.isfinite(back)) and worst <= 1e-10):
            raise InversionFailure(
                f"{self.name}: h_inverse(h(x)) deviates by {worst:.3e} near f(1)"
            )


def require_entropy_shape(pair: HFPair) -> None:
    """Entropy role: concave f with increasing h, or convex f with decreasing h."""
    if (pair.f_shape, pair.h_direction) not in _ENTROPY_PAIRINGS:
        raise ShapeMismatch(
            f"{pair.name}: ({pair.f_shape} f, {pair.h_direction} h) cannot be an entropy"
        )


def require_divergence_shape(pair: HFPair) -> None:
    """Divergence role: the mirror pairing of the entropy one."""
    if (pair.f_shape, pair.h_direction) not in _DIVERGENCE_PAIRINGS:
        raise ShapeMismatch(
            f"{pair.name}: ({pair.f_shape} f, {pair.h_direction} h) cannot be a divergence"
        )


# --- the f table ---------------------------------------------------------------
#
# Each f of a built-in pair, written once with f', f'(1), f''(1), f'''(1) and
# its shape, as HFPair keyword arguments.  `sign` -1 gives the f of the
# entropy role and +1 its mirror in the divergence role.


def _f_t_log_t(sign: float) -> dict:
    """f = sign t ln t: -1 for shannon, +1 for kl."""

    def raw(t):
        out = np.log(t)
        out *= t
        return np.negative(out, out=out) if sign < 0.0 else out

    return {
        "f": zero_preserving(raw),
        "f_prime": lambda t: sign * np.log(t) + sign,
        "df1": sign,
        "d2f1": sign,
        "d3f1": -sign,
        "f_shape": "convex" if sign > 0.0 else "concave",
    }


def _f_power(a: float) -> dict:
    """f = t^a: renyi, sharma_mittal, power and the sm divergence."""
    return {
        "f": _zero_ok(lambda t: np.power(t, a), a),
        "f_prime": lambda t: a * np.power(t, a - 1.0),
        "df1": a,
        "d2f1": a * (a - 1.0),
        "d3f1": a * (a - 1.0) * (a - 2.0),
        "f_shape": "concave" if a < 1.0 else "convex",
    }


def _f_tsallis(q: float, sign: float) -> dict:
    """f = sign (t^q - t)/(q - 1): -1 for tsallis, +1 for tsallis-relative."""

    def f(t):  # with one temporary
        out = np.power(t, q)
        out -= t
        out /= sign * (q - 1.0)
        return out

    return {
        "f": _zero_ok(f, q),
        "f_prime": lambda t: (sign * q * np.power(t, q - 1.0) - sign) / (q - 1.0),
        "df1": sign,
        "d2f1": sign * q,
        "d3f1": sign * q * (q - 2.0),
        "f_shape": "convex" if sign > 0.0 else "concave",
    }


#: ln t, 0 at t = 0, written in place over its argument: the kl integrand
#: t ln t over t, which `kl_functional` weights by p instead of q.
_log_in_place = zero_preserving(lambda t: np.log(t, out=t))


# --- built-in families ------------------------------------------------------

#: h = x with its inverse and derivative: the rescale of every trace-form pair.
_IDENTITY_H = {
    "h": lambda x: x,
    "h_inverse": lambda x: x,
    "h_prime": lambda x: np.ones_like(np.asarray(x, dtype=float)),
}


def shannon() -> HFPair:
    return HFPair(name="shannon", **_f_t_log_t(-1.0), **_IDENTITY_H, h_direction="increasing")


def renyi(alpha: float) -> HFPair:
    a = _guard_param(alpha, "alpha")

    def h(x):
        return np.log(x) / (1.0 - a)

    return HFPair(
        name=f"renyi({a:g})",
        **_f_power(a),
        h=h,
        h_inverse=lambda y: np.exp((1.0 - a) * np.asarray(y, dtype=float)),
        h_prime=lambda x: 1.0 / ((1.0 - a) * np.asarray(x, dtype=float)),
        h_direction="increasing" if a < 1.0 else "decreasing",
    )


def tsallis(q: float) -> HFPair:
    q = _guard_param(q, "q")
    return HFPair(
        name=f"tsallis({q:g})", **_f_tsallis(q, -1.0), **_IDENTITY_H, h_direction="increasing"
    )


def sharma_mittal(alpha: float, beta: float) -> HFPair:
    """The two-parameter family; beta -> 1 recovers Renyi, beta = alpha Tsallis."""
    a = _guard_param(alpha, "alpha")
    b = _guard_param(beta, "beta", positive=False)
    h, h_inverse, h_prime = _sm_rescale(a, b, sign=1.0)
    return HFPair(
        name=f"sharma-mittal({a:g},{b:g})",
        **_f_power(a),
        h=h,
        h_inverse=h_inverse,
        h_prime=h_prime,
        h_direction="increasing" if a < 1.0 else "decreasing",
    )


def kaniadakis(kappa: float) -> HFPair:
    kappa = float(kappa)
    if not (math.isfinite(kappa) and PARAM_GUARD <= abs(kappa) < 1.0):
        raise ParamOutOfRange(
            f"kappa must satisfy {PARAM_GUARD:g} <= |kappa| < 1, got {kappa}"
        )
    k = kappa

    def f(t):
        out = np.power(t, 1.0 - k)
        out -= np.power(t, 1.0 + k)
        out /= 2.0 * k
        return out

    return HFPair(
        name=f"kaniadakis({kappa:g})",
        f=f,
        **_IDENTITY_H,
        df1=-1.0,
        d2f1=-1.0,
        d3f1=1.0 - k * k,
        f_shape="concave",
        h_direction="increasing",
        f_prime=lambda t: ((1.0 - k) * np.power(t, -k) - (1.0 + k) * np.power(t, k)) / (2.0 * k),
    )


def _guard_param(value: float, label: str, positive: bool = True) -> float:
    """Family parameter check: finite, positive if asked, at least PARAM_GUARD from 1."""
    value = float(value)
    if not math.isfinite(value):
        raise ParamOutOfRange(f"{label} must be finite, got {value}")
    if positive and value <= 0.0:
        raise ParamOutOfRange(f"{label} must be positive, got {value}")
    if abs(value - 1.0) < PARAM_GUARD:
        raise ParamOutOfRange(
            f"|{label} - 1| must be at least {PARAM_GUARD:g}; "
            f"got {label} = {value} (use the limiting family instead)"
        )
    return value


def _sm_rescale(alpha: float, beta: float, sign: float) -> tuple[Callable, Callable, Callable]:
    """h, h^-1, h' of h(x) = (x^r - 1) / (sign (1 - beta)), r = (1 - beta)/(1 - alpha).

    sign 1 gives the entropy pair, -1 the divergence pair; negating 1 - beta is exact.
    """
    r = (1.0 - beta) / (1.0 - alpha)
    cb = sign * (1.0 - beta)
    ca = sign * (1.0 - alpha)

    def h(x):
        # x^r written as expm1(r ln x) to stay exact through r -> 0 and r = 1.
        return np.expm1(r * np.log(x)) / cb

    def h_inverse(y):
        # 1 + cb y <= 0 yields nan, which callers turn into DomainError
        with np.errstate(invalid="ignore"):
            return np.exp(np.log1p(cb * np.asarray(y, dtype=float)) / r)

    def h_prime(x):
        return np.exp((r - 1.0) * np.log(x)) / ca

    return h, h_inverse, h_prime


#: Family name -> (pair builder, builder of its natural composition law).
_BUILTINS: dict[str, tuple[Callable[..., HFPair], Callable[..., BinaryLaw | None]]] = {
    "shannon": (shannon, lambda: additive_law()),
    "renyi": (renyi, lambda alpha: additive_law()),
    "tsallis": (tsallis, lambda q: q_sum(q)),
    "sharma_mittal": (sharma_mittal, lambda alpha, beta: q_sum(beta)),
    "kaniadakis": (kaniadakis, lambda kappa: None),  # provably not strictly composable
}


def _builtin(family: str, params: dict) -> tuple[HFPair, Callable[..., BinaryLaw | None]]:
    entry = _BUILTINS.get(family.strip().lower().replace("-", "_"))
    if entry is None:
        raise ParamOutOfRange(
            f"unknown family {family!r}; expected one of {sorted(_BUILTINS)}"
        )
    try:
        return entry[0](**params), entry[1]
    except TypeError as exc:
        raise ParamOutOfRange(f"bad parameters for {family!r}: {exc}") from exc


def make_builtin(family: str, **params: float) -> HFPair:
    """Construct a built-in pair by family name.

    Accepts 'sharma-mittal' as an alias for 'sharma_mittal'.  Unknown names
    and invalid parameters raise ParamOutOfRange.
    """
    return _builtin(family, params)[0]


def _derivs_at_one(f: Callable, s: float) -> tuple[float, float, float]:
    v = [float(f(1.0 + k * s)) for k in (-2, -1, 0, 1, 2)]
    first = (v[0] - 8.0 * v[1] + 8.0 * v[3] - v[4]) / (12.0 * s)
    second = (-v[0] + 16.0 * v[1] - 30.0 * v[2] + 16.0 * v[3] - v[4]) / (12.0 * s * s)
    third = (-v[0] + 2.0 * v[1] - 2.0 * v[3] + v[4]) / (2.0 * s**3)
    return first, second, third


def _fd_first_derivative(g: Callable, s: float) -> Callable:
    def prime(x):
        x = np.asarray(x, dtype=float)
        step = s * np.maximum(1.0, np.abs(x))
        return (
            np.asarray(g(x - 2 * step))
            - 8.0 * np.asarray(g(x - step))
            + 8.0 * np.asarray(g(x + step))
            - np.asarray(g(x + 2 * step))
        ) / (12.0 * step)

    return prime


# --- evaluation ---------------------------------------------------------------


@dataclass(frozen=True)
class EntropyFunctional:
    """A callable entropy S with an optional composition law attached.

    `fn` maps a weights array (outcomes along the last axis) to values, so
    the same object evaluates a single distribution or a stacked batch.
    `gradient`, when present, maps weights to dS/dp_i (same shape); it is
    only attached where it is analytic.
    """

    fn: Callable
    name: str
    law: BinaryLaw | None = None
    gradient: Callable | None = None

    def eval(self, p: ProbDist) -> float:
        value = float(self.fn(p.weights))
        if not math.isfinite(value):
            raise DomainError(f"{self.name} is not finite at the given distribution")
        return value

    def __call__(self, p: ProbDist) -> float:
        return self.eval(p)

    def eval_batch(self, weights) -> np.ndarray:
        """Evaluate on an (..., W) array of weight rows."""
        return np.asarray(self.fn(np.asarray(weights, dtype=float)), dtype=float)


def hf_sum(pair: HFPair, weights) -> np.ndarray:
    """The raw trace sum_i f(p_i) along the last axis.

    An exact zero weight contributes exactly f(0) = 0 (see `_trace` for how
    it is kept off the slow path of log and pow); a nan weight makes its
    row nan.
    """
    return _trace(pair.f, weights)


def eval_entropy(pair: HFPair, p: ProbDist) -> float:
    """S(p) = h(sum_i f(p_i)) for an entropy-shaped pair."""
    return entropy_functional(pair).eval(p)


def entropy_functional(
    pair: HFPair, law: BinaryLaw | None = None, name: str | None = None
) -> EntropyFunctional:
    """Wrap an entropy-shaped pair as a batch-evaluable functional."""
    require_entropy_shape(pair)

    def fn(weights):
        return pair.h(hf_sum(pair, weights))

    gradient = None
    if pair.f_prime is not None:
        f_prime = pair.f_prime

        def gradient(weights):  # noqa: F811 - deliberate rebind
            weights = np.asarray(weights, dtype=float)
            outer = np.asarray(pair.h_prime(hf_sum(pair, weights)), dtype=float)
            with np.errstate(divide="ignore"):  # an exact 0 weight gets h' f'(0+)
                return outer[..., None] * np.asarray(f_prime(weights))

    return EntropyFunctional(fn=fn, name=name or pair.name, law=law, gradient=gradient)


def builtin_functional(family: str, **params: float) -> EntropyFunctional:
    """A built-in entropy with its natural composition law attached (if any)."""
    pair, natural_law = _builtin(family, params)
    return entropy_functional(pair, law=natural_law(**params))


# --- Shannon-Khinchin suite ---------------------------------------------------


@dataclass(frozen=True)
class SKReport:
    """Residuals of the Shannon-Khinchin checks over seeded samples."""

    entropy: str
    w_max: int
    samples: int
    tol: float
    maximality_violation: float
    expansibility_residual: float
    min_value: float
    strict_checked: bool
    strict_ok: bool

    @property
    def maximality_ok(self) -> bool:
        return self.maximality_violation <= self.tol

    @property
    def expansibility_ok(self) -> bool:
        return self.expansibility_residual <= self.tol

    @property
    def nonneg_ok(self) -> bool:
        return self.min_value >= -NONNEG_TOL

    @property
    def passed(self) -> bool:
        ok = self.maximality_ok and self.expansibility_ok and self.nonneg_ok
        return ok and (self.strict_ok or not self.strict_checked)

    def as_dict(self) -> dict:
        return {
            "entropy": self.entropy,
            "w_max": self.w_max,
            "samples": self.samples,
            "tol": self.tol,
            "maximality_violation": self.maximality_violation,
            "expansibility_residual": self.expansibility_residual,
            "min_value": self.min_value,
            "maximality_ok": self.maximality_ok,
            "expansibility_ok": self.expansibility_ok,
            "nonneg_ok": self.nonneg_ok,
            "strict_checked": self.strict_checked,
            "strict_ok": self.strict_ok,
            "passed": self.passed,
        }


def sk_suite(
    entropy: EntropyFunctional | HFPair,
    w_max: int = 6,
    samples: int = 1000,
    seed: int = 0,
    tol: float = 1e-10,
    strict: bool = True,
) -> SKReport:
    """Check maximality at uniform, expansibility, and non-negativity.

    For each W in 2..w_max the batch holds `samples` flat-Dirichlet draws plus
    every certainty corner; the uniform distribution is the reference.  With
    `strict=True` the maximum must be attained only at uniform among the
    sampled non-uniform rows (the strictly-shaped case).
    """
    if isinstance(entropy, HFPair):
        entropy = entropy_functional(entropy)
    if w_max < 2:
        raise InvalidArgument("w_max must be at least 2")
    rng = np.random.default_rng(seed)

    maximality = -math.inf
    expansibility = 0.0
    min_value = math.inf
    strict_ok = True
    for w in range(2, w_max + 1):
        batch = np.vstack([rng.dirichlet(np.ones(w), size=samples), np.eye(w)])
        u = np.full(w, 1.0 / w)
        vals = entropy.eval_batch(batch)
        u_val = float(entropy.eval_batch(u))
        maximality = max(maximality, float(vals.max()) - u_val)
        strict_ok = strict_ok and bool(np.all(vals < u_val))

        everything = np.vstack([batch, u[None, :]])
        padded = np.hstack([everything, np.zeros((everything.shape[0], 1))])
        gap = np.abs(entropy.eval_batch(padded) - entropy.eval_batch(everything))
        expansibility = max(expansibility, float(gap.max()))
        min_value = min(min_value, float(vals.min()), u_val)

    return SKReport(
        entropy=entropy.name,
        w_max=w_max,
        samples=samples,
        tol=tol,
        maximality_violation=maximality,
        expansibility_residual=expansibility,
        min_value=min_value,
        strict_checked=strict,
        strict_ok=strict_ok if strict else True,
    )


# --- composability ------------------------------------------------------------


def product_chi() -> BinaryLaw:
    """chi(x, y) = x y, the law of the pure power traces f = t^alpha."""
    return BinaryLaw(
        fn=lambda x, y: np.multiply(x, y), domain=Interval(0.0, math.inf), name="product"
    )


def phi_from_chi(pair: HFPair, chi: BinaryLaw, domain: Interval | None = None) -> BinaryLaw:
    """The entropy-level law induced by a trace-level one.

    chi composes the raw trace sums over products, sum f(pq) = chi(sum f(p),
    sum f(q)): `product_chi` for the power traces, `q_sum(q)` itself for the
    Tsallis ones.  Then Phi(x, y) = h(chi(h^-1(x), h^-1(y))).  If chi is
    commutative, associative, and has f(1) as neutral element, Phi inherits
    all three axioms with 0 as neutral element, because h(f(1)) = 0.  The
    default domain is [0, inf), where entropy values live; evaluations that
    fall where h or h^-1 are undefined raise DomainError.
    """
    if domain is None:
        domain = Interval(0.0, math.inf)

    def fn(x, y):
        u = pair.h_inverse(np.asarray(x, dtype=float))
        v = pair.h_inverse(np.asarray(y, dtype=float))
        out = np.asarray(pair.h(chi(u, v)))
        if not np.all(np.isfinite(out)):
            raise DomainError(
                f"induced law for {pair.name} left the domain of h or h_inverse"
            )
        return out if out.ndim else float(out)

    return BinaryLaw(fn=fn, domain=domain, name=f"induced[{pair.name};{chi.name}]")


def product_residuals(fn: Callable, law: BinaryLaw, p, q) -> np.ndarray:
    """|S(p (x) q) - Phi(S(p), S(q))| row by row for (n, W1) and (n, W2) weights.

    `fn` is a batch entropy map such as `EntropyFunctional.fn`; each joint
    row is the row-major flattening of the outer product of p and q rows.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    joint = np.asarray(fn(np.einsum("ni,nj->nij", p, q).reshape(p.shape[0], -1)))
    split = law(np.asarray(fn(p)), np.asarray(fn(q)))
    return np.abs(joint - split)


def composability_residual(pair: HFPair, law: BinaryLaw, p: ProbDist, q: ProbDist) -> float:
    """|S(p (x) q) - Phi(S(p), S(q))| for one concrete product distribution."""
    functional = entropy_functional(pair)
    return float(product_residuals(functional.fn, law, p.weights[None], q.weights[None])[0])
