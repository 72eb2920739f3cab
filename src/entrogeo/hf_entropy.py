"""Generalized entropies of trace-plus-rescale form S(p) = h(sum_i f(p_i)).

A pair (h, f) fixes an entropy once it is anchored (h(f(1)) = 0, f(0) = 0)
and correctly shaped: c = h'(f(1)) f''(1) < 0 (concave f with increasing h,
or convex f with decreasing h), so that S is maximized at the uniform
distribution; c > 0 makes a divergence.  The classical families are all of
this form:

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

Each f of the built-in pairs is written once, in the f table (t ln t, t^a, the
Tsallis and the Kaniadakis f, the first and third with their divergence mirror);
the entropy families here and the divergence pairs all build from it.  `HFPair`
takes any other (h, f) with its exact derivative data: h', and f'', f''' at 1.

Conventions: f(0) = 0 exactly, and each f keeps that rule itself: every
trace calls f as given.  The built-in fs keep exact zeros off the slow path
that log and pow take at 0 by passing them as 1 and multiplying their values
by 0 (`zero_preserving`), except t^0.5 and t^2, which are as fast at 0.
Only an exact 0 reads as 0; a nan weight makes its row nan.  The trace
kernel (`_trace`) sums a large batch in row blocks, one thread per CPU; h
and everything after it see the whole batch's sums.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    AnchorViolation,
    DomainError,
    InvalidArgument,
    InversionFailure,
    ParamOutOfRange,
    ShapeMismatch,
)
from .formal_group import _BLOCK, BinaryLaw, Interval, _fmt, _split, q_sum
from .probability import ProbDist

#: Do not approach the removable singularities closer than this.
PARAM_GUARD = 1e-8

#: |h(f(1))| allowed at pair construction.
ANCHOR_TOL = 1e-12

#: S(p) >= -NONNEG_TOL for valid pairs.
NONNEG_TOL = 1e-12

#: Largest maximality violation and expansibility residual `sk_suite` passes.
SK_TOL = 1e-10

#: Largest factor h' may change by across the construction probes.
_H_SPREAD = math.exp(4.0)

#: Role -> (its name in errors, the sign of c = h'(f(1)) f''(1) that fills it).
_ROLES = {"entropy": ("an entropy", -1.0), "divergence": ("a divergence", 1.0)}


def zero_preserving(raw: Callable, *, _first_row: bool = False) -> Callable:
    """Extend a map on positive reals to t = 0 with value exactly 0.

    Needed for integrands like t ln t whose naive evaluation at 0 is nan.
    The wrapper accepts scalars or arrays and never calls `raw` at an exact
    0: an array with no entry <= 0 goes to `raw` whole, in one call;
    otherwise every exact 0 goes to `raw` as 1 and its value is multiplied
    by 0.  Any other entry, nan or negative included, goes to `raw` as it
    is.  `raw` always gets an array of at least one dimension.  `_first_row`
    searches the first row of a batch only, for a `raw` merely slow at 0.
    """

    def f(t):
        x = np.asarray(t, dtype=float)
        if x.ndim == 0:
            return float(f(x[None])[0])
        probe = x[(0,) * (x.ndim - 1)] if _first_row and x.ndim > 1 and x.size else x
        if probe.min(initial=np.inf) > 0.0:  # no 0, negative or nan
            return np.asarray(raw(x), dtype=float)
        zero = x == 0.0
        out = np.asarray(raw(x + zero), dtype=float)
        out *= ~zero
        return out

    return f


#: Exponents that np.power routes to sqrt and square: t^a costs no more at
#: t = 0 than elsewhere, where log and general powers take a slow path.
_FAST_EXPONENTS = frozenset({0.5, 2.0})


def _power_sum(f: Callable, exponents: tuple, coefficients: tuple, linear: float = 0.0):
    """f(t) = sum_k c_k t^a_k + linear t, kept off the slow path at 0 and tagged with its terms.

    f is returned bare when np.power takes no slow path at any a_k;
    otherwise the zeros of a batch whose first row holds one go to f as 1
    (`zero_preserving` on the first row).  Either way f(0) = 0 exactly.  The
    terms go to `f.power_terms`, from which `entropy_functional` builds the
    `_PowerTraces` record that `maximize` solves by its dual.
    """
    if not _FAST_EXPONENTS.issuperset(exponents):
        f = zero_preserving(f, _first_row=True)
    f.power_terms = (exponents, coefficients, linear)
    return f


def _trace(terms: Callable, *arrays) -> np.ndarray:
    """terms(*arrays) summed along the last axis: the one trace behind every (h, f) value.

    Once an array argument of two or more axes holds more than _BLOCK
    elements, each argument with the broadcast shape's ndim and leading extent
    is cut along axis 0 into blocks of about _BLOCK elements, so that a block's
    temporaries stay in L2; the others (q of shape (W,), points parked as
    (k, 1, W)) pass whole.  Each block's row sums go into one output,
    bit-identical to one sum; blocks run on one thread per CPU (`_split`).
    """
    for a in arrays:
        if getattr(a, "size", 0) > _BLOCK and a.ndim > 1:
            break
    else:  # no batch above one block: one call, at the cost of a size read per argument
        return terms(*arrays).sum(axis=-1)
    arrays = [np.asarray(a, dtype=float) for a in arrays]
    shape = np.broadcast_shapes(*(a.shape for a in arrays))
    step = max(1, _BLOCK // max(1, math.prod(shape[1:])))
    cut = [a.ndim == len(shape) and a.shape[0] == shape[0] for a in arrays]
    out = np.empty(shape[:-1])

    def block(lo):
        part = (a[lo : lo + step] if c else a for a, c in zip(arrays, cut))
        terms(*part).sum(axis=-1, out=out[lo : lo + step])
    _split(block, range(0, shape[0], step))
    return out


@dataclass(frozen=True)
class HFPair:
    """An anchored (h, f) pair with the derivative data geometry needs.

    `f` maps [0, inf) to the reals with f(0) = 0 exactly.  Every trace
    calls it as given on whole arrays, zeros included, and a divergence
    scales its values in place, so f returns a new float array (or its
    argument, which is then the trace's own temporary); `h` rescales the sum and
    must carry an explicit inverse (no root-finding happens at evaluation
    time).  `h_prime` is h', `f_prime` is f', and d2f1, d3f1 are f'', f''' at
    t = 1, the only derivatives of f at 1 the geometry reads (f'(1) enters no
    tensor).  All four are required and used as given: the geometry reads
    them as exact, and the entropy gradient h'(sum f(p)) f'(p) is analytic.
    `c` = h'(f(1)) f''(1), set at construction, must not vanish: its sign is
    the role (`require_shape`), its size the metric scale, and the sampled f
    and h must agree with the signs of f''(1) and h'(f(1)).  Row blocks of a
    batch may reach f concurrently, so f must keep no state between calls.
    """

    name: str
    f: Callable
    h: Callable
    h_inverse: Callable
    h_prime: Callable
    d2f1: float
    d3f1: float
    f_prime: Callable
    c: float = field(init=False)

    def __post_init__(self) -> None:
        # A probe that over- or underflows shows only as the check it fails.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            object.__setattr__(self, "c", float(self.h_prime(self.f1)) * self.d2f1)
            if not abs(self.c) > 0.0:  # 0 or nan
                raise ShapeMismatch(
                    f"{self.name}: c = h'(f(1)) f''(1) = {self.c:.3e}, must not vanish"
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

    @property
    def f_shape(self) -> str:
        return "convex" if self.d2f1 > 0.0 else "concave"

    @property
    def h_direction(self) -> str:  # the sign of h'(f(1)) = c / f''(1)
        return "increasing" if self.c / self.d2f1 > 0.0 else "decreasing"

    def _check_f_shape(self) -> None:
        t = np.linspace(0.1, 0.9, 9)
        d = 1e-3
        second = self.f(t + d) - 2.0 * np.asarray(self.f(t)) + self.f(t - d)
        if np.any(math.copysign(1.0, self.d2f1) * second < -1e-10):
            raise ShapeMismatch(f"{self.name}: f is not {self.f_shape} on (0, 1)")

    def _probe_width(self) -> float:
        """Half-width around f(1), at most 0.4, on which h' stays within e^4 of h'(f(1)).

        Farther out a steep h such as x^r with |r| ~ 1/PARAM_GUARD overflows
        or underflows, and a probe there would test floating point, not h.
        """
        f1 = self.f1
        ref = abs(float(self.h_prime(f1)))
        width = 0.4
        while width > 1e-12:
            ends = np.abs(np.asarray(self.h_prime(f1 + np.array([-width, width]))))
            if np.all(ends <= _H_SPREAD * ref) and np.all(ends * _H_SPREAD >= ref):
                break
            width *= 0.5
        return width

    def _check_h_direction(self, d: float) -> None:
        step = float(self.h(self.f1 + d)) - float(self.h(self.f1 - d))
        if math.copysign(1.0, self.c / self.d2f1) * step <= 0.0:
            raise ShapeMismatch(f"{self.name}: h is not {self.h_direction} near f(1)")

    def _check_h_inverse(self, width: float) -> None:
        xs = self.f1 + np.linspace(-width, width, 5)
        back = self.h_inverse(self.h(xs))
        worst = float(np.max(np.abs(back - xs)))
        if not (np.all(np.isfinite(back)) and worst <= 1e-10):
            raise InversionFailure(
                f"{self.name}: h_inverse(h(x)) deviates by {worst:.3e} near f(1)"
            )


def require_shape(pair: HFPair, role: str) -> None:
    """Raise ShapeMismatch unless the sign of `pair.c` fills `role`.

    'entropy': c < 0 (concave f with increasing h, or convex f with
    decreasing h); 'divergence': c > 0 (the mirror pairings).
    """
    if role not in _ROLES:
        raise InvalidArgument(f"role must be one of {sorted(_ROLES)}, got {role!r}")
    article, sign = _ROLES[role]
    if not sign * pair.c > 0.0:
        raise ShapeMismatch(
            f"{pair.name}: ({pair.f_shape} f, {pair.h_direction} h) cannot be {article}"
        )


# --- the f table ---------------------------------------------------------------
#
# Each f of a built-in pair, written once with f', f''(1) and f'''(1) as HFPair
# keyword arguments; `sign` -1 gives the entropy f and +1 its divergence mirror.


def _f_t_log_t(sign: float) -> dict:
    """f = sign t ln t: -1 for shannon, +1 for kl."""

    def raw(t):
        out = np.log(t)
        out *= t
        return np.negative(out, out=out) if sign < 0.0 else out

    return {
        "f": zero_preserving(raw),
        "f_prime": lambda t: sign * np.log(t) + sign,
        "d2f1": sign,
        "d3f1": -sign,
    }


def _f_power(a: float) -> dict:
    """f = t^a: renyi, sharma_mittal, power and the sm divergence."""
    return {
        "f": _power_sum(lambda t: np.power(t, a), (a,), (1.0,)),
        "f_prime": lambda t: a * np.power(t, a - 1.0),
        "d2f1": a * (a - 1.0),
        "d3f1": a * (a - 1.0) * (a - 2.0),
    }


def _f_tsallis(q: float, sign: float) -> dict:
    """f = sign (t^q - t)/(q - 1): -1 for tsallis, +1 for tsallis-relative."""

    def f(t):  # with one temporary
        out = np.power(t, q)
        out -= t
        out /= sign * (q - 1.0)
        return out

    return {
        "f": _power_sum(f, (q,), (sign / (q - 1.0),), -sign / (q - 1.0)),
        "f_prime": lambda t: (sign * q * np.power(t, q - 1.0) - sign) / (q - 1.0),
        "d2f1": sign * q,
        "d3f1": sign * q * (q - 2.0),
    }


def _f_kaniadakis(k: float) -> dict:
    """f = (t^(1-k) - t^(1+k)) / (2 k): kaniadakis."""

    def f(t):
        out = np.power(t, 1.0 - k)
        out -= np.power(t, 1.0 + k)
        out /= 2.0 * k
        return out

    return {
        "f": _power_sum(f, (1.0 - k, 1.0 + k), (0.5 / k, -0.5 / k)),
        "f_prime": lambda t: ((1.0 - k) * np.power(t, -k) - (1.0 + k) * np.power(t, k)) / (2.0 * k),
        "d2f1": -1.0,
        "d3f1": 1.0 - k * k,
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
    return HFPair(name="shannon", **_f_t_log_t(-1.0), **_IDENTITY_H)


def renyi(alpha: float) -> HFPair:
    a = _guard_param(alpha, "alpha")

    def h(x):
        return np.log(x) / (1.0 - a)

    return HFPair(
        name=f"renyi({_fmt(a)})",
        **_f_power(a),
        h=h,
        h_inverse=lambda y: np.exp((1.0 - a) * np.asarray(y, dtype=float)),
        h_prime=lambda x: 1.0 / ((1.0 - a) * np.asarray(x, dtype=float)),
    )


def tsallis(q: float) -> HFPair:
    q = _guard_param(q, "q")
    return HFPair(name=f"tsallis({_fmt(q)})", **_f_tsallis(q, -1.0), **_IDENTITY_H)


def sharma_mittal(alpha: float, beta: float) -> HFPair:
    """The two-parameter family; beta -> 1 recovers Renyi, beta = alpha Tsallis."""
    a = _guard_param(alpha, "alpha")
    b = _guard_param(beta, "beta", positive=False)
    return HFPair(name=f"sharma-mittal({_fmt(a, b)})", **_f_power(a), **_sm_rescale(a, b, 1.0))


def kaniadakis(kappa: float) -> HFPair:
    k = float(kappa)
    if not (math.isfinite(k) and PARAM_GUARD <= abs(k) < 1.0):
        raise ParamOutOfRange(
            f"kappa must satisfy {PARAM_GUARD:g} <= |kappa| < 1, got {k}"
        )
    return HFPair(name=f"kaniadakis({_fmt(k)})", **_f_kaniadakis(k), **_IDENTITY_H)


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


def _sm_rescale(alpha: float, beta: float, sign: float) -> dict:
    """h, h^-1 and h' of h(x) = (x^r - 1) / (sign (1 - beta)), as HFPair arguments.

    r = (1 - beta)/(1 - alpha).  sign 1 gives the entropy pair, -1 the divergence pair;
    negating 1 - beta is exact.  h' has the sign of sign (1 - alpha).
    """
    r = (1.0 - beta) / (1.0 - alpha)
    cb = sign * (1.0 - beta)
    ca = sign * (1.0 - alpha)

    def h(x):
        # x^r written as expm1(r ln x) to stay exact through r -> 0 and r = 1.  A trace is
        # never 0, so an x of 0 (every term underflowed) has no value: nan, not -1 / cb.
        return np.expm1(r * np.log(np.where(x == 0.0, np.nan, x))) / cb

    def h_inverse(y):
        # 1 + cb y <= 0 yields nan, which callers turn into DomainError
        with np.errstate(invalid="ignore"):
            return np.exp(np.log1p(cb * np.asarray(y, dtype=float)) / r)

    def h_prime(x):
        return np.exp((r - 1.0) * np.log(x)) / ca

    return {"h": h, "h_inverse": h_inverse, "h_prime": h_prime}


#: Family name -> (pair builder, builder of its natural composition law).
_BUILTINS: dict[str, tuple[Callable[..., HFPair], Callable[..., BinaryLaw | None]]] = {
    "shannon": (shannon, lambda: q_sum(1.0)),
    "renyi": (renyi, lambda alpha: q_sum(1.0)),
    "tsallis": (tsallis, lambda q: q_sum(q)),
    "sharma_mittal": (sharma_mittal, lambda alpha, beta: q_sum(beta)),
    "kaniadakis": (kaniadakis, lambda kappa: None),  # provably not strictly composable
}


# --- evaluation ---------------------------------------------------------------


@dataclass(frozen=True)
class _PowerTraces:
    """The structure S = F(s_1, ..., s_m) of an entropy of power traces s_k = sum_i p_i^a_k.

    `exponents` holds the a_k.  `outer` maps traces stacked along a first
    axis, so that each s_k stays contiguous, to F; `outer_gradient` maps them
    to dF/ds_k, stacked the same way.  Each t^a and its f' come from the f
    table.  `maximize` solves an entropy that carries this record by its dual.
    """

    exponents: tuple[float, ...]
    outer: Callable
    outer_gradient: Callable
    powers: tuple[dict, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "powers", tuple(_f_power(a) for a in self.exponents))

    def sums(self, weights) -> np.ndarray:
        """s_k along a new first axis."""
        return np.stack([_trace(power["f"], weights) for power in self.powers])

    def value(self, weights) -> np.ndarray:
        """S = F(s_1, ..., s_m)."""
        return self.outer(self.sums(weights))

    def gradient(self, weights) -> np.ndarray:
        """The chain rule dS/dp_i = sum_k dF/ds_k a_k p_i^(a_k - 1)."""
        weights = np.asarray(weights, dtype=float)
        outer = zip(self.outer_gradient(self.sums(weights)), self.powers)
        with np.errstate(divide="ignore"):  # an exact 0 weight gets the one-sided limit
            return sum(g[..., None] * power["f_prime"](weights) for g, power in outer)


@dataclass(frozen=True)
class EntropyFunctional:
    """An entropy S with an optional composition law attached.

    `fn` maps a weights array (outcomes along the last axis) to values, so the
    same object evaluates a single distribution or a stacked batch; it is used
    as given.  `gradient`, when present, maps weights to dS/dp_i (same shape);
    only an analytic one is attached, and every (h, f) pair's entropy and
    every power-trace composite has one.  `traces`, when present, records S as
    F(s_1, ..., s_m) of power traces (`_PowerTraces`): `entropy_functional` sets it
    for an f that is a sum of powers, and sm-pair and sm-tsallis set their own.
    """

    fn: Callable
    name: str
    law: BinaryLaw | None = None
    gradient: Callable | None = None
    traces: _PowerTraces | None = None

    def eval(self, p: ProbDist) -> float:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            value = float(self.fn(p.weights))  # a non-finite value raises below
        if not math.isfinite(value):
            raise DomainError(f"{self.name} is not finite at the given distribution")
        return value

    def eval_batch(self, weights) -> np.ndarray:
        """Evaluate on an (..., W) array of weight rows."""
        return np.asarray(self.fn(np.asarray(weights, dtype=float)), dtype=float)


def hf_sum(pair: HFPair, weights) -> np.ndarray:
    """The raw trace sum_i f(p_i) along the last axis.

    f gets the weights as given, so an exact zero weight contributes
    exactly f(0) = 0, kept off the slow path of log and pow by each
    built-in f itself; a nan weight makes its row nan.
    """
    return _trace(pair.f, weights)


def entropy_functional(pair: HFPair, law: BinaryLaw | None = None) -> EntropyFunctional:
    """Wrap an entropy-shaped pair as a batch-evaluable functional."""
    require_shape(pair, "entropy")

    def fn(weights):
        return pair.h(hf_sum(pair, weights))

    def gradient(weights):
        weights = np.asarray(weights, dtype=float)
        outer = np.asarray(pair.h_prime(hf_sum(pair, weights)), dtype=float)
        with np.errstate(divide="ignore"):  # an exact 0 weight gets h' f'(0+)
            return outer[..., None] * np.asarray(pair.f_prime(weights))

    traces = None
    if hasattr(pair.f, "power_terms"):  # S = h(linear + sum_k c_k s_k) where sum_i p_i = 1
        exponents, coefficients, linear = pair.f.power_terms
        c = np.array(coefficients)

        def inner(s):
            return linear + np.tensordot(c, s, axes=1)

        def outer_gradient(s):  # dF/ds_k = h'(inner) c_k
            return np.multiply.outer(c, pair.h_prime(inner(s)))

        traces = _PowerTraces(exponents, lambda s: pair.h(inner(s)), outer_gradient)
    return EntropyFunctional(fn=fn, name=pair.name, law=law, gradient=gradient, traces=traces)


def builtin_functional(family: str, **params: float) -> EntropyFunctional:
    """A built-in entropy with its natural composition law attached (if any).

    Accepts 'sharma-mittal' as an alias for 'sharma_mittal'.  Unknown names
    and invalid parameters raise ParamOutOfRange.
    """
    entry = _BUILTINS.get(family.strip().lower().replace("-", "_"))
    if entry is None:
        raise ParamOutOfRange(
            f"unknown family {family!r}; expected one of {sorted(_BUILTINS)}"
        )
    build_pair, natural_law = entry
    try:
        pair = build_pair(**params)
    except TypeError as exc:
        raise ParamOutOfRange(f"bad parameters for {family!r}: {exc}") from exc
    return entropy_functional(pair, law=natural_law(**params))


# --- Shannon-Khinchin suite ---------------------------------------------------


@dataclass(frozen=True)
class SKReport:
    """Residuals and verdicts of the Shannon-Khinchin checks over seeded samples.

    The fields are in output order.  `strict_ok` is True when the strict
    check was not asked for, so `passed` is the conjunction of the four oks.
    """

    entropy: str
    w_max: int
    samples: int
    tol: float
    maximality_violation: float
    expansibility_residual: float
    min_value: float
    maximality_ok: bool
    expansibility_ok: bool
    nonneg_ok: bool
    strict_checked: bool
    strict_ok: bool
    passed: bool

    def as_dict(self) -> dict:
        return asdict(self)


def _nan_or(pick: Callable, *values: float) -> float:
    """pick(values), Python's max or min (the first of 0.0 and -0.0), or nan if any is nan."""
    return math.nan if any(map(math.isnan, values)) else pick(values)


def sk_suite(
    entropy: EntropyFunctional,
    w_max: int = 6,
    samples: int = 1000,
    seed: int = 0,
    strict: bool = True,
) -> SKReport:
    """Check maximality at uniform, expansibility, and non-negativity.

    `entropy` is a functional; wrap a bare pair with `entropy_functional`.
    For each W in 2..w_max the batch holds `samples` flat-Dirichlet draws plus
    every certainty corner; the uniform distribution is the reference.  The
    maximality violation and the expansibility residual pass within SK_TOL.
    With `strict=True` the maximum must be attained only at uniform among the
    sampled non-uniform rows (the strictly-shaped case).
    """
    if w_max < 2:
        raise InvalidArgument("w_max must be at least 2")
    if samples < 1:
        raise InvalidArgument("need at least one sample")
    rng = np.random.default_rng(seed)

    maximality = -math.inf
    expansibility = 0.0
    min_value = math.inf
    strict_ok = True
    for w in range(2, w_max + 1):
        rows = [rng.dirichlet(np.ones(w), size=samples), np.eye(w), np.full((1, w), 1.0 / w)]
        everything = np.vstack(rows)
        padded = np.hstack([everything, np.zeros((everything.shape[0], 1))])
        vals = entropy.eval_batch(everything)
        gap = np.abs(entropy.eval_batch(padded) - vals)
        vals, u_val = vals[:-1], float(vals[-1])  # the uniform row is the reference
        maximality = _nan_or(max, maximality, float(vals.max()) - u_val)
        strict_ok = strict_ok and bool(np.all(vals < u_val))
        expansibility = _nan_or(max, expansibility, float(gap.max()))
        min_value = _nan_or(min, min_value, float(vals.min()), u_val)

    maximality_ok = maximality <= SK_TOL
    expansibility_ok = expansibility <= SK_TOL
    nonneg_ok = min_value >= -NONNEG_TOL
    strict_ok = strict_ok if strict else True
    return SKReport(
        entropy=entropy.name,
        w_max=w_max,
        samples=samples,
        tol=SK_TOL,
        maximality_violation=maximality,
        expansibility_residual=expansibility,
        min_value=min_value,
        maximality_ok=maximality_ok,
        expansibility_ok=expansibility_ok,
        nonneg_ok=nonneg_ok,
        strict_checked=strict,
        strict_ok=strict_ok,
        passed=maximality_ok and expansibility_ok and nonneg_ok and strict_ok,
    )


# --- composability ------------------------------------------------------------


def product_chi() -> BinaryLaw:
    """chi(x, y) = x y, the law of the pure power traces f = t^alpha."""
    return BinaryLaw(
        fn=lambda x, y: np.multiply(x, y), domain=Interval(0.0, math.inf), name="product"
    )


def phi_from_chi(pair: HFPair, chi: BinaryLaw) -> BinaryLaw:
    """The entropy-level law induced by a trace-level one.

    chi composes the raw trace sums over products, sum f(pq) = chi(sum f(p),
    sum f(q)): `product_chi` for the power traces, `q_sum(q)` itself for the
    Tsallis ones.  Then Phi(x, y) = h(chi(h^-1(x), h^-1(y))).  If chi is
    commutative, associative, and has f(1) as neutral element, Phi inherits
    all three axioms with 0 as neutral element, because h(f(1)) = 0.  The
    law's domain is [0, inf), where entropy values live; evaluations that
    fall where h or h^-1 are undefined raise DomainError.
    """

    def fn(x, y):
        u = pair.h_inverse(np.asarray(x, dtype=float))
        v = pair.h_inverse(np.asarray(y, dtype=float))
        out = np.asarray(pair.h(chi(u, v)))
        if not np.all(np.isfinite(out)):
            raise DomainError(
                f"induced law for {pair.name} left the domain of h or h_inverse"
            )
        return out if out.ndim else float(out)

    name = f"induced[{pair.name};{chi.name}]"
    return BinaryLaw(fn=fn, domain=Interval(0.0, math.inf), name=name)


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


def _product_pairs(seed: int, shapes, count: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Seeded flat-Dirichlet (p, q) rows for product checks: for each (W1, W2) of `shapes` in
    turn, `count` rows of p, then `count` rows of q, from one generator."""
    draw = np.random.default_rng(seed).dirichlet
    return [(draw(np.ones(w1), count), draw(np.ones(w2), count)) for w1, w2 in shapes]


def composability_residual(pair: HFPair, law: BinaryLaw, p: ProbDist, q: ProbDist) -> float:
    """|S(p (x) q) - Phi(S(p), S(q))| for one concrete product distribution."""
    functional = entropy_functional(pair)
    return float(product_residuals(functional.fn, law, p.weights[None], q.weights[None])[0])
