"""Binary composition laws and their group structure.

A law Phi(x, y) tells how an entropy composes over independent systems:
S(A u B) = Phi(S(A), S(B)).  For that to make sense Phi must behave like the
addition of a one-dimensional formal group: commutative, associative, with 0
as neutral element.  This module represents laws together with their validity
domain, checks the axioms on seeded samples, builds the 2^m-ary iterates
Phi(Phi(..), Phi(..)), and transports a law through a strictly increasing
change of scale xi, giving omega(x, y) = xi(Phi(xi^-1(x), xi^-1(y))).

The workhorse law is the deformed sum

    q_sum(q):  Phi(x, y) = x + y + (1 - q) x y,

which is the additive law at q = 1 and multiplicative-type otherwise.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ArityMismatch, DomainEscape, InvalidArgument, InversionFailure, ParamOutOfRange

AXIOM_TOL = 1e-10
PERM_TOL = 1e-9


@dataclass(frozen=True)
class Interval:
    """A closed interval [lo, hi]; endpoints may be infinite."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo <= self.hi:
            raise InvalidArgument(f"empty interval [{self.lo}, {self.hi}]")

    @classmethod
    def reals(cls) -> "Interval":
        return cls(-math.inf, math.inf)

    def contains(self, x, slack: float = 0.0) -> bool:
        """Whether every entry of x lies in [lo - slack, hi + slack]."""
        arr = np.asarray(x, dtype=float)
        return bool(np.all(arr >= self.lo - slack) and np.all(arr <= self.hi + slack))

    def clipped(self, lo: float, hi: float) -> "Interval":
        """Intersection with [lo, hi]."""
        return Interval(max(self.lo, lo), min(self.hi, hi))


@dataclass(frozen=True)
class BinaryLaw:
    """A two-argument composition law with its validity domain.

    `fn` must accept floats or same-shape numpy arrays and vectorize.
    """

    fn: Callable
    domain: Interval
    name: str

    def __call__(self, x, y):
        return self.fn(x, y)


@dataclass(frozen=True)
class Conjugator:
    """A strictly increasing change of scale xi with explicit inverse."""

    forward: Callable
    inverse: Callable
    name: str

    def check_roundtrip(self, points) -> None:
        """Verify inverse(forward(x)) = x to AXIOM_TOL on the given points."""
        arr = np.asarray(points, dtype=float)
        back = self.inverse(self.forward(arr))
        worst = float(np.max(np.abs(back - arr))) if arr.size else 0.0
        if not np.isfinite(worst) or worst > AXIOM_TOL:
            raise InversionFailure(
                f"{self.name}: inverse fails round-trip by {worst:.3e} (tol {AXIOM_TOL:.1e})"
            )


@dataclass(frozen=True)
class LawReport:
    """Max axiom residuals of a law over a seeded sample."""

    law: str
    commutativity: float
    associativity: float
    identity: float
    samples: int
    tol: float

    @property
    def commutativity_ok(self) -> bool:
        return self.commutativity <= self.tol

    @property
    def associativity_ok(self) -> bool:
        return self.associativity <= self.tol

    @property
    def identity_ok(self) -> bool:
        return self.identity <= self.tol

    @property
    def passed(self) -> bool:
        return self.commutativity_ok and self.associativity_ok and self.identity_ok

    def as_dict(self) -> dict:
        return {
            "law": self.law,
            "samples": self.samples,
            "tol": self.tol,
            "commutativity_residual": self.commutativity,
            "associativity_residual": self.associativity,
            "identity_residual": self.identity,
            "commutativity_ok": self.commutativity_ok,
            "associativity_ok": self.associativity_ok,
            "identity_ok": self.identity_ok,
            "passed": self.passed,
        }


def q_sum(q: float) -> BinaryLaw:
    """The deformed sum Phi(x, y) = x + y + (1 - q) x y on the whole line."""
    q = float(q)
    if not math.isfinite(q):
        raise ParamOutOfRange(f"q must be finite, got {q}")
    a = 1.0 - q

    def fn(x, y):
        return x + y + a * np.multiply(x, y)

    return BinaryLaw(fn=fn, domain=Interval.reals(), name=f"q-sum({q:g})")


def additive_law() -> BinaryLaw:
    """Plain addition, the q = 1 deformed sum."""
    return q_sum(1.0)


def check_group_axioms(
    law: BinaryLaw,
    domain: Interval | tuple[float, float] = (0.0, 1.0),
    samples: int = 1000,
    seed: int = 0,
    tol: float = AXIOM_TOL,
) -> LawReport:
    """Check commutativity, associativity, and neutral element on samples.

    Triples (x, y, z) are drawn uniformly from `domain` (a finite interval,
    not necessarily the law's full validity domain).  Raises DomainEscape if
    the sampling interval leaves the law's domain, if 0 (the required neutral
    element) is outside it, or if a composed value escapes it, since feeding
    such a value back into the law would be meaningless.
    """
    if not isinstance(domain, Interval):
        domain = Interval(float(domain[0]), float(domain[1]))
    if not (math.isfinite(domain.lo) and math.isfinite(domain.hi)):
        raise InvalidArgument("sampling interval must be finite")
    if samples < 1:
        raise InvalidArgument("need at least one sample")
    if not law.domain.contains([domain.lo, domain.hi]):
        raise DomainEscape(
            f"sampling interval [{domain.lo}, {domain.hi}] leaves the domain of {law.name}"
        )
    if not law.domain.contains(0.0):
        raise DomainEscape(f"neutral element 0 lies outside the domain of {law.name}")

    rng = np.random.default_rng(seed)
    x, y, z = rng.uniform(domain.lo, domain.hi, size=(3, samples))

    xy = law(x, y)
    yz = law(y, z)
    for label, composed in (("Phi(x,y)", xy), ("Phi(y,z)", yz)):
        if not law.domain.contains(composed, slack=0.0):
            raise DomainEscape(f"{label} escapes the domain of {law.name}")

    comm = float(np.max(np.abs(xy - law(y, x))))
    assoc = float(np.max(np.abs(law(xy, z) - law(x, yz))))
    ident = float(np.max(np.abs(law(x, np.zeros_like(x)) - x)))
    return LawReport(
        law=law.name,
        commutativity=comm,
        associativity=assoc,
        identity=ident,
        samples=samples,
        tol=tol,
    )


def iterate_pow2(law: BinaryLaw, m: int) -> Callable:
    """The 2^m-ary iterate of a law.

    m = 0 is the identity on one argument; otherwise arguments are combined
    pairwise, then the 2^(m-1) partial results pairwise, and so on.  For an
    associative law any bracketing agrees; this fixed bracketing is what the
    group-composition engine uses.  The returned callable accepts floats or
    equal-shape arrays and raises ArityMismatch for a wrong argument count.
    """
    if m < 0:
        raise InvalidArgument(f"m must be >= 0, got {m}")
    arity = 2**m

    def composed(*args):
        if len(args) != arity:
            raise ArityMismatch(f"{law.name}^({arity}) takes {arity} arguments, got {len(args)}")
        vals = list(args)
        while len(vals) > 1:
            vals = [law(a, b) for a, b in zip(vals[0::2], vals[1::2])]
        return vals[0]

    composed.arity = arity  # type: ignore[attr-defined]
    return composed


def check_phi4_symmetry(
    law: BinaryLaw,
    samples: int = 1000,
    seed: int = 0,
    domain: Interval | tuple[float, float] = (0.0, 1.0),
) -> float:
    """Max deviation of the 4-ary iterate under all 24 argument permutations.

    For a commutative and associative law the iterate is a symmetric function
    of its four arguments, so the returned residual is rounding-level; a
    genuinely asymmetric law shows up at O(1).
    """
    if not isinstance(domain, Interval):
        domain = Interval(float(domain[0]), float(domain[1]))
    rng = np.random.default_rng(seed)
    args = rng.uniform(domain.lo, domain.hi, size=(4, samples))
    phi4 = iterate_pow2(law, 2)
    base = phi4(*args)
    worst = 0.0
    for perm in itertools.permutations(range(4)):
        worst = max(worst, float(np.max(np.abs(phi4(*(args[i] for i in perm)) - base))))
    return worst


def conjugate(law: BinaryLaw, xi: Conjugator) -> BinaryLaw:
    """Transport a law through xi: omega(x, y) = xi(Phi(xi^-1 x, xi^-1 y)).

    omega is again commutative and associative; it keeps 0 as neutral element
    exactly when xi(0) = 0 (which all the built-in conjugators satisfy).  The
    inverse is probed on a grid across the law's domain before use.
    """
    probe = law.domain.clipped(-10.0, 10.0)
    xi.check_roundtrip(np.linspace(probe.lo, probe.hi, 17))

    def fn(x, y):
        return xi.forward(law(xi.inverse(x), xi.inverse(y)))

    lo = float(xi.forward(law.domain.lo)) if math.isfinite(law.domain.lo) else _limit(xi, law.domain.lo)
    hi = float(xi.forward(law.domain.hi)) if math.isfinite(law.domain.hi) else _limit(xi, law.domain.hi)
    return BinaryLaw(fn=fn, domain=Interval(lo, hi), name=f"{xi.name}*{law.name}")


def _limit(xi: Conjugator, endpoint: float) -> float:
    """Image of an infinite endpoint under xi, via a large finite probe."""
    probe = math.copysign(1e12, endpoint)
    with np.errstate(over="ignore"):
        value = float(xi.forward(probe))
    return math.copysign(math.inf, endpoint) if abs(value) > 1e9 else value


def identity_conjugator() -> Conjugator:
    return Conjugator(forward=lambda x: x, inverse=lambda x: x, name="id")


def scale_conjugator(c: float) -> Conjugator:
    """xi(x) = c x for c > 0."""
    c = float(c)
    if not (math.isfinite(c) and c > 0.0):
        raise ParamOutOfRange(f"scale factor must be positive and finite, got {c}")
    return Conjugator(forward=lambda x: c * x, inverse=lambda x: x / c, name=f"scale({c:g})")


def expm1_conjugator() -> Conjugator:
    """xi(x) = e^x - 1, with inverse log(1 + x); fixes 0 and is increasing."""
    return Conjugator(forward=np.expm1, inverse=np.log1p, name="expm1")


def conjugator_by_name(spec: str) -> Conjugator:
    """Parse 'id', 'expm1', or 'scale:C' into a conjugator (CLI grammar)."""
    text = spec.strip().lower()
    if text == "id":
        return identity_conjugator()
    if text == "expm1":
        return expm1_conjugator()
    if text.startswith("scale:"):
        try:
            c = float(text.split(":", 1)[1])
        except ValueError as exc:
            raise ParamOutOfRange(f"bad scale factor in {spec!r}") from exc
        return scale_conjugator(c)
    raise ParamOutOfRange(f"unknown conjugator {spec!r} (expected id, expm1, or scale:C)")
