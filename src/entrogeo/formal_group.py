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

import contextvars
import itertools
import math
import os
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .errors import ArityMismatch, DomainEscape, InvalidArgument, InversionFailure, ParamOutOfRange

AXIOM_TOL = 1e-10
PERM_TOL = 1e-9

#: Float64 elements in one block of a bulk evaluation (256 KiB), so that the
#: temporaries of a block stay in a 2 MiB L2 cache.  The two checkers compose
#: their samples in chunks of this many; the trace kernel `hf_entropy._trace`
#: sums each trace in row blocks of about this size.  Blocks and chunks go
#: through `_split`: one thread per usable CPU, the values of one thread.
_BLOCK = 2**15

_POOL = None  # `_split`'s worker threads, built by the first call that splits
_IN_SHARE = contextvars.ContextVar("entrogeo_in_share", default=False)
if hasattr(os, "register_at_fork"):  # a forked child has none of its parent's threads
    os.register_at_fork(after_in_child=lambda: globals().update(_POOL=None))


def _split(fn: Callable, items) -> list:
    """[fn(item) for item in items], run as one contiguous share of the items per usable CPU.

    The first share runs in the calling thread and the others on a thread pool,
    each in a copy of the caller's context and error state.  Every share
    finishes before this returns or raises the earliest failing item's
    exception.  One item, one CPU or a call from inside a share runs inline.
    """
    global _POOL
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    n = min(len(items), cpus or 1)
    if n < 2 or _IN_SHARE.get():
        return [fn(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor, wait
    _POOL = _POOL or ThreadPoolExecutor(cpus - 1, thread_name_prefix="entrogeo")
    err = np.geterr()  # numpy 1.x keeps np.errstate per thread, not in the context

    def share(part):
        _IN_SHARE.set(True)
        with np.errstate(**err):
            return [fn(item) for item in part]
    parts = [items[len(items) * k // n : len(items) * (k + 1) // n] for k in range(n)]
    futures = [_POOL.submit(contextvars.copy_context().run, share, part) for part in parts[1:]]
    try:
        head = contextvars.copy_context().run(share, parts[0])
    finally:
        wait(futures)
    return head + [out for future in futures for out in future.result()]


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

    def contains(self, x) -> bool:
        """Whether every entry of x lies in [lo, hi]."""
        arr = np.asarray(x, dtype=float)
        return bool(np.all(arr >= self.lo) and np.all(arr <= self.hi))

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
    """Max axiom residuals of a law over a seeded sample and their verdicts, in output order."""

    law: str
    samples: int
    tol: float
    commutativity_residual: float
    associativity_residual: float
    identity_residual: float
    commutativity_ok: bool
    associativity_ok: bool
    identity_ok: bool
    passed: bool

    def as_dict(self) -> dict:
        return asdict(self)


def _fmt(*params: float) -> str:
    """Parameters as names show them: each as `:g` where that reads back exactly, else its repr."""
    return ",".join(f"{x:g}" if float(f"{x:g}") == x else repr(float(x)) for x in params)


def q_sum(q: float) -> BinaryLaw:
    """The deformed sum Phi(x, y) = x + y + (1 - q) x y on the whole line."""
    q = float(q)
    if not math.isfinite(q):
        raise ParamOutOfRange(f"q must be finite, got {q}")
    a = 1.0 - q

    def fn(x, y):
        return x + y + a * np.multiply(x, y)

    return BinaryLaw(fn=fn, domain=Interval.reals(), name=f"q-sum({_fmt(q)})")


def _sample_chunks(k: int, samples: int, seed: int) -> list[np.ndarray]:
    """`samples` seeded draws of k arguments from [0, 1), cut into (k, <= _BLOCK) chunks."""
    if samples < 1:
        raise InvalidArgument("need at least one sample")
    draws = np.random.default_rng(seed).uniform(0.0, 1.0, size=(k, samples))
    return [draws[:, start : start + _BLOCK] for start in range(0, samples, _BLOCK)]


def check_group_axioms(law: BinaryLaw, samples: int = 1000, seed: int = 0) -> LawReport:
    """Check commutativity, associativity, and neutral element on samples.

    Triples (x, y, z) are drawn uniformly from [0, 1), where entropy values
    start, and every residual must be within AXIOM_TOL.  Raises DomainEscape
    if 0 (the required neutral element) lies outside the law's domain, if the
    rest of [0, 1] does, or if a composed value escapes it, since feeding such
    a value back into the law would be meaningless; an escaping Phi(x,y) is
    named ahead of an escaping Phi(y,z).  Chunks of _BLOCK samples run on one
    thread per CPU, with the values of one call, so the law must keep no state.
    """
    chunks = _sample_chunks(3, samples, seed)
    if not law.domain.contains(0.0):
        raise DomainEscape(f"neutral element 0 lies outside the domain of {law.name}")
    if not law.domain.contains([0.0, 1.0]):
        raise DomainEscape(f"sampling interval [0.0, 1.0] leaves the domain of {law.name}")

    def chunk_residuals(chunk):
        x, y, z = chunk
        xy, yz = law(x, y), law(y, z)
        if not law.domain.contains(xy):
            raise DomainEscape(f"Phi(x,y) escapes the domain of {law.name}")
        if not law.domain.contains(yz):
            return None  # raised once every chunk's Phi(x,y) stayed inside
        return (
            np.max(np.abs(xy - law(y, x))),
            np.max(np.abs(law(xy, z) - law(x, yz))),
            np.max(np.abs(law(x, np.zeros_like(x)) - x)),
        )
    residuals = _split(chunk_residuals, chunks)
    if None in residuals:
        raise DomainEscape(f"Phi(y,z) escapes the domain of {law.name}")
    comm, assoc, ident = (float(r) for r in np.max(residuals, axis=0))  # a nan propagates
    return LawReport(
        law=law.name,
        samples=samples,
        tol=AXIOM_TOL,
        commutativity_residual=comm,
        associativity_residual=assoc,
        identity_residual=ident,
        commutativity_ok=comm <= AXIOM_TOL,
        associativity_ok=assoc <= AXIOM_TOL,
        identity_ok=ident <= AXIOM_TOL,
        passed=comm <= AXIOM_TOL and assoc <= AXIOM_TOL and ident <= AXIOM_TOL,
    )


def _require_pow2(what: str, m: int, count: int | None = None) -> None:
    """Raise unless m >= 0 and a given count is 2^m, never forming 2^m (m may be huge)."""
    if m < 0:
        raise InvalidArgument(f"m must be >= 0, got {m}")
    if count is not None and (count & (count - 1) or count.bit_length() != m + 1):
        raise ArityMismatch(f"{what} takes 2^{m} arguments, got {count}")


def iterate_pow2(law: BinaryLaw, m: int) -> Callable:
    """The 2^m-ary iterate of a law.

    m = 0 is the identity on one argument; otherwise arguments are combined
    pairwise, then the 2^(m-1) partial results pairwise, and so on.  For an
    associative law any bracketing agrees; this fixed bracketing is what the
    group-composition engine uses.  The returned callable accepts floats or
    equal-shape arrays and raises ArityMismatch for a wrong argument count.
    """
    name = f"{law.name}^(2^{m})"
    _require_pow2(name, m)

    def composed(*args):
        _require_pow2(name, m, len(args))
        vals = list(args)
        while len(vals) > 1:
            vals = [law(a, b) for a, b in zip(vals[0::2], vals[1::2])]
        return vals[0]
    return composed


def check_phi4_symmetry(law: BinaryLaw, samples: int = 1000, seed: int = 0) -> float:
    """Max deviation of the 4-ary iterate under all 24 argument permutations.

    The four arguments are `samples` seeded draws from [0, 1).  For a
    commutative and associative law the iterate is a symmetric function of
    its four arguments, so the returned residual is rounding-level; a
    genuinely asymmetric law shows up at O(1), and a nan value makes it nan.
    Chunks of _BLOCK samples run on one thread per CPU, so the law must keep no
    state; a chunk composes each of the 12 ordered pairs Phi(x_i, x_j) once.
    """
    def chunk_residuals(args):
        # iterate_pow2's bracketing Phi(Phi(a, b), Phi(c, d)), each inner pair composed once
        inner = {(i, j): law(args[i], args[j]) for i, j in itertools.permutations(range(4), 2)}
        base = law(inner[0, 1], inner[2, 3])
        return [
            np.max(np.abs(law(inner[a, b], inner[c, d]) - base))
            for a, b, c, d in itertools.permutations(range(4))
            if (a, b, c, d) != (0, 1, 2, 3)
        ]
    residuals = _split(chunk_residuals, _sample_chunks(4, samples, seed))
    return float(np.max(residuals))  # a nan propagates


def conjugate(law: BinaryLaw, xi: Conjugator) -> BinaryLaw:
    """Transport a law through xi: omega(x, y) = xi(Phi(xi^-1 x, xi^-1 y)).

    omega is again commutative and associative; it keeps 0 as neutral element
    exactly when xi(0) = 0 (which all the built-in conjugators satisfy).  xi is
    probed on a grid across the law's domain: it must invert and increase there.
    omega's domain is the image of the law's: xi at each endpoint, finite or not.
    """
    probe = law.domain.clipped(-10.0, 10.0)
    grid = np.linspace(probe.lo, probe.hi, 17)
    xi.check_roundtrip(grid)
    if probe.lo < probe.hi and not (np.diff(xi.forward(grid)) > 0.0).all():
        raise InvalidArgument(f"conjugator {xi.name} is not strictly increasing on {probe}")

    def fn(x, y):
        return xi.forward(law(xi.inverse(x), xi.inverse(y)))

    lo, hi = (float(xi.forward(end)) for end in (law.domain.lo, law.domain.hi))
    return BinaryLaw(fn=fn, domain=Interval(lo, hi), name=f"{xi.name}*{law.name}")


def identity_conjugator() -> Conjugator:
    return Conjugator(forward=lambda x: x, inverse=lambda x: x, name="id")


def scale_conjugator(c: float) -> Conjugator:
    """xi(x) = c x for c > 0."""
    c = float(c)
    if not (math.isfinite(c) and c > 0.0):
        raise ParamOutOfRange(f"scale factor must be positive and finite, got {c}")
    return Conjugator(forward=lambda x: c * x, inverse=lambda x: x / c, name=f"scale({_fmt(c)})")


def expm1_conjugator() -> Conjugator:
    """xi(x) = e^x - 1, with inverse log(1 + x); fixes 0 and is increasing."""
    return Conjugator(forward=np.expm1, inverse=np.log1p, name="expm1")

