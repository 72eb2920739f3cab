"""Information geometry induced on finite models by divergences.

A `StatModel` maps an open parameter domain into strictly positive
distributions; the canonical instance is the full open simplex, where
xi = (p_1, ..., p_W) and p_0 = 1 - sum(xi) is the dependent coordinate.
Everything here works on finite supports, so expectations are exact sums;
only the parameter derivatives are numerical (central finite differences).
Each tensor maps its whole stencil to weights in one `prob_fn` call, and one
`in_domain` call judges those weights.  Divergence calls are stacked, up to a
budget of 1024 stencil rows a call: `div_connections` evaluates the stencil
against several parked points at once, and `div_metric` takes a stack of
points (k, n), each bit-identical to its own call, which `duality_residual`
fills with the five-point centres of several axes at once.  A plan per size,
cached on first use, holds the stencil offsets and a gather that puts each
second difference at (i, j) and (j, i), so an FD Hessian is exactly symmetric.
Tensors laid out here are symmetric by construction, so they are checked for
finiteness only and frozen without a copy; public constructors check it all.

From a divergence D(p_xi || p_xi') three tensors arise at the diagonal:

    g_ij        =  d_i d_j          D   (both derivatives in the first slot)
    Gamma_ij,k  = -d_i d_j d'_k     D   (primes differentiate the second slot)
    Gamma*_ij,k = -d'_i d'_j d_k    D

They satisfy the duality identity d_k g_ij = Gamma_ki,j + Gamma*_kj,i, which
`duality_residual` measures.  For a divergence of (h, f) form the closed
forms are conformal to the Fisher ones:

    g = c g_F,   Gamma = c Gamma^(-a),   Gamma* = c Gamma^(+a),

with c = h'(f(1)) f''(1) > 0 (`HFPair.c`) and a = (2 f'''(1) + 3 f''(1)) /
f''(1), where Gamma^(a) is the classical alpha-connection computed by
`alpha_connection`; `closed_geometry` gives all three on the simplex model.
Divergences composed through zeta inherit the weighted sums of their
constituents' tensors with weights grad zeta(0) (`combine_geometry`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .errors import (
    AllZeroGradient,
    ArityMismatch,
    DegenerateSecondDerivative,
    DomainError,
    InvalidArgument,
    ParamOutOfRange,
    StepTooLarge,
)
from .hf_entropy import HFPair, require_shape

if TYPE_CHECKING:
    from .divergence import DivergenceFunctional

#: Relative step for second-derivative stencils (metrics).
METRIC_STEP = 1e-4

#: Relative step for third-derivative stencils (connections).
CONN_STEP = 5e-4

#: Relative step of `duality_residual`'s stencil on the metric field.
DUALITY_STEP = 1e-3

#: Interior margin of the simplex model.
SIMPLEX_MARGIN = 1e-3

SYMMETRY_TOL = 1e-10
CONN_SYMMETRY_TOL = 1e-8

#: Most stencil rows one stacked divergence or metric-field call holds.
_ROW_BUDGET = 1024


@dataclass(frozen=True)
class StatModel:
    """A parametric family of strictly positive finite distributions.

    `prob_fn` takes one parameter point or a stack of them along the leading
    axes (shape (..., n_params)) and returns the weights (..., W) of each.
    `in_domain` takes such weights and returns one truth value for the whole
    array: True when every row is a distribution of the model.  `prob_fn`
    runs on every stencil point before `in_domain` judges the weights, so for
    a point just outside the domain it must return weights (nan allowed) and
    not raise.
    """

    n_params: int
    prob_fn: Callable
    in_domain: Callable
    name: str

    def point(self, xi) -> np.ndarray:
        """Weights at xi; raises ParamOutOfRange outside the open domain."""
        xi = np.asarray(xi, dtype=float).reshape(-1)
        if xi.size != self.n_params:
            raise ParamOutOfRange(f"{self.name} takes {self.n_params} parameters, got {xi.size}")
        weights = np.asarray(self.prob_fn(xi), dtype=float)
        if not self.in_domain(weights):
            raise ParamOutOfRange(f"parameter {xi.tolist()} outside the domain of {self.name}")
        return weights


@dataclass(frozen=True)
class MetricTensor:
    """A symmetric bilinear form (n, n), or a stack of them (k, n, n).

    The constructor copies the entries, checks the shape, and checks symmetry
    over the last two axes to SYMMETRY_TOL; a stack is positive definite only
    if every member is.  A nan or infinite entry raises DomainError.  The
    library's own metrics are exactly symmetric by construction: they are
    checked for finiteness only and frozen in place.
    """

    entries: np.ndarray
    _kind = "metric"

    def __post_init__(self) -> None:
        g = np.array(self.entries, dtype=float)
        if g.ndim not in (2, 3) or g.shape[-2] != g.shape[-1]:
            raise InvalidArgument(f"metric entries must be square, got shape {g.shape}")
        _freeze_symmetric(self, g, (-1, -2), SYMMETRY_TOL)

    def is_positive_definite(self) -> bool:
        try:
            np.linalg.cholesky(self.entries)
        except np.linalg.LinAlgError:
            return False
        return True


@dataclass(frozen=True)
class ConnCoeffs:
    """Lowered connection coefficients Gamma_{ij,k}, symmetric in (i, j).

    The constructor copies the entries, checks that they are (n, n, n), and
    checks the (i, j) symmetry to CONN_SYMMETRY_TOL.  A nan or infinite entry
    raises DomainError.  The library's own coefficients are exactly symmetric
    by construction: they are checked for finiteness only and frozen in place.
    """

    entries: np.ndarray
    _kind = "connection"

    def __post_init__(self) -> None:
        c = np.array(self.entries, dtype=float)
        if c.ndim != 3 or len(set(c.shape)) != 1:
            raise InvalidArgument(f"connection entries must be (n, n, n), got {c.shape}")
        _freeze_symmetric(self, c, (0, 1), CONN_SYMMETRY_TOL, " in (i, j)")


def _freeze(tensor, entries: np.ndarray):
    """The tensor with its entries set, frozen in place, after checking that every one is finite."""
    if not np.isfinite(entries).all():
        raise DomainError(f"{tensor._kind} entries are not finite")
    entries.setflags(write=False)
    object.__setattr__(tensor, "entries", entries)
    return tensor


def _freeze_symmetric(tensor, entries, axes: tuple, tol: float, where: str = "") -> None:
    """`_freeze`, then InvalidArgument if swapping `axes` moves an entry by more than tol."""
    _freeze(tensor, entries)  # before the skew, whose inf - inf would warn
    skew = float(np.abs(entries - entries.swapaxes(*axes)).max()) if entries.size else 0.0
    if skew > tol:
        raise InvalidArgument(f"{tensor._kind} asymmetric{where} by {skew:.3e} (tol {tol:.1e})")


def _built(cls: type, entries: np.ndarray):
    """cls around float entries laid out here, exactly symmetric by construction: only the
    finiteness check, then frozen in place; no copy, no skew pass."""
    return _freeze(object.__new__(cls), entries)


def simplex_model(size: int) -> StatModel:
    """The open W-simplex: xi are the last W weights, p_0 = 1 - sum(xi).

    Every coordinate (including p_0) stays at least SIMPLEX_MARGIN from
    zero, so finite-difference stencils have room to move.
    """
    if size < 1:
        raise ParamOutOfRange(f"need at least one free parameter, got {size}")
    if not SIMPLEX_MARGIN < 1.0 / (size + 1):
        raise ParamOutOfRange(f"margin {SIMPLEX_MARGIN} leaves no interior for W = {size}")

    def prob_fn(xi):
        xi = np.asarray(xi, dtype=float)
        return np.concatenate((1.0 - xi.sum(axis=-1, keepdims=True), xi), axis=-1)

    def in_domain(weights):
        return (weights >= SIMPLEX_MARGIN).all()

    return StatModel(n_params=size, prob_fn=prob_fn, in_domain=in_domain, name=f"simplex({size})")


def _scaled(step: float | None, default: float, xi: np.ndarray):
    """The step of each point in xi (shape (n,) or (k, n)), a float64 scalar for one point:
    given, or default times max(1, |xi|).  A given step must move every finite coordinate."""
    if step is not None:
        if not 0.0 < step < np.inf:  # a nan fails too
            bound = "positive" if step <= 0.0 else "finite"
            raise InvalidArgument(f"step must be {bound}, got {step}")
        if (np.isfinite(xi) & ((xi + step == xi) | (xi - step == xi))).any():
            raise InvalidArgument(f"step must move every coordinate of the point, got {step}")
        return np.full(xi.shape[:-1], float(step))[()]
    return default * np.abs(xi).max(axis=-1, initial=1.0)


@functools.lru_cache(maxsize=32)
def _plan(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only unit stencil offsets, in `_stencil`'s row order; the (n, n) index that lays out
    `_fd_second`'s entries as a symmetric matrix: (i, j) and (j, i) read one stored float; and
    the (4n, n) unit shifts t e_k, t = -2, -1, 1, 2, of `duality_residual`'s centres, axis-major."""
    axes = np.arange(n)
    i, j = np.nonzero(np.tri(n, k=-1, dtype=bool))
    offsets = np.zeros((1 + 2 * n + 4 * i.size, n))
    offsets[1 + 2 * axes, axes] = 1.0
    offsets[2 + 2 * axes, axes] = -1.0
    rows = 1 + 2 * n + 4 * np.arange(i.size)[:, None] + np.arange(4)
    offsets[rows, i[:, None]] = [1.0, 1.0, -1.0, -1.0]
    offsets[rows, j[:, None]] = [1.0, -1.0, 1.0, -1.0]
    gather = np.diag(axes)
    gather[i, j] = gather[j, i] = n + np.arange(i.size)
    shifts = (np.array([-2.0, -1.0, 1.0, 2.0])[:, None] * np.eye(n)[:, None]).reshape(4 * n, n)
    for table in (offsets, gather, shifts):
        table.setflags(write=False)
    return offsets, gather, shifts


def _stencil(model: StatModel, xi: np.ndarray, h: np.ndarray, mixed: bool = True) -> np.ndarray:
    """Weights at every point of the central-difference stencil around each xi.

    xi is one point (n,) or a stack (k, n) with steps h of shape xi.shape[:-1];
    the result is (rows, support) or (k, rows, support).  Rows: xi; xi + h e_i
    and xi - h e_i for each i; then, if `mixed`, xi +- h e_i +- h e_j for each
    j < i in the sign order ++, +-, -+, --.  The whole table is mapped to
    weights in one `prob_fn` call and judged in one `in_domain` call; only
    when that fails are the rows judged one by one.  The first centre (in
    stack order) whose stencil leaves the domain raises ParamOutOfRange if it
    lies outside itself, else StepTooLarge naming the first point that
    leaves.  A centre with a nan or infinite coordinate at the default step
    (h not finite, and h times a zero offset nan) raises ParamOutOfRange
    before the stencil is formed.
    """
    n = xi.shape[-1]
    if n != model.n_params:
        raise ParamOutOfRange(f"{model.name} takes {model.n_params} parameters, got {n}")
    if not np.inf > (h if xi.ndim == 1 else h.max(initial=0.0)):  # a nan max fails too
        centre = xi if xi.ndim == 1 else xi[np.argmin(h < np.inf)]
        model.point(centre)  # ParamOutOfRange when that centre is outside
        raise ParamOutOfRange(f"parameter {centre.tolist()} leaves no finite step in {model.name}")
    offsets = _plan(n)[0] if mixed else _plan(n)[0][: 2 * n + 1]
    points = xi[..., None, :] + h[..., None, None] * offsets
    weights = np.asarray(model.prob_fn(points), dtype=float)
    if model.in_domain(weights):
        return weights
    for bad in np.ndindex(weights.shape[:-1]):
        if not model.in_domain(weights[bad]):
            break
    if bad[-1] == 0:  # row 0 is the centre itself
        model.point(xi[bad[:-1]])  # raises ParamOutOfRange
    raise StepTooLarge(
        f"stencil point {points[bad].tolist()} leaves the domain of "
        f"{model.name}; reduce the step or move inward"
    )


def _stacked(fn: Callable, items: np.ndarray, rows: int) -> np.ndarray:
    """fn over runs of as many `rows`-row items as fit _ROW_BUDGET (>= 1), joined along axis 0."""
    size = max(1, _ROW_BUDGET // rows)
    out = [fn(items[lo : lo + size]) for lo in range(0, len(items), size)]
    return out[0] if len(out) == 1 else np.concatenate(out)


def _fd_first(table: np.ndarray, n: int, h: np.ndarray) -> np.ndarray:
    """Central first differences along the stencil axis (axis 0): shape (n, ...)."""
    return (table[1 : 2 * n + 1 : 2] - table[2 : 2 * n + 1 : 2]) / (2.0 * h)


def _fd_second(table: np.ndarray, n: int, h: np.ndarray) -> np.ndarray:
    """Central second differences along axis 0, packed (n + n(n-1)/2, ...): the diagonal, then
    each pair j < i, as `_plan(n)[1]` lays them out.  h broadcasts against the trailing axes."""
    plus, minus, quad = table[1 : 2 * n + 1 : 2], table[2 : 2 * n + 1 : 2], table[2 * n + 1 :]
    packed = np.empty((n + len(quad) // 4,) + table.shape[1:])
    np.divide(plus - 2.0 * table[0] + minus, h * h, out=packed[:n])
    np.divide(quad[0::4] - quad[1::4] - quad[2::4] + quad[3::4], 4.0 * h * h, out=packed[n:])
    return packed


def _values(divergence: DivergenceFunctional, p, q, rows: tuple) -> np.ndarray:
    values = np.asarray(divergence.fn(p, q), dtype=float)
    if values.shape != rows:  # fn must reduce the outcome axis only
        raise InvalidArgument(f"{divergence.name} gave shape {values.shape} for rows {rows}")
    return values


def fisher_metric(model: StatModel, xi, step: float | None = None) -> MetricTensor:
    """The Fisher metric g_ij = E[d_i log p * d_j log p] at xi.

    Log-derivatives come from central differences; the expectation over the
    finite support is an exact sum.
    """
    xi = np.asarray(xi, dtype=float).reshape(-1)
    h = _scaled(step, METRIC_STEP, xi)
    weights = _stencil(model, xi, h, mixed=False)
    dlog = _fd_first(np.log(weights), xi.size, h)
    g = (dlog * weights[0]) @ dlog.T
    return _built(MetricTensor, 0.5 * (g + g.T))


def div_metric(
    divergence: DivergenceFunctional, model: StatModel, xi, step: float | None = None
) -> MetricTensor:
    """Metric from the second-order expansion of a divergence at the diagonal.

    xi is one point (n,) or a stack of points (k, n); a stack gives entries
    of shape (k, n, n) from one divergence call, each member bit-identical
    to the metric of its own point.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.ndim > 2:
        raise InvalidArgument(f"expected one point or a (k, n) stack of points, got {xi.shape}")
    xi = xi if xi.ndim == 2 else xi.reshape(-1)
    h = _scaled(step, METRIC_STEP, xi)
    weights = _stencil(model, xi, h)
    values = _values(divergence, weights, weights[..., :1, :], weights.shape[:-1])
    n = xi.shape[-1]
    return _built(MetricTensor, _fd_second(values.T, n, h).T.take(_plan(n)[1], axis=-1))


def div_connections(
    divergence: DivergenceFunctional, model: StatModel, xi, step: float | None = None
) -> tuple[ConnCoeffs, ConnCoeffs]:
    """The dual pair (Gamma, Gamma*) from third-order mixed derivatives.

    Gamma_ij,k differentiates twice in the first slot and once in the second;
    Gamma*_ij,k swaps the roles.  Entries land in arrays indexed [i, j, k].
    Each divergence call evaluates the whole stencil in one slot against as
    many parked points xi +- h e_k in the other as fit the row budget.  The
    values of both slots form one table, differenced in one pass.
    """
    xi = np.asarray(xi, dtype=float).reshape(-1)
    h = _scaled(step, CONN_STEP, xi)
    n = xi.size
    weights = _stencil(model, xi, h)
    parked, rows = weights[1 : 2 * n + 1, None], len(weights)  # xi + h e_0, xi - h e_0, ...
    table = [  # [parked point, stencil row] of each slot
        _stacked(lambda q: _values(divergence, weights, q, (len(q), rows)), parked, rows),
        _stacked(lambda q: _values(divergence, q, weights, (len(q), rows)), parked, rows),
    ]
    d2 = _fd_second(np.concatenate(table).T, n, h)  # [diagonal or pair, slot * 2n + parked point]
    d3 = -(d2[:, 0::2] - d2[:, 1::2]) / (2.0 * h)  # [diagonal or pair, slot * n + k]
    gather = _plan(n)[1]
    return (
        _built(ConnCoeffs, d3[:, :n].take(gather, axis=0)),
        _built(ConnCoeffs, d3[:, n:].take(gather, axis=0)),
    )


def alpha_connection(model: StatModel, xi, alpha: float, step: float | None = None) -> ConnCoeffs:
    """The classical alpha-connection of a finite model.

    Gamma^(a)_ij,k = E[(d_i d_j l + (1 - a)/2 d_i l d_j l) d_k l] with
    l = log p; log-derivatives by central differences, expectation exact.
    alpha must be finite; one so large that the sum overflows raises DomainError.
    """
    alpha = float(alpha)
    if not np.isfinite(alpha):
        raise InvalidArgument(f"alpha must be finite, got {alpha}")
    xi = np.asarray(xi, dtype=float).reshape(-1)
    h = _scaled(step, METRIC_STEP, xi)
    n = xi.size
    weights = _stencil(model, xi, h)
    logs = np.log(weights)
    dl = _fd_first(logs, n, h)
    d2l = _fd_second(logs, n, h).take(_plan(n)[1], axis=0)
    with np.errstate(over="ignore", invalid="ignore"):  # _built rejects a non-finite entry
        # symmetric in (i, j) by construction: d2l reads one float for (i, j) and (j, i)
        integrand = d2l + 0.5 * (1.0 - alpha) * np.einsum("ix,jx->ijx", dl, dl)
        return _built(ConnCoeffs, np.einsum("ijx,kx,x->ijk", integrand, dl, weights[0]))


def closed_geometry(pair: HFPair, xi) -> tuple[MetricTensor, ConnCoeffs, ConnCoeffs]:
    """Exact (g, Gamma, Gamma*) of an (h, f) divergence on the simplex with len(xi) parameters.

    g_ij = c (delta_ij / p_i + 1 / p_0), Gamma = c Gamma^(-a) and Gamma* =
    c Gamma^(+a), with c = `pair.c` > 0 and a = `hf_alpha_of(pair)`.  The
    simplex parameters are mixture coordinates (d_i d_j p = 0), so
    Gamma^(alpha)_ij,k = -(1 + alpha)/2 (delta_ijk / p_i^2 - 1 / p_0^2)
    (Amari & Nagaoka, Methods of Information Geometry).
    """
    require_shape(pair, "divergence")
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    size = len(xi)  # a stack (k, n) reads as k parameters and fails `point`'s arity check
    p = simplex_model(size).point(xi)
    c, a = pair.c, hf_alpha_of(pair)
    t = np.full((size, size, size), -1.0 / p[0] ** 2)
    axes = np.arange(size)
    t[axes, axes, axes] += 1.0 / p[1:] ** 2
    g = _built(MetricTensor, c * (np.diag(1.0 / p[1:]) + 1.0 / p[0]))
    gamma = _built(ConnCoeffs, -0.5 * c * (1.0 - a) * t)
    return g, gamma, _built(ConnCoeffs, -0.5 * c * (1.0 + a) * t)


def hf_alpha_of(pair: HFPair) -> float:
    """The alpha whose dual connections an (h, f) divergence induces."""
    if abs(pair.d2f1) < 1e-12:
        raise DegenerateSecondDerivative(
            f"{pair.name}: f''(1) = {pair.d2f1:.3e} supports no geometry"
        )
    return (2.0 * pair.d3f1 + 3.0 * pair.d2f1) / pair.d2f1


def duality_residual(
    metric_field: Callable,
    conn_field: Callable,
    dual_field: Callable,
    model: StatModel,
    xi,
) -> float:
    """Max violation of d_k g_ij = Gamma_ki,j + Gamma*_kj,i at xi.

    `metric_field` maps a stack of parameter points (k, n) to a MetricTensor
    with entries (k, n, n), as `div_metric` does.  It is differentiated by a
    five-point central stencil at xi + t h e_k, t = -2, -1, 1, 2, with h =
    DUALITY_STEP max(1, |xi|) (so a smooth bias in the field itself survives
    but the stencil's own truncation does not), fed axis-major, as many
    centres per call as fit the row budget at 2n^2 + 1 rows each.  The
    connection fields get xi.
    """
    xi = np.asarray(xi, dtype=float).reshape(-1)
    h = _scaled(None, DUALITY_STEP, xi)
    n = xi.size
    model.point(xi)  # domain check up front
    centres = xi + h * _plan(n)[2]

    def field(stack):
        v = np.asarray(metric_field(stack).entries)
        if v.shape != (len(stack), n, n):
            raise InvalidArgument(f"metric_field gave entries of shape {v.shape} for {stack.shape}")
        return v

    vals = _stacked(field, centres, 2 * n * n + 1).reshape(n, 4, n, n)
    dg = (vals[:, 0] - 8.0 * vals[:, 1] + 8.0 * vals[:, 2] - vals[:, 3]) / (12.0 * h)
    gamma = np.asarray(conn_field(xi).entries)
    gamma_star = np.asarray(dual_field(xi).entries)
    # dg[k, i, j] vs Gamma_{ki, j} + Gamma*_{kj, i}
    predicted = gamma + gamma_star.transpose(0, 2, 1)
    return float(np.max(np.abs(dg - predicted)))


def combine_geometry(
    weights: Sequence[float],
    metrics: Sequence[MetricTensor],
    connections: Sequence[ConnCoeffs],
    dual_connections: Sequence[ConnCoeffs],
) -> tuple[MetricTensor, ConnCoeffs, ConnCoeffs]:
    """Weighted sums of constituent tensors (weights = grad zeta at 0).

    This is the geometry of a zeta-composed divergence: first-order behaviour
    of zeta at the origin is all that survives differentiation at the
    diagonal, so the composed tensors are the grad-zeta(0)-weighted sums.
    The sums keep their inputs' symmetry, exact for the library's own tensors,
    and are checked for finiteness only.
    """
    w = np.asarray(weights, dtype=float)
    if not (len(metrics) == len(connections) == len(dual_connections) == w.size):
        raise ArityMismatch("weights and tensor sequences must share a length")
    if w.size == 0:
        raise ArityMismatch("nothing to combine")
    if not np.all(w >= 0.0):  # a nan fails too
        raise InvalidArgument(f"combination weights must be non-negative, got {w.tolist()}")
    if np.all(w == 0.0):
        raise AllZeroGradient("every combination weight vanishes")
    g = sum(wi * np.asarray(m.entries) for wi, m in zip(w, metrics))
    c = sum(wi * np.asarray(t.entries) for wi, t in zip(w, connections))
    cs = sum(wi * np.asarray(t.entries) for wi, t in zip(w, dual_connections))
    return _built(MetricTensor, g), _built(ConnCoeffs, c), _built(ConnCoeffs, cs)
