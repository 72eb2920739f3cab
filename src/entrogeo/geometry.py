"""Information geometry induced on finite models by divergences.

A `StatModel` maps an open parameter domain into strictly positive
distributions; the canonical instance is the full open simplex, where
xi = (p_1, ..., p_W) and p_0 = 1 - sum(xi) is the dependent coordinate.
Everything here works on finite supports, so expectations are exact sums;
only the parameter derivatives are numerical (central finite differences).
Each tensor maps its whole stencil to weights in one `prob_fn` call and
checks it in one `in_domain` call.  Divergence calls are stacked, up to a
budget of 1024 stencil rows a call: `div_connections` evaluates the stencil
against several parked points at once, and `div_metric` takes a stack of
points (k, n), each bit-identical to its own call, which `duality_residual`
fills with the five-point centres of several axes at once.

From a divergence D(p_xi || p_xi') three tensors arise at the diagonal:

    g_ij        =  d_i d_j          D   (both derivatives in the first slot)
    Gamma_ij,k  = -d_i d_j d'_k     D   (primes differentiate the second slot)
    Gamma*_ij,k = -d'_i d'_j d_k    D

They satisfy the duality identity d_k g_ij = Gamma_ki,j + Gamma*_kj,i, which
`duality_residual` measures.  For a divergence of (h, f) form the closed
forms are conformal to the Fisher ones:

    g = c g_F,   Gamma = c Gamma^(-a),   Gamma* = c Gamma^(+a),

with c = h'(f(1)) f''(1) and a = (2 f'''(1) + 3 f''(1)) / f''(1), where
Gamma^(a) is the classical alpha-connection computed by `alpha_connection`.
Divergences composed through zeta inherit the weighted sums of their
constituents' tensors with weights grad zeta(0) (`combine_geometry`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .divergence import DivergenceFunctional
from .errors import (
    AllZeroGradient,
    ArityMismatch,
    DegenerateSecondDerivative,
    InvalidArgument,
    ParamOutOfRange,
    StepTooLarge,
)
from .hf_entropy import HFPair, require_divergence_shape

#: Relative step for second-derivative stencils (metrics).
METRIC_STEP = 1e-4

#: Relative step for third-derivative stencils (connections).
CONN_STEP = 5e-4

#: Interior margin of the default simplex model.
SIMPLEX_MARGIN = 1e-3

SYMMETRY_TOL = 1e-10
CONN_SYMMETRY_TOL = 1e-8

#: Most stencil rows one stacked divergence or metric-field call holds.
_ROW_BUDGET = 1024


@dataclass(frozen=True)
class StatModel:
    """A parametric family of strictly positive finite distributions.

    `prob_fn` and `in_domain` take one parameter point or a stack of them
    along the leading axes (shape (..., n_params)) and return the weights
    (..., support_size) or the domain test (...) of each point.
    """

    n_params: int
    support_size: int
    prob_fn: Callable
    in_domain: Callable
    name: str

    def point(self, xi) -> np.ndarray:
        """Weights at xi; raises ParamOutOfRange outside the open domain."""
        xi = np.asarray(xi, dtype=float).reshape(-1)
        if xi.size != self.n_params:
            raise ParamOutOfRange(f"{self.name} takes {self.n_params} parameters, got {xi.size}")
        if not self.in_domain(xi):
            raise ParamOutOfRange(f"parameter {xi.tolist()} outside the domain of {self.name}")
        return np.asarray(self.prob_fn(xi), dtype=float)


@dataclass(frozen=True)
class MetricTensor:
    """A symmetric bilinear form (n, n), or a stack of them (k, n, n).

    Symmetry is checked over the last two axes; a stack is positive definite
    only if every member is.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        g = np.array(self.entries, dtype=float)
        if g.ndim not in (2, 3) or g.shape[-2] != g.shape[-1]:
            raise InvalidArgument(f"metric entries must be square, got shape {g.shape}")
        skew = float(np.max(np.abs(g - g.swapaxes(-1, -2)))) if g.size else 0.0
        if skew > SYMMETRY_TOL:
            raise InvalidArgument(f"metric asymmetric by {skew:.3e} (tol {SYMMETRY_TOL:.1e})")
        g.setflags(write=False)
        object.__setattr__(self, "entries", g)

    @property
    def dim(self) -> int:
        return int(self.entries.shape[-1])

    def is_positive_definite(self) -> bool:
        try:
            np.linalg.cholesky(self.entries)
        except np.linalg.LinAlgError:
            return False
        return True


@dataclass(frozen=True)
class ConnCoeffs:
    """Lowered connection coefficients Gamma_{ij,k}, symmetric in (i, j)."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        c = np.array(self.entries, dtype=float)
        if c.ndim != 3 or len(set(c.shape)) != 1:
            raise InvalidArgument(f"connection entries must be (n, n, n), got {c.shape}")
        skew = float(np.max(np.abs(c - c.transpose(1, 0, 2)))) if c.size else 0.0
        if skew > CONN_SYMMETRY_TOL:
            raise InvalidArgument(
                f"connection asymmetric in (i, j) by {skew:.3e} (tol {CONN_SYMMETRY_TOL:.1e})"
            )
        c.setflags(write=False)
        object.__setattr__(self, "entries", c)

    @property
    def dim(self) -> int:
        return int(self.entries.shape[0])


def simplex_model(size: int, margin: float = SIMPLEX_MARGIN) -> StatModel:
    """The open W-simplex: xi are the last W weights, p_0 = 1 - sum(xi).

    `margin` keeps every coordinate (including p_0) at least that far from
    zero, so finite-difference stencils have room to move.
    """
    if size < 1:
        raise ParamOutOfRange(f"need at least one free parameter, got {size}")
    if not 0.0 < margin < 1.0 / (size + 1):
        raise ParamOutOfRange(f"margin {margin} leaves no interior for W = {size}")

    def in_domain(xi):
        xi = np.asarray(xi, dtype=float)
        return np.all(xi >= margin, axis=-1) & (1.0 - xi.sum(axis=-1) >= margin)

    def prob_fn(xi):
        xi = np.asarray(xi, dtype=float)
        return np.concatenate((1.0 - xi.sum(axis=-1, keepdims=True), xi), axis=-1)

    return StatModel(
        n_params=size,
        support_size=size + 1,
        prob_fn=prob_fn,
        in_domain=in_domain,
        name=f"simplex({size})",
    )


def _scaled(step: float | None, default: float, xi: np.ndarray) -> np.ndarray:
    """The step of each point in xi (shape (n,) or (k, n)): given, or default times max(1, |xi|)."""
    if step is not None:
        if step <= 0.0:
            raise InvalidArgument(f"step must be positive, got {step}")
        return np.full(xi.shape[:-1], float(step))
    return np.asarray(default * np.maximum(1.0, np.max(np.abs(xi), axis=-1, initial=0.0)))


@functools.lru_cache(maxsize=32)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only index pairs (i, j) with j < i, row by row."""
    i, j = np.nonzero(np.tri(n, k=-1, dtype=bool))
    i.setflags(write=False)
    j.setflags(write=False)
    return i, j


@functools.lru_cache(maxsize=32)
def _unit_offsets(n: int) -> np.ndarray:
    """Read-only stencil offsets for h = 1, in the row order `_stencil` documents."""
    axes = np.arange(n)
    i, j = _pairs(n)
    offsets = np.zeros((1 + 2 * n + 4 * i.size, n))
    offsets[1 + 2 * axes, axes] = 1.0
    offsets[2 + 2 * axes, axes] = -1.0
    rows = 1 + 2 * n + 4 * np.arange(i.size)[:, None] + np.arange(4)
    offsets[rows, i[:, None]] = [1.0, 1.0, -1.0, -1.0]
    offsets[rows, j[:, None]] = [1.0, -1.0, 1.0, -1.0]
    offsets.setflags(write=False)
    return offsets


def _stencil(model: StatModel, xi: np.ndarray, h: np.ndarray, mixed: bool = True) -> np.ndarray:
    """Weights at every point of the central-difference stencil around each xi.

    xi is one point (n,) or a stack (k, n) with steps h of shape xi.shape[:-1];
    the result is (rows, support) or (k, rows, support).  Rows: xi; xi + h e_i
    and xi - h e_i for each i; then, if `mixed`, xi +- h e_i +- h e_j for each
    j < i in the sign order ++, +-, -+, --.  The whole table is checked
    against the domain in one call and mapped to weights in one call.  The
    first centre (in stack order) whose stencil leaves the domain raises
    ParamOutOfRange if it lies outside itself, else StepTooLarge naming the
    first point that leaves.
    """
    n = xi.shape[-1]
    if n != model.n_params:
        raise ParamOutOfRange(f"{model.name} takes {model.n_params} parameters, got {n}")
    offsets = _unit_offsets(n) if mixed else _unit_offsets(n)[: 2 * n + 1]
    points = xi[..., None, :] + h[..., None, None] * offsets
    inside = np.asarray(model.in_domain(points))
    if not inside.all():
        bad = np.unravel_index(np.argmin(inside), inside.shape)
        model.point(xi[bad[:-1]])  # ParamOutOfRange when that centre is outside
        raise StepTooLarge(
            f"stencil point {points[bad].tolist()} leaves the domain of "
            f"{model.name}; reduce the step or move inward"
        )
    return np.asarray(model.prob_fn(points), dtype=float)


def _blocks(items: np.ndarray, rows: int) -> list[np.ndarray]:
    """items cut along axis 0 into runs of as many `rows`-row items as fit _ROW_BUDGET (>= 1)."""
    size = max(1, _ROW_BUDGET // rows)
    return [items[lo : lo + size] for lo in range(0, len(items), size)]


def _fd_first(table: np.ndarray, n: int, h: np.ndarray) -> np.ndarray:
    """Central first differences along the stencil axis (axis 0): shape (n, ...)."""
    return (table[1 : 2 * n + 1 : 2] - table[2 : 2 * n + 1 : 2]) / (2.0 * h)


def _fd_second(table: np.ndarray, n: int, h: np.ndarray) -> np.ndarray:
    """Central second differences along the stencil axis (axis 0): shape (n, n, ...).

    h is a step per point, broadcasting against the trailing axes.
    """
    axes = np.arange(n)
    i, j = _pairs(n)
    plus, minus = table[1 : 2 * n + 1 : 2], table[2 : 2 * n + 1 : 2]
    out = np.empty((n, n) + table.shape[1:])
    out[axes, axes] = (plus - 2.0 * table[0] + minus) / (h * h)
    quad = table[2 * n + 1 :]
    out[i, j] = out[j, i] = (quad[0::4] - quad[1::4] - quad[2::4] + quad[3::4]) / (4.0 * h * h)
    return out


def _values(divergence: DivergenceFunctional, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    values = np.asarray(divergence.fn(p, q), dtype=float)
    rows = np.broadcast_shapes(p.shape, q.shape)[:-1]
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
    return MetricTensor(0.5 * (g + g.T))


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
    values = _values(divergence, weights, weights[..., :1, :])  # (..., stencil rows)
    g = _fd_second(values.T, xi.shape[-1], h).T  # (..., n, n): the FD Hessian is symmetric
    return MetricTensor(0.5 * (g + g.swapaxes(-1, -2)))


def div_connections(
    divergence: DivergenceFunctional, model: StatModel, xi, step: float | None = None
) -> tuple[ConnCoeffs, ConnCoeffs]:
    """The dual pair (Gamma, Gamma*) from third-order mixed derivatives.

    Gamma_ij,k differentiates twice in the first slot and once in the second;
    Gamma*_ij,k swaps the roles.  Entries land in arrays indexed [i, j, k].
    Each divergence call evaluates the whole stencil in one slot against as
    many parked points xi +- h e_k in the other as fit the row budget.
    """
    xi = np.asarray(xi, dtype=float).reshape(-1)
    h = _scaled(step, CONN_STEP, xi)
    n = xi.size
    weights = _stencil(model, xi, h)
    parked = _blocks(weights[1 : 2 * n + 1, None], len(weights))  # xi + h e_0, xi - h e_0, ...
    out = []
    for args in (lambda q: (weights, q), lambda q: (q, weights)):
        values = np.concatenate([_values(divergence, *args(q)) for q in parked])
        d2 = _fd_second(values.T, n, h)  # [i, j, parked point]
        out.append(ConnCoeffs(-(d2[..., 0::2] - d2[..., 1::2]) / (2.0 * h)))
    return out[0], out[1]


def alpha_connection(
    model: StatModel, xi, alpha: float, step: float | None = None
) -> ConnCoeffs:
    """The classical alpha-connection of a finite model.

    Gamma^(a)_ij,k = E[(d_i d_j l + (1 - a)/2 d_i l d_j l) d_k l] with
    l = log p; log-derivatives by central differences, expectation exact.
    """
    xi = np.asarray(xi, dtype=float).reshape(-1)
    h = _scaled(step, METRIC_STEP, xi)
    n = xi.size
    weights = _stencil(model, xi, h)
    logs = np.log(weights)
    dl = _fd_first(logs, n, h)
    d2l = _fd_second(logs, n, h)
    integrand = d2l + 0.5 * (1.0 - float(alpha)) * np.einsum("ix,jx->ijx", dl, dl)
    gamma = np.einsum("ijx,kx,x->ijk", integrand, dl, weights[0])
    return ConnCoeffs(0.5 * (gamma + gamma.transpose(1, 0, 2)))


def hf_closed_metric(pair: HFPair, xi, size: int) -> MetricTensor:
    """Closed-form metric of an (h, f) divergence on the simplex model.

    g_ij = c (delta_ij / p_i + 1 / p_0) with c = h'(f(1)) f''(1); the pair
    must be divergence-shaped, which makes c positive.
    """
    c, p = _closed_form_data(pair, xi, size)
    return MetricTensor(c * (np.diag(1.0 / p[1:]) + 1.0 / p[0]))


def hf_closed_connections(pair: HFPair, xi, size: int) -> tuple[ConnCoeffs, ConnCoeffs]:
    """Closed-form dual connections (c Gamma^(-a), c Gamma^(+a)) on the simplex model.

    The simplex parameters are mixture coordinates (d_i d_j p = 0), so
    Gamma^(alpha)_ij,k = -(1 + alpha)/2 (delta_ijk / p_i^2 - 1 / p_0^2)
    (Amari & Nagaoka, Methods of Information Geometry); c and a are those
    of `hf_closed_metric` and `hf_alpha_of`.
    """
    c, p = _closed_form_data(pair, xi, size)
    a = hf_alpha_of(pair)
    t = np.full((size, size, size), -1.0 / p[0] ** 2)
    axes = np.arange(size)
    t[axes, axes, axes] += 1.0 / p[1:] ** 2
    return ConnCoeffs(-0.5 * c * (1.0 - a) * t), ConnCoeffs(-0.5 * c * (1.0 + a) * t)


def _closed_form_data(pair: HFPair, xi, size: int) -> tuple[float, np.ndarray]:
    """(c, weights at xi) for the closed forms; c = h'(f(1)) f''(1)."""
    require_divergence_shape(pair)
    p = simplex_model(size).point(xi)
    return float(pair.h_prime(pair.f1)) * pair.d2f1, p


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
    step: float | None = None,
) -> float:
    """Max violation of d_k g_ij = Gamma_ki,j + Gamma*_kj,i at xi.

    `metric_field` maps a stack of parameter points (k, n) to a MetricTensor
    with entries (k, n, n), as `div_metric` does.  It is differentiated by a
    five-point central stencil with the given step at xi + t h e_k, t = -2,
    -1, 1, 2 (so a smooth bias in the field itself survives but the stencil's
    own truncation does not), fed axis-major, as many centres per call as fit
    the row budget at 2n^2 + 1 rows each.  The connection fields get xi.
    """
    xi = np.asarray(xi, dtype=float).reshape(-1)
    h = _scaled(step, 1e-3, xi)
    n = xi.size
    model.point(xi)  # domain check up front
    shifts = np.array([-2.0, -1.0, 1.0, 2.0])[:, None]
    centres = (xi + shifts * (h * np.eye(n))[:, None]).reshape(4 * n, n)
    vals = []
    for stack in _blocks(centres, 2 * n * n + 1):
        v = np.asarray(metric_field(stack).entries)
        if v.shape != (len(stack), n, n):
            raise InvalidArgument(f"metric_field gave entries of shape {v.shape} for {stack.shape}")
        vals.append(v)
    vals = np.concatenate(vals).reshape(n, 4, n, n)
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
    """
    w = np.asarray(weights, dtype=float)
    if not (len(metrics) == len(connections) == len(dual_connections) == w.size):
        raise ArityMismatch("weights and tensor sequences must share a length")
    if w.size == 0:
        raise ArityMismatch("nothing to combine")
    if np.any(w < 0.0):
        raise InvalidArgument(f"combination weights must be non-negative, got {w.tolist()}")
    if np.all(w == 0.0):
        raise AllZeroGradient("every combination weight vanishes")
    g = sum(wi * np.asarray(m.entries) for wi, m in zip(w, metrics))
    c = sum(wi * np.asarray(t.entries) for wi, t in zip(w, connections))
    cs = sum(wi * np.asarray(t.entries) for wi, t in zip(w, dual_connections))
    return MetricTensor(g), ConnCoeffs(c), ConnCoeffs(cs)


def raised_connection(metric: MetricTensor, conn: ConnCoeffs) -> np.ndarray:
    """Raise the last index: returns Gamma^k_ij as an array indexed [i, j, k].

    Solves g_{lk} Gamma^l_ij = Gamma_ij,k against the metric; raises
    numpy.linalg.LinAlgError if the metric is singular.
    """
    n = conn.dim
    if metric.entries.shape != (n, n):
        raise InvalidArgument(f"need one ({n}, {n}) metric, got entries {metric.entries.shape}")
    flat = np.asarray(conn.entries).reshape(n * n, n)
    solved = np.linalg.solve(np.asarray(metric.entries), flat.T)
    return solved.T.reshape(n, n, n)
