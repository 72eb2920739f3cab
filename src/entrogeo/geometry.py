"""Information geometry induced on finite models by divergences.

A `StatModel` maps an open parameter domain into strictly positive
distributions; the canonical instance is the full open simplex, where
xi = (p_1, ..., p_W) and p_0 = 1 - sum(xi) is the dependent coordinate.
Everything here works on finite supports, so expectations are exact sums;
only the parameter derivatives are numerical (central finite differences).

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

import math
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


@dataclass(frozen=True)
class StatModel:
    """A parametric family of strictly positive finite distributions."""

    n_params: int
    support_size: int
    prob_fn: Callable
    in_domain: Callable
    name: str

    def point(self, xi) -> np.ndarray:
        """Weights at xi; raises ParamOutOfRange outside the open domain."""
        xi = np.asarray(xi, dtype=float).reshape(-1)
        if xi.size != self.n_params:
            raise ParamOutOfRange(
                f"{self.name} takes {self.n_params} parameters, got {xi.size}"
            )
        if not self.in_domain(xi):
            raise ParamOutOfRange(f"parameter {xi.tolist()} outside the domain of {self.name}")
        return np.asarray(self.prob_fn(xi), dtype=float)


@dataclass(frozen=True)
class MetricTensor:
    """A symmetric bilinear form; positive definiteness is queryable."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        g = np.array(self.entries, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise InvalidArgument(f"metric entries must be square, got shape {g.shape}")
        skew = float(np.max(np.abs(g - g.T))) if g.size else 0.0
        if skew > SYMMETRY_TOL:
            raise InvalidArgument(f"metric asymmetric by {skew:.3e} (tol {SYMMETRY_TOL:.1e})")
        g.setflags(write=False)
        object.__setattr__(self, "entries", g)

    @property
    def dim(self) -> int:
        return int(self.entries.shape[0])

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

    def in_domain(xi: np.ndarray) -> bool:
        return bool(np.all(xi >= margin) and 1.0 - float(xi.sum()) >= margin)

    def prob_fn(xi: np.ndarray) -> np.ndarray:
        return np.concatenate(([1.0 - float(xi.sum())], xi))

    return StatModel(
        n_params=size,
        support_size=size + 1,
        prob_fn=prob_fn,
        in_domain=in_domain,
        name=f"simplex({size})",
    )


def _scaled(step: float | None, default: float, xi: np.ndarray) -> float:
    if step is not None:
        if step <= 0.0:
            raise InvalidArgument(f"step must be positive, got {step}")
        return float(step)
    return default * max(1.0, float(np.max(np.abs(xi))) if xi.size else 1.0)


def _stencil_point(model: StatModel, xi: np.ndarray) -> np.ndarray:
    try:
        return model.point(xi)
    except ParamOutOfRange as exc:
        raise StepTooLarge(
            f"stencil point {xi.tolist()} leaves the domain of {model.name}; "
            "reduce the step or move inward"
        ) from exc


def fisher_metric(model: StatModel, xi, step: float | None = None) -> MetricTensor:
    """The Fisher metric g_ij = E[d_i log p * d_j log p] at xi.

    Log-derivatives come from central differences; the expectation over the
    finite support is an exact sum.
    """
    xi = np.asarray(xi, dtype=float).reshape(-1)
    h = _scaled(step, METRIC_STEP, xi)
    p0 = model.point(xi)
    n = model.n_params
    dlog = np.empty((n, model.support_size))
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        dlog[i] = (
            np.log(_stencil_point(model, xi + e)) - np.log(_stencil_point(model, xi - e))
        ) / (2.0 * h)
    g = (dlog * p0) @ dlog.T
    return MetricTensor(0.5 * (g + g.T))


def _second_diff(
    dfn: Callable, model: StatModel, base: np.ndarray, parked: np.ndarray, h: float, slot: int
) -> np.ndarray:
    """Second partials of D w.r.t. one argument slot, the other held fixed."""
    parked_w = _stencil_point(model, parked)

    if slot == 0:
        def f(u):
            return float(dfn(_stencil_point(model, u), parked_w))
    else:
        def f(u):
            return float(dfn(parked_w, _stencil_point(model, u)))

    n = base.size
    center = f(base)
    out = np.empty((n, n))
    eye = np.eye(n)
    for i in range(n):
        ei = h * eye[i]
        out[i, i] = (f(base + ei) - 2.0 * center + f(base - ei)) / (h * h)
        for j in range(i):
            ej = h * eye[j]
            mixed = (
                f(base + ei + ej) - f(base + ei - ej) - f(base - ei + ej) + f(base - ei - ej)
            ) / (4.0 * h * h)
            out[i, j] = out[j, i] = mixed
    return out


def div_metric(
    divergence: DivergenceFunctional, model: StatModel, xi, step: float | None = None
) -> MetricTensor:
    """Metric from the second-order expansion of a divergence at the diagonal."""
    xi = np.asarray(xi, dtype=float).reshape(-1)
    h = _scaled(step, METRIC_STEP, xi)
    g = _second_diff(divergence.fn, model, xi, xi, h, slot=0)
    return MetricTensor(0.5 * (g + g.T))


def div_connections(
    divergence: DivergenceFunctional, model: StatModel, xi, step: float | None = None
) -> tuple[ConnCoeffs, ConnCoeffs]:
    """The dual pair (Gamma, Gamma*) from third-order mixed derivatives.

    Gamma_ij,k differentiates twice in the first slot and once in the second;
    Gamma*_ij,k swaps the roles.  Entries land in arrays indexed [i, j, k].
    """
    xi = np.asarray(xi, dtype=float).reshape(-1)
    h = _scaled(step, CONN_STEP, xi)
    n = xi.size
    gamma = np.empty((n, n, n))
    gamma_star = np.empty((n, n, n))
    eye = np.eye(n)
    for k in range(n):
        ek = h * eye[k]
        first_plus = _second_diff(divergence.fn, model, xi, xi + ek, h, slot=0)
        first_minus = _second_diff(divergence.fn, model, xi, xi - ek, h, slot=0)
        gamma[:, :, k] = -(first_plus - first_minus) / (2.0 * h)
        second_plus = _second_diff(divergence.fn, model, xi, xi + ek, h, slot=1)
        second_minus = _second_diff(divergence.fn, model, xi, xi - ek, h, slot=1)
        gamma_star[:, :, k] = -(second_plus - second_minus) / (2.0 * h)
    return ConnCoeffs(gamma), ConnCoeffs(gamma_star)


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
    p0 = model.point(xi)
    log0 = np.log(p0)
    eye = np.eye(n)

    logs_plus = []
    logs_minus = []
    for i in range(n):
        ei = h * eye[i]
        logs_plus.append(np.log(_stencil_point(model, xi + ei)))
        logs_minus.append(np.log(_stencil_point(model, xi - ei)))

    dl = np.empty((n, model.support_size))
    d2l = np.empty((n, n, model.support_size))
    for i in range(n):
        dl[i] = (logs_plus[i] - logs_minus[i]) / (2.0 * h)
        d2l[i, i] = (logs_plus[i] - 2.0 * log0 + logs_minus[i]) / (h * h)
        for j in range(i):
            ei, ej = h * eye[i], h * eye[j]
            mixed = (
                np.log(_stencil_point(model, xi + ei + ej))
                - np.log(_stencil_point(model, xi + ei - ej))
                - np.log(_stencil_point(model, xi - ei + ej))
                + np.log(_stencil_point(model, xi - ei - ej))
            ) / (4.0 * h * h)
            d2l[i, j] = d2l[j, i] = mixed

    integrand = d2l + 0.5 * (1.0 - float(alpha)) * np.einsum("ix,jx->ijx", dl, dl)
    gamma = np.einsum("ijx,kx,x->ijk", integrand, dl, p0)
    gamma = 0.5 * (gamma + gamma.transpose(1, 0, 2))
    return ConnCoeffs(gamma)


def hf_closed_metric(pair: HFPair, xi, size: int, margin: float = SIMPLEX_MARGIN) -> MetricTensor:
    """Closed-form metric of an (h, f) divergence on the simplex model.

    g_ij = c (delta_ij / p_i + 1 / p_0) with c = h'(f(1)) f''(1); the pair
    must be divergence-shaped, which makes c positive.
    """
    require_divergence_shape(pair)
    model = simplex_model(size, margin)
    p = model.point(xi)
    c = float(pair.h_prime(pair.f1)) * pair.d2f1
    g = c * (np.diag(1.0 / p[1:]) + 1.0 / p[0])
    return MetricTensor(g)


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

    `metric_field` maps a parameter point to a MetricTensor (it is
    differentiated by a five-point central stencil with the given step,
    so a smooth bias in the field itself survives but the stencil's own
    truncation does not); the two connection fields are evaluated at xi.
    """
    xi = np.asarray(xi, dtype=float).reshape(-1)
    h = _scaled(step, 1e-3, xi)
    n = xi.size
    model.point(xi)  # domain check up front
    eye = np.eye(n)
    dg = np.empty((n, n, n))
    for k in range(n):
        ek = h * eye[k]
        vals = [np.asarray(metric_field(xi + t * ek).entries) for t in (-2.0, -1.0, 1.0, 2.0)]
        dg[k] = (vals[0] - 8.0 * vals[1] + 8.0 * vals[2] - vals[3]) / (12.0 * h)
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
    n = metric.dim
    flat = np.asarray(conn.entries).reshape(n * n, n)
    solved = np.linalg.solve(np.asarray(metric.entries), flat.T)
    return solved.T.reshape(n, n, n)
