"""Maximum-entropy distributions under linear expectation constraints.

Given an entropy functional S and constraints A p = b (the simplex sum
constraint is implicit, never a row of A), `maximize` runs projected gradient
ascent: each iterate is pulled back onto the feasible set by the exact
Euclidean projection onto {p >= 0} intersect {A p = b, sum p = 1}.  That
projection is max(x - A^T nu, 0), with the multiplier nu found by semismooth
Newton on a convex dual of m + 1 variables.  Backtracking keeps the ascent
monotone.

For concave functionals (every strictly shaped built-in) the stationary
point found is the global maximizer.  For anything else the solver makes no
global claim: run with `restarts > 1` and read `restart_spread` in the
result; a visible spread means the landscape has several basins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import Infeasible, InvalidArgument, LengthMismatch
from .hf_entropy import EntropyFunctional
from .probability import ProbDist

#: Weights are clipped to at least this before evaluating S or its gradient.
EVAL_CLIP = 1e-12

#: Feasibility declared when the affine residual is below this.
FEAS_TOL = 1e-9

#: Step of the central differences for functionals without a gradient.
GRAD_STEP = 1e-6

_NEWTON_ROUNDS = 100
#: Projection residual |A p - b| accepted, per unit of the largest |A| entry.
_PROJ_TOL = 1e-12
_BISECTIONS = 100

#: Coordinates per block of the finite-difference stencil (2 rows each).
_FD_BLOCK = 64


@dataclass(frozen=True)
class ConstraintSet:
    """Expectation constraints A p = b with linearly independent rows."""

    coefficients: np.ndarray
    targets: np.ndarray

    def __post_init__(self) -> None:
        a = np.atleast_2d(np.asarray(self.coefficients, dtype=float))
        b = np.asarray(self.targets, dtype=float).reshape(-1)
        if a.shape[0] != b.size:
            raise LengthMismatch(
                f"{a.shape[0]} constraint rows but {b.size} targets"
            )
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise InvalidArgument("constraint data must be finite")
        if a.shape[0] > 0 and np.linalg.matrix_rank(a) < a.shape[0]:
            raise InvalidArgument("constraint rows are linearly dependent")
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "coefficients", a)
        object.__setattr__(self, "targets", b)

    @property
    def count(self) -> int:
        return int(self.coefficients.shape[0])


@dataclass(frozen=True)
class MaxentResult:
    """Solver output; `converged` is a flag, never an exception."""

    dist: ProbDist
    value: float
    converged: bool
    iterations: int
    constraint_residual: float
    stationarity: float
    restart_values: tuple[float, ...]
    restart_spread: float

    def as_dict(self) -> dict:
        return {
            "weights": self.dist.weights.tolist(),
            "value": self.value,
            "converged": self.converged,
            "iterations": self.iterations,
            "constraint_residual": self.constraint_residual,
            "stationarity": self.stationarity,
            "restart_values": list(self.restart_values),
            "restart_spread": self.restart_spread,
        }


class _Feasible:
    """Exact Euclidean projection onto {p >= 0, A_full p = b_full}."""

    def __init__(self, a_full: np.ndarray, b_full: np.ndarray):
        self.a = a_full
        self.b = b_full
        self.gram_pinv = np.linalg.pinv(a_full @ a_full.T)
        self.rank = int(np.linalg.matrix_rank(a_full))
        self.tol = _PROJ_TOL * max(1.0, float(np.max(np.abs(a_full))))
        self.pullback = a_full.T @ self.gram_pinv

    def affine(self, x: np.ndarray) -> np.ndarray:
        return x - self.pullback @ (self.a @ x - self.b)

    def residual(self, x: np.ndarray) -> float:
        return float(np.max(np.abs(self.a @ x - self.b)))

    def project(self, x: np.ndarray) -> np.ndarray:
        """max(x - A^T nu, 0), where nu minimizes the convex dual
        theta(nu) = |max(x - A^T nu, 0)|^2 / 2 + b^T nu.

        Semismooth Newton (Qi & Sun 1993) from the affine multiplier: the
        generalized Hessian is the Gram matrix of the active columns, solved
        by least squares, and Armijo backtracking keeps theta decreasing.  A
        full step that keeps the active set is exact up to rounding, so it
        stops once |A p - b| is at rounding level.  When the constraints miss
        the simplex theta is unbounded below, and the point returned keeps a
        residual.
        """
        y = self.affine(x)
        if y.min() >= 0.0 and self.residual(y) <= self.tol:
            return y
        nu = self.gram_pinv @ (self.a @ x - self.b)
        z = x - self.a.T @ nu
        p = np.maximum(z, 0.0)
        for _ in range(_NEWTON_ROUNDS):
            gap = self.a @ p - self.b  # minus the dual gradient
            if np.max(np.abs(gap)) <= self.tol:
                return p
            active = z > 0.0
            cols = self.a[:, active]
            gram = cols @ cols.T
            step, _, rank, _ = np.linalg.lstsq(gram, gap, rcond=None)
            rest = gap - gram @ step
            if rank < self.rank and np.max(np.abs(rest)) > 0.5 * np.max(np.abs(gap)):
                # The active columns cannot meet most of gap.  Along the part
                # they leave, theta falls linearly until inactive coordinates
                # turn positive: go to its minimum on that ray.
                t = _ray_minimum(z, self.a.T @ rest, float(self.b @ rest))
                if t is None:
                    return p  # theta is unbounded below: no feasible point
                nu = nu + t * rest
                z = x - self.a.T @ nu
                p = np.maximum(z, 0.0)
                continue
            slope = float(gap @ step)
            if not slope > 0.0:
                return p
            t = 1.0
            while True:
                z_t = x - self.a.T @ (nu + t * step)
                p_t = np.maximum(z_t, 0.0)
                change = 0.5 * float((p_t - p) @ (p_t + p)) + t * float(self.b @ step)
                if change <= -1e-4 * t * slope:
                    break
                t *= 0.5
                if t < 1e-12:
                    return p
            nu, z, p = nu + t * step, z_t, p_t
        return p


def _ray_minimum(z: np.ndarray, r: np.ndarray, c: float) -> float | None:
    """argmin over t >= 0 of |max(z - t r, 0)|^2 / 2 + c t, or None if unbounded.

    The derivative c - r . max(z - t r, 0) is non-decreasing: double an upper
    bracket until it is non-negative, then bisect, keeping the upper end.
    """

    def slope(t: float) -> float:
        return c - float(r @ np.maximum(z - t * r, 0.0))

    hi = 1.0
    while slope(hi) < 0.0:
        hi *= 2.0
        if hi > 1e300:
            return None
    lo = 0.0
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if slope(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def maximize(
    entropy: EntropyFunctional,
    size: int,
    constraints: ConstraintSet | None = None,
    *,
    max_iter: int = 100_000,
    tol: float = 1e-8,
    seed: int = 0,
    restarts: int = 1,
) -> MaxentResult:
    """Maximize S over the simplex slice cut out by the constraints.

    Gradients are analytic when the functional carries one (every (h, f)
    pair with f') and central differences with step GRAD_STEP otherwise.  Raises
    Infeasible when no probability vector satisfies the constraints; failure
    to reach `tol` within `max_iter` only clears the `converged` flag.
    """
    if size < 1:
        raise LengthMismatch(f"need at least one outcome, got {size}")
    if constraints is not None and constraints.coefficients.shape[1] != size:
        raise LengthMismatch(
            f"constraints are over {constraints.coefficients.shape[1]} outcomes, expected {size}"
        )
    if restarts < 1:
        raise InvalidArgument("restarts must be at least 1")

    ones = np.ones((1, size))
    if constraints is not None and constraints.count > 0:
        a_full = np.vstack([ones, constraints.coefficients])
        b_full = np.concatenate(([1.0], constraints.targets))
    else:
        a_full = ones
        b_full = np.ones(1)
    feasible = _Feasible(a_full, b_full)

    start = feasible.project(np.full(size, 1.0 / size))
    if feasible.residual(start) > FEAS_TOL:
        a, b = a_full[1:], b_full[1:]  # on the simplex a_i . p spans [min a_i, max a_i]
        gap = np.maximum(a.min(axis=1) - b, b - a.max(axis=1))
        i = int(np.argmax(gap))
        raise Infeasible(
            f"constraint row {i} targets {b[i]:.15g}, outside the range [{a[i].min():.15g}, "
            f"{a[i].max():.15g}] it spans on the simplex: misses by {gap[i]:.3e}"
            if gap[i] > 0.0
            else "constraints miss the simplex jointly; each row alone is reachable"
        )

    def value(x: np.ndarray) -> float:
        return float(entropy.fn(np.maximum(x, EVAL_CLIP)))

    if entropy.gradient is not None:
        analytic = entropy.gradient

        def grad(x: np.ndarray) -> np.ndarray:
            return np.asarray(analytic(np.maximum(x, EVAL_CLIP)), dtype=float)

    else:

        def grad(x: np.ndarray) -> np.ndarray:
            return _fd_gradient(entropy.fn, x, GRAD_STEP)

    rng = np.random.default_rng(seed)
    runs = []
    for r in range(restarts):
        x0 = start if r == 0 else feasible.project(rng.dirichlet(np.ones(size)))
        runs.append(_ascend(x0, value, grad, feasible, max_iter, tol))

    best = max(runs, key=lambda run: run[1])
    x_best, v_best, iters, converged, stationarity = best
    weights = np.maximum(x_best, 0.0)
    weights = weights / weights.sum()
    restart_values = tuple(run[1] for run in runs)
    return MaxentResult(
        dist=ProbDist(weights),
        value=v_best,
        converged=converged,
        iterations=iters,
        constraint_residual=feasible.residual(x_best),
        stationarity=stationarity,
        restart_values=restart_values,
        restart_spread=max(restart_values) - min(restart_values),
    )


def _fd_gradient(fn, x: np.ndarray, step: float) -> np.ndarray:
    """Central differences of fn at x, evaluated in blocks of stacked rows.

    Rows x + step e_i and x - step e_i of each block go through one `fn`
    call; the result equals the per-coordinate loop bit for bit.
    """
    g = np.empty(x.size)
    for lo in range(0, x.size, _FD_BLOCK):
        idx = np.arange(lo, min(lo + _FD_BLOCK, x.size))
        k = np.arange(idx.size)
        rows = np.repeat(x[None, :], 2 * idx.size, axis=0)
        rows[k, idx] += step
        rows[idx.size + k, idx] -= step
        vals = np.asarray(fn(np.maximum(rows, EVAL_CLIP)), dtype=float)
        g[idx] = (vals[: idx.size] - vals[idx.size :]) / (2.0 * step)
    return g


def _ascend(x0, value, grad, feasible, max_iter, tol):
    x = x0
    v = value(x)
    step = 1.0
    stationarity = math.inf
    for it in range(1, max_iter + 1):
        g = grad(x)
        stationarity = float(np.max(np.abs(feasible.project(x + g) - x)))
        if stationarity <= tol:
            return x, v, it, True, stationarity
        s = step
        accepted = False
        while s >= 1e-14:
            y = feasible.project(x + s * g)
            vy = value(y)
            gain = float(g @ (y - x))
            if vy >= v + 1e-4 * gain and vy >= v:
                accepted = True
                break
            s *= 0.5
        if not accepted:
            # No improving step exists at any scale: numerically stationary.
            return x, v, it, stationarity <= tol, stationarity
        x, v = y, vy
        step = min(s * 2.0, 1e3)
    return x, v, max_iter, False, stationarity
