"""Maximum-entropy distributions under linear expectation constraints.

Given an entropy functional S and constraints A p = b (the simplex sum
constraint is implicit, never a row of A), `maximize` runs projected gradient
ascent: each iterate is pulled back onto the feasible set by the Euclidean
projection onto {p >= 0} intersect {A p = b, sum p = 1}, computed with
Dykstra's alternating-projection scheme between the affine set and the
non-negative orthant.  Backtracking keeps the ascent monotone.

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

_PROJ_ROUNDS = 500
_PROJ_TOL = 1e-13


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
    """Euclidean projection onto {p >= 0, A_full p = b_full} via Dykstra."""

    def __init__(self, a_full: np.ndarray, b_full: np.ndarray):
        self.a = a_full
        self.b = b_full
        self.pullback = a_full.T @ np.linalg.pinv(a_full @ a_full.T)

    def affine(self, x: np.ndarray) -> np.ndarray:
        return x - self.pullback @ (self.a @ x - self.b)

    def residual(self, x: np.ndarray) -> float:
        return float(np.max(np.abs(self.a @ x - self.b)))

    def project(self, x: np.ndarray) -> np.ndarray:
        y = self.affine(x)
        if y.min() >= 0.0:
            return y
        p_corr = np.zeros_like(x)
        q_corr = np.zeros_like(x)
        current = x
        for _ in range(_PROJ_ROUNDS):
            u = self.affine(current + p_corr)
            p_corr = current + p_corr - u
            v = np.maximum(u + q_corr, 0.0)
            q_corr = u + q_corr - v
            if float(np.max(np.abs(v - current))) <= _PROJ_TOL:
                return v
            current = v
        return current


def maximize(
    entropy: EntropyFunctional,
    size: int,
    constraints: ConstraintSet | None = None,
    *,
    max_iter: int = 100_000,
    tol: float = 1e-8,
    seed: int = 0,
    restarts: int = 1,
    grad_step: float = 1e-6,
) -> MaxentResult:
    """Maximize S over the simplex slice cut out by the constraints.

    Gradients are analytic when the functional carries one (trace-form
    built-ins) and central differences with `grad_step` otherwise.  Raises
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
        raise Infeasible(
            f"constraints miss the simplex by {feasible.residual(start):.3e}"
        )

    def value(x: np.ndarray) -> float:
        return float(entropy.fn(np.maximum(x, EVAL_CLIP)))

    if entropy.gradient is not None:
        analytic = entropy.gradient

        def grad(x: np.ndarray) -> np.ndarray:
            return np.asarray(analytic(np.maximum(x, EVAL_CLIP)), dtype=float)

    else:

        def grad(x: np.ndarray) -> np.ndarray:
            g = np.empty(size)
            for i in range(size):
                e = np.zeros(size)
                e[i] = grad_step
                g[i] = (value(x + e) - value(x - e)) / (2.0 * grad_step)
            return g

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
