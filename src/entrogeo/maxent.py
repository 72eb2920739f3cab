"""Maximum-entropy distributions under linear expectation constraints.

Given an entropy functional S and constraints A p = b (the simplex sum
constraint is implicit, never a row of A), `maximize` takes one of two
solvers, chosen by the functional.

An entropy of power traces, S = F(s_1, ..., s_m) with s_k = sum_i p_i^a_k
(`EntropyFunctional.traces`: sm-pair, sm-tsallis and every built-in entropy
but shannon), is solved by a fixed point on the dual (Jaynes 1957; Boyd &
Vandenberghe 2004, ch. 5).  Each round fixes w = dF/ds at the current point
and solves the separable concave problem max sum_k w_k s_k under the
constraints exactly: damped Newton on its m + 1 multipliers, with each
p_i = (phi')^-1(mu + lambda . a_i) in closed form for one trace (renyi,
tsallis, sharma_mittal) and by a vectorised Newton in log p for more.
The round count is the `iterations` reported.  The multipliers fitted to
warm-start a round are also the KKT certificate of the point it starts from.
Where a round's solve gives up, projected ascent continues from there.

Every other functional runs projected gradient ascent: each iterate is
pulled back onto {p >= 0, A p = b, sum p = 1} by the exact Euclidean
projection max(x - A^T nu, 0), with nu found by semismooth Newton on a
convex dual of m + 1 variables (`_Feasible.project`).  Backtracking keeps
the ascent monotone.  The stationarity max|P(x + g) - x| is formed only when
the line search's first trial P(x + s g) cannot bound it above tol: for
feasible x, |P(x + s g) - x|_2 is non-decreasing in s and
|P(x + s g) - x|_2 / s non-increasing (Gafni & Bertsekas 1984; Calamai &
More 1987, Lemma 2.2).

For concave functionals (every strictly shaped built-in) the stationary
point found is the global maximizer.  For anything else the solver makes no
global claim: run with `restarts > 1` and read `restart_spread` in the
result; a visible spread means the landscape has several basins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import Infeasible, InvalidArgument, LengthMismatch
from .formal_group import _seed
from .hf_entropy import EntropyFunctional
from .probability import ProbDist

#: Weights are clipped to at least this before evaluating S or its gradient.
EVAL_CLIP = 1e-12

#: Feasibility declared when the affine residual is below this.
FEAS_TOL = 1e-9

#: Step of the central differences for functionals without a gradient.
GRAD_STEP = 1e-6

_NEWTON_ROUNDS = 100
#: Projection residual |a_i p - b_i| accepted, per unit of the largest |a_ij| in row i.
_PROJ_TOL = 1e-12
_BISECTIONS = 100
_EPS = float(np.finfo(float).eps)

#: Coordinates per block of the finite-difference stencil (2 rows each).
_FD_BLOCK = 64

#: Largest Newton step in log p of the dual's inner inversion; a step of at
#: most _LOG_TOL is its last, since Newton leaves an error of its square.
_LOG_STEP = 64.0
_LOG_TOL = 1e-8

#: Rounds in a row above its lowest stationarity after which the dual stops.
_STALE_ROUNDS = 10


@dataclass(frozen=True)
class ConstraintSet:
    """Expectation constraints A p = b with linearly independent rows."""

    coefficients: np.ndarray
    targets: np.ndarray

    def __post_init__(self) -> None:
        try:
            a = np.atleast_2d(np.asarray(self.coefficients, dtype=float))
        except ValueError as exc:  # rows of unequal length
            raise LengthMismatch("constraint rows must be numbers, all of one length") from exc
        if a.ndim != 2:
            raise LengthMismatch(f"constraint coefficients must be (rows, W), got shape {a.shape}")
        b = np.asarray(self.targets, dtype=float).reshape(-1)
        if a.shape[0] != b.size:
            raise LengthMismatch(
                f"{a.shape[0]} constraint rows but {b.size} targets"
            )
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise InvalidArgument("constraint data must be finite")
        with np.errstate(over="ignore"):  # the projection squares each row's largest entry
            if not np.isfinite(np.square(np.abs(a).max(axis=1, initial=0.0))).all():
                raise InvalidArgument(f"constraint entry {np.abs(a).max():g} squares to infinity")
        if a.shape[0] > 0 and np.linalg.matrix_rank(a) < a.shape[0]:
            raise InvalidArgument("constraint rows are linearly dependent")
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "coefficients", a)
        object.__setattr__(self, "targets", b)


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
        """The fields in order, with `dist` as its weight list under "weights"."""
        row = {f.name: getattr(self, f.name) for f in fields(self)}
        row["restart_values"] = list(self.restart_values)
        return {"weights": row.pop("dist").weights.tolist(), **row}


class _Feasible:
    """Exact Euclidean projection onto {p >= 0, A_full p = b_full}."""

    def __init__(self, a_full: np.ndarray, b_full: np.ndarray):
        self.a = a_full
        self.b = b_full
        self.gram_pinv = np.linalg.pinv(a_full @ a_full.T)
        self.rank = int(np.linalg.matrix_rank(a_full))
        row_scale = np.abs(a_full).max(axis=1)
        scale = float(row_scale.max())
        self.row_tol = _PROJ_TOL * np.maximum(1.0, row_scale)  # large rows keep the sum row's
        self.tol = float(self.row_tol.max())  # the loosest row's, which `floor` bounds with
        self.pullback = a_full.T @ self.gram_pinv
        # at least (max|A| / sigma_min(A))^2 and 1: ill-conditioned rows
        # enlarge the error that rounding and the tolerance leave in P
        self.gain = max(1.0, float(np.trace(self.gram_pinv)) * scale**2)

    def residual(self, x: np.ndarray) -> float:
        return float(np.abs(self.a @ x - self.b).max())

    def floor(self, scale: float) -> float:
        """How far the stopping tolerance and rounding move P(z) for |z| <= scale."""
        return self.gain * (self.tol + self.a.shape[1] * _EPS * scale)

    def project(self, x: np.ndarray) -> np.ndarray:
        """max(x - A^T nu, 0), where nu minimizes the convex dual
        theta(nu) = |max(x - A^T nu, 0)|^2 / 2 + b^T nu.

        Semismooth Newton (Qi & Sun 1993) from the affine multiplier: the
        generalized Hessian is the Gram matrix of the active columns, solved
        by least squares, and Armijo backtracking keeps theta decreasing.  A
        full step on active columns of full rank that keeps the active set is
        exact up to rounding, so it stops once |A p - b| is at rounding level:
        each row within its tolerance, or after one refinement step past the
        first such step.  Forming x - A^T nu rounds at about eps |x|, so for
        |x| above about 1e4 that floor lies over the tolerance and further
        rounds cannot lower it.  When the constraints miss the simplex theta is unbounded
        below, and the point returned keeps a residual.
        """
        miss = self.a @ x - self.b
        y = x - self.pullback @ miss
        if y.min() >= 0.0 and (np.abs(self.a @ y - self.b) <= self.row_tol).all():
            return y
        nu = self.gram_pinv @ miss
        z = x - self.a.T @ nu
        p = np.maximum(z, 0.0)
        full = None  # active set of the last full step on full-rank columns
        for _ in range(_NEWTON_ROUNDS):
            gap = self.a @ p - self.b  # minus the dual gradient
            if (np.abs(gap) <= self.row_tol).all():
                return p
            active = z > 0.0
            refine = full is not None and np.array_equal(active, full)
            cols = self.a[:, active]
            gram = cols @ cols.T
            step, _, rank, _ = np.linalg.lstsq(gram, gap, rcond=None)
            rest = gap - gram @ step
            if rank < self.rank and np.abs(rest).max() > 0.5 * np.abs(gap).max():
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
            lift = float(self.b @ step)
            t = 1.0
            while True:
                trial = nu + t * step
                z_t = x - self.a.T @ trial
                p_t = np.maximum(z_t, 0.0)
                change = 0.5 * float((p_t - p) @ (p_t + p)) + t * lift
                if change <= -1e-4 * t * slope:
                    break
                if np.array_equal(trial, nu):
                    # p_t is p, so change is t lift and every shorter t fails too
                    return p
                t *= 0.5
                if t < 1e-12:
                    return p
            if refine:
                return p_t  # the last full step kept its active set
            full = active if t == 1.0 and rank == self.rank else None
            nu, z, p = trial, z_t, p_t
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
        if mid == lo or mid == hi:
            break  # lo and hi are adjacent floats: no later round moves them
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

    A functional with `traces` (`entropy_functional` sets it for every
    built-in but shannon) takes the dual fixed point, where `iterations` and
    `max_iter` count its outer rounds and, once a round gives up, the ascent
    steps that continue from there; any other takes projected ascent, where
    they count ascent steps.  The dual stops once its KKT residual is within
    tol, ascent once max|P(x + g) - x| is (the same where x and P(x + g) have
    no zero weight), and `converged` also needs the constraint residual within
    FEAS_TOL.  Gradients are analytic when the functional carries one (every
    (h, f) pair, and the chain rule of sm-pair and sm-tsallis) and central
    differences with step GRAD_STEP otherwise.  Restarts after the first start
    either solver from a projected Dirichlet draw.
    Raises InvalidArgument unless max_iter >= 1, tol >= 0 and numpy can hold
    `size` weights, and Infeasible when no probability vector satisfies the
    constraints; failure to reach `tol` within `max_iter` only clears the
    `converged` flag.
    """
    if size < 1:
        raise LengthMismatch(f"need at least one outcome, got {size}")
    if constraints is None:
        try:
            constraints = ConstraintSet(np.empty((0, size)), ())
        except ValueError as exc:  # numpy refuses the shape before allocating
            raise InvalidArgument(f"cannot hold {size} outcomes: {exc}") from exc
    if constraints.coefficients.shape[1] != size:
        raise LengthMismatch(
            f"constraints are over {constraints.coefficients.shape[1]} outcomes, expected {size}"
        )
    if restarts < 1:
        raise InvalidArgument("restarts must be at least 1")
    if max_iter < 1:
        raise InvalidArgument(f"max_iter must be at least 1, got {max_iter}")
    if not tol >= 0.0:
        raise InvalidArgument(f"tol must be non-negative, got {tol}")

    a_full = np.vstack([np.ones((1, size)), constraints.coefficients])
    b_full = np.concatenate(([1.0], constraints.targets))
    feasible = _Feasible(a_full, b_full)

    start = feasible.project(np.full(size, 1.0 / size))
    if feasible.residual(start) > FEAS_TOL:
        a, b = constraints.coefficients, constraints.targets  # a_i . p spans [min a_i, max a_i]
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

    def grad(x: np.ndarray) -> np.ndarray:
        if entropy.gradient is None:
            return _fd_gradient(entropy.fn, x, GRAD_STEP)
        return np.asarray(entropy.gradient(np.maximum(x, EVAL_CLIP)), dtype=float)

    rng = np.random.default_rng(_seed(seed))
    runs = []
    # As in `eval`: a non-finite value or gradient ends the run unconverged, without a warning.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for r in range(restarts):
            x0 = start if r == 0 else feasible.project(rng.dirichlet(np.ones(size)))
            if entropy.traces is not None:
                runs.append(_fixed_point(x0, entropy.traces, value, grad, feasible, max_iter, tol))
            else:
                runs.append(_ascend(x0, value, grad, feasible, max_iter, tol))

    x_best, v_best, iters, converged, stationarity = max(runs, key=lambda run: run[1])
    weights = np.maximum(x_best, 0.0)
    weights = weights / weights.sum()
    restart_values = tuple(run[1] for run in runs)
    residual = feasible.residual(x_best)  # a step that rounds off the slice is no maximizer
    return MaxentResult(
        dist=ProbDist(weights),
        value=v_best,
        converged=converged and residual <= FEAS_TOL,
        iterations=iters,
        constraint_residual=residual,
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
    """Projected gradient ascent; x is stationary when max|P(x + g) - x| <= tol.

    The line search's first trial y = P(x + s g) comes first, and at s = 1 it
    is P(x + g).  Otherwise the lemma in the module docstring bounds the
    stationarity below by |y - x|_2 / (max(s, 1) sqrt(W)); above 2 (tol +
    floor), P(x + g) is formed only at an exit, which reports it exactly.
    """
    x = x0
    v = value(x)
    step = 1.0
    for it in range(1, max_iter + 1):
        g = grad(x)
        s = step
        y = feasible.project(x + s * g)
        if s == 1.0:
            stationarity = float(np.abs(y - x).max())
        else:
            reach = max(s, 1.0)
            bound = float(np.linalg.norm(y - x)) / (reach * math.sqrt(x.size))
            # y and P(x + g) each carry up to the floor
            floor = feasible.floor(1.0 + reach * float(np.abs(g).max()))
            proven = bound > 2.0 * (tol + floor)
            stationarity = None if proven else _stationarity(feasible, x, g)
        if stationarity is not None and stationarity <= tol:
            return x, v, it, True, stationarity
        while True:
            vy = value(y)
            if v <= vy < math.inf and vy >= v + 1e-4 * float(g @ (y - x)):  # overflow is no rise
                break
            s *= 0.5
            if s < 1e-14:
                # No improving step exists at any scale: numerically stationary.
                if stationarity is None:
                    stationarity = _stationarity(feasible, x, g)
                return x, v, it, stationarity <= tol, stationarity
            y = feasible.project(x + s * g)
        x, v = y, vy
        step = min(s * 2.0, 1e3)
    stationarity = _stationarity(feasible, x, grad(x))  # of the weights returned
    return x, v, max_iter, stationarity <= tol, stationarity


def _stationarity(feasible, x, g) -> float:
    return float(np.abs(feasible.project(x + g) - x).max())


def _fixed_point(x, traces, value, grad, feasible, max_iter, tol):
    """The dual fixed point for S = F(s_1, ..., s_m) of power traces s_k = sum_i p_i^a_k.

    Each round fixes w = dF/ds at x and moves x to the maximizer of the
    separable concave sum_k w_k s_k on the feasible set (`_separable_max`).
    phi'(t) = sum_k w_k a_k t^(a_k - 1) is dS/dp at x up to a constant, so the
    fit of phi'(x) that warm-starts a round judges the last round's x by its
    KKT residual (`_kkt`), ascent's max|P(x + g) - x| where x and P(x + g) have
    no zero weight.  A round that moves no weight by over _PROJ_TOL of itself
    ends the run, as does the _STALE_ROUNDS-th round in a row above the lowest
    stationarity (exponents near 0 or 1 have a rounding floor above tol).
    Where an inner solve fails, ascent continues from x with the rounds left.
    """
    alpha = np.asarray(traces.exponents, dtype=float)
    lowest, stale, settled = math.inf, 0, False
    for it in range(max_iter + 1):  # rounds done
        w = np.asarray(traces.outer_gradient(traces.sums(x)), dtype=float)
        c, e = w * alpha, alpha - 1.0  # phi'(t) = sum_k c_k t^e_k
        nu, stationarity = _kkt(c, e, feasible.a, x)
        if it:
            lowest, stale = (stationarity, 0) if stationarity < lowest else (lowest, stale + 1)
            if stationarity <= tol or settled or stale == _STALE_ROUNDS or it == max_iter:
                return x, value(x), it, stationarity <= tol, stationarity
        y = _separable_max(c, e, feasible, x, nu)
        if y is None:
            x, v, steps, *verdict = _ascend(x, value, grad, feasible, max_iter - it, tol)
            return x, v, it + steps, *verdict
        settled = bool((np.abs(y - x) <= _PROJ_TOL * np.maximum(x, y)).all())
        x = y


def _kkt(c, e, a, x):
    """nu fitting phi'(x) = sum_k c_k x^e_k by A^T nu where x > 0, and x's KKT residual."""
    slopes = (c * np.power(x[:, None], e)).sum(axis=1)  # phi'(0+) at a zero weight
    pos = x > 0.0
    nu = np.linalg.lstsq(a[:, pos].T, slopes[pos], rcond=None)[0]
    miss = slopes - a.T @ nu  # where x = 0 only phi'(0+) above the price A^T nu counts
    return nu, float(np.where(pos, np.abs(miss), np.maximum(miss, 0.0)).max())


def _separable_max(c, e, feasible, x, nu):
    """argmax of sum_i phi(p_i), phi'(t) = sum_k c_k t^e_k, over {p >= 0, A p = b}; None on failure.

    phi must be strictly concave (each c_k e_k < 0).  Then p_i = (phi')^-1(y_i)
    with y = A^T nu, or 0 where y_i >= phi'(0+), and nu minimizes the convex
    dual g(nu) = sum_i [phi(p_i) - y_i p_i] + b . nu, whose gradient is
    b - A p and Hessian A diag(-1/phi''(p)) A^T (Boyd & Vandenberghe 2004,
    ch. 5).  Newton on nu starts from the given fit (or the uniform point's)
    and descends |A p - b|^2, on which it backtracks: g itself changes below
    its rounding once the residual is small.  It stops one full step after
    each row's residual is within its projection tolerance.
    """
    if not np.all(c * e < 0.0):  # a nan fails too
        return None
    a, b = feasible.a, feasible.b

    def primal(nu, u):
        """(p, g's Hessian, log p) at y = A^T nu, or None where p or the Hessian is not finite."""
        y = a.T @ nu
        if e.max() < 0.0 and y.min() <= 0.0:  # phi' > 0 falls to 0 only as t -> inf
            return None
        live = y < 0.0 if e.min() > 0.0 else np.full(y.size, True)  # else phi'(0+) = inf
        u = u.copy()
        u[live] = _log_inverse(c, e, y[live], u[live])
        p = np.where(live, np.exp(u), 0.0)
        d = np.where(live, -1.0 / (c * e * np.power(p[:, None], e - 1.0)).sum(axis=1), 0.0)
        hessian = (a * d) @ a.T  # d is near 1e300 p^2 at exponents near 0, so this overflows
        return (p, hessian, u) if np.isfinite(p).all() and np.isfinite(hessian).all() else None

    state = primal(nu, np.log(np.where(x > 0.0, x, 1.0 / x.size)))
    if state is None:  # start from the uniform point's multipliers instead
        nu = np.linalg.lstsq(a.T, np.full(x.size, (c * x.size**-e).sum()), rcond=None)[0]
        state = primal(nu, np.full(x.size, -math.log(x.size)))
        if state is None:
            return None
    p, hessian, u = state
    gap = a @ p - b
    for _ in range(_NEWTON_ROUNDS):
        step = np.linalg.lstsq(hessian, gap, rcond=None)[0]
        if (np.abs(gap) <= feasible.row_tol).all():
            last = primal(nu + step, u)
            if last is not None and np.abs(a @ last[0] - b).max() <= np.abs(gap).max():
                return last[0]
            return p  # rounding rules already
        merit = float(gap @ gap)
        t = 1.0
        while True:
            trial = primal(nu + t * step, u)
            if trial is not None:
                trial_gap = a @ trial[0] - b
                if float(trial_gap @ trial_gap) <= (1.0 - 2e-4 * t) * merit:
                    break
            t *= 0.5
            if t < 1e-12:  # at the rounding floor of an ill-conditioned A D A^T
                return p if np.abs(gap).max() <= FEAS_TOL else None
        nu = nu + t * step
        (p, hessian, u), gap = trial, trial_gap
    return None


def _log_inverse(c, e, y, u):
    """log t solving sum_k c_k t^e_k = y entrywise: log(y / c) / e at one term, else Newton from u.

    Every c_k e_k < 0, so the sum decreases in t.  With P and N the sums of
    its positive and negative terms, Newton runs on
    Q(u) = log(P + max(-y, 0)) - log(N + max(y, 0)), which decreases and is
    close to linear in u (affine at one term), so it converges from any
    start: each log is a log-sum-exp, and at the root |Q'| is at least the
    smallest |e_k| (its terms are averages of the e_k).  A step past a
    bracket the iterates have set bisects it instead; it stops once no step
    exceeds _LOG_TOL or the rounding of Q over |Q'|, which exponents near 0 lift above it.
    """
    if c.size == 1:  # Q is affine; log|y| - log|c| would cancel to a 1e-14 error
        return np.log(y / c[0]) / e[0]
    pos = (c > 0.0)[:, None]
    logc = np.log(np.abs(c))[:, None]
    signed = np.where(pos, e[:, None], -e[:, None])  # d/du of log P's terms, of -log N's
    extra_top = np.log(np.maximum(-y, 0.0))
    extra_bottom = np.log(np.maximum(y, 0.0))
    lo = np.full(u.size, -math.inf)
    hi = np.full(u.size, math.inf)
    for _ in range(_NEWTON_ROUNDS):
        z = logc + e[:, None] * u
        top = np.logaddexp.reduce(np.where(pos, z, -math.inf), axis=0, initial=-math.inf)
        bottom = np.logaddexp.reduce(np.where(pos, -math.inf, z), axis=0, initial=-math.inf)
        top, bottom = np.logaddexp(top, extra_top), np.logaddexp(bottom, extra_bottom)
        gap = top - bottom
        share = np.exp(z - np.where(pos, top, bottom))  # of its log's argument
        slope = (signed * share).sum(axis=0)
        lo = np.where(gap > 0.0, u, lo)
        hi = np.where(gap < 0.0, u, hi)
        nxt = u + np.clip(-gap / slope, -_LOG_STEP, _LOG_STEP)
        nxt = np.where((nxt < lo) | (nxt > hi), 0.5 * (lo + hi), nxt)
        floor = 8.0 * _EPS * (np.abs(top) + np.abs(bottom)) / np.abs(slope)
        done = bool((np.abs(nxt - u) <= np.maximum(_LOG_TOL, floor)).all())
        u = nxt
        if done:
            break
    return u
