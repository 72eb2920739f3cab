"""Constrained entropy maximization on the simplex."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entrogeo import ConstraintSet, EntropyFunctional, builtin_functional, maximize
from entrogeo import maxent
from entrogeo.cli import execute
from entrogeo.composition import sm_pair_entropy, sm_tsallis_entropy
from entrogeo.errors import EntrogeoError, Infeasible, InvalidArgument, LengthMismatch
from entrogeo.maxent import _EPS, _FD_BLOCK, EVAL_CLIP, _fd_gradient, _Feasible

import maxent_oracle

# one linear expectation constraint: values (0, 1, 2), mean pinned to 1.2.
# Reference solution from scalar root finding at high precision.
GIBBS_A = np.array([[0.0, 1.0, 2.0]])
GIBBS_TARGET = 1.2
GIBBS_WEIGHTS = [0.2383714066067965, 0.32325718678640697, 0.4383714066067965]
GIBBS_VALUE = 1.0683833764644701


def test_unconstrained_shannon_is_uniform():
    result = maximize(builtin_functional("shannon"), size=4)
    assert result.converged
    np.testing.assert_allclose(result.dist.weights, 0.25, atol=1e-9)
    assert result.value == pytest.approx(np.log(4.0), abs=1e-10)
    assert result.constraint_residual <= 1e-9


def test_mean_constrained_shannon_matches_the_reference():
    result = maximize(
        builtin_functional("shannon"),
        size=3,
        constraints=ConstraintSet(GIBBS_A, [GIBBS_TARGET]),
    )
    assert result.converged
    np.testing.assert_allclose(result.dist.weights, GIBBS_WEIGHTS, atol=1e-6)
    assert result.value == pytest.approx(GIBBS_VALUE, abs=1e-9)
    assert result.constraint_residual <= 1e-8
    # the optimum is an exponential tilt: log-weights are affine in the values
    logs = np.log(result.dist.weights)
    second_diffs = logs[2] - 2.0 * logs[1] + logs[0]
    assert second_diffs == pytest.approx(0.0, abs=1e-5)


def test_pinned_coordinate():
    result = maximize(
        builtin_functional("shannon"),
        size=2,
        constraints=ConstraintSet([[1.0, 0.0]], [0.75]),
    )
    np.testing.assert_allclose(result.dist.weights, [0.75, 0.25], atol=1e-8)


def test_finite_difference_gradient_path():
    # a functional without a gradient, so this exercises the FD branch
    renyi = builtin_functional("renyi", alpha=2.0)
    blind = EntropyFunctional(fn=renyi.fn, name="renyi-no-grad")
    result = maximize(blind, size=4, tol=1e-7)
    assert result.converged
    np.testing.assert_allclose(result.dist.weights, 0.25, atol=1e-6)


def test_fd_and_analytic_gradients_agree_on_the_optimum():
    tsallis = builtin_functional("tsallis", q=2.0)
    blind = EntropyFunctional(fn=tsallis.fn, name="tsallis-no-grad")
    constraints = ConstraintSet([[0.0, 1.0, 2.0]], [0.8])
    with_grad = maximize(tsallis, size=3, constraints=constraints)
    without = maximize(blind, size=3, constraints=constraints, tol=1e-9)
    np.testing.assert_allclose(with_grad.dist.weights, without.dist.weights, atol=1e-6)


def test_infeasible_target_raises():
    with pytest.raises(Infeasible):
        maximize(
            builtin_functional("shannon"),
            size=3,
            constraints=ConstraintSet(GIBBS_A, [3.0]),  # mean of {0,1,2} cannot reach 3
        )


@pytest.mark.parametrize(
    "target, miss",
    [(2.0 + 1e-6, "1.000e-06"), (2.5, "5.000e-01"), (-0.1, "1.000e-01")],
)
def test_infeasible_target_reports_its_distance_from_the_reachable_range(target, miss):
    # on the simplex the mean of {0, 1, 2} spans exactly [0, 2]
    constraints = ConstraintSet(GIBBS_A, [target])
    with pytest.raises(Infeasible) as err:
        maximize(builtin_functional("shannon"), size=3, constraints=constraints)
    assert str(err.value) == (
        f"constraint row 0 targets {target!r}, outside the range [0, 2] "
        f"it spans on the simplex: misses by {miss}"
    )


def test_the_row_that_misses_most_is_named():
    constraints = ConstraintSet([[0.0, 1.0, 2.0], [1.0, 0.0, 0.0]], [2.5, 1.75])
    with pytest.raises(Infeasible, match=r"^constraint row 1 targets 1\.75, .* by 7\.500e-01$"):
        maximize(builtin_functional("shannon"), size=3, constraints=constraints)


def test_two_row_infeasible_constraints_raise():
    # p0 = 0.9 leaves 0.1 for p1 + p2, so the mean of {0,1,2} is at most 0.2
    constraints = ConstraintSet([[0.0, 1.0, 2.0], [1.0, 0.0, 0.0]], [1.2, 0.9])
    with pytest.raises(Infeasible, match="^constraints miss the simplex jointly; each row alone"):
        maximize(builtin_functional("shannon"), size=3, constraints=constraints)
    # a mean of exactly 2 is reachable alone (p = e_2), but not with p0 = 0.5: no zero miss
    constraints = ConstraintSet([[0.0, 1.0, 2.0], [1.0, 0.0, 0.0]], [2.0, 0.5])
    with pytest.raises(Infeasible, match="^constraints miss the simplex jointly; each row alone"):
        maximize(builtin_functional("shannon"), size=3, constraints=constraints)


@pytest.mark.parametrize("scale", [1e12, 1e14, 1e16, 1e100])
def test_a_row_of_large_entries_does_not_loosen_the_sum_row(scale):
    # p = (0.3, 0, 0.7) meets p_0 + scale p_1 - p_2 = -0.4 exactly.  One tolerance scaled by
    # max|A| let Newton stop at (1/3, 0, 1/3), with the sum row off by 0.4.
    a_full = np.array([[1.0, 1.0, 1.0], [1.0, scale, -1.0]])
    b_full = np.array([1.0, -0.4])
    p = _Feasible(a_full, b_full).project(np.full(3, 1.0 / 3.0))
    tol = 1e-12 * np.maximum(1.0, np.abs(a_full).max(axis=1))
    assert np.all(np.abs(a_full @ p - b_full) <= tol)
    result = maximize(
        builtin_functional("shannon"), size=3, constraints=ConstraintSet(a_full[1:], b_full[1:])
    )
    assert result.converged
    np.testing.assert_allclose(result.dist.weights, [0.3, 0.0, 0.7], rtol=0.0, atol=1e-15)


def test_a_row_of_moderately_large_entries_converges():
    # One tolerance scaled by max|A| = 1e6 let the sum row miss by up to 1e-6, above the
    # stationarity tol of 1e-8, and the ascent ran to max_iter unconverged.
    constraints = ConstraintSet([[1.0, 1e6, -1.0]], [0.5])
    result = maximize(builtin_functional("shannon"), size=3, constraints=constraints)
    assert result.converged and result.iterations < 10
    assert result.constraint_residual <= 1e-9


def _dykstra(feasible, x, rounds=100_000):
    """Dykstra's alternating projection between the affine set and the orthant."""
    p_corr = np.zeros_like(x)
    q_corr = np.zeros_like(x)
    current = x
    for _ in range(rounds):
        y = current + p_corr
        u = y - feasible.pullback @ (feasible.a @ y - feasible.b)
        p_corr = y - u
        v = np.maximum(u + q_corr, 0.0)
        q_corr = u + q_corr - v
        if np.max(np.abs(v - current)) <= 1e-14 and feasible.residual(v) <= 1e-9:
            return v
        current = v
    raise AssertionError("the Dykstra reference did not converge")


def _projection_case(m, spare, log_scale, seed):
    """A feasible slice {p >= 0, A p = b} of the simplex and a point to project.

    w >= m + 2 keeps a segment or more feasible; a square system pins one
    point, where the affine map alone already rounds to ~1e-11.
    """
    w = m + spare
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(size=(m, w))
    inside = rng.dirichlet(np.ones(w))
    a_full = np.vstack([np.ones((1, w)), coeffs])
    b_full = np.concatenate(([1.0], coeffs @ inside))
    return _Feasible(a_full, b_full), inside + rng.normal(size=w) * 10.0**log_scale


def _assert_kkt(feasible, x, p, tol=1e-12):
    assert p.min() >= 0.0
    assert np.max(np.abs(feasible.a @ p - feasible.b)) <= tol
    # x - p = A^T nu on the support and x - A^T nu <= 0 off it
    support = p > 0.0
    nu = np.linalg.lstsq(feasible.a[:, support].T, (x - p)[support], rcond=None)[0]
    shifted = x - feasible.a.T @ nu
    np.testing.assert_allclose(shifted[support], p[support], rtol=0.0, atol=tol)
    assert np.all(shifted[~support] <= tol)


@pytest.mark.parametrize(
    "m, spare, log_scale, seed",
    [
        (2, 3, 0.0, 0),  # too few active columns on the way
        (2, 2, 0.0, 5),  # the same
        (1, 2, -1.0, 4485),  # the affine map alone rounds to 1.5e-11
        # cond(A) 1.7e3: the first full step keeps the active set but rounds
        # to 1.2e-12; only the refinement step after it meets the tolerance,
        # so this case rejects a stop right after that first step
        (1, 2, 0.0, 4485),
        (1, 2, 2.0, 686),  # the same, at 1.3e-12
        (2, 2, 2.0, 492),  # the same after two earlier rounds, at 1.04e-12
    ],
)
def test_projection_meets_kkt_on_hard_cases(m, spare, log_scale, seed):
    feasible, x = _projection_case(m, spare, log_scale, seed)
    _assert_kkt(feasible, x, feasible.project(x))


@pytest.mark.parametrize(
    "m, spare, log_scale, seed",
    [
        (1, 10, 4.0, 0),
        (1, 10, 4.0, 7),
        (1, 10, 5.0, 1),
        (1, 10, 5.0, 4),
        (1, 10, 6.0, 5),
        (1, 10, 6.0, 8),
        # a full step keeps an active set of rank 2 < 3, which is not exact:
        # stopping one step after it leaves |A p - b| at 2e-2
        (2, 2, 4.0, 2),
    ],
)
def test_projection_stops_at_its_rounding_floor(monkeypatch, m, spare, log_scale, seed):
    # |x| of 1e4-1e6: x - A^T nu rounds at about eps |x|, above the 1e-12
    # tolerance, and further Newton rounds cannot lower that floor
    feasible, x = _projection_case(m, spare, log_scale, seed)
    solves = []
    lstsq = np.linalg.lstsq

    def counting(*args, **kwargs):
        solves.append(1)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting)
    p = feasible.project(x)
    monkeypatch.undo()
    assert len(solves) <= 6
    _assert_kkt(feasible, x, p, tol=x.size * np.finfo(float).eps * max(1.0, np.abs(x).max()))


@pytest.mark.parametrize(
    "m, spare, log_scale, seed",
    [
        # every hard case of the two projection tests above
        (2, 3, 0.0, 0),
        (2, 2, 0.0, 5),
        (1, 2, -1.0, 4485),
        (1, 2, 0.0, 4485),
        (1, 2, 2.0, 686),
        (2, 2, 2.0, 492),
        (1, 10, 4.0, 0),
        (1, 10, 4.0, 7),
        (1, 10, 5.0, 1),
        (1, 10, 5.0, 4),
        (1, 10, 6.0, 5),
        (1, 10, 6.0, 8),
        (2, 2, 4.0, 2),
        # seeded feasible points with large steps
        (0, 30, 6.0, 11),
        (1, 40, 5.0, 12),
        (2, 60, 6.0, 13),
    ],
)
def test_projected_step_grows_with_s_and_its_ratio_to_s_shrinks(m, spare, log_scale, seed):
    # For feasible x, |P(x + s g) - x| grows with s and |P(x + s g) - x| / s
    # shrinks (Calamai & More 1987, Lemma 2.2): the ascent's stationarity
    # bound, held here with the slack of its margin.
    feasible, point = _projection_case(m, spare, log_scale, seed)
    x = feasible.project(point)
    g = np.random.default_rng(seed).normal(size=x.size) * 10.0**log_scale
    full = np.linalg.norm(feasible.project(x + g) - x)
    for s in (1e-6, 1e-3, 0.1, 0.5, 0.9, 1.0, 1.1, 2.0, 8.0, 100.0, 1e3):
        reach = max(s, 1.0)
        slack = 2.0 * np.sqrt(x.size) * feasible.floor(1.0 + reach * np.abs(g).max())
        moved = np.linalg.norm(feasible.project(x + s * g) - x)
        assert moved <= reach * (full + slack)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2),
    st.integers(2, 6),
    st.floats(-2.0, 0.0),
    st.integers(0, 2**32 - 1),
)
def test_projection_meets_kkt_and_matches_dykstra(m, spare, log_scale, seed):
    feasible, x = _projection_case(m, spare, log_scale, seed)
    p = feasible.project(x)
    _assert_kkt(feasible, x, p)
    np.testing.assert_allclose(p, _dykstra(feasible, x), rtol=0.0, atol=1e-10)


def test_batched_fd_gradient_equals_the_coordinate_loop():
    size = 2 * _FD_BLOCK + 22  # three row blocks, the last one partial
    x = np.random.default_rng(3).dirichlet(np.ones(size))
    x[0] = 0.0  # clipped to EVAL_CLIP in both
    step = 1e-6
    for functional in (
        sm_pair_entropy(0.3, 0.7, 0.5),
        builtin_functional("renyi", alpha=0.5),
        builtin_functional("sharma_mittal", alpha=0.5, beta=0.7),
    ):
        loop = np.empty(size)
        for i in range(size):
            e = np.zeros(size)
            e[i] = step
            plus = float(functional.fn(np.maximum(x + e, EVAL_CLIP)))
            minus = float(functional.fn(np.maximum(x - e, EVAL_CLIP)))
            loop[i] = (plus - minus) / (2.0 * step)
        assert np.array_equal(_fd_gradient(functional.fn, x, step), loop)


def test_constraint_rows_must_form_a_matrix():
    with pytest.raises(LengthMismatch, match="all of one length"):
        ConstraintSet([[1.0, 2.0], [1.0]], [1.0, 2.0])
    with pytest.raises(LengthMismatch, match=r"must be \(rows, W\), got shape \(1, 1, 2\)"):
        ConstraintSet([[[1.0, 0.0]]], [0.5])


def test_constraint_validation():
    with pytest.raises(LengthMismatch):
        ConstraintSet([[1.0, 0.0]], [0.5, 0.5])
    with pytest.raises(ValueError):
        ConstraintSet([[1.0, 1.0], [2.0, 2.0]], [1.0, 2.0])  # dependent rows
    with pytest.raises(ValueError):
        ConstraintSet([[np.inf, 0.0]], [0.5])
    with pytest.raises(LengthMismatch):
        maximize(
            builtin_functional("shannon"),
            size=4,
            constraints=ConstraintSet([[1.0, 0.0]], [0.5]),
        )


def test_restarts_land_on_the_same_value():
    result = maximize(
        builtin_functional("shannon"),
        size=3,
        constraints=ConstraintSet(GIBBS_A, [GIBBS_TARGET]),
        restarts=3,
        seed=17,
    )
    assert len(result.restart_values) == 3
    assert result.restart_spread <= 1e-7


def test_result_weights_form_a_distribution():
    result = maximize(builtin_functional("tsallis", q=0.5), size=5)
    assert result.dist.size == 5
    assert float(result.dist.weights.sum()) == pytest.approx(1.0, abs=1e-12)


def test_as_dict_round_trips_through_plain_types():
    doc = maximize(builtin_functional("shannon"), size=2).as_dict()
    assert isinstance(doc["weights"], list)
    assert isinstance(doc["converged"], bool)
    assert set(doc) == {
        "weights",
        "value",
        "converged",
        "iterations",
        "constraint_residual",
        "stationarity",
        "restart_values",
        "restart_spread",
    }


def test_bad_sizes_are_rejected():
    with pytest.raises(LengthMismatch):
        maximize(builtin_functional("shannon"), size=0)
    with pytest.raises(ValueError):
        maximize(builtin_functional("shannon"), size=2, restarts=0)
    # sizes numpy refuses before allocating; from about 1e8 to 1e15 it would try to allocate
    for size in (10**20, 2**63, 2**62):
        with pytest.raises(InvalidArgument, match=f"^cannot hold {size} outcomes: "):
            maximize(builtin_functional("shannon"), size=size)


def _ascend_eager(x0, value, grad, feasible, max_iter, tol):
    """The ascent that forms P(x + g) in every iteration: the reference for `_ascend`."""
    x = x0
    v = value(x)
    step = 1.0
    stationarity = np.inf
    for it in range(1, max_iter + 1):
        g = grad(x)
        stationarity = float(np.abs(feasible.project(x + g) - x).max())
        if stationarity <= tol:
            return x, v, it, True, stationarity
        s = step
        accepted = False
        while s >= 1e-14:
            y = feasible.project(x + s * g)
            vy = value(y)
            gain = float(g @ (y - x))
            if vy >= v + 1e-4 * gain and v <= vy < np.inf:
                accepted = True
                break
            s *= 0.5
        if not accepted:
            return x, v, it, stationarity <= tol, stationarity
        x, v = y, vy
        step = min(s * 2.0, 1e3)
    return x, v, max_iter, False, stationarity


def _ascents(monkeypatch, ascend, entropy, size, constraints, **options):
    runs = []

    def recording(*args):
        run = ascend(*args)
        runs.append(run)
        return run

    monkeypatch.setattr(maxent, "_ascend", recording)
    maximize(entropy, size, constraints, **options)
    monkeypatch.undo()
    return [(x.tobytes(), v, it, converged, stat) for x, v, it, converged, stat in runs]


def _ramp(w, target=0.3):
    return ConstraintSet((np.arange(w) / w)[None, :], [target])


def _bare(entropy):
    """The same fn without gradient or traces: the ascent on central differences."""
    return EntropyFunctional(fn=entropy.fn, name=f"bare {entropy.name}")


def _ascent_only(entropy):
    """The same functional without its trace record: the ascent on its analytic gradient."""
    return replace(entropy, traces=None)


def test_ascent_reports_what_the_eager_ascent_reports(monkeypatch):
    # (entropy, W, constraints, options); the exits reached are checked below
    panel = [
        (builtin_functional("shannon"), 10, _ramp(10), {}),  # tol exit after 40
        (builtin_functional("shannon"), 40, _ramp(40), {}),  # stalls
        (_ascent_only(builtin_functional("renyi", alpha=2.0)), 10, None, {}),  # uniform is optimal
        (_ascent_only(builtin_functional("tsallis", q=0.5)), 12, _ramp(12), {"max_iter": 1}),
        (_ascent_only(builtin_functional("tsallis", q=0.5)), 12, _ramp(12), {"max_iter": 2}),
        (_ascent_only(builtin_functional("kaniadakis", kappa=0.3)), 12, _ramp(12), {"max_iter": 3}),
        (_ascent_only(builtin_functional("kaniadakis", kappa=0.3)), 8, _ramp(8),
         {"tol": 0.0, "max_iter": 40}),
        (builtin_functional("shannon"), 8, _ramp(8), {"restarts": 2, "seed": 5}),
        (_ascent_only(builtin_functional("sharma_mittal", alpha=0.5, beta=0.7)), 10, _ramp(10),
         {"tol": 1e-10}),
        (_bare(sm_pair_entropy(0.3, 0.7, 0.5)), 10, _ramp(10), {}),  # finite differences
    ]
    exits = set()
    for entropy, size, constraints, options in panel:
        args = (entropy, size, constraints)
        got = _ascents(monkeypatch, maxent._ascend, *args, **options)
        want = _ascents(monkeypatch, _ascend_eager, *args, **options)
        assert got and got == want, (entropy.name, size, options)
        max_iter = options.get("max_iter", 100_000)
        for _, _, it, converged, _ in got:
            exits.add("tol" if converged else "max_iter" if it == max_iter else "stall")
    assert exits == {"tol", "stall", "max_iter"}


def test_ascent_projects_the_stationarity_test_only_when_the_trial_cannot_decide(monkeypatch):
    # maxent-solve's tsallis(0.5) problem at W = 200: 202 iterations.  The
    # eager ascent, which forms P(x + g) in every iteration, makes 593
    # lstsq solves here.
    solves = []
    lstsq = np.linalg.lstsq

    def counting(*args, **kwargs):
        solves.append(1)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting)
    result = maximize(_ascent_only(builtin_functional("tsallis", q=0.5)), 200, _ramp(200))
    monkeypatch.undo()
    assert result.iterations == 202
    assert len(solves) <= 300


# --- the dual fixed point for entropies of power traces -------------------------------

#: sm-pair and sm-tsallis over the shapes of the inner phi(t) = sum_k w_k t^a_k: both a
#: below 1 (phi'(0+) infinite), both above 1 (phi'(0+) = 0 is finite, so a weight can sit
#: at exactly 0), one on each side of 1; beta below and above 1.
TRACE_ENTROPIES = [
    sm_pair_entropy(0.3, 0.7, 0.5),
    sm_pair_entropy(0.4, 0.8, 1.5),
    sm_pair_entropy(1.5, 2.5, 0.5),
    sm_pair_entropy(1.5, 3.0, 2.0),
    sm_pair_entropy(0.5, 2.0, 0.7),
    sm_pair_entropy(0.5, 2.0, 1.5),
    sm_tsallis_entropy(0.3, 0.7),
    sm_tsallis_entropy(0.5, 2.0),
    sm_tsallis_entropy(2.0, 1.5),
]

#: The built-in power families on maxent-solve's parameters: renyi, tsallis and sharma-mittal
#: are one trace h(linear + c s), kaniadakis two, with exponents on each side of 1.
POWER_ENTROPIES = [
    builtin_functional("renyi", alpha=0.5),
    builtin_functional("renyi", alpha=2.0),
    builtin_functional("tsallis", q=0.5),
    builtin_functional("tsallis", q=2.0),
    builtin_functional("sharma_mittal", alpha=0.5, beta=0.7),
    builtin_functional("kaniadakis", kappa=0.3),
]

#: Iterations of the finite-difference ascent whose value the dual must reach.
ASCENT_ITERATIONS = 100


def _trace_constraints(w, rows):
    """maxent-solve's ramp a_i = i/W at 0.3, or the ramp and cos(3 a_i) at a seeded inner point."""
    if rows == 1:
        return _ramp(w)
    ramp = np.arange(w) / w
    coefficients = np.vstack([ramp, np.cos(3.0 * ramp)])
    inner = np.random.default_rng(w).dirichlet(np.ones(w))
    return ConstraintSet(coefficients, coefficients @ inner)


def _bisected_slopes(c, e, y):
    """t with sum_k c_k t^e_k = y entrywise, by 64 bisections of log t in [-745, 50]; 0 where
    the sum stays below y on all of it (phi'(0+) <= y)."""
    lo = np.full(y.size, -745.0)
    hi = np.full(y.size, 50.0)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        above = (c * np.exp(np.outer(mid, e))).sum(axis=1) > y
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    return np.where(lo == -745.0, 0.0, np.exp(0.5 * (lo + hi)))


def _bisection_fixed_point(entropy, a, b):
    """The reference: w = dF/ds at x, the separable maximizer by Newton on the multipliers from
    those of the uniform point, with each p_i bisected, until the weights stop moving."""
    alpha = np.asarray(entropy.traces.exponents)
    e = alpha - 1.0
    size = a.shape[1]
    x = np.full(size, 1.0 / size)
    for _ in range(100):
        c = entropy.traces.outer_gradient(entropy.traces.sums(x)) * alpha
        nu = np.linalg.lstsq(a.T, np.full(size, (c * size**-e).sum()), rcond=None)[0]
        p = _bisected_slopes(c, e, a.T @ nu)
        for _ in range(100):
            gap = a @ p - b
            if np.abs(gap).max() <= 1e-15:
                break
            curvature = (c * e * np.maximum(p, 1e-300)[:, None] ** (e - 1.0)).sum(axis=1)
            d = np.where(p > 0.0, -1.0 / curvature, 0.0)
            step = np.linalg.lstsq((a * d) @ a.T, gap, rcond=None)[0]
            t = 1.0
            q = _bisected_slopes(c, e, a.T @ (nu + step))
            while np.abs(a @ q - b).max() >= np.abs(gap).max() and t >= 1e-10:
                t /= 2.0
                q = _bisected_slopes(c, e, a.T @ (nu + t * step))
            if t < 1e-10:
                break  # the residual's rounding floor
            nu, p = nu + t * step, q
        if np.abs(p - x).max() <= 1e-14:
            return p
        x = p
    raise AssertionError("the bisection reference did not settle")


@pytest.mark.parametrize("rows", [1, 2])
@pytest.mark.parametrize("size", [3, 10, 50, 200])
@pytest.mark.parametrize("entropy", TRACE_ENTROPIES + POWER_ENTROPIES, ids=lambda e: e.name)
def test_dual_fixed_point_matches_the_bisection_reference(entropy, size, rows):
    constraints = _trace_constraints(size, rows)
    a = np.vstack([np.ones(size), constraints.coefficients])
    b = np.concatenate(([1.0], constraints.targets))
    ref = _bisection_fixed_point(entropy, a, b)
    # P(x + g) rounds at about eps |g|, so the tolerance scales with the gradient
    tol = 1e-12 * max(1.0, float(np.abs(entropy.gradient(ref)).max()))
    result = maximize(entropy, size, constraints, tol=tol)
    assert result.converged and result.stationarity <= tol
    assert result.constraint_residual <= 1e-12
    np.testing.assert_allclose(result.dist.weights, ref, rtol=0.0, atol=1e-10)
    # The ascent may buy value with its constraint residual r: for concave S,
    # S(x) <= S(p) + nu . (A x - b) <= S(p) + |nu|_1 r, with nu the multipliers at p.
    ascent = maximize(_bare(entropy), size, constraints, max_iter=ASCENT_ITERATIONS)
    support = ref > 0.0
    nu = np.linalg.lstsq(a[:, support].T, entropy.gradient(ref)[support], rcond=None)[0]
    slack = 1e-13 * abs(ascent.value) + np.abs(nu).sum() * ascent.constraint_residual
    assert result.value >= ascent.value - slack


def test_dual_sets_a_weight_to_exactly_zero_where_phi_prime_is_finite():
    # both exponents above 1: phi'(0+) = 0, and at W = 200 the ramp's three largest
    # values get no weight; each has gradient at most its multiplier price
    entropy = sm_pair_entropy(1.5, 3.0, 2.0)
    result = maximize(entropy, 200, _ramp(200))
    p = result.dist.weights
    assert result.converged and np.count_nonzero(p == 0.0) == 3
    a = np.vstack([np.ones(200), np.arange(200) / 200])
    nu = np.linalg.lstsq(a[:, p > 0.0].T, entropy.gradient(p)[p > 0.0], rcond=None)[0]
    assert np.all(entropy.gradient(p)[p == 0.0] <= (a.T @ nu)[p == 0.0])


def test_dual_restarts_from_the_uniform_multipliers_when_the_fit_leaves_the_domain():
    # Both exponents below 1: the warm start's least-squares fit of phi' on these
    # rows puts some y_i <= 0, where phi' > 0 has no preimage, so the inner solve
    # starts from the multipliers of the uniform point instead.
    entropy = sm_pair_entropy(0.3, 0.7, 0.5)
    constraints = ConstraintSet(
        [[-16.5, -0.2, -3.2, -14.1, 14.4], [15.6, -5.6, 5.2, -1.5, 2.4]], [11.0, 2.5]
    )
    result = maximize(entropy, 5, constraints)
    assert result.converged and result.constraint_residual <= 1e-12
    a = np.vstack([np.ones(5), constraints.coefficients])
    b = np.concatenate(([1.0], constraints.targets))
    ref = _bisection_fixed_point(entropy, a, b)
    np.testing.assert_allclose(result.dist.weights, ref, rtol=0.0, atol=1e-10)


def _tally(results, converged, non_finite):
    """The converged and non-finite counts of a sweep's results, held as a ratchet: a count
    that gets worse fails, and so does one that gets better until its pin follows it."""
    got = (sum(r.converged for r in results), sum(not np.isfinite(r.value) for r in results))
    assert got[0] >= converged and got[1] <= non_finite, f"problems were lost: {got}"
    assert got == (converged, non_finite), f"problems were gained: pin {got}"


#: Converged and non-finite results of the 200 extreme sm-pair problems below.
SM_PAIR_SWEEP = (106, 59)

#: Converged and non-finite results of the 150 extreme four-family problems below.
POWER_FAMILY_SWEEP = (129, 12)


def test_dual_raises_only_entrogeo_errors_on_extreme_problems():
    # Extreme alpha and beta, W from 2 to 50, 0 to 2 rows.  Where the warm start and the
    # uniform restart both give non-finite weights, the inner solve fails and ascent takes
    # over; about one problem in five here takes that path.  The ascent would run out the
    # default 10^5 steps on two of them, so the rounds are capped.
    rng = np.random.default_rng(0)
    results = []
    for _ in range(200):
        a1, a2 = 10.0 ** rng.uniform(-3.0, 3.0, size=2)
        beta = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 8.0)
        w = int(rng.integers(2, 51))
        rows = rng.uniform(-1.0, 1.0, size=(int(rng.integers(0, 3)), w))
        targets = rows @ rng.dirichlet(np.ones(w))
        try:
            entropy = sm_pair_entropy(a1, a2, beta)
            results.append(maximize(entropy, w, ConstraintSet(rows, targets), max_iter=200))
        except EntrogeoError:
            pass
    _tally(results, *SM_PAIR_SWEEP)


def test_power_family_duals_raise_only_entrogeo_errors_on_extreme_problems():
    # renyi, tsallis, sharma-mittal and kaniadakis at exponents from 1e-3 to 1e3, beta up to
    # 1e8 either side and kappa down to 1e-8, W from 2 to about 300, 0 to 2 rows; the rounds
    # are capped as above.  Any warning fails the test too.
    rng = np.random.default_rng(1)
    results = []
    for _ in range(150):
        family = ("renyi", "tsallis", "sharma_mittal", "kaniadakis")[int(rng.integers(4))]
        a = 10.0 ** rng.uniform(-3.0, 3.0)
        sign = rng.choice([-1.0, 1.0])
        params = {
            "renyi": {"alpha": a},
            "tsallis": {"q": a},
            "sharma_mittal": {"alpha": a, "beta": sign * 10.0 ** rng.uniform(-3.0, 8.0)},
            "kaniadakis": {"kappa": sign * 10.0 ** rng.uniform(-8.0, -1e-3)},
        }[family]
        w = int(np.exp(rng.uniform(np.log(2.0), np.log(300.0))))
        rows = rng.uniform(-1.0, 1.0, size=(int(rng.integers(0, 3)), w))
        targets = rows @ rng.dirichlet(np.ones(w))
        try:
            entropy = builtin_functional(family, **params)
            results.append(maximize(entropy, w, ConstraintSet(rows, targets), max_iter=200))
        except EntrogeoError:
            pass
    _tally(results, *POWER_FAMILY_SWEEP)


def _no_loss_panel():
    """Problems where the dual gives up at large exponents: renyi, tsallis and sharma-mittal
    (beta 0.3 and 2) at alpha or q of 50 and 200 on W = 3 with the ramp at 0.3, and tsallis at
    50 and 200 on W = 100 without rows, with the ramp, or with the ramp and cos(i) at 0.1."""
    panel = []
    for a in (50.0, 200.0):
        entropies = [builtin_functional("renyi", alpha=a), builtin_functional("tsallis", q=a)]
        entropies += [builtin_functional("sharma_mittal", alpha=a, beta=b) for b in (0.3, 2.0)]
        panel += [pytest.param(e, 3, _ramp(3), id=f"{e.name}-w3-ramp") for e in entropies]
    ramp = np.arange(100) / 100
    rows = {"none": None, "ramp": _ramp(100),
            "ramp-cos": ConstraintSet([ramp, np.cos(np.arange(100))], [0.3, 0.1])}
    for q in (50.0, 200.0):
        e = builtin_functional("tsallis", q=q)
        panel += [pytest.param(e, 100, c, id=f"{e.name}-w100-{k}") for k, c in rows.items()]
    return panel


@pytest.mark.parametrize("entropy, size, constraints", _no_loss_panel())
def test_the_dual_loses_no_problem_that_ascent_solves(monkeypatch, entropy, size, constraints):
    ascent = maximize(_ascent_only(entropy), size, constraints)
    budgets = []

    def recording(*args, _ascend=maxent._ascend):
        budgets.append(args[4])
        return _ascend(*args)

    monkeypatch.setattr(maxent, "_ascend", recording)
    result = maximize(entropy, size, constraints)
    if ascent.converged:
        assert result.converged
        assert result.value >= ascent.value - 1e-13 * abs(ascent.value)
    if budgets[:1] == [100_000]:  # the dual gave up in its first round: the ascent's own run
        assert result.as_dict() == ascent.as_dict()


def test_ascent_continues_where_the_dual_gives_up(monkeypatch):
    # tol = 0 keeps the dual going after its first round; the second round gives up, and
    # the ascent starts from the first round's point with the 9 rounds left
    separable = maxent._separable_max
    rounds, starts = [], []

    def giving_up_in_round_two(*args):
        rounds.append(args[3].copy())
        return None if len(rounds) == 2 else separable(*args)

    def recording(x0, *args, _ascend=maxent._ascend):
        run = _ascend(x0, *args)
        starts.append((x0.copy(), args[3], run))
        return run

    monkeypatch.setattr(maxent, "_separable_max", giving_up_in_round_two)
    monkeypatch.setattr(maxent, "_ascend", recording)
    result = maximize(builtin_functional("tsallis", q=0.5), 50, _ramp(50), max_iter=10, tol=0.0)
    [(x0, budget, (x, v, steps, converged, stationarity))] = starts
    assert len(rounds) == 2 and np.array_equal(x0, rounds[1]) and budget == 9
    assert result.iterations == 1 + steps and result.value == v
    assert result.stationarity == stationarity and result.converged is converged


@pytest.mark.parametrize("alpha", [0.5, 2.0, 50.0])
def test_sharma_mittal_below_beta_zero_reaches_the_uniform_value(alpha):
    # S(uniform) = (100^6 - 1) / 6 for any alpha: the gradient is about 1e12, so `converged`
    # waits on a stationarity test relative to |g|; the value and the residual do not
    entropy = builtin_functional("sharma_mittal", alpha=alpha, beta=-5.0)
    result = maximize(entropy, 100)
    assert result.value == pytest.approx(float(entropy.fn(np.full(100, 0.01))), rel=1e-14)
    assert result.constraint_residual <= 1e-15


def test_ascent_is_not_converged_off_the_slice():
    # The gradient is a constant -2e12: forming x + g rounds at about 4e-4, the projection
    # leaves the simplex, and the line search accepts the point because S rose.  The
    # weights are renormalised, so only the residual shows the miss.
    ascent = maximize(_ascent_only(builtin_functional("sharma_mittal", alpha=2.0, beta=-5.0)), 100)
    assert ascent.constraint_residual > maxent.FEAS_TOL
    assert not ascent.converged


def test_no_rows_is_no_constraints():
    for entropy, w in ((builtin_functional("tsallis", q=0.5), 10),
                       (sm_pair_entropy(0.3, 0.7, 0.5), 50)):
        empty = ConstraintSet(np.empty((0, w)), [])
        assert maximize(entropy, w).as_dict() == maximize(entropy, w, empty).as_dict()


def test_each_functional_reaches_one_solver(monkeypatch):
    solvers = []
    for name in ("_ascend", "_fixed_point"):

        def recording(*args, _solve=getattr(maxent, name), _name=name):
            solvers.append(_name)
            return _solve(*args)

        monkeypatch.setattr(maxent, name, recording)
    entropy = sm_pair_entropy(0.3, 0.7, 0.5)
    maximize(entropy, 10, _ramp(10), restarts=2)
    maximize(sm_tsallis_entropy(0.5, 2.0), 10, _ramp(10))
    for power in POWER_ENTROPIES:
        maximize(power, 10, _ramp(10))
    assert solvers == ["_fixed_point"] * (3 + len(POWER_ENTROPIES))
    solvers.clear()
    maximize(_bare(entropy), 10, _ramp(10), max_iter=3)
    maximize(builtin_functional("shannon"), 10, _ramp(10), max_iter=3)
    assert solvers == ["_ascend"] * 2


def test_dual_stops_once_its_stationarity_stops_falling(monkeypatch):
    # kaniadakis at kappa = 5e-8: its exponents 1 -+ kappa leave a rounding floor of about
    # 4e-8, above tol, and the weights never settle to _PROJ_TOL of themselves.  The run ends
    # _STALE_ROUNDS rounds after its lowest stationarity instead of running out max_iter.
    # The dual judges its start too, before the first round; that residual is not counted.
    seen = []

    def recording(*args, _kkt=maxent._kkt):
        nu, stationarity = _kkt(*args)
        seen.append(stationarity)
        return nu, stationarity

    monkeypatch.setattr(maxent, "_kkt", recording)
    result = maximize(builtin_functional("kaniadakis", kappa=5e-8), 200, _ramp(200))
    rounds = seen[1:]
    assert not result.converged and result.iterations == len(rounds) == 15
    assert result.stationarity == rounds[-1]
    assert len(rounds) - 1 - int(np.argmin(rounds)) == maxent._STALE_ROUNDS


def _log_inverse_rounds(monkeypatch, entropy, size):
    """The Newton rounds of each `_log_inverse` call while maximizing entropy on the ramp at
    size; np.clip runs once per round."""
    rounds, calls = [], []
    clip, log_inverse = np.clip, maxent._log_inverse

    def counting_clip(*args, **kwargs):
        rounds.append(1)
        return clip(*args, **kwargs)

    def counting_inverse(*args):
        before = len(rounds)
        u = log_inverse(*args)
        calls.append(len(rounds) - before)
        return u

    monkeypatch.setattr(np, "clip", counting_clip)
    monkeypatch.setattr(maxent, "_log_inverse", counting_inverse)
    maximize(entropy, size, _ramp(size))
    monkeypatch.undo()
    return calls


def test_log_inverse_stops_at_its_rounding_floor(monkeypatch):
    # kaniadakis at kappa = 1e-8 puts both exponents of phi' within 1e-8 of 0, so |Q'| is
    # about 1e-8 and Q's rounding moves u by more than _LOG_TOL: without the floor every
    # call ran all _NEWTON_ROUNDS rounds.  phi' has two terms, so every call runs Newton.
    calls = _log_inverse_rounds(monkeypatch, builtin_functional("kaniadakis", kappa=1e-8), 10)
    assert calls and min(calls) >= 1 and sum(calls) <= 20 * len(calls)


def test_one_term_log_inverse_is_its_closed_form():
    # phi'(t) = c t^e with c e < 0 is inverted by u = log(y / c) / e: c exp(e u) gives y back
    # to a few ulps, scaled by the |log(y / c)| that the argument of exp carries.
    for e in (-0.999, -0.5, 1.0, 199.0):
        for c in -np.sign(e) * np.array([1e-3, 1.0, 1e5]):
            y = np.sign(c) * np.logspace(-250.0, 250.0, 501)
            u = maxent._log_inverse(np.array([c]), np.array([e]), y, np.zeros(y.size))
            scale = np.maximum(1.0, np.abs(np.log(y / c)))
            assert np.all(np.abs(c * np.exp(e * u) - y) <= 2.0 * _EPS * scale * np.abs(y)), (c, e)


def test_only_phi_of_two_or_more_terms_runs_newton(monkeypatch):
    one_term = [builtin_functional(family, **params) for family, params in MAXENT_SOLVE_FAMILIES
                if family in ("renyi", "tsallis", "sharma_mittal")]
    for entropy in one_term:
        calls = _log_inverse_rounds(monkeypatch, entropy, 50)
        assert calls and not any(calls), entropy.name
    for entropy in (builtin_functional("kaniadakis", kappa=0.3), sm_pair_entropy(0.3, 0.7, 0.5)):
        calls = _log_inverse_rounds(monkeypatch, entropy, 50)
        assert calls and min(calls) >= 1, entropy.name


def test_dual_counts_outer_rounds_against_max_iter():
    entropy = sm_pair_entropy(0.3, 0.7, 0.5)
    one = maximize(entropy, 50, _ramp(50), max_iter=1)
    assert not one.converged and one.iterations == 1
    assert one.stationarity > 1e-8 and one.constraint_residual <= 1e-12
    full = maximize(entropy, 50, _ramp(50))
    assert full.converged and 1 < full.iterations <= 10


def test_dual_restarts_land_on_one_value():
    result = maximize(sm_pair_entropy(0.3, 0.7, 0.5), 50, _ramp(50), restarts=3, seed=11)
    assert result.converged and len(result.restart_values) == 3
    assert result.restart_spread <= 1e-12


def test_cli_sm_pair_maxent_converges():
    ramp = ",".join(f"{i / 50!r}" for i in range(50))
    code, text = execute(
        ["maxent", "--family", "sm-pair:alpha1=0.3,alpha2=0.7,beta=0.5", "--w", "50",
         "--constraint", f"{ramp}:0.3"]
    )
    assert code == 0 and '"converged":true' in text


#: maxent-solve's problems (a_i = i/W, target 0.3, default options) that still stop
#: unconverged: shannon's, the one family left on projected ascent.  The set may only
#: shrink; drop an op that converges.
UNCONVERGED_MAXENT_SOLVE = frozenset({"shannon:w50", "shannon:w200"})


#: maxent-solve's built-in families, each run at W = 10, 50 and 200.
MAXENT_SOLVE_FAMILIES = (
    ("shannon", {}),
    ("renyi", {"alpha": 0.5}),
    ("renyi", {"alpha": 2.0}),
    ("tsallis", {"q": 0.5}),
    ("tsallis", {"q": 2.0}),
    ("sharma_mittal", {"alpha": 0.5, "beta": 0.7}),
    ("kaniadakis", {"kappa": 0.3}),
)


def _maxent_solve_panel():
    """maxent-solve's ops as (label, entropy, W), each under the ramp a_i = i/W at 0.3."""
    panel = [
        (f"{family}({','.join(f'{v:g}' for v in params.values())})" if params else family,
         builtin_functional(family, **params), w)
        for family, params in MAXENT_SOLVE_FAMILIES
        for w in (10, 50, 200)
    ]
    return panel + [("sm_pair(0.3,0.7,0.5)", sm_pair_entropy(0.3, 0.7, 0.5), w) for w in (10, 50)]


def test_maxent_solve_panel_unconverged_set_only_shrinks():
    unconverged = {
        f"{label}:w{w}"
        for label, entropy, w in _maxent_solve_panel()
        if not maximize(entropy, w, _ramp(w)).converged
    }
    assert not unconverged - UNCONVERGED_MAXENT_SOLVE, "ops that converged before no longer do"
    assert not UNCONVERGED_MAXENT_SOLVE - unconverged, "ops now converge: drop them from the set"


def test_the_dual_projects_only_its_start(monkeypatch):
    # Each round is judged by the KKT residual of its own warm-start fit, so the one
    # projection is the start's, however many rounds run (sm-pair takes 3 here).
    calls = []
    project = _Feasible.project

    def counting(self, x):
        calls.append(1)
        return project(self, x)

    monkeypatch.setattr(_Feasible, "project", counting)
    duals = [(label, entropy, w) for label, entropy, w in _maxent_solve_panel() if entropy.traces]
    assert len(duals) == 20
    for label, entropy, w in duals:
        calls.clear()
        assert maximize(entropy, w, _ramp(w)).converged, label
        assert len(calls) == 1, label


def _feasible_directions(a, support, count, seed):
    """count seeded directions d with A d = 0 and d = 0 off the support, scaled to max|d| = 1."""
    null = np.linalg.svd(a[:, support])[2][a.shape[0]:]
    d = np.zeros((count, a.shape[1]))
    d[:, support] = np.random.default_rng(seed).standard_normal((count, null.shape[0])) @ null
    return d / np.abs(d).max(axis=1, keepdims=True)


def _largest_rise(entropy, p, a, step):
    """max over 16 seeded feasible d and both signs of (S(p + t d) - S(p)) / |S(p)|, with
    t = step shortened so that p + t d stays >= 0."""
    value = float(entropy.fn(p))
    rise = -np.inf
    for d in _feasible_directions(a, p > 0.0, 16, seed=0):
        for move in (d, -d):
            down = move < 0.0
            t = min(step, float(np.min(p[down] / -move[down])))
            rise = max(rise, (float(entropy.fn(p + t * move)) - value) / abs(value))
    return rise


def test_converged_answers_are_local_maxima_along_feasible_directions():
    # Reference-free: a converged answer is no lower than its feasible neighbours 1e-4 or
    # 1e-5 away.  The 1e-5 probe also sees an answer moved 1e-4 along another feasible
    # direction, at every op; at 1e-4 the curvature along a random direction outweighs the
    # first-order rise that such a move leaves, once W >= 50.
    for label, entropy, w in _maxent_solve_panel():
        result = maximize(entropy, w, _ramp(w))
        if not result.converged:
            continue
        p = result.dist.weights
        a = np.vstack([np.ones(w), np.arange(w) / w])
        assert max(_largest_rise(entropy, p, a, step) for step in (1e-4, 1e-5)) <= 1e-13, label
        [d] = _feasible_directions(a, p > 0.0, 1, seed=1)
        t = min(1e-4, float(np.min(p[d < 0.0] / -d[d < 0.0])))
        assert _largest_rise(entropy, p + t * d, a, 1e-5) > 1e-9, label


def test_every_panel_answer_closes_the_lagrangian_gap():
    # tests/maxent_oracle.py: the dual bound g(mu, lambda) at multipliers fitted to p, less
    # F(p), is >= 0 for a feasible p and 0 at the maximum; p is feasible to rounding, hence
    # the small negative margin.  Shannon's two unconverged ops pass too.  A p moved 1e-4
    # along a feasible direction (shortened to keep p >= 0) opens the gap past the bound.
    for family, params in MAXENT_SOLVE_FAMILIES:
        phi, dphi = maxent_oracle.concave_phi(family, **params)
        for w in (10, 50, 200):
            p = maximize(builtin_functional(family, **params), w, _ramp(w)).dist.weights
            a, b = np.vstack([np.ones(w), np.arange(w) / w]), np.array([1.0, 0.3])
            gap = maxent_oracle.relative_gap(phi, dphi, a, b, p)
            assert -1e-13 <= gap <= 1e-12, (family, params, w, gap)
            [d] = _feasible_directions(a, p > 0.0, 1, seed=1)
            t = min(1e-4, float(np.min(p[d < 0.0] / -d[d < 0.0])))
            assert maxent_oracle.relative_gap(phi, dphi, a, b, p + t * d) > 1e-12, (family, w)
