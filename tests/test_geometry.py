"""Finite-difference information geometry against closed forms."""

import dataclasses
import re

import numpy as np
import pytest

from entrogeo import (
    ConnCoeffs,
    MetricTensor,
    alpha_connection,
    combine_geometry,
    div_connections,
    div_metric,
    duality_residual,
    fisher_metric,
    hf_alpha_of,
    hf_closed_connections,
    hf_closed_metric,
    kl_functional,
    kl_pair,
    power_pair,
    raised_connection,
    shannon,
    simplex_model,
    sm_div_functional,
    sm_divergence_pair,
    tsallis_relative_pair,
    hf_div_functional,
)
from entrogeo.composition import linear_composer
from entrogeo.divergence import zeta_compose_div
from entrogeo.errors import (
    AllZeroGradient,
    ArityMismatch,
    DegenerateSecondDerivative,
    InvalidArgument,
    ParamOutOfRange,
    ShapeMismatch,
    StepTooLarge,
)
from entrogeo.geometry import _ROW_BUDGET, CONN_STEP, METRIC_STEP, StatModel
from entrogeo.hf_entropy import HFPair


def closed_fisher(point):
    """1/p as a diagonal in the free coordinates plus the 1/p_0 rank-one block."""
    xi = np.asarray(point, dtype=float)
    p0 = 1.0 - xi.sum()
    return np.diag(1.0 / xi) + 1.0 / p0


def test_simplex_model_puts_the_dependent_weight_first():
    model = simplex_model(2)
    np.testing.assert_allclose(model.point([0.3, 0.25]), [0.45, 0.3, 0.25])
    assert model.n_params == 2
    assert model.support_size == 3


def test_simplex_model_enforces_the_margin():
    model = simplex_model(2, margin=1e-3)
    with pytest.raises(ParamOutOfRange):
        model.point([0.9999, 0.00005])
    with pytest.raises(ParamOutOfRange):
        model.point([0.6, 0.5])  # p_0 < 0
    with pytest.raises(ParamOutOfRange):
        model.point([0.5])  # wrong arity
    with pytest.raises(ParamOutOfRange):
        simplex_model(0)
    with pytest.raises(ParamOutOfRange):
        simplex_model(3, margin=0.5)


def test_simplex_model_maps_stacks_of_points():
    model = simplex_model(3)
    stack = np.array([[[0.2, 0.3, 0.1], [0.5, 0.6, 0.1]], [[0.0005, 0.2, 0.2], [0.1, 0.1, 0.1]]])
    weights = model.prob_fn(stack)
    inside = model.in_domain(stack)
    assert weights.shape == (2, 2, 4) and inside.shape == (2, 2)
    np.testing.assert_array_equal(inside, [[True, False], [False, True]])
    for idx in np.ndindex(2, 2):
        np.testing.assert_array_equal(weights[idx], model.prob_fn(stack[idx]))
        assert inside[idx] == model.in_domain(stack[idx])


def test_fisher_metric_against_the_closed_form():
    for xi in ([0.5], [0.9], [0.1]):
        got = fisher_metric(simplex_model(1), xi)
        np.testing.assert_allclose(got.entries, closed_fisher(xi), rtol=1e-6)
    got = fisher_metric(simplex_model(2), [1 / 3, 1 / 3])
    np.testing.assert_allclose(got.entries, [[6.0, 3.0], [3.0, 6.0]], rtol=1e-6)


def test_fisher_metric_is_positive_definite():
    g = fisher_metric(simplex_model(3), [0.2, 0.3, 0.1])
    assert g.is_positive_definite()


def test_metric_tensor_rejects_asymmetry():
    with pytest.raises(ValueError):
        MetricTensor(np.array([[1.0, 2.0], [2.5, 1.0]]))
    with pytest.raises(ValueError):
        MetricTensor(np.ones((2, 3)))


def test_connection_coeffs_reject_index_asymmetry():
    bad = np.zeros((2, 2, 2))
    bad[0, 1, 0] = 1.0
    with pytest.raises(ValueError):
        ConnCoeffs(bad)
    with pytest.raises(ValueError):
        ConnCoeffs(np.zeros((2, 2)))


def test_divergence_metric_recovers_fisher_for_kl():
    model = simplex_model(2)
    xi = np.array([0.3, 0.25])
    got = div_metric(kl_functional(), model, xi)
    np.testing.assert_allclose(got.entries, closed_fisher(xi), rtol=1e-5)


@pytest.mark.parametrize(
    "pair, functional, scale",
    [
        (kl_pair(), kl_functional(), 1.0),
        (power_pair(2.0), hf_div_functional(power_pair(2.0)), 2.0),
        (sm_divergence_pair(0.5, 0.7), sm_div_functional(0.5, 0.7), 0.5),
    ],
)
def test_divergence_metric_is_a_multiple_of_fisher(pair, functional, scale):
    model = simplex_model(2)
    xi = np.array([0.3, 0.25])
    got = div_metric(functional, model, xi)
    expected = scale * closed_fisher(xi)
    np.testing.assert_allclose(got.entries, expected, rtol=2e-5)
    closed = hf_closed_metric(pair, xi, size=2)
    np.testing.assert_allclose(closed.entries, expected, rtol=1e-12)


def test_closed_metric_requires_divergence_shape():
    with pytest.raises(ShapeMismatch):
        hf_closed_metric(shannon(), [0.3, 0.25], size=2)


def test_metric_scale_constants():
    # h'(f(1)) * f''(1): 1*1 for KL, 1*2 for t^2, (-2)*(-1/4) for SM(.5,.7)
    pair = sm_divergence_pair(0.5, 0.7)
    assert float(pair.h_prime(pair.f1)) * pair.d2f1 == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize(
    "pair, expected",
    [
        (kl_pair(), 1.0),
        (power_pair(2.0), 3.0),
        (power_pair(0.5), 0.0),
        (tsallis_relative_pair(1.5), 2.0),
        (sm_divergence_pair(0.5, 0.7), 0.0),
    ],
)
def test_connection_exponent_from_curvature_data(pair, expected):
    assert hf_alpha_of(pair) == pytest.approx(expected, abs=1e-12)


def test_degenerate_curvature_is_rejected():
    flat = HFPair(
        name="flat",
        f=lambda t: np.asarray(t, dtype=float),
        h=lambda x: np.asarray(x) - 1.0,
        h_inverse=lambda y: np.asarray(y) + 1.0,
        f_shape="convex",
        h_direction="increasing",
        df1=1.0,
        d2f1=0.0,
        d3f1=0.0,
    )
    with pytest.raises(DegenerateSecondDerivative):
        hf_alpha_of(flat)


def test_kl_connections_match_the_alpha_family():
    model = simplex_model(2)
    xi = np.array([0.3, 0.25])
    gamma, gamma_star = div_connections(kl_functional(), model, xi)
    mix_side = alpha_connection(model, xi, alpha=-1.0)
    exp_side = alpha_connection(model, xi, alpha=1.0)
    scale = 1.0 + float(np.max(np.abs(exp_side.entries)))
    assert np.max(np.abs(gamma.entries - mix_side.entries)) <= 1e-4 * scale
    assert np.max(np.abs(gamma_star.entries - exp_side.entries)) <= 1e-4 * scale


def test_mixture_connection_vanishes_in_these_coordinates():
    # the simplex parameters are mixture-affine, so the -1 connection is flat
    conn = alpha_connection(simplex_model(2), [0.3, 0.25], alpha=-1.0)
    assert np.max(np.abs(conn.entries)) <= 1e-6


def test_duality_holds_for_kl():
    model = simplex_model(2)
    xi = np.array([0.3, 0.25])
    d = kl_functional()
    residual = duality_residual(
        lambda x: div_metric(d, model, x),
        lambda x: div_connections(d, model, x)[0],
        lambda x: div_connections(d, model, x)[1],
        model,
        xi,
    )
    assert residual <= 5e-4


def test_combine_geometry_is_linear():
    rng = np.random.default_rng(6)
    base = rng.standard_normal((2, 2))
    g1 = MetricTensor(base @ base.T + 2.0 * np.eye(2))
    g2 = MetricTensor(np.eye(2))
    c_sym = rng.standard_normal((2, 2, 2))
    c_sym = 0.5 * (c_sym + c_sym.transpose(1, 0, 2))
    c1, c2 = ConnCoeffs(c_sym), ConnCoeffs(np.zeros((2, 2, 2)))
    g, c, cs = combine_geometry([0.25, 0.5], [g1, g2], [c1, c2], [c2, c1])
    np.testing.assert_allclose(g.entries, 0.25 * g1.entries + 0.5 * np.eye(2))
    np.testing.assert_allclose(c.entries, 0.25 * c_sym)
    np.testing.assert_allclose(cs.entries, 0.5 * c_sym)


def test_combine_geometry_guards():
    g = MetricTensor(np.eye(2))
    c = ConnCoeffs(np.zeros((2, 2, 2)))
    with pytest.raises(ArityMismatch):
        combine_geometry([1.0], [g, g], [c, c], [c, c])
    with pytest.raises(AllZeroGradient):
        combine_geometry([0.0, 0.0], [g, g], [c, c], [c, c])
    with pytest.raises(ValueError):
        combine_geometry([1.0, -1.0], [g, g], [c, c], [c, c])


def test_raised_connection_solves_against_the_metric():
    rng = np.random.default_rng(13)
    base = rng.standard_normal((3, 3))
    g = MetricTensor(base @ base.T + 3.0 * np.eye(3))
    c = rng.standard_normal((3, 3, 3))
    conn = ConnCoeffs(0.5 * (c + c.transpose(1, 0, 2)))
    raised = raised_connection(g, conn)
    rebuilt = np.einsum("ijl,lk->ijk", raised, np.asarray(g.entries))
    np.testing.assert_allclose(rebuilt, conn.entries, atol=1e-12)


def test_raised_connection_with_identity_metric_is_identity():
    c = np.zeros((2, 2, 2))
    c[0, 0, 0] = 1.5
    conn = ConnCoeffs(c)
    np.testing.assert_allclose(raised_connection(MetricTensor(np.eye(2)), conn), c)


def test_stencils_refuse_to_cross_the_boundary():
    model = simplex_model(1)
    with pytest.raises(StepTooLarge):
        div_metric(kl_functional(), model, [0.995], step=0.01)
    # the same point works with a smaller step
    g = div_metric(kl_functional(), model, [0.995], step=1e-4)
    assert g.entries[0, 0] > 100.0


def test_step_override_must_be_positive():
    with pytest.raises(ValueError):
        fisher_metric(simplex_model(1), [0.5], step=-1e-4)


# --- the stencil engine against per-point loops -----------------------------------------


def _loop_hessian(f, base, h):
    """Central second differences of f around base, one call per stencil point."""
    n = base.size
    e = h * np.eye(n)
    center = f(base)
    out = np.empty((n, n) + np.shape(center))
    for i in range(n):
        out[i, i] = (f(base + e[i]) - 2.0 * center + f(base - e[i])) / (h * h)
        for j in range(i):
            out[i, j] = out[j, i] = (
                f(base + e[i] + e[j]) - f(base + e[i] - e[j])
                - f(base - e[i] + e[j]) + f(base - e[i] - e[j])
            ) / (4.0 * h * h)
    return out


def _loop_slot_hessian(d, model, xi, parked, h, slot):
    fixed = model.point(parked)
    if slot == 0:
        return _loop_hessian(lambda u: float(d.fn(model.point(u), fixed)), xi, h)
    return _loop_hessian(lambda u: float(d.fn(fixed, model.point(u))), xi, h)


def _loop_dlog(model, xi, h):
    return np.array(
        [(np.log(model.point(xi + e)) - np.log(model.point(xi - e))) / (2.0 * h)
         for e in h * np.eye(xi.size)]
    )


def _loop_div_metric(d, model, xi, h):
    g = _loop_slot_hessian(d, model, xi, xi, h, 0)
    return 0.5 * (g + g.T)


def _loop_div_connections(d, model, xi, h):
    n = xi.size
    out = np.empty((2, n, n, n))
    for k, e in enumerate(h * np.eye(n)):
        for slot in (0, 1):
            plus = _loop_slot_hessian(d, model, xi, xi + e, h, slot)
            minus = _loop_slot_hessian(d, model, xi, xi - e, h, slot)
            out[slot, :, :, k] = -(plus - minus) / (2.0 * h)
    return out


def _loop_fisher(model, xi, h):
    dlog = _loop_dlog(model, xi, h)
    g = (dlog * model.point(xi)) @ dlog.T
    return 0.5 * (g + g.T)


def _loop_alpha(model, xi, alpha, h):
    dl = _loop_dlog(model, xi, h)
    d2l = _loop_hessian(lambda u: np.log(model.point(u)), xi, h)
    integrand = d2l + 0.5 * (1.0 - alpha) * np.einsum("ix,jx->ijx", dl, dl)
    gamma = np.einsum("ijx,kx,x->ijk", integrand, dl, model.point(xi))
    return 0.5 * (gamma + gamma.transpose(1, 0, 2))


_ENGINE_DIVERGENCES = {
    "kl": kl_functional(),
    "sm": sm_div_functional(0.5, 0.7),
    "power": hf_div_functional(power_pair(2.0)),
    "composed": zeta_compose_div(
        [kl_functional(), hf_div_functional(power_pair(2.0))], linear_composer([1.0, 0.5])
    ),
}


@pytest.mark.parametrize("step", [None, 3e-4])
@pytest.mark.parametrize("w", [1, 2, 5, 8, 12])  # 8 and 12: parked points split over calls
def test_stencil_engine_is_bit_identical_to_per_point_loops(w, step):
    rng = np.random.default_rng(100 + w)
    p = rng.dirichlet(np.full(w + 1, 6.0))
    xi = p[1:]
    model = simplex_model(w)
    metric_h = METRIC_STEP if step is None else step
    conn_h = CONN_STEP if step is None else step
    for d in _ENGINE_DIVERGENCES.values():
        got = div_metric(d, model, xi, step=step).entries
        assert np.array_equal(got, _loop_div_metric(d, model, xi, metric_h)), d.name
        gamma, gamma_star = div_connections(d, model, xi, step=step)
        want = _loop_div_connections(d, model, xi, conn_h)
        assert np.array_equal(gamma.entries, want[0]), d.name
        assert np.array_equal(gamma_star.entries, want[1]), d.name
    got = fisher_metric(model, xi, step=step).entries
    assert np.array_equal(got, _loop_fisher(model, xi, metric_h))
    for alpha in (-1.0, 0.0, 3.0):
        got = alpha_connection(model, xi, alpha, step=step).entries
        assert np.array_equal(got, _loop_alpha(model, xi, alpha, metric_h)), alpha


@pytest.mark.parametrize("w", [1, 3, 6, 7, 12])
def test_divergence_calls_grow_linearly_with_dimension(w):
    kl = kl_functional()
    calls = []

    def counted(p, q):
        calls.append(np.broadcast_shapes(np.shape(p), np.shape(q)))
        return kl.fn(p, q)

    d = dataclasses.replace(kl, fn=counted)
    model = simplex_model(w)
    xi = np.full(w, 1.0 / (w + 1))
    div_metric(d, model, xi)
    assert len(calls) == 1
    calls.clear()
    div_connections(d, model, xi)
    rows = 2 * w * w + 1
    per_call = _ROW_BUDGET // rows  # whole parked stencils that fit one call
    assert all(shape[1:] == (rows, w + 1) for shape in calls)  # one stencil per parked point
    assert [shape[0] for shape in calls] == 2 * [min(per_call, 2 * w - lo)
                                                 for lo in range(0, 2 * w, per_call)]
    assert all(shape[0] * rows <= _ROW_BUDGET for shape in calls)
    if 2 * w * rows <= _ROW_BUDGET:
        assert len(calls) == 2  # one call per slot
    assert _ROW_BUDGET <= 4 * (2 * 12 * 12 + 1)  # no larger than one axis of W = 12 metrics


def test_connections_refuse_a_parked_point_outside_the_domain():
    model = simplex_model(1)
    xi = np.array([0.0012])  # 0.0002 inside the margin: xi - CONN_STEP leaves it
    div_metric(kl_functional(), model, xi)  # the metric stencil still fits
    with pytest.raises(StepTooLarge, match=re.escape(str((xi - CONN_STEP).tolist()))):
        div_connections(kl_functional(), model, xi)


def test_log_stencils_refuse_to_cross_the_boundary():
    model = simplex_model(1)
    with pytest.raises(StepTooLarge, match=re.escape("[1.005")):
        fisher_metric(model, [0.995], step=0.01)
    # p_0 = 0.01 leaves room for one step of 0.005 but not for two
    model = simplex_model(2)
    xi = np.array([0.3, 0.69])
    fisher_metric(model, xi, step=0.005)
    with pytest.raises(StepTooLarge, match=re.escape(str((xi + 0.005).tolist()))):
        alpha_connection(model, xi, 1.0, step=0.005)


def test_stencils_reject_points_outside_the_domain_and_wrong_arity():
    model = simplex_model(2)
    for fn in (
        lambda x: div_metric(kl_functional(), model, x),
        lambda x: div_connections(kl_functional(), model, x),
        lambda x: fisher_metric(model, x),
        lambda x: alpha_connection(model, x, 0.0),
    ):
        with pytest.raises(ParamOutOfRange):
            fn([0.6, 0.5])
        with pytest.raises(ParamOutOfRange):
            fn([0.3])


def test_divergence_must_reduce_only_the_outcome_axis():
    lumped = dataclasses.replace(kl_functional(), fn=lambda p, q: float(np.sum(p * np.log(p / q))))
    with pytest.raises(InvalidArgument):
        div_metric(lumped, simplex_model(2), [0.3, 0.25])


# --- stacked metric fields and the duality residual ------------------------------------


_STACK_DIVERGENCES = {
    **_ENGINE_DIVERGENCES,
    "tsallis-rel": hf_div_functional(tsallis_relative_pair(1.5)),
}


def _interior_stack(rng, w, count):
    return np.array([rng.dirichlet(np.full(w + 1, 6.0))[1:] for _ in range(count)])


def _stretched_simplex(w, scale):
    """The simplex model in coordinates xi = scale * p, so |xi| > 1 and steps differ per point."""
    base = simplex_model(w)
    return StatModel(
        n_params=w,
        support_size=w + 1,
        prob_fn=lambda xi: base.prob_fn(np.asarray(xi) / scale),
        in_domain=lambda xi: base.in_domain(np.asarray(xi) / scale),
        name=f"stretched({w})",
    )


@pytest.mark.parametrize("step", [None, 3e-4])
@pytest.mark.parametrize("w", [1, 2, 5, 12])
def test_metric_of_a_stack_is_bit_identical_to_per_point_calls(w, step):
    rng = np.random.default_rng(200 + w)
    models = [(simplex_model(w), _interior_stack(rng, w, 4))]
    models.append((_stretched_simplex(w, 4.0), 4.0 * _interior_stack(rng, w, 3)))
    for model, stack in models:
        for name, d in _STACK_DIVERGENCES.items():
            got = div_metric(d, model, stack, step=step)
            assert got.entries.shape == (len(stack), w, w)
            want = np.stack([div_metric(d, model, xi, step=step).entries for xi in stack])
            assert np.array_equal(got.entries, want), (model.name, name)


def _loop_duality_residual(metric_at, gamma, gamma_star, model, xi, h):
    """The duality residual with one metric call per five-point stencil centre."""
    n = xi.size
    model.point(xi)
    dg = np.empty((n, n, n))
    for k, ek in enumerate(h * np.eye(n)):
        vals = [metric_at(xi + t * ek) for t in (-2.0, -1.0, 1.0, 2.0)]
        dg[k] = (vals[0] - 8.0 * vals[1] + 8.0 * vals[2] - vals[3]) / (12.0 * h)
    return float(np.max(np.abs(dg - (gamma + gamma_star.transpose(0, 2, 1)))))


@pytest.mark.parametrize("step", [None, 2e-3])
@pytest.mark.parametrize("w", [1, 2, 5, 8, 12])  # 8 and 12: centres split over calls
def test_duality_residual_is_bit_identical_to_the_per_point_loop(w, step):
    rng = np.random.default_rng(300 + w)
    model = simplex_model(w)
    xi = _interior_stack(rng, w, 1)[0]
    h = 1e-3 if step is None else step
    for name, d in _STACK_DIVERGENCES.items():
        gamma, gamma_star = div_connections(d, model, xi)
        got = duality_residual(
            lambda x: div_metric(d, model, x),
            lambda x: gamma,
            lambda x: gamma_star,
            model,
            xi,
            step=step,
        )
        want = _loop_duality_residual(
            lambda x: div_metric(d, model, x).entries,
            gamma.entries,
            gamma_star.entries,
            model,
            xi,
            h,
        )
        assert got == want, name


@pytest.mark.parametrize("w", [1, 3, 5, 6, 12])
def test_duality_residual_stacks_its_metric_field_within_the_row_budget(w):
    model = simplex_model(w)
    xi = np.full(w, 1.0 / (w + 1))
    gamma, gamma_star = div_connections(kl_functional(), model, xi)
    shapes = []

    def field(x):
        shapes.append(np.shape(x))
        return div_metric(kl_functional(), model, x)

    duality_residual(field, lambda x: gamma, lambda x: gamma_star, model, xi)
    rows = 2 * w * w + 1  # div_metric's stencil per centre
    assert sum(shape[0] for shape in shapes) == 4 * w
    assert all(shape[1:] == (w,) and shape[0] * rows <= _ROW_BUDGET for shape in shapes)
    assert len(shapes) == -(-4 * w // (_ROW_BUDGET // rows))  # as few calls as the budget allows
    if w <= 5:
        assert shapes == [(4 * w, w)]  # every axis in one call
    per_point = lambda x: div_metric(kl_functional(), model, np.asarray(x)[0])  # noqa: E731
    with pytest.raises(InvalidArgument, match=re.escape(f"shape {(w, w)}")):
        duality_residual(per_point, lambda x: gamma, lambda x: gamma_star, model, xi)


@pytest.mark.parametrize(
    "xi, error",
    [
        ([0.0021], ParamOutOfRange),  # the t = -2 centre leaves the margin
        ([0.00305, 0.4], StepTooLarge),  # the t = -2 centre fits, its metric stencil does not
        ([0.4, 0.00305], StepTooLarge),  # the same on axis 1, after a clean axis 0
        ([0.0025, 0.0025], ParamOutOfRange),  # both axes fail; axis 0 is named
        ([0.3, 0.6969], StepTooLarge),  # p_0 = 0.0031: the t = +2 centre's stencil leaves
        ([0.3, 0.6975], ParamOutOfRange),  # p_0 = 0.0025: the t = +2 centre leaves
        # W = 6 stacks 14 centres per call: axes 0-2 and the t < 0 side of axis 3, then the rest
        ([0.15, 0.15, 0.00305, 0.15, 0.15, 0.15], StepTooLarge),  # axis 2, in the first stack
        ([0.15, 0.15, 0.15, 0.15, 0.0025, 0.15], ParamOutOfRange),  # axis 4, in the second
        ([0.15, 0.15, 0.15, 0.00305, 0.0025, 0.15], StepTooLarge),  # axis 3 named before axis 4
    ],
)
def test_duality_residual_names_the_first_failing_centre_like_the_loop(xi, error):
    xi = np.array(xi)
    model = simplex_model(xi.size)
    gamma = ConnCoeffs(np.zeros((xi.size,) * 3))
    with pytest.raises(error) as want:
        _loop_duality_residual(
            lambda x: div_metric(kl_functional(), model, x).entries,
            gamma.entries,
            gamma.entries,
            model,
            xi,
            1e-3,
        )
    with pytest.raises(error) as got:
        duality_residual(
            lambda x: div_metric(kl_functional(), model, x),
            lambda x: gamma,
            lambda x: gamma,
            model,
            xi,
        )
    assert str(got.value) == str(want.value)


def test_metric_tensor_checks_stacks_over_the_last_two_axes():
    sym = np.array([[2.0, 1.0], [1.0, 3.0]])
    stack = MetricTensor(np.stack([sym, np.eye(2), 4.0 * sym]))
    assert stack.entries.shape == (3, 2, 2)
    assert not stack.entries.flags.writeable
    skewed = np.stack([sym, np.array([[1.0, 2.0], [2.5, 1.0]])])
    with pytest.raises(InvalidArgument, match="asymmetric by 5.000e-01"):
        MetricTensor(skewed)
    # symmetric in the first two axes of a (2, 2, 2) array is not enough
    lead_sym = np.zeros((2, 2, 2))
    lead_sym[0, 1, 0] = lead_sym[1, 0, 0] = 1.0
    with pytest.raises(InvalidArgument, match="asymmetric"):
        MetricTensor(lead_sym)
    for shape in ((2, 2, 3), (3,), (1, 2, 2, 2)):
        with pytest.raises(InvalidArgument, match=re.escape(f"must be square, got shape {shape}")):
            MetricTensor(np.zeros(shape))
    with pytest.raises(InvalidArgument, match=re.escape("must be square, got shape (2, 3)")):
        MetricTensor(np.ones((2, 3)))


def test_metric_tensor_dim_is_the_last_axis():
    assert MetricTensor(np.zeros((5, 3, 3))).dim == 3
    assert MetricTensor(np.eye(4)).dim == 4
    assert MetricTensor(np.zeros((0, 2, 2))).dim == 2


def test_a_stack_is_positive_definite_only_if_every_member_is():
    pd = np.array([[2.0, 1.0], [1.0, 3.0]])
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
    assert MetricTensor(np.stack([pd, np.eye(2)])).is_positive_definite()
    assert not MetricTensor(np.stack([pd, indefinite, np.eye(2)])).is_positive_definite()
    assert not MetricTensor(np.stack([pd, -np.eye(2)])).is_positive_definite()
    assert not MetricTensor(indefinite).is_positive_definite()
    stack = _interior_stack(np.random.default_rng(5), 3, 4)
    assert div_metric(kl_functional(), simplex_model(3), stack).is_positive_definite()


def test_raised_connection_takes_one_metric_of_the_connection_dimension():
    conn = ConnCoeffs(np.zeros((2, 2, 2)))
    for entries in (np.stack([np.eye(2)] * 3), np.eye(3)):
        with pytest.raises(InvalidArgument, match=re.escape(f"got entries {entries.shape}")):
            raised_connection(MetricTensor(entries), conn)


def test_div_metric_rejects_deeper_stacks():
    with pytest.raises(InvalidArgument, match=re.escape("(1, 2, 2)")):
        div_metric(kl_functional(), simplex_model(2), np.full((1, 2, 2), 0.3))
    with pytest.raises(ParamOutOfRange, match="takes 2 parameters, got 3"):
        div_metric(kl_functional(), simplex_model(2), np.full((2, 3), 0.2))


# --- closed-form dual connections ------------------------------------------------------


_CLOSED_PAIRS = {
    "kl": (kl_pair(), kl_functional()),
    "power": (power_pair(2.0), hf_div_functional(power_pair(2.0))),
    "sm": (sm_divergence_pair(0.5, 0.7), sm_div_functional(0.5, 0.7)),
}


def _closed_cases():
    for w in (1, 2, 3, 5):
        rng = np.random.default_rng(300 + w)
        for _ in range(3):
            yield w, rng.dirichlet(np.full(w + 1, 8.0))


def _closed_scale(pair, p):
    """|c| max(1 / p^2), the size of the largest closed-form entry."""
    return abs(float(pair.h_prime(pair.f1)) * pair.d2f1) * float(np.max(1.0 / p**2))


def test_closed_connections_match_the_fd_alpha_connection():
    pairs = [pair for pair, _ in _CLOSED_PAIRS.values()] + [tsallis_relative_pair(1.5)]
    for w, p in _closed_cases():
        model = simplex_model(w)
        for pair in pairs:
            c = float(pair.h_prime(pair.f1)) * pair.d2f1
            a = hf_alpha_of(pair)
            gamma, gamma_star = hf_closed_connections(pair, p[1:], w)
            scale = _closed_scale(pair, p)
            fd = c * alpha_connection(model, p[1:], -a).entries
            assert np.max(np.abs(gamma.entries - fd)) <= 1e-5 * scale, (pair.name, w)
            fd = c * alpha_connection(model, p[1:], a).entries
            assert np.max(np.abs(gamma_star.entries - fd)) <= 1e-5 * scale, (pair.name, w)


def test_closed_connections_match_div_connections():
    for w, p in _closed_cases():
        model = simplex_model(w)
        for name, (pair, functional) in _CLOSED_PAIRS.items():
            closed = hf_closed_connections(pair, p[1:], w)
            fd = div_connections(functional, model, p[1:])
            for want, got in zip(closed, fd):
                err = np.max(np.abs(got.entries - want.entries))
                assert err <= 3e-4 * _closed_scale(pair, p), (name, w)


def test_closed_forms_satisfy_the_duality_identity():
    # d_k g_ij = -c T_ijk and c Gamma^(-a) + c Gamma^(+a) = -c T: only FD truncation remains
    for w, p in _closed_cases():
        model = simplex_model(w)
        for name, (pair, _) in _CLOSED_PAIRS.items():
            gamma, gamma_star = hf_closed_connections(pair, p[1:], w)

            def field(stack):
                return MetricTensor(np.stack([hf_closed_metric(pair, y, w).entries for y in stack]))

            residual = duality_residual(
                field, lambda x: gamma, lambda x: gamma_star, model, p[1:]
            )
            assert residual <= 1e-6 * _closed_scale(pair, p), (name, w)


def test_closed_connections_of_kl_are_mixture_flat_and_exponential_dual():
    p = np.array([0.45, 0.3, 0.25])
    gamma, gamma_star = hf_closed_connections(kl_pair(), p[1:], 2)
    assert np.array_equal(gamma.entries, np.zeros((2, 2, 2)))
    t = np.full((2, 2, 2), -1.0 / 0.45**2)
    t[0, 0, 0] += 1.0 / 0.3**2
    t[1, 1, 1] += 1.0 / 0.25**2
    np.testing.assert_allclose(gamma_star.entries, -t, rtol=1e-14)


def test_closed_connections_require_divergence_shape_and_an_interior_point():
    with pytest.raises(ShapeMismatch):
        hf_closed_connections(shannon(), [0.3, 0.25], size=2)
    with pytest.raises(ParamOutOfRange):
        hf_closed_connections(kl_pair(), [0.6, 0.5], size=2)
