"""Finite-difference information geometry against closed forms."""

import dataclasses
import re
import warnings

import numpy as np
import pytest

from entrogeo import (
    ConnCoeffs,
    DivergenceFunctional,
    MetricTensor,
    alpha_connection,
    closed_geometry,
    combine_geometry,
    div_connections,
    div_metric,
    duality_residual,
    fisher_metric,
    hf_alpha_of,
    kl_functional,
    kl_pair,
    power_pair,
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
    DomainError,
    InvalidArgument,
    ParamOutOfRange,
    ShapeMismatch,
    StepTooLarge,
)
from entrogeo import geometry
from entrogeo.geometry import (
    _ROW_BUDGET,
    CONN_STEP,
    DUALITY_STEP,
    METRIC_STEP,
    SIMPLEX_MARGIN,
    StatModel,
)
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
    assert model.prob_fn(np.array([0.3, 0.25])).shape == (3,)


def test_simplex_model_enforces_the_margin():
    model = simplex_model(2)
    with pytest.raises(ParamOutOfRange):
        model.point([0.9999, 0.00005])
    with pytest.raises(ParamOutOfRange):
        model.point([0.6, 0.5])  # p_0 < 0
    with pytest.raises(ParamOutOfRange):
        model.point([0.5])  # wrong arity
    with pytest.raises(ParamOutOfRange):
        simplex_model(0)
    with pytest.raises(ParamOutOfRange):
        simplex_model(999)  # SIMPLEX_MARGIN leaves no interior at W = 999


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


def test_tensors_reject_nan_entries():
    # a nan makes the skew nan, which must not pass the symmetry test
    with pytest.raises(DomainError, match="metric entries are not finite"):
        MetricTensor(np.full((2, 2), np.nan))
    with pytest.raises(DomainError, match="metric entries are not finite"):
        MetricTensor(np.stack([np.eye(2), np.diag([1.0, np.nan])]))
    with pytest.raises(DomainError, match="connection entries are not finite"):
        ConnCoeffs(np.full((2, 2, 2), np.nan))


def test_tensors_reject_infinite_entries_without_a_warning():
    # the finiteness test comes before the skew, so no inf - inf RuntimeWarning
    # surfaces first, and a lone inf is not read as an asymmetry
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="metric entries are not finite"):
            MetricTensor(np.full((2, 2), np.inf))
        with pytest.raises(DomainError, match="metric entries are not finite"):
            MetricTensor(np.array([[1.0, np.inf], [0.0, 1.0]]))
        with pytest.raises(DomainError, match="metric entries are not finite"):
            MetricTensor(np.stack([np.eye(2), np.diag([1.0, -np.inf])]))
        with pytest.raises(DomainError, match="connection entries are not finite"):
            ConnCoeffs(np.full((2, 2, 2), np.inf))


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
    closed = closed_geometry(pair, xi)[0]
    np.testing.assert_allclose(closed.entries, expected, rtol=1e-12)


def test_closed_metric_requires_divergence_shape():
    with pytest.raises(ShapeMismatch):
        closed_geometry(shannon(), [0.3, 0.25])


def test_metric_scale_constants():
    # h'(f(1)) * f''(1): 1*1 for KL, 1*2 for t^2, (-2)*(-1/4) for SM(.5,.7)
    assert sm_divergence_pair(0.5, 0.7).c == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize(
    "pair",
    [kl_pair(), power_pair(2.0), power_pair(0.5), tsallis_relative_pair(1.5),
     sm_divergence_pair(0.5, 0.7)],
    ids=lambda pair: pair.name,
)
def test_closed_form_data_against_stencils_of_h_and_f(pair):
    # c = h'(f(1)) f''(1) from central differences of h and f themselves
    step = 1e-4
    f1 = float(pair.f(1.0))
    h_prime = (float(pair.h(f1 + step)) - float(pair.h(f1 - step))) / (2 * step)
    d2f = (float(pair.f(1.0 + step)) - 2 * f1 + float(pair.f(1.0 - step))) / step**2
    assert pair.c == pytest.approx(h_prime * d2f, rel=1e-6)
    assert pair.c > 0.0
    # the closed metric is c times the Fisher metric at the model's weights
    xi = [0.3, 0.25]
    p = simplex_model(2).point(xi)
    g = closed_geometry(pair, xi)[0].entries
    np.testing.assert_array_equal(g, pair.c * (np.diag(1.0 / p[1:]) + 1.0 / p[0]))


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
    # c = 1e-13 is nonzero, so the pair builds, but f''(1) is too small for an alpha
    flat = HFPair(
        name="flat",
        f=lambda t: np.asarray(t, dtype=float),
        h=lambda x: np.asarray(x) - 1.0,
        h_inverse=lambda y: np.asarray(y) + 1.0,
        d2f1=1e-13,
        d3f1=0.0,
    )
    with pytest.raises(DegenerateSecondDerivative):
        hf_alpha_of(flat)
    with pytest.raises(DegenerateSecondDerivative):
        closed_geometry(flat, [0.3, 0.25])


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
    with pytest.raises(InvalidArgument, match="non-negative"):
        combine_geometry([np.nan, 1.0], [g, g], [c, c], [c, c])
    with pytest.raises(ArityMismatch, match="nothing to combine"):
        combine_geometry([], [], [], [])


def test_stencils_refuse_to_cross_the_boundary():
    model = simplex_model(1)
    with pytest.raises(StepTooLarge):
        div_metric(kl_functional(), model, [0.995], step=0.01)
    # the same point works with a smaller step
    g = div_metric(kl_functional(), model, [0.995], step=1e-4)
    assert g.entries[0, 0] > 100.0


_INSTRUMENTS = {
    "fisher_metric": lambda model, xi, step: fisher_metric(model, xi, step=step),
    "div_metric": lambda model, xi, step: div_metric(kl_functional(), model, xi, step=step),
    "div_connections": lambda model, xi, step: div_connections(
        kl_functional(), model, xi, step=step
    ),
    "alpha_connection": lambda model, xi, step: alpha_connection(model, xi, 0.5, step=step),
}


@pytest.mark.parametrize(
    "step, message",
    [
        (np.nan, "step must be finite, got nan"),
        (np.inf, "step must be finite, got inf"),
        (-np.inf, "step must be positive, got -inf"),
        (0.0, "step must be positive, got 0.0"),
        (-1e-4, "step must be positive, got -0.0001"),
    ],
)
@pytest.mark.parametrize("name", sorted(_INSTRUMENTS))
def test_a_step_outside_zero_to_inf_is_an_invalid_argument(name, step, message):
    # refused before a stencil is formed: no StepTooLarge for nan, no numpy warning for inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidArgument, match=re.escape(message)):
            _INSTRUMENTS[name](simplex_model(2), np.array([0.3, 0.25]), step)


@pytest.mark.parametrize(
    "xi, step",
    [
        ([0.3, 0.25], 1e-17),  # 0.3 +- 1e-17 rounds back to 0.3: a flat stencil, zero entries
        ([0.002, 0.3], 1e-17),  # the first coordinate moves, the second does not
        ([0.3, 0.25], 1e-320),  # h * h would underflow to 0
    ],
)
@pytest.mark.parametrize("name", sorted(_INSTRUMENTS))
def test_a_step_that_leaves_a_coordinate_in_place_is_an_invalid_argument(name, xi, step):
    message = f"step must move every coordinate of the point, got {step}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidArgument, match=re.escape(message)):
            _INSTRUMENTS[name](simplex_model(2), np.array(xi), step)


def _residual(model, xi):
    """duality_residual of kl's metric field against zero connections."""
    zero = ConnCoeffs(np.zeros((model.n_params,) * 3))
    return duality_residual(
        lambda x: div_metric(kl_functional(), model, x), lambda x: zero, lambda x: zero, model, xi
    )


#: Every instrument at a point, with its step where it takes one.
_STENCIL_INSTRUMENTS = {
    **_INSTRUMENTS,
    "div_metric of a stack": lambda model, xi, step: div_metric(
        kl_functional(), model, np.stack([[0.3, 0.25], xi]), step=step
    ),
    "duality_residual": lambda model, xi, step: _residual(model, xi),
}


@pytest.mark.parametrize("coordinate", [np.inf, -np.inf])
@pytest.mark.parametrize("name", sorted(_STENCIL_INSTRUMENTS))
def test_an_infinite_coordinate_at_the_default_step_is_out_of_range(name, coordinate):
    # the default step there is inf, and inf times a zero offset is nan: refused before the stencil
    xi = np.array([coordinate, 0.3])
    message = f"parameter {xi.tolist()} outside the domain of simplex(2)"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParamOutOfRange, match=re.escape(message)):
            _STENCIL_INSTRUMENTS[name](simplex_model(2), xi, None)


def test_a_stack_names_its_first_centre_without_a_finite_step():
    stack = np.array([[0.3, 0.25], [0.3, np.inf], [np.nan, 0.3]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParamOutOfRange, match=re.escape("parameter [0.3, inf] outside")):
            div_metric(kl_functional(), simplex_model(2), stack)
        # a model that admits every point still forms no stencil around inf
        everywhere = StatModel(
            n_params=1,
            prob_fn=lambda xi: np.full(np.shape(xi)[:-1] + (2,), 0.5),
            in_domain=lambda xi: np.ones(np.shape(xi)[:-1], dtype=bool),
            name="everywhere",
        )
        message = "parameter [inf] leaves no finite step in everywhere"
        with pytest.raises(ParamOutOfRange, match=re.escape(message)):
            fisher_metric(everywhere, [np.inf])


@pytest.mark.parametrize("alpha", [np.inf, -np.inf, np.nan])
def test_alpha_connection_needs_a_finite_alpha(alpha):
    with pytest.raises(InvalidArgument, match=re.escape(f"alpha must be finite, got {alpha}")):
        alpha_connection(simplex_model(2), [0.3, 0.25], alpha)


def test_an_overflowing_alpha_raises_domain_error_without_a_warning():
    model = simplex_model(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha in (1e308, -1e308):
            with pytest.raises(DomainError, match="connection entries are not finite"):
                alpha_connection(model, [0.3, 0.3], alpha)
        assert np.isfinite(alpha_connection(model, [0.3, 0.3], 1e300).entries).all()


def _counting(model):
    """model with counted in_domain and prob_fn calls, and the counts."""
    calls = {"in_domain": 0, "prob_fn": 0}

    def counted(name, fn):
        def call(xi):
            calls[name] += 1
            return fn(xi)
        return call

    counted_model = dataclasses.replace(
        model,
        in_domain=counted("in_domain", model.in_domain),
        prob_fn=counted("prob_fn", model.prob_fn),
    )
    return counted_model, calls


@pytest.mark.parametrize("w", [1, 2, 6, 12])
def test_each_stencil_makes_one_domain_call_and_one_weight_call(w):
    model, calls = _counting(simplex_model(w))
    xi = np.full(w, 1.0 / (w + 1))
    kl = kl_functional()
    for name, run in {
        "fisher_metric": lambda: fisher_metric(model, xi),
        "div_metric": lambda: div_metric(kl, model, xi),
        "div_metric of a stack": lambda: div_metric(kl, model, np.stack([xi, 0.9 * xi, xi])),
        "div_connections": lambda: div_connections(kl, model, xi),
        "alpha_connection": lambda: alpha_connection(model, xi, 0.5),
    }.items():
        calls.update(in_domain=0, prob_fn=0)
        run()
        assert calls == {"in_domain": 1, "prob_fn": 1}, name
    # duality_residual tests its point's domain once, then each metric_field call is one stencil
    gamma = ConnCoeffs(np.zeros((w, w, w)))
    stacks = []
    calls.update(in_domain=0, prob_fn=0)
    duality_residual(
        lambda x: stacks.append(x) or div_metric(kl, model, x),
        lambda x: gamma,
        lambda x: gamma,
        model,
        xi,
    )
    assert calls == {"in_domain": 1 + len(stacks), "prob_fn": len(stacks)}


@pytest.mark.parametrize("w", [1, 2, 6, 12])
def test_engine_tensors_skip_the_public_validation(w, monkeypatch):
    # the engine's tensors are exactly symmetric by construction: no copy, no skew pass
    runs = []

    def counted(check):
        return lambda self: runs.append(type(self)) or check(self)

    for cls in (MetricTensor, ConnCoeffs):
        monkeypatch.setattr(cls, "__post_init__", counted(cls.__post_init__))
    model = simplex_model(w)
    xi = np.full(w, 1.0 / (w + 1))
    for d in _ENGINE_DIVERGENCES.values():
        div_metric(d, model, xi)
        div_metric(d, model, np.stack([xi, 0.9 * xi]))
        div_connections(d, model, xi)
    assert runs == []
    MetricTensor(np.eye(w))  # the public constructors still validate
    ConnCoeffs(np.zeros((w, w, w)))
    assert runs == [MetricTensor, ConnCoeffs]


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
    "bare": DivergenceFunctional(  # a user's fn, no pair: Pearson's chi-square
        fn=lambda p, q: np.sum((p - q) ** 2 / q, axis=-1), name="chi2"
    ),
    "sm": sm_div_functional(0.5, 0.7),
    "power": hf_div_functional(power_pair(2.0)),
    "composed": zeta_compose_div(
        [kl_functional(), hf_div_functional(power_pair(2.0))], linear_composer([1.0, 0.5])
    ),
}


def _ij_transpose(tensor):
    """The entries with i and j swapped: the last two axes of a metric, the first two of Gamma."""
    if isinstance(tensor, MetricTensor):
        return tensor.entries.swapaxes(-1, -2)
    return tensor.entries.swapaxes(0, 1)


@pytest.mark.parametrize("w", [1, 2, 3, 6, 12])
def test_engine_tensors_are_frozen_and_exactly_symmetric(w):
    # they skip the public skew check, so (i, j) and (j, i) must hold the same float
    rng = np.random.default_rng(400 + w)
    model = simplex_model(w)
    stack = _interior_stack(rng, w, 3)
    xi = stack[0]
    tensors = {"fisher_metric": fisher_metric(model, xi)}
    for alpha in (-1.0, 0.0, 3.0):
        tensors[f"alpha_connection {alpha}"] = alpha_connection(model, xi, alpha)
    for name, d in _ENGINE_DIVERGENCES.items():
        tensors[f"div_metric {name}"] = div_metric(d, model, xi)
        tensors[f"div_metric of a stack {name}"] = div_metric(d, model, stack)
        gamma, gamma_star = div_connections(d, model, xi)
        tensors[f"Gamma {name}"], tensors[f"Gamma* {name}"] = gamma, gamma_star
    for name, pair in {"kl": kl_pair(), "power": power_pair(2.0)}.items():
        for label, tensor in zip(("g", "Gamma", "Gamma*"), closed_geometry(pair, xi)):
            tensors[f"closed {label} {name}"] = tensor
    parts = [tensors[f"{label} {name}"] for label in ("div_metric", "Gamma", "Gamma*")
             for name in ("kl", "power")]
    combined = combine_geometry([1.0, 0.5], parts[0:2], parts[2:4], parts[4:6])
    tensors.update(zip(("combined g", "combined Gamma", "combined Gamma*"), combined))
    for name, tensor in tensors.items():
        assert not tensor.entries.flags.writeable, name
        assert np.array_equal(tensor.entries, _ij_transpose(tensor)), name


def test_public_constructors_copy_the_callers_array():
    g = np.array([[2.0, 1.0], [1.0, 3.0]])
    c = np.zeros((2, 2, 2))
    metric, conn = MetricTensor(g), ConnCoeffs(c)
    g[0, 0] = c[0, 0, 0] = 7.0
    assert metric.entries[0, 0] == 2.0 and conn.entries[0, 0, 0] == 0.0
    assert g.flags.writeable and c.flags.writeable  # the caller's arrays are not frozen


@pytest.mark.parametrize("step", [None, 3e-4])
# 3: an odd pair count; 6: the largest size whose parked points fit one call per slot;
# 8 and 12: parked points split over calls
@pytest.mark.parametrize("w", [1, 2, 3, 5, 6, 8, 12])
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


def test_a_metric_near_the_largest_float_stays_finite_and_exact():
    # Entries above DBL_MAX / 2: symmetrising by 0.5 (g + g^T) would overflow them to inf.
    kl = kl_functional()
    huge = DivergenceFunctional(fn=lambda p, q: 2e307 * kl.fn(p, q), name="2e307 kl")
    model = simplex_model(2)
    xi = np.array([0.3, 0.3])  # g_ii = 2e307 (1 / 0.3 + 1 / 0.4), about 1.17e308
    g = div_metric(huge, model, xi).entries
    assert g.max() > np.finfo(float).max / 2
    assert np.array_equal(g, _loop_slot_hessian(huge, model, xi, xi, METRIC_STEP, 0))


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


@pytest.mark.parametrize("w", [1, 2, 5, 8, 12])  # 8 and 12: centres split over calls
def test_duality_residual_is_bit_identical_to_the_per_point_loop(w):
    rng = np.random.default_rng(300 + w)
    model = simplex_model(w)
    xi = _interior_stack(rng, w, 1)[0]
    h = DUALITY_STEP  # times max(1, |xi|) = 1 on the simplex
    for name, d in _STACK_DIVERGENCES.items():
        gamma, gamma_star = div_connections(d, model, xi)
        got = duality_residual(
            lambda x: div_metric(d, model, x),
            lambda x: gamma,
            lambda x: gamma_star,
            model,
            xi,
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


def test_a_stack_is_positive_definite_only_if_every_member_is():
    pd = np.array([[2.0, 1.0], [1.0, 3.0]])
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
    assert MetricTensor(np.stack([pd, np.eye(2)])).is_positive_definite()
    assert not MetricTensor(np.stack([pd, indefinite, np.eye(2)])).is_positive_definite()
    assert not MetricTensor(np.stack([pd, -np.eye(2)])).is_positive_definite()
    assert not MetricTensor(indefinite).is_positive_definite()
    stack = _interior_stack(np.random.default_rng(5), 3, 4)
    assert div_metric(kl_functional(), simplex_model(3), stack).is_positive_definite()


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
    """c max(1 / p^2), the size of the largest closed-form entry."""
    return pair.c * float(np.max(1.0 / p**2))


def test_closed_connections_match_the_fd_alpha_connection():
    pairs = [pair for pair, _ in _CLOSED_PAIRS.values()] + [tsallis_relative_pair(1.5)]
    for w, p in _closed_cases():
        model = simplex_model(w)
        for pair in pairs:
            a = hf_alpha_of(pair)
            _, gamma, gamma_star = closed_geometry(pair, p[1:])
            scale = _closed_scale(pair, p)
            fd = pair.c * alpha_connection(model, p[1:], -a).entries
            assert np.max(np.abs(gamma.entries - fd)) <= 1e-5 * scale, (pair.name, w)
            fd = pair.c * alpha_connection(model, p[1:], a).entries
            assert np.max(np.abs(gamma_star.entries - fd)) <= 1e-5 * scale, (pair.name, w)


def test_closed_connections_match_div_connections():
    for w, p in _closed_cases():
        model = simplex_model(w)
        for name, (pair, functional) in _CLOSED_PAIRS.items():
            closed = closed_geometry(pair, p[1:])[1:]
            fd = div_connections(functional, model, p[1:])
            for want, got in zip(closed, fd):
                err = np.max(np.abs(got.entries - want.entries))
                assert err <= 3e-4 * _closed_scale(pair, p), (name, w)


def test_closed_forms_satisfy_the_duality_identity():
    # d_k g_ij = -c T_ijk and c Gamma^(-a) + c Gamma^(+a) = -c T: only FD truncation remains
    for w, p in _closed_cases():
        model = simplex_model(w)
        for name, (pair, _) in _CLOSED_PAIRS.items():
            _, gamma, gamma_star = closed_geometry(pair, p[1:])

            def field(stack):
                entries = [closed_geometry(pair, y)[0].entries for y in stack]
                return MetricTensor(np.stack(entries))

            residual = duality_residual(
                field, lambda x: gamma, lambda x: gamma_star, model, p[1:]
            )
            assert residual <= 1e-6 * _closed_scale(pair, p), (name, w)


def test_closed_connections_of_kl_are_mixture_flat_and_exponential_dual():
    p = np.array([0.45, 0.3, 0.25])
    _, gamma, gamma_star = closed_geometry(kl_pair(), p[1:])
    assert np.array_equal(gamma.entries, np.zeros((2, 2, 2)))
    t = np.full((2, 2, 2), -1.0 / 0.45**2)
    t[0, 0, 0] += 1.0 / 0.3**2
    t[1, 1, 1] += 1.0 / 0.25**2
    np.testing.assert_allclose(gamma_star.entries, -t, rtol=1e-14)


def test_closed_geometry_takes_its_size_from_one_point():
    for xi in (0.3, [0.3], [0.3, 0.25], [0.2, 0.2, 0.25]):
        w = np.size(xi)
        g, gamma, gamma_star = closed_geometry(kl_pair(), xi)
        assert g.entries.shape == (w, w)
        assert gamma.entries.shape == gamma_star.entries.shape == (w, w, w)
    with pytest.raises(ParamOutOfRange, match=re.escape("simplex(2) takes 2 parameters, got 4")):
        closed_geometry(kl_pair(), [[0.1, 0.1], [0.1, 0.1]])
    with pytest.raises(ParamOutOfRange, match="need at least one free parameter"):
        closed_geometry(kl_pair(), [])


def test_closed_connections_require_divergence_shape_and_an_interior_point():
    with pytest.raises(ShapeMismatch):
        closed_geometry(shannon(), [0.3, 0.25])
    with pytest.raises(ParamOutOfRange):
        closed_geometry(kl_pair(), [0.6, 0.5])


# --- the weight-floor path against the in_domain path -----------------------------------


_SWEEP_DIVERGENCES = {name: _ENGINE_DIVERGENCES[name] for name in ("kl", "sm", "power", "composed")}


def _without_floor(model):
    """The same model on the in_domain path: dataclasses.replace resets init=False fields."""
    copy = dataclasses.replace(model)
    assert model._floor == SIMPLEX_MARGIN and copy._floor is None
    return copy


def _every_output(model, xi, stack):
    out = {"fisher_metric": fisher_metric(model, xi).entries}
    for alpha in (-1.0, 0.0, 3.0):
        out[f"alpha_connection {alpha}"] = alpha_connection(model, xi, alpha).entries
    for name, d in _SWEEP_DIVERGENCES.items():
        out[f"div_metric {name}"] = div_metric(d, model, xi).entries
        out[f"div_metric of a stack {name}"] = div_metric(d, model, stack).entries
        gamma, gamma_star = div_connections(d, model, xi)
        out[f"Gamma {name}"], out[f"Gamma* {name}"] = gamma.entries, gamma_star.entries
        out[f"duality_residual {name}"] = duality_residual(
            lambda x: div_metric(d, model, x),
            lambda x: gamma,
            lambda x: gamma_star,
            model,
            xi,
        )
    return out


@pytest.mark.parametrize("w", [1, 2, 5, 12])
def test_the_weight_floor_path_is_bit_identical_to_the_domain_path(w):
    rng = np.random.default_rng(500 + w)
    stack = _interior_stack(rng, w, 3)
    model = simplex_model(w)
    got = _every_output(model, stack[0], stack)
    want = _every_output(_without_floor(model), stack[0], stack)
    assert got.keys() == want.keys()
    for name in got:
        assert np.asarray(got[name]).tobytes() == np.asarray(want[name]).tobytes(), name


@pytest.mark.parametrize(
    "xi, step, error, residual_error",  # residual_error: duality_residual's, at its own step
    [
        ([0.6, 0.5], None, ParamOutOfRange, ParamOutOfRange),  # the centre is outside
        ([np.nan, 0.3], None, ParamOutOfRange, ParamOutOfRange),  # a nan default step
        ([np.nan, 0.3], 1e-4, ParamOutOfRange, ParamOutOfRange),  # a finite step, a nan stencil
        ([0.0015, 0.3], 1e-3, StepTooLarge, ParamOutOfRange),  # leaves through xi_0
        ([0.3, 0.69], 0.01, StepTooLarge, None),  # leaves through p_0
        ([0.00305, 0.4], None, None, StepTooLarge),  # a residual centre's stencil leaves
    ],
)
@pytest.mark.parametrize("name", sorted(_STENCIL_INSTRUMENTS))
def test_the_weight_floor_path_raises_like_the_domain_path(name, xi, step, error, residual_error):
    xi = np.array(xi)
    model = simplex_model(2)
    raised = []
    for side in (model, _without_floor(model)):
        try:
            _STENCIL_INSTRUMENTS[name](side, xi, step)
        except (ParamOutOfRange, StepTooLarge) as exc:
            raised.append((type(exc), str(exc)))
        else:
            raised.append((None, ""))
    assert raised[0] == raised[1]
    assert raised[0][0] is (residual_error if name == "duality_residual" else error)


def _counting_with_floor(model):
    """_counting, with the floor that dataclasses.replace drops put back."""
    counted, calls = _counting(model)
    object.__setattr__(counted, "_floor", model._floor)
    return counted, calls


@pytest.mark.parametrize("w", [1, 2, 6, 12])
def test_a_floor_stencil_makes_one_weight_call_and_no_domain_call(w):
    model, calls = _counting_with_floor(simplex_model(w))
    xi = np.full(w, 1.0 / (w + 1))
    edge = xi.copy()
    edge[0] = SIMPLEX_MARGIN + 0.5 * METRIC_STEP  # every default stencil around it leaves
    kl = kl_functional()
    runs = {
        "fisher_metric": lambda x: fisher_metric(model, x),
        "div_metric": lambda x: div_metric(kl, model, x),
        "div_metric of a stack": lambda x: div_metric(kl, model, np.stack([xi, 0.9 * xi, x])),
        "div_connections": lambda x: div_connections(kl, model, x),
        "alpha_connection": lambda x: alpha_connection(model, x, 0.5),
    }
    for name, run in runs.items():
        calls.update(in_domain=0, prob_fn=0)
        run(xi)
        assert calls == {"in_domain": 0, "prob_fn": 1}, name
        # a stencil that leaves the domain takes one in_domain call to name its point
        calls.update(in_domain=0, prob_fn=0)
        with pytest.raises(StepTooLarge):
            run(edge)
        assert calls == {"in_domain": 1, "prob_fn": 1}, name
    gamma = ConnCoeffs(np.zeros((w, w, w)))
    stacks = []
    calls.update(in_domain=0, prob_fn=0)
    duality_residual(
        lambda x: stacks.append(x) or div_metric(kl, model, x),
        lambda x: gamma,
        lambda x: gamma,
        model,
        xi,
    )
    assert calls == {"in_domain": 1, "prob_fn": len(stacks)}  # its own point: one in_domain call


@pytest.mark.parametrize("w", [1, 2, 6, 12])
def test_div_connections_differences_both_slots_in_one_pass(w, monkeypatch):
    shapes = []
    second = geometry._fd_second
    monkeypatch.setattr(
        geometry, "_fd_second", lambda table, n, h: shapes.append(table.shape) or second(table, n, h)
    )
    div_connections(kl_functional(), simplex_model(w), np.full(w, 1.0 / (w + 1)))
    assert shapes == [(2 * w * w + 1, 4 * w)]  # [stencil row, parked point of either slot]


@pytest.mark.parametrize("per_call", [1, 5])
@pytest.mark.parametrize("w", [8, 12])
def test_connections_over_a_small_row_budget_stay_bit_identical(w, per_call, monkeypatch):
    kl = kl_functional()
    calls = []
    d = dataclasses.replace(kl, fn=lambda p, q: calls.append(None) or kl.fn(p, q))
    model = simplex_model(w)
    xi = _interior_stack(np.random.default_rng(600 + w), w, 1)[0]
    want = _loop_div_connections(kl, model, xi, CONN_STEP)
    monkeypatch.setattr(geometry, "_ROW_BUDGET", per_call * (2 * w * w + 1))
    gamma, gamma_star = div_connections(d, model, xi)
    assert len(calls) == 2 * -(-2 * w // per_call)  # the parked points of each slot, split
    assert gamma.entries.tobytes() == want[0].tobytes()
    assert gamma_star.entries.tobytes() == want[1].tobytes()
