"""Entropy pairs: anchoring, shapes, built-in families, and the trace bridge."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from entrogeo import (
    builtin_functional,
    certainty,
    composability_residual,
    entropy_functional,
    eval_entropy,
    hf_sum,
    kaniadakis,
    make_builtin,
    phi_from_chi,
    product_chi,
    q_sum,
    renyi,
    shannon,
    sharma_mittal,
    sk_suite,
    tsallis,
    uniform,
    validate,
)
from entrogeo.composition import sm_pair_entropy
from entrogeo.divergence import sm_divergence_pair
from entrogeo.errors import (
    AnchorViolation,
    DomainError,
    InversionFailure,
    ParamOutOfRange,
    ShapeMismatch,
)
from entrogeo.hf_entropy import (
    EntropyFunctional,
    HFPair,
    require_divergence_shape,
    zero_preserving,
)

# reference values on p = (0.2, 0.3, 0.5), computed at 50-digit precision
P = validate([0.2, 0.3, 0.5])
SHANNON_P = 1.0296530140645735
SM_05_07_P = 1.2529518019529579
KANIADAKIS_03_P = 1.0527143082634008
RENYI_05_P = 1.0636585111251116
TSALLIS_15_P = 0.7853742461103696

LN2 = math.log(2.0)
LN4 = math.log(4.0)


def test_shannon_reference_values():
    assert eval_entropy(shannon(), uniform(2)) == pytest.approx(LN2, rel=1e-15)
    assert eval_entropy(shannon(), uniform(4)) == pytest.approx(LN4, rel=1e-15)
    assert eval_entropy(shannon(), P) == pytest.approx(SHANNON_P, rel=1e-14)


def test_certainty_has_zero_entropy():
    for pair in (shannon(), renyi(2.0), tsallis(0.5), sharma_mittal(0.5, 0.7), kaniadakis(0.3)):
        assert eval_entropy(pair, certainty(5, 2)) == pytest.approx(0.0, abs=1e-12)


def test_renyi_reference_values():
    assert eval_entropy(renyi(2.0), uniform(4)) == pytest.approx(LN4, rel=1e-15)
    assert eval_entropy(renyi(0.5), P) == pytest.approx(RENYI_05_P, rel=1e-14)


def test_tsallis_reference_values():
    assert eval_entropy(tsallis(2.0), validate([0.5, 0.5])) == pytest.approx(0.5, abs=1e-15)
    assert eval_entropy(tsallis(1.5), P) == pytest.approx(TSALLIS_15_P, rel=1e-14)


def test_sharma_mittal_reference_value():
    assert eval_entropy(sharma_mittal(0.5, 0.7), P) == pytest.approx(SM_05_07_P, rel=1e-14)


def test_sharma_mittal_collapses_to_tsallis_on_the_diagonal():
    rng = np.random.default_rng(2)
    for w in (2, 4, 6):
        weights = rng.dirichlet(np.ones(w))
        p = validate(weights, tol=1e-9)
        gap = abs(
            eval_entropy(sharma_mittal(1.7, 1.7), p) - eval_entropy(tsallis(1.7), p)
        )
        assert gap <= 1e-13


def test_kaniadakis_reference_and_symmetry():
    assert eval_entropy(kaniadakis(0.3), P) == pytest.approx(KANIADAKIS_03_P, rel=1e-14)
    # the deformation enters through kappa^2 only
    assert eval_entropy(kaniadakis(-0.3), P) == pytest.approx(
        eval_entropy(kaniadakis(0.3), P), rel=1e-15
    )


@pytest.mark.parametrize(
    "build",
    [
        lambda: renyi(1.0),
        lambda: renyi(1.0 + 5e-9),
        lambda: tsallis(1.0),
        lambda: sharma_mittal(1.0, 2.0),
        lambda: sharma_mittal(0.5, 1.0),
        lambda: kaniadakis(0.0),
        lambda: kaniadakis(1.0),
        lambda: kaniadakis(5e-9),
        lambda: renyi(-1.0),
        lambda: tsallis(float("nan")),
    ],
)
def test_degenerate_parameters_are_rejected(build):
    with pytest.raises(ParamOutOfRange):
        build()


def test_make_builtin_names_and_alias():
    assert make_builtin("shannon").name == "shannon"
    assert make_builtin("sharma-mittal", alpha=0.5, beta=0.7).name == "sharma-mittal(0.5,0.7)"
    with pytest.raises(ParamOutOfRange):
        make_builtin("boltzmann")
    with pytest.raises(ParamOutOfRange):
        make_builtin("renyi", q=2.0)  # the parameter is called alpha


def test_zero_preserving_wraps_nan_at_zero():
    f = zero_preserving(lambda t: np.where(t == 0, np.nan, -t * np.log(t)))
    out = f(np.array([0.0, 0.5]))
    assert out[0] == 0.0
    assert out[1] == pytest.approx(0.5 * LN2)


@pytest.mark.parametrize(
    "alpha, beta", [(0.999, 2.0), (1.001, 0.5), (1.01, 2.0), (0.99, 0.5), (1 + 2e-8, 2.0)]
)
def test_sharma_mittal_builds_near_alpha_one(alpha, beta):
    # r = (1 - beta)/(1 - alpha) reaches 5e7: the probes shrink to where x^r is finite
    value = eval_entropy(sharma_mittal(alpha, beta), P)
    assert math.isfinite(value) and value > 0.0
    sm_divergence_pair(alpha, beta)


def test_wrong_h_inverse_still_raises():
    steep = sharma_mittal(0.999, 2.0)
    with pytest.raises(InversionFailure):
        dataclasses.replace(steep, h_inverse=lambda y: steep.h_inverse(y) * (1.0 + 1e-6))
    with pytest.raises(InversionFailure):
        HFPair(
            name="off-by-a-bit",
            f=lambda t: np.asarray(t) ** 2,
            h=lambda x: np.asarray(x) - 1.0,
            h_inverse=lambda y: np.asarray(y) + 1.001,
            f_shape="convex",
            h_direction="increasing",
        )
    # exact to third order at f(1): only a probe window of useful width sees it
    with pytest.raises(InversionFailure):
        HFPair(
            name="cubic-error",
            f=lambda t: np.asarray(t) ** 2,
            h=lambda x: np.asarray(x) - 1.0,
            h_inverse=lambda y: np.asarray(y) + 1.0 + np.asarray(y) ** 3,
            f_shape="convex",
            h_direction="increasing",
        )


def test_fd_derivative_fallback_matches_analytic():
    # build tsallis(1.5) by hand without supplying derivatives
    q = 1.5
    made = HFPair(
        name="handmade",
        f=zero_preserving(lambda t: (t - t**q) / (q - 1.0)),
        h=lambda x: x,
        h_inverse=lambda y: y,
        f_shape="concave",
        h_direction="increasing",
    )
    reference = tsallis(q)
    assert made.df1 == pytest.approx(reference.df1, abs=1e-8)
    assert made.d2f1 == pytest.approx(reference.d2f1, abs=1e-6)
    # the third-derivative stencil carries noise of order 1e-4 at this step
    assert made.d3f1 == pytest.approx(reference.d3f1, abs=5e-4)
    assert made.h_prime(np.array([0.5, 2.0])) == pytest.approx([1.0, 1.0], abs=1e-10)
    # a value given is kept; only the missing ones are filled
    partial = dataclasses.replace(made, df1=-1.0, d3f1=None)
    assert (partial.df1, partial.d2f1, partial.d3f1) == (-1.0, made.d2f1, made.d3f1)


def test_declared_shape_must_match_sampled_shape():
    with pytest.raises(ShapeMismatch):
        HFPair(
            name="mislabeled",
            f=lambda t: np.asarray(t) ** 2,  # convex, f(0)=0
            h=lambda x: np.asarray(x) - 1.0,
            h_inverse=lambda y: np.asarray(y) + 1.0,
            f_shape="concave",
            h_direction="increasing",
        )


def test_entropy_shape_requires_the_right_pairing():
    # convex f with increasing h is a divergence pairing, not an entropy one
    squared = HFPair(
        name="squared",
        f=lambda t: np.asarray(t) ** 2,
        h=lambda x: np.asarray(x) - 1.0,
        h_inverse=lambda y: np.asarray(y) + 1.0,
        f_shape="convex",
        h_direction="increasing",
    )
    with pytest.raises(ShapeMismatch):
        entropy_functional(squared)
    require_divergence_shape(squared)  # the mirror use is fine


def test_anchor_values_are_enforced():
    with pytest.raises(AnchorViolation):
        HFPair(
            name="unanchored",
            f=lambda t: np.asarray(t) ** 2 + 0.1,  # f(0) != 0
            h=lambda x: np.asarray(x) - 1.1,
            h_inverse=lambda y: np.asarray(y) + 1.1,
            f_shape="convex",
            h_direction="increasing",
        )
    with pytest.raises(AnchorViolation):
        HFPair(
            name="uncentered",
            f=lambda t: np.asarray(t) ** 2,
            h=lambda x: np.asarray(x) - 0.5,  # h(f(1)) = 0.5
            h_inverse=lambda y: np.asarray(y) + 0.5,
            f_shape="convex",
            h_direction="increasing",
        )


def test_hf_sum_is_a_plain_trace():
    pair = tsallis(2.0)
    w = np.array([0.2, 0.3, 0.5])
    assert hf_sum(pair, w) == pytest.approx(float(pair.f(w).sum()), rel=1e-15)


def test_functional_batch_matches_scalar_loop():
    functional = builtin_functional("tsallis", q=2.0)
    rng = np.random.default_rng(9)
    batch = rng.dirichlet(np.ones(4), size=16)
    vals = functional.eval_batch(batch)
    for row, v in zip(batch, vals):
        assert functional.eval(validate(row, tol=1e-9)) == pytest.approx(float(v), rel=1e-14)


def test_functional_rejects_non_finite_value():
    exploding = EntropyFunctional(fn=lambda w: float("inf"), name="exploding")
    with pytest.raises(DomainError):
        exploding.eval(uniform(2))


def test_builtin_functionals_carry_their_laws():
    assert builtin_functional("shannon").law.name == "q-sum(1)"
    assert builtin_functional("renyi", alpha=2.0).law.name == "q-sum(1)"
    assert builtin_functional("tsallis", q=0.5).law.name == "q-sum(0.5)"
    assert builtin_functional("sharma_mittal", alpha=0.5, beta=0.7).law.name == "q-sum(0.7)"
    assert builtin_functional("kaniadakis", kappa=0.3).law is None


def test_analytic_gradient_on_every_builtin():
    for family, params in (
        ("shannon", {}),
        ("renyi", {"alpha": 2.0}),
        ("tsallis", {"q": 2.0}),
        ("sharma_mittal", {"alpha": 0.5, "beta": 0.7}),
        ("kaniadakis", {"kappa": 0.3}),
    ):
        assert builtin_functional(family, **params).gradient is not None
    # composed functionals carry no pair, hence no gradient
    assert sm_pair_entropy(0.3, 0.7, 0.5).gradient is None


@pytest.mark.parametrize(
    "pair", [renyi(0.5), renyi(2.0), sharma_mittal(0.5, 0.7), sharma_mittal(2.0, 3.0)]
)
def test_chain_rule_gradient_matches_central_differences(pair):
    functional = entropy_functional(pair)
    w = np.array([0.1, 0.2, 0.3, 0.4])
    step = 1e-6
    fd = np.empty(4)
    for i in range(4):
        e = np.zeros(4)
        e[i] = step
        fd[i] = (functional.fn(w + e) - functional.fn(w - e)) / (2 * step)
    np.testing.assert_allclose(functional.gradient(w), fd, rtol=0.0, atol=1e-8)
    batch = np.vstack([w, w[::-1]])
    np.testing.assert_array_equal(functional.gradient(batch)[1], functional.gradient(w[::-1]))


def test_identity_rescaled_gradients_are_f_prime():
    w = np.array([0.1, 0.2, 0.3, 0.4])
    for pair in (shannon(), tsallis(0.5), kaniadakis(0.3)):
        assert np.array_equal(entropy_functional(pair).gradient(w), pair.f_prime(w))


def test_shannon_gradient_matches_finite_differences():
    functional = builtin_functional("shannon")
    w = np.array([0.2, 0.3, 0.5])
    step = 1e-6
    for i in range(3):
        e = np.zeros(3)
        e[i] = step
        fd = (functional.fn(w + e) - functional.fn(w - e)) / (2 * step)
        assert functional.gradient(w)[i] == pytest.approx(fd, abs=1e-9)


@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_builtins_are_nonnegative_on_random_distributions(w, seed):
    weights = np.random.default_rng(seed).dirichlet(np.ones(w))
    p = validate(weights, tol=1e-9)
    for pair in (shannon(), renyi(0.5), tsallis(2.0), sharma_mittal(2.0, 3.0), kaniadakis(0.5)):
        assert eval_entropy(pair, p) >= -1e-12


def test_sk_suite_passes_for_builtins():
    for functional in (
        builtin_functional("shannon"),
        builtin_functional("renyi", alpha=3.0),
        builtin_functional("kaniadakis", kappa=0.9),
    ):
        report = sk_suite(functional, w_max=4, samples=200, seed=5)
        assert report.passed, report.as_dict()
        assert report.expansibility_residual == 0.0
        assert report.min_value >= 0.0


def test_sk_suite_accepts_a_bare_pair():
    report = sk_suite(tsallis(2.0), w_max=3, samples=100)
    assert report.passed


def test_sk_suite_flags_a_convex_impostor():
    impostor = EntropyFunctional(
        fn=lambda w: np.square(np.asarray(w, dtype=float)).sum(axis=-1),
        name="sum-of-squares",
    )
    report = sk_suite(impostor, w_max=3, samples=100)
    assert not report.passed
    assert report.maximality_violation > 0.1


def test_sk_report_as_dict_keys():
    doc = sk_suite(shannon(), w_max=2, samples=50).as_dict()
    assert doc["passed"] is True
    assert {"maximality_violation", "expansibility_residual", "min_value"} <= set(doc)


# --- the trace bridge between chi and the entropy law -------------------------


def test_power_traces_compose_by_products():
    pair = renyi(2.0)
    p, q = validate([0.2, 0.8]), validate([0.3, 0.3, 0.4])
    joint = hf_sum(pair, np.outer(p.weights, q.weights).reshape(-1))
    assert joint == pytest.approx(hf_sum(pair, p.weights) * hf_sum(pair, q.weights), rel=1e-15)


def test_induced_law_from_product_chi_is_addition():
    law = phi_from_chi(renyi(2.0), product_chi())
    x, y = 0.7, 1.3
    assert law(x, y) == pytest.approx(x + y, rel=1e-12)
    assert law.name == "induced[renyi(2);product]"


def test_induced_law_from_deformed_chi_is_the_deformed_sum():
    q = 1.5
    law = phi_from_chi(tsallis(q), q_sum(q))
    grid = np.linspace(0.0, 1.2, 7)
    for x in grid:
        for y in grid:
            assert float(law(x, y)) == pytest.approx(float(q_sum(q)(x, y)), abs=1e-12)


def test_induced_law_raises_outside_h_range():
    # renyi h^-1 = exp((1-alpha) x) is entire, but sharma-mittal h^-1 needs
    # 1 + (1-beta) y > 0; feeding a huge value through must not return nan
    law = phi_from_chi(sharma_mittal(0.5, 3.0), q_sum(3.0))
    with pytest.raises(DomainError):
        law(5.0, 5.0)


@pytest.mark.parametrize(
    "pair, law",
    [
        (shannon(), q_sum(1.0)),
        (renyi(2.0), q_sum(1.0)),
        (tsallis(1.5), q_sum(1.5)),
        (sharma_mittal(0.5, 0.7), q_sum(0.7)),
    ],
)
def test_composability_residual_vanishes_for_matched_laws(pair, law):
    p, q = validate([0.2, 0.8]), validate([0.3, 0.7])
    assert composability_residual(pair, law, p, q) <= 1e-12


def test_kaniadakis_misses_every_deformed_sum():
    p, q = validate([0.2, 0.8]), validate([0.3, 0.7])
    pair = kaniadakis(0.4)
    residuals = [
        composability_residual(pair, q_sum(qq), p, q) for qq in (0.0, 0.5, 1.0, 1.5, 2.0)
    ]
    assert min(residuals) > 1e-3
