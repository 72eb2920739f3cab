"""Entropy pairs: anchoring, shapes, built-in families, and the trace bridge."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from entrogeo import (
    builtin_functional,
    composability_residual,
    entropy_functional,
    hf_sum,
    kaniadakis,
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
from entrogeo.composition import sm_pair_entropy, sm_tsallis_entropy
from entrogeo.divergence import sm_divergence_pair
from entrogeo.maxent import GRAD_STEP, _fd_gradient
from entrogeo.errors import (
    AnchorViolation,
    DomainError,
    InvalidArgument,
    InversionFailure,
    ParamOutOfRange,
    ShapeMismatch,
)
from entrogeo.hf_entropy import (
    EntropyFunctional,
    HFPair,
    require_shape,
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
    assert entropy_functional(shannon()).eval(uniform(2)) == pytest.approx(LN2, rel=1e-15)
    assert entropy_functional(shannon()).eval(uniform(4)) == pytest.approx(LN4, rel=1e-15)
    assert entropy_functional(shannon()).eval(P) == pytest.approx(SHANNON_P, rel=1e-14)


def test_certainty_has_zero_entropy():
    for pair in (shannon(), renyi(2.0), tsallis(0.5), sharma_mittal(0.5, 0.7), kaniadakis(0.3)):
        value = entropy_functional(pair).eval(validate([0, 1, 0, 0, 0]))
        assert value == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize(
    "pair",
    [shannon(), renyi(2.0), tsallis(0.5), sharma_mittal(0.5, 0.7), kaniadakis(0.3)],
    ids=lambda pair: pair.name,
)
def test_zero_outcomes_leave_the_entropy_unchanged(pair):
    # expansibility on literal padded weights, at every position of the zeros
    functional = entropy_functional(pair)
    base = functional.eval(P)
    for padded in ([0.2, 0.3, 0.5, 0.0], [0.0, 0.2, 0.3, 0.5], [0.2, 0.0, 0.3, 0.0, 0.5]):
        assert functional.eval(validate(padded)) == pytest.approx(base, rel=1e-14, abs=0.0)


def test_renyi_reference_values():
    assert entropy_functional(renyi(2.0)).eval(uniform(4)) == pytest.approx(LN4, rel=1e-15)
    assert entropy_functional(renyi(0.5)).eval(P) == pytest.approx(RENYI_05_P, rel=1e-14)


def test_tsallis_reference_values():
    half = validate([0.5, 0.5])
    assert entropy_functional(tsallis(2.0)).eval(half) == pytest.approx(0.5, abs=1e-15)
    assert entropy_functional(tsallis(1.5)).eval(P) == pytest.approx(TSALLIS_15_P, rel=1e-14)


def test_sharma_mittal_reference_value():
    value = entropy_functional(sharma_mittal(0.5, 0.7)).eval(P)
    assert value == pytest.approx(SM_05_07_P, rel=1e-14)


def test_sharma_mittal_collapses_to_tsallis_on_the_diagonal():
    rng = np.random.default_rng(2)
    for w in (2, 4, 6):
        weights = rng.dirichlet(np.ones(w))
        p = validate(weights, tol=1e-9)
        gap = abs(
            entropy_functional(sharma_mittal(1.7, 1.7)).eval(p)
            - entropy_functional(tsallis(1.7)).eval(p)
        )
        assert gap <= 1e-13


def test_kaniadakis_reference_and_symmetry():
    assert entropy_functional(kaniadakis(0.3)).eval(P) == pytest.approx(KANIADAKIS_03_P, rel=1e-14)
    # the deformation enters through kappa^2 only
    assert entropy_functional(kaniadakis(-0.3)).eval(P) == pytest.approx(
        entropy_functional(kaniadakis(0.3)).eval(P), rel=1e-15
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
    assert builtin_functional("shannon").name == "shannon"
    named = builtin_functional("sharma-mittal", alpha=0.5, beta=0.7).name
    assert named == "sharma-mittal(0.5,0.7)"
    with pytest.raises(ParamOutOfRange):
        builtin_functional("boltzmann")
    with pytest.raises(ParamOutOfRange):
        builtin_functional("renyi", q=2.0)  # the parameter is called alpha


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
    value = entropy_functional(sharma_mittal(alpha, beta)).eval(P)
    assert math.isfinite(value) and value > 0.0
    sm_divergence_pair(alpha, beta)


def _squared_pair(**changes) -> HFPair:
    """(t^2, x - 1): convex f with increasing h (c = 2), with any field changed."""
    fields = dict(
        name="squared",
        f=lambda t: np.asarray(t) ** 2,
        h=lambda x: np.asarray(x) - 1.0,
        h_inverse=lambda y: np.asarray(y) + 1.0,
        h_prime=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        d2f1=2.0,
        d3f1=0.0,
        f_prime=lambda t: 2.0 * np.asarray(t),
    )
    return HFPair(**{**fields, **changes})


def test_wrong_h_inverse_still_raises():
    steep = sharma_mittal(0.999, 2.0)
    with pytest.raises(InversionFailure):
        dataclasses.replace(steep, h_inverse=lambda y: steep.h_inverse(y) * (1.0 + 1e-6))
    with pytest.raises(InversionFailure):
        _squared_pair(name="off-by-a-bit", h_inverse=lambda y: np.asarray(y) + 1.001)
    # exact to third order at f(1): only a probe window of useful width sees it
    with pytest.raises(InversionFailure):
        _squared_pair(
            name="cubic-error", h_inverse=lambda y: np.asarray(y) + 1.0 + np.asarray(y) ** 3
        )


def test_an_overflowing_probe_fails_its_check_without_a_warning():
    # r = (1 - 1e300)/(1 - 1e-8): h overflows near f(1) and h_inverse meets log1p(-inf)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(InversionFailure, match="deviates by inf near f"):
            sharma_mittal(1e-8, 1e300)
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"f": lambda t: np.sqrt(t), "d2f1": 0.25}, "f is not convex"),
        ({"d2f1": -2.0}, "f is not concave"),
        ({"h_prime": lambda x: -np.ones_like(np.asarray(x))}, "h is not decreasing"),
        (
            {
                "h": lambda x: 1.0 - np.asarray(x),
                "h_inverse": lambda y: 1.0 - np.asarray(y),
                "h_prime": lambda x: np.ones_like(np.asarray(x)),
            },
            "h is not increasing",
        ),
        ({"d2f1": 0.0}, r"c = h'\(f\(1\)\) f''\(1\) = 0\.000e\+00, must not vanish"),
        ({"d2f1": np.nan}, "c = .* = nan, must not vanish"),
        ({"h_prime": lambda x: np.zeros_like(np.asarray(x))}, "c = .* = 0.000e\\+00"),
    ],
)
def test_pair_claims_are_checked(changes, message):
    _squared_pair()  # the unchanged pair builds
    with pytest.raises(ShapeMismatch, match=message):
        _squared_pair(**changes)


def test_entropy_shape_requires_the_right_pairing():
    # convex f with increasing h (c > 0) is a divergence pairing, not an entropy one
    squared = _squared_pair()
    with pytest.raises(ShapeMismatch, match=r"\(convex f, increasing h\) cannot be an entropy$"):
        entropy_functional(squared)
    require_shape(squared, "divergence")  # the mirror use is fine
    with pytest.raises(ShapeMismatch, match=r"\(concave f, increasing h\) cannot be a divergence$"):
        require_shape(shannon(), "divergence")
    with pytest.raises(InvalidArgument, match="role must be one of"):
        require_shape(squared, "metric")


def test_anchor_values_are_enforced():
    with pytest.raises(AnchorViolation):
        _squared_pair(
            name="unanchored",
            f=lambda t: np.asarray(t) ** 2 + 0.1,  # f(0) != 0
            h=lambda x: np.asarray(x) - 1.1,
            h_inverse=lambda y: np.asarray(y) + 1.1,
        )
    with pytest.raises(AnchorViolation):
        _squared_pair(
            name="uncentered",
            h=lambda x: np.asarray(x) - 0.5,  # h(f(1)) = 0.5
            h_inverse=lambda y: np.asarray(y) + 0.5,
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


@pytest.mark.parametrize(
    "functional",
    [
        sm_pair_entropy(0.3, 0.7, 0.5),
        sm_pair_entropy(0.5, 2.0, 1.5),
        sm_pair_entropy(1.5, 3.0, 2.0),
        sm_tsallis_entropy(0.3, 0.7),
        sm_tsallis_entropy(0.5, 2.0),
    ],
    ids=lambda f: f.name,
)
def test_trace_entropies_carry_the_chain_rule_gradient(functional):
    # dS/dp_i = sum_k dF/ds_k a_k p_i^(a_k - 1), against maximize's own central differences
    w = np.random.default_rng(4).dirichlet(np.ones(7))
    fd = _fd_gradient(functional.fn, w, GRAD_STEP)
    np.testing.assert_allclose(functional.gradient(w), fd, rtol=1e-6, atol=0.0)
    batch = np.vstack([w, w[::-1]])
    np.testing.assert_allclose(
        functional.gradient(batch)[1], functional.gradient(w[::-1]), rtol=1e-14, atol=0.0
    )


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
        assert entropy_functional(pair).eval(p) >= -1e-12


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


def test_sk_suite_evaluates_each_batch_once_and_its_padding_once():
    calls = []
    tsallis_fn = builtin_functional("tsallis", q=1.5).fn

    def fn(weights):
        calls.append(np.shape(weights))
        return tsallis_fn(weights)

    report = sk_suite(EntropyFunctional(fn=fn, name="counted"), w_max=4, samples=30)
    assert report.passed
    # two calls per W: samples + W corners + 1 uniform rows, then the same rows padded by a 0
    assert calls == [(30 + w + 1, w + pad) for w in (2, 3, 4) for pad in (0, 1)]


def test_sk_suite_needs_two_outcomes():
    with pytest.raises(InvalidArgument):
        sk_suite(builtin_functional("shannon"), w_max=1)


@pytest.mark.parametrize("samples", [0, -1])
def test_sk_suite_needs_a_sample(samples):
    with pytest.raises(InvalidArgument, match="need at least one sample"):
        sk_suite(builtin_functional("tsallis", q=1.5), samples=samples)


def test_sk_suite_flags_a_convex_impostor():
    impostor = EntropyFunctional(
        fn=lambda w: np.square(np.asarray(w, dtype=float)).sum(axis=-1),
        name="sum-of-squares",
    )
    report = sk_suite(impostor, w_max=3, samples=100)
    assert not report.passed
    assert report.maximality_violation > 0.1


SK_KEYS = [
    "entropy",
    "w_max",
    "samples",
    "tol",
    "maximality_violation",
    "expansibility_residual",
    "min_value",
    "maximality_ok",
    "expansibility_ok",
    "nonneg_ok",
    "strict_checked",
    "strict_ok",
    "passed",
]


def test_sk_report_as_dict_keys():
    doc = sk_suite(entropy_functional(shannon()), w_max=2, samples=50).as_dict()
    assert doc["passed"] is True
    assert {"maximality_violation", "expansibility_residual", "min_value"} <= set(doc)
    assert list(doc) == SK_KEYS
    # without the strict check, strict_ok reads True and passed ignores it
    loose = sk_suite(entropy_functional(shannon()), w_max=2, samples=50, strict=False).as_dict()
    assert list(loose) == SK_KEYS
    assert (loose["strict_checked"], loose["strict_ok"], loose["passed"]) == (False, True, True)


# --- the power-trace record that maxent's dual solves ---------------------------

#: Exponents at the guard on both sides of 1, ordinary ones, and large ones.
_NEAR_ONE = (1.0 - 2e-8, 1.0 + 2e-8)
_POWER_GRID = (
    [(renyi, (a,)) for a in (1e-3, 0.5, *_NEAR_ONE, 2.0, 50.0, 200.0)]
    + [(tsallis, (q,)) for q in (1e-3, 0.5, *_NEAR_ONE, 2.0, 50.0, 200.0)]
    + [(sharma_mittal, (a, b)) for a in (0.5, _NEAR_ONE[1], 2.0, 200.0)
       for b in (-5.0, 0.3, _NEAR_ONE[0], 2.0)]
    + [(kaniadakis, (k,)) for k in (-0.9, -2e-8, 2e-8, 0.3, 0.99)]
)


@pytest.mark.parametrize(
    "build, params", _POWER_GRID, ids=lambda v: getattr(v, "__name__", None) or repr(v)
)
def test_the_trace_record_of_a_power_family_is_its_entropy(build, params):
    pair = build(*params)
    entropy = entropy_functional(pair)
    exponents, coefficients, linear = pair.f.power_terms
    traces = entropy.traces
    assert traces.exponents == exponents
    rows = np.vstack([np.random.default_rng(0).dirichlet(np.ones(7), size=20), np.full(7, 1 / 7)])
    value, fn, sums = traces.value(rows), entropy.fn(rows), traces.sums(rows)
    slopes = traces.outer_gradient(sums)  # h' c_k
    if linear == 0.0 and coefficients == (1.0,):  # h of the very sum fn takes
        np.testing.assert_array_equal(value, fn)
    # Otherwise the two sum in different orders terms up to h' linear and h' c_k s_k in size,
    # which near the guard cancel to S: 1e-13 relative to the terms, not to S.
    h_prime = slopes[0] / coefficients[0]
    terms = np.abs(value) + np.abs(h_prime * linear) + (np.abs(slopes) * sums).sum(axis=0)
    assert np.all(np.abs(value - fn) <= 1e-13 * terms)
    # phi(t) = sum_k w_k t^a_k is strictly concave, as the dual needs
    a = np.asarray(exponents)[:, None]
    assert np.all(slopes * a * (a - 1.0) < 0.0)


def test_a_pair_without_power_terms_has_no_trace_record():
    assert entropy_functional(shannon()).traces is None
    user = dataclasses.replace(renyi(2.0), name="user", f=lambda t: np.power(t, 2.0))
    assert entropy_functional(user).traces is None


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
