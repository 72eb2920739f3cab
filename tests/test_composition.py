"""Composing entropies: monotone maps, the group engine, and closed forms."""

import math

import numpy as np
import pytest

from entrogeo import (
    Composer,
    EntropyFunctional,
    builtin_functional,
    concavity_probe,
    expm1_conjugator,
    group_compose,
    identity_conjugator,
    linear_composer,
    polynomial_composer,
    scale_conjugator,
    shannon,
    sm_pair_entropy,
    sm_tsallis_entropy,
    uniform,
    validate,
    zeta_compose,
)
from entrogeo.errors import (
    ArityMismatch,
    InvalidArgument,
    LawMismatch,
    MonotonicityViolation,
    ParamOutOfRange,
)
from entrogeo.cli import _COMPOSABILITY_TOL, _max_product_residual
from entrogeo.formal_group import (
    PERM_TOL,
    BinaryLaw,
    Interval,
    check_group_axioms,
    check_phi4_symmetry,
    iterate_pow2,
    q_sum,
)
from entrogeo.hf_entropy import _product_pairs, entropy_functional, sk_suite

# 50-digit reference values
SM_PAIR_03_07_05 = 3.7943432922226759864  # alpha 0.3/0.7, beta 0.5, p=(.2,.3,.5)
SM_TSALLIS_03_07 = 2.9771595458568808  # alpha 0.3, q 0.7, same p
LN2_PLUS_LN2_SQ = 1.1736001944781467  # x + x^2 at x = ln 2

P = validate([0.2, 0.3, 0.5])


def test_linear_composer_flags():
    c = linear_composer([0.6, 0.4])
    assert c.arity == 2
    assert c.monotone
    assert c.grad0 == (0.6, 0.4)
    assert not linear_composer([1.0, -0.5]).monotone


def test_polynomial_composer_gradient_collects_degree_one():
    c = polynomial_composer([(1.0, (1, 0)), (2.0, (0, 1)), (0.5, (1, 1))], arity=2)
    assert c.grad0 == (1.0, 2.0)
    assert c.monotone
    assert float(c.fn(np.array([1.0, 1.0]))) == pytest.approx(3.5)
    with pytest.raises(ArityMismatch):
        polynomial_composer([(1.0, (1, 0, 0))], arity=2)


def test_composer_builders_check_arity():
    with pytest.raises(ArityMismatch, match="arity must be >= 1"):
        Composer(fn=np.sum, arity=0, name="empty")
    with pytest.raises(ArityMismatch, match="grad0 has 1 entries for arity 2"):
        Composer(fn=np.sum, arity=2, name="short", grad0=(1.0,))
    with pytest.raises(ArityMismatch, match="non-empty"):
        linear_composer([])
    with pytest.raises(ArityMismatch, match="arity must be >= 1"):
        polynomial_composer([(1.0, ())], arity=0)


def test_zeta_linear_combination_of_entropies():
    s = builtin_functional("shannon")
    t = builtin_functional("tsallis", q=2.0)
    combo = zeta_compose([s, t], linear_composer([0.25, 0.75]))
    expected = 0.25 * s.eval(P) + 0.75 * t.eval(P)
    assert combo.eval(P) == pytest.approx(expected, rel=1e-15)
    assert combo.name == "linear(0.25,0.75)(shannon, tsallis(2))"
    # a generator of constituents composes the same
    streamed = zeta_compose((e for e in (s, t)), linear_composer([0.25, 0.75]))
    assert (streamed.name, streamed.eval(P)) == (combo.name, combo.eval(P))


def test_the_composed_fn_stacks_member_values_along_a_last_axis():
    s = builtin_functional("shannon")
    t = builtin_functional("tsallis", q=2.0)
    seen = []
    recording = Composer(fn=lambda v: seen.append(v) or v @ [0.25, 0.75], arity=2, name="rec")
    _, fn, _ = recording.over([s, t], "entropies")
    batch = np.random.default_rng(3).dirichlet(np.ones(5), size=4)
    for weights in (batch, batch[0]):
        fn(weights)
        assert np.array_equal(seen[-1], np.stack([s.fn(weights), t.fn(weights)], axis=-1))
    # one value for a whole batch does not broadcast against per-row values
    lumped = EntropyFunctional(fn=lambda w: float(np.sum(w)), name="lumped")
    _, fn, _ = recording.over([s, lumped], "entropies")
    with pytest.raises(ValueError):
        fn(batch)


def test_zeta_polynomial_on_shannon():
    s = builtin_functional("shannon")
    grown = zeta_compose([s], polynomial_composer([(1.0, (1,)), (1.0, (2,))], arity=1))
    assert grown.eval(uniform(2)) == pytest.approx(LN2_PLUS_LN2_SQ, rel=1e-15)


def test_zeta_rejects_decreasing_maps():
    s = builtin_functional("shannon")
    with pytest.raises(MonotonicityViolation):
        zeta_compose([s], linear_composer([-1.0]))
    # x - x^2 decreases past 1/2, which the sampled check must see
    humped = polynomial_composer([(1.0, (1,)), (-1.0, (2,))], arity=1)
    with pytest.raises(MonotonicityViolation):
        zeta_compose([s], humped)


def test_zeta_spot_check_catches_maps_flagged_monotone():
    s = builtin_functional("shannon")
    falling = Composer(fn=lambda v: 10.0 - v[..., 0], arity=1, name="falling")
    with pytest.raises(MonotonicityViolation, match="decreases along the componentwise order"):
        zeta_compose([s], falling)
    lowered = Composer(fn=lambda v: v[..., 0] - 1.0, arity=1, name="lowered")
    with pytest.raises(MonotonicityViolation, match="leaves the non-negative range"):
        zeta_compose([s], lowered)


def test_zeta_spot_check_catches_nan_values():
    # every comparison with nan is False, so each range check must fail on it
    s = builtin_functional("shannon")
    undefined = Composer(fn=lambda v: np.full(v.shape[:-1], np.nan), arity=1, name="undefined")
    with pytest.raises(MonotonicityViolation, match="undefined decreases"):
        zeta_compose([s], undefined)
    hole = Composer(
        fn=lambda v: np.where(np.any(v > 0.0, axis=-1), v.sum(axis=-1), np.nan),
        arity=1,
        name="hole",
    )
    with pytest.raises(MonotonicityViolation, match="hole leaves the non-negative range"):
        zeta_compose([s], hole)


def test_zeta_rejects_wrong_arity():
    s = builtin_functional("shannon")
    with pytest.raises(ArityMismatch, match=r"^linear\(1\) takes 1 entropies, got 2$"):
        zeta_compose([s, s], linear_composer([1.0]))
    # arity is checked before the monotone flag
    with pytest.raises(ArityMismatch):
        zeta_compose([s, s], linear_composer([-1.0]))


def test_group_compose_matches_the_two_family_closed_form():
    parts = [
        builtin_functional("sharma_mittal", alpha=0.3, beta=0.5),
        builtin_functional("sharma_mittal", alpha=0.7, beta=0.5),
    ]
    engine, omega = group_compose(parts, identity_conjugator(), m=1)
    assert engine.eval(P) == pytest.approx(SM_PAIR_03_07_05, rel=1e-14)
    assert engine.eval(P) == pytest.approx(
        float(sm_pair_entropy(0.3, 0.7, 0.5).fn(P.weights)), rel=1e-14
    )
    assert omega.name == "id*q-sum(0.5)"


def test_group_compose_matches_the_tsallis_mix_closed_form():
    parts = [
        builtin_functional("tsallis", q=0.7),
        builtin_functional("sharma_mittal", alpha=0.3, beta=0.7),
    ]
    engine, _ = group_compose(parts, identity_conjugator(), m=1)
    assert engine.eval(P) == pytest.approx(SM_TSALLIS_03_07, rel=1e-13)
    assert engine.eval(P) == pytest.approx(
        float(sm_tsallis_entropy(0.3, 0.7).fn(P.weights)), rel=1e-13
    )


def test_group_compose_depth_zero_is_conjugated_identity():
    s = builtin_functional("tsallis", q=2.0)
    doubled, omega = group_compose([s], scale_conjugator(2.0), m=0)
    assert doubled.eval(P) == pytest.approx(2.0 * s.eval(P), rel=1e-15)
    # the transported law still composes the transported values
    x, y = 0.3, 0.8
    assert float(omega(x, y)) == pytest.approx(
        2.0 * float(s.law(x / 2.0, y / 2.0)), rel=1e-14
    )


def test_group_compose_conjugated_value_is_conjugated():
    parts = [
        builtin_functional("sharma_mittal", alpha=0.3, beta=0.5),
        builtin_functional("sharma_mittal", alpha=0.7, beta=0.5),
    ]
    plain, _ = group_compose(parts, identity_conjugator(), m=1)
    warped, _ = group_compose(parts, expm1_conjugator(), m=1)
    assert warped.eval(P) == pytest.approx(math.expm1(plain.eval(P)), rel=1e-14)


def test_group_compose_rejects_mixed_laws():
    with pytest.raises(LawMismatch):
        group_compose(
            [builtin_functional("tsallis", q=1.5), builtin_functional("tsallis", q=2.0)],
            identity_conjugator(),
            m=1,
        )


def test_group_compose_rejects_lawless_constituents():
    k = builtin_functional("kaniadakis", kappa=0.4)
    with pytest.raises(LawMismatch, match=r"kaniadakis\(0.4\) carries no composition law"):
        group_compose([k], identity_conjugator(), m=0)
    # a later constituent without a law is caught as well
    lawless = entropy_functional(shannon())
    with pytest.raises(LawMismatch, match="shannon carries no composition law"):
        group_compose([builtin_functional("shannon"), lawless], identity_conjugator(), m=1)


def test_group_compose_rejects_wrong_count():
    s = builtin_functional("shannon")
    with pytest.raises(ArityMismatch):
        group_compose([s, s, s], identity_conjugator(), m=1)


def test_group_compose_rejects_negative_depth_before_counting():
    s = builtin_functional("shannon")
    with pytest.raises(InvalidArgument, match=r"m must be >= 0, got -1"):
        group_compose([s], identity_conjugator(), m=-1)


def test_the_pow2_arity_is_checked_without_forming_2_to_the_m():
    # 2^20000 has 6,021 digits, past Python's limit for turning an int into text
    s = builtin_functional("shannon")
    with pytest.raises(ArityMismatch, match=r"takes 2\^20000 arguments, got 1$"):
        group_compose([s], identity_conjugator(), m=20000)
    with pytest.raises(ArityMismatch, match=r"takes 2\^20000 arguments, got 2$"):
        iterate_pow2(q_sum(0.5), 20000)(1.0, 2.0)
    law = q_sum(0.5)
    four = iterate_pow2(law, 2)
    assert four(0.1, 0.2, 0.3, 0.4) == law(law(0.1, 0.2), law(0.3, 0.4))
    for count in (0, 1, 2, 3, 5, 8):
        with pytest.raises(ArityMismatch, match=rf"takes 2\^2 arguments, got {count}$"):
            four(*[0.1] * count)
    with pytest.raises(InvalidArgument, match=r"m must be >= 0, got -1"):
        iterate_pow2(law, -1)


def test_closed_forms_are_symmetric_in_the_exponents():
    w = P.weights
    assert float(sm_pair_entropy(0.3, 0.7, 0.5).fn(w)) == pytest.approx(
        float(sm_pair_entropy(0.7, 0.3, 0.5).fn(w)), rel=1e-15
    )


def test_closed_form_parameter_guards():
    with pytest.raises(ParamOutOfRange):
        sm_pair_entropy(1.0, 0.7, 0.5)
    with pytest.raises(ParamOutOfRange):
        sm_tsallis_entropy(0.3, 1.0)
    with pytest.raises(ParamOutOfRange):
        sm_pair_entropy(0.3, 0.7, float("inf"))


def test_closed_form_entropies_carry_the_shared_law():
    assert sm_pair_entropy(0.3, 0.7, 0.5).law.name == "q-sum(0.5)"
    assert sm_tsallis_entropy(0.3, 0.7).law.name == "q-sum(0.7)"


def test_closed_form_batch_evaluation():
    rng = np.random.default_rng(4)
    batch = rng.dirichlet(np.ones(5), size=32)
    vals = sm_pair_entropy(0.3, 0.7, 0.5).fn(batch)
    assert vals.shape == (32,)
    one = float(sm_pair_entropy(0.3, 0.7, 0.5).fn(batch[7]))
    assert vals[7] == pytest.approx(one, rel=1e-15)


CONCAVITY_KEYS = ["entropy", "w_max", "samples", "tol", "min_margin", "counterexample", "passed"]


def test_concavity_probe_passes_for_the_pair_family():
    report = concavity_probe(sm_pair_entropy(0.3, 0.7, 0.5), samples=2000, seed=3)
    assert report.passed
    assert report.min_margin >= -1e-9
    assert report.counterexample is None
    doc = report.as_dict()
    assert list(doc) == CONCAVITY_KEYS
    assert doc["w_max"] == 6
    assert doc["counterexample"] is None and doc["passed"] is True


def test_concavity_probe_catches_a_convex_function():
    impostor = EntropyFunctional(
        fn=lambda w: np.square(np.asarray(w, dtype=float)).sum(axis=-1),
        name="sum-of-squares",
    )
    report = concavity_probe(impostor, samples=500, seed=1)
    assert not report.passed
    witness = report.counterexample
    assert witness is not None and witness["margin"] < -1e-3
    assert set(witness) == {"w", "p", "q", "lam", "margin"}
    doc = report.as_dict()
    assert doc["passed"] is False
    assert list(doc) == CONCAVITY_KEYS
    assert list(doc["counterexample"]) == ["w", "p", "q", "lam", "margin"]


def test_concavity_probe_fails_a_nan_margin():
    shannon = builtin_functional("shannon")

    def fn(w):  # nan on W = 4 only, between finite sizes
        values = shannon.fn(w)
        return values * np.nan if np.shape(w)[-1] == 4 else values

    report = concavity_probe(EntropyFunctional(fn=fn, name="holed"), samples=500)
    assert math.isnan(report.min_margin)
    assert report.counterexample is None
    assert not report.passed


@pytest.mark.parametrize("samples", [0, 4])
def test_concavity_probe_needs_a_sample_at_every_size(samples):
    # W = 2..6 is five sizes; fewer samples would leave some W unprobed
    with pytest.raises(InvalidArgument, match="at least one sample per W"):
        concavity_probe(builtin_functional("shannon"), samples=samples)
    assert concavity_probe(builtin_functional("shannon"), samples=5).passed


def _undefined(weights):
    return np.full(np.shape(weights)[:-1], np.nan)


# finite on [0, 1], where the checkers draw, nan once a composed value passes 1
_HOLED = BinaryLaw(
    fn=lambda x, y: np.where(x <= 1.0, x + y, np.nan), domain=Interval.reals(), name="holed"
)
_UNDEFINED = EntropyFunctional(fn=_undefined, name="undefined", law=q_sum(1.0))
_PROBE_SHAPES = ((2, 3), (3, 2), (2, 2))


@pytest.mark.parametrize(
    "verdict",
    [
        lambda: sk_suite(_UNDEFINED, w_max=3, samples=20, strict=True).passed,
        lambda: sk_suite(_UNDEFINED, w_max=3, samples=20, strict=False).passed,
        lambda: concavity_probe(_UNDEFINED, samples=20).passed,
        lambda: check_group_axioms(_HOLED, samples=20).passed,
        lambda: check_phi4_symmetry(_HOLED, samples=20) <= PERM_TOL,
        lambda: _max_product_residual(_undefined, q_sum(1.0), _product_pairs(0, _PROBE_SHAPES, 2))
        <= _COMPOSABILITY_TOL,
    ],
    ids=["sk-strict", "sk-lenient", "concavity", "group-axioms", "phi4-symmetry", "composability"],
)
def test_a_nan_fails_every_seeded_verdict(verdict):
    assert verdict() is False


@pytest.mark.parametrize("seed", [0, 7, 7919])
def test_product_pairs_draw_what_the_law_probe_and_verify_drew(seed):
    rng = np.random.default_rng(seed)  # group_compose's probe: one p and one q per shape
    probe = [(rng.dirichlet(np.ones(w1)), rng.dirichlet(np.ones(w2))) for w1, w2 in _PROBE_SHAPES]
    for (p, q), (p0, q0) in zip(_product_pairs(seed, _PROBE_SHAPES, 1), probe, strict=True):
        assert p.tobytes() == p0.tobytes() and q.tobytes() == q0.tobytes()
    shapes = [(w1, w2) for w1 in (2, 3, 4) for w2 in (2, 3, 4)]
    rng = np.random.default_rng(seed)  # verify composability: 20 rows of p, then of q, per shape
    rows = [
        (rng.dirichlet(np.ones(w1), size=20), rng.dirichlet(np.ones(w2), size=20))
        for w1, w2 in shapes
    ]
    for (p, q), (p0, q0) in zip(_product_pairs(seed, shapes, 20), rows, strict=True):
        assert p.tobytes() == p0.tobytes() and q.tobytes() == q0.tobytes()
