"""Group axioms, iterated laws, and conjugation."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import entrogeo
from entrogeo import (
    BinaryLaw,
    Conjugator,
    Interval,
    check_group_axioms,
    check_phi4_symmetry,
    conjugate,
    expm1_conjugator,
    identity_conjugator,
    iterate_pow2,
    q_sum,
    scale_conjugator,
)
from entrogeo.errors import (
    ArityMismatch,
    DomainEscape,
    InvalidArgument,
    InversionFailure,
    ParamOutOfRange,
)
from entrogeo.formal_group import _BLOCK

E_SQUARED_MINUS_ONE = 6.3890560989306495


def test_q_sum_closed_form_values():
    law = q_sum(0.5)
    # x + y + (1-q) x y with q = 0.5: 1 + 2 + 0.5*2 = 4
    assert law(1.0, 2.0) == pytest.approx(4.0, abs=1e-15)
    assert q_sum(1.0)(0.3, 0.4) == pytest.approx(0.7, abs=1e-15)


def test_q_sum_needs_a_finite_deformation():
    for q in (math.nan, math.inf):
        with pytest.raises(ParamOutOfRange):
            q_sum(q)


def test_q_sum_neutral_element_is_exact():
    law = q_sum(0.7)
    x = np.linspace(0.0, 5.0, 11)
    np.testing.assert_array_equal(law(x, np.zeros_like(x)), x)


def test_q_sum_at_one_matches_plain_addition():
    law = q_sum(1.0)
    rng = np.random.default_rng(3)
    x, y = rng.uniform(0, 10, size=(2, 64))
    np.testing.assert_array_equal(law(x, y), x + y)
    assert law.name == "q-sum(1)"


@pytest.mark.parametrize("q", [0.0, 0.5, 1.0, 2.0])
def test_axiom_suite_passes_for_deformed_sums(q):
    report = check_group_axioms(q_sum(q), samples=2000, seed=11)
    assert report.passed
    assert report.commutativity_residual <= 1e-10
    assert report.associativity_residual <= 1e-10
    assert report.identity_residual == 0.0


def test_axiom_report_as_dict():
    report = check_group_axioms(q_sum(2.0), samples=100)
    doc = report.as_dict()
    assert doc["passed"] is True
    assert doc["law"] == "q-sum(2)"
    assert set(doc) >= {
        "commutativity_residual",
        "associativity_residual",
        "identity_residual",
        "commutativity_ok",
        "associativity_ok",
        "identity_ok",
    }
    assert list(doc) == [
        "law",
        "samples",
        "tol",
        "commutativity_residual",
        "associativity_residual",
        "identity_residual",
        "commutativity_ok",
        "associativity_ok",
        "identity_ok",
        "passed",
    ]


def test_non_associative_law_is_caught():
    # x + y + x*y^2 commutes with nothing and fails associativity at O(1)
    skew = BinaryLaw(fn=lambda x, y: x + y + x * y * y, domain=Interval.reals(), name="skew")
    report = check_group_axioms(skew, samples=500)
    assert not report.passed
    assert report.associativity_residual > 1e-3


def test_law_without_identity_is_caught():
    shifted = BinaryLaw(fn=lambda x, y: x + y + 0.25, domain=Interval.reals(), name="shifted")
    report = check_group_axioms(shifted, samples=50)
    assert not report.identity_ok


def test_nan_residual_fails_its_verdict():
    # finite on the samples, nan once a composed value passes 1.2: only the
    # associativity residual sees nan, and nan <= tol is False
    holed = BinaryLaw(
        fn=lambda x, y: np.where(x <= 1.2, x + y, np.nan), domain=Interval.reals(), name="holed"
    )
    report = check_group_axioms(holed, samples=200)
    assert math.isnan(report.associativity_residual)
    assert not report.associativity_ok
    assert report.commutativity_ok and report.identity_ok
    assert not report.passed


#: A sample count that the checkers compose in three chunks, the last of 7.
CHUNKED = 2 * _BLOCK + 7

#: Laws whose chunked checker results must equal those of one call.
CHUNK_LAWS = {
    "q-sum": q_sum(0.5),
    "expm1": conjugate(q_sum(0.3), expm1_conjugator()),
    "scale": conjugate(q_sum(1.7), scale_conjugator(3.0)),
}


def _marked_law(marks, value):
    """x + y on [0, 2], except `value` at each given (x, y) pair."""

    def fn(x, y):
        out = np.add(x, y)
        for a, b in marks:
            out[(x == a) & (y == b)] = value
        return out

    return BinaryLaw(fn=fn, domain=Interval(0.0, 2.0), name="marked")


@pytest.mark.parametrize("law", CHUNK_LAWS.values(), ids=CHUNK_LAWS.keys())
def test_chunked_axiom_residuals_are_those_of_one_call(law):
    x, y, z = np.random.default_rng(4).uniform(0.0, 1.0, size=(3, CHUNKED))
    xy, yz = law(x, y), law(y, z)
    report = check_group_axioms(law, samples=CHUNKED, seed=4)
    assert report.commutativity_residual == float(np.max(np.abs(xy - law(y, x))))
    assert report.associativity_residual == float(np.max(np.abs(law(xy, z) - law(x, yz))))
    assert report.identity_residual == float(np.max(np.abs(law(x, np.zeros_like(x)) - x)))


def test_an_escaping_phi_xy_in_a_later_chunk_is_named_first():
    x, y, z = np.random.default_rng(0).uniform(0.0, 1.0, size=(3, CHUNKED))
    early, late = 5, CHUNKED - 3
    with pytest.raises(DomainEscape, match=r"Phi\(y,z\)"):
        check_group_axioms(_marked_law([(y[early], z[early])], 5.0), samples=CHUNKED)
    both = _marked_law([(y[early], z[early]), (x[late], y[late])], 5.0)
    with pytest.raises(DomainEscape, match=r"Phi\(x,y\)"):
        check_group_axioms(both, samples=CHUNKED)


def test_a_nan_residual_in_a_later_chunk_is_kept():
    x, y, z = np.random.default_rng(0).uniform(0.0, 1.0, size=(3, CHUNKED))
    late = CHUNKED - 3
    holed = _marked_law([(x[late], y[late] + z[late])], np.nan)  # only Phi(x, Phi(y, z)) there
    report = check_group_axioms(holed, samples=CHUNKED)
    assert math.isnan(report.associativity_residual)
    assert report.commutativity_ok and report.identity_ok
    assert not report.passed


def test_domain_escape_when_samples_leave_domain():
    boxed = BinaryLaw(fn=lambda x, y: x + y, domain=Interval(0.0, 1.0), name="boxed")
    with pytest.raises(DomainEscape, match="Phi\\(x,y\\) escapes"):
        check_group_axioms(boxed, samples=200)


def test_domain_escape_when_identity_excluded():
    positive = BinaryLaw(fn=lambda x, y: x * y, domain=Interval(0.5, 2.0), name="positive")
    with pytest.raises(DomainEscape, match="neutral element 0 lies outside"):
        check_group_axioms(positive)


def test_sampling_interval_must_sit_inside_domain():
    fenced = BinaryLaw(fn=q_sum(3.0).fn, domain=Interval(-1.0, 0.5), name="fenced")
    with pytest.raises(DomainEscape, match=r"sampling interval \[0.0, 1.0\] leaves the domain"):
        check_group_axioms(fenced)


@given(
    st.floats(-1.0, 2.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
)
def test_deformed_sum_is_associative(q, x, y, z):
    law = q_sum(q)
    left = law(law(x, y), z)
    right = law(x, law(y, z))
    assert abs(left - right) <= 1e-10


def test_iterate_identity_at_m_zero():
    once = iterate_pow2(q_sum(1.0), 0)
    assert once(3.5) == 3.5


def test_iterate_sums_exactly():
    four = iterate_pow2(q_sum(1.0), 2)
    assert four(1.0, 2.0, 3.0, 4.0) == 10.0


def test_iterate_rejects_wrong_arity():
    four = iterate_pow2(q_sum(1.0), 2)
    with pytest.raises(ArityMismatch):
        four(1.0, 2.0, 3.0)
    with pytest.raises(ValueError):
        iterate_pow2(q_sum(1.0), -1)


def test_iterate_bracketing_matches_left_fold():
    import functools

    law = q_sum(0.7)
    rng = np.random.default_rng(5)
    vals = list(rng.uniform(0.0, 1.0, size=8))
    eight = iterate_pow2(law, 3)
    folded = functools.reduce(lambda a, b: float(law(a, b)), vals)
    assert eight(*vals) == pytest.approx(folded, abs=1e-12)


@pytest.mark.parametrize("q", [0.0, 0.5, 2.0])
def test_four_argument_iterate_is_symmetric(q):
    assert check_phi4_symmetry(q_sum(q), samples=500, seed=1) <= 1e-9


def test_asymmetric_operation_fails_symmetry_probe():
    lopsided = BinaryLaw(
        fn=lambda x, y: x + 0.5 * y, domain=Interval.reals(), name="lopsided"
    )
    assert check_phi4_symmetry(lopsided, samples=200) > 1e-2


@pytest.mark.parametrize("law", CHUNK_LAWS.values(), ids=CHUNK_LAWS.keys())
def test_symmetry_probe_is_the_max_over_all_permuted_iterates(law):
    args = np.random.default_rng(2).uniform(0.0, 1.0, size=(4, CHUNKED))
    phi4 = iterate_pow2(law, 2)
    base = phi4(*args)
    worst = max(
        float(np.max(np.abs(phi4(*args[list(perm)]) - base)))
        for perm in itertools.permutations(range(4))
    )
    assert check_phi4_symmetry(law, samples=CHUNKED, seed=2) == worst


def test_symmetry_probe_composes_each_inner_pair_once():
    calls = []

    def fn(x, y):
        calls.append(1)
        return x + y

    check_phi4_symmetry(BinaryLaw(fn=fn, domain=Interval.reals(), name="counted"), samples=10)
    assert len(calls) == 12 + 24  # 12 ordered inner pairs, one outer call per permutation


def test_symmetry_probe_reports_nan():
    holed = BinaryLaw(
        fn=lambda x, y: np.where(x < 0.9, x + y, np.nan), domain=Interval.reals(), name="holed"
    )
    assert math.isnan(check_phi4_symmetry(holed, samples=200))
    args = np.random.default_rng(0).uniform(0.0, 1.0, size=(4, CHUNKED))
    late = CHUNKED - 3  # nan in the last chunk only
    holed = _marked_law([(args[0, late], args[1, late])], np.nan)
    assert math.isnan(check_phi4_symmetry(holed, samples=CHUNKED))


def test_symmetry_probe_needs_a_sample():
    with pytest.raises(InvalidArgument, match="need at least one sample"):
        check_phi4_symmetry(q_sum(0.5), samples=0)


def test_conjugator_roundtrip_check():
    bad = Conjugator(forward=np.expm1, inverse=lambda y: y, name="halfway")
    with pytest.raises(InversionFailure):
        bad.check_roundtrip(np.linspace(0.5, 2.0, 5))
    expm1_conjugator().check_roundtrip(np.linspace(-5.0, 5.0, 9))


def test_a_decreasing_conjugator_is_refused_by_name():
    neg = Conjugator(forward=np.negative, inverse=np.negative, name="neg")
    neg.check_roundtrip(np.linspace(-10.0, 10.0, 17))  # it inverts, but it decreases
    with pytest.raises(InvalidArgument, match="conjugator neg is not strictly increasing"):
        conjugate(q_sum(0.5), neg)


def test_conjugated_additive_law_through_expm1():
    omega = conjugate(q_sum(1.0), expm1_conjugator())
    e_minus_one = math.expm1(1.0)
    assert omega(e_minus_one, e_minus_one) == pytest.approx(
        E_SQUARED_MINUS_ONE, rel=1e-15
    )
    # conjugation preserves all three axioms
    report = check_group_axioms(omega, samples=500)
    assert report.passed


def test_conjugated_law_domain_follows_the_image():
    omega = conjugate(q_sum(0.5), expm1_conjugator())
    # expm1 maps the whole line onto (-1, inf)
    assert omega.domain.lo == -1.0
    assert omega.domain.hi == math.inf
    assert omega.name == "expm1*q-sum(0.5)"


def test_a_small_scale_keeps_the_whole_line():
    # A finite probe of xi at +-inf would read 1e-4 * 1e12 as a finite endpoint.
    omega = conjugate(q_sum(0.5), scale_conjugator(1e-4))
    assert (omega.domain.lo, omega.domain.hi) == (-math.inf, math.inf)
    report = check_group_axioms(omega, samples=50)
    assert report.commutativity_ok


def test_scale_conjugation_is_similarity():
    omega = conjugate(q_sum(1.0), scale_conjugator(2.0))
    assert omega(2.0, 4.0) == pytest.approx(6.0, abs=1e-15)
    with pytest.raises(ParamOutOfRange):
        scale_conjugator(-1.0)


def test_identity_conjugation_changes_nothing():
    law = q_sum(1.5)
    omega = conjugate(law, identity_conjugator())
    x, y = 0.3, 0.4
    assert omega(x, y) == law(x, y)


def test_interval_contains_and_clip():
    box = Interval(-1.0, 2.0)
    assert box.contains(0.0)
    assert box.contains(np.array([-1.0, 2.0]))
    assert not box.contains(2.5)
    clipped = Interval(-math.inf, math.inf).clipped(-3.0, 3.0)
    assert (clipped.lo, clipped.hi) == (-3.0, 3.0)
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)



@pytest.mark.parametrize(
    "build, short_name",
    [
        (q_sum, "q-sum(1.5)"),
        (scale_conjugator, "scale(1.5)"),
        (entrogeo.renyi, "renyi(1.5)"),
        (entrogeo.tsallis, "tsallis(1.5)"),
        (lambda x: entrogeo.sharma_mittal(x, 0.7), "sharma-mittal(1.5,0.7)"),
        (lambda x: entrogeo.kaniadakis(x - 1.0), "kaniadakis(0.5)"),
        (entrogeo.power_pair, "power(1.5)"),
        (entrogeo.tsallis_relative_pair, "tsallis-relative(1.5)"),
        (lambda x: entrogeo.sm_divergence_pair(0.5, x), "sm-div(0.5,1.5)"),
        (lambda x: entrogeo.sm_div_functional(x, 0.7), "sm(1.5,0.7)"),
        (lambda x: entrogeo.sm_pair_entropy(0.3, 0.7, x), "sm-pair(0.3,0.7;1.5)"),
        (lambda x: entrogeo.sm_tsallis_entropy(x, 0.5), "sm-tsallis(1.5;0.5)"),
        (lambda x: entrogeo.linear_composer([x]), "linear(1.5)"),
    ],
)
def test_names_keep_short_parameters_and_tell_near_equal_ones_apart(build, short_name):
    assert build(1.5).name == short_name
    assert build(1.5000001).name != build(1.5000002).name
