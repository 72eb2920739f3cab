"""Divergence functionals: reference values, dual routes, and composition."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from entrogeo import (
    hf_div_functional,
    kl_functional,
    kl_pair,
    linear_composer,
    polynomial_composer,
    power_pair,
    sm_div_functional,
    sm_divergence_pair,
    tsallis_relative_pair,
    uniform,
    validate,
    zeta_compose_div,
)
from entrogeo.errors import (
    DomainError,
    LengthMismatch,
    ParamOutOfRange,
    ZetaRangeViolation,
)

# 50-digit reference values on p=(.5,.5), q=(.25,.75)
P = validate([0.5, 0.5])
Q = validate([0.25, 0.75])
KL_PQ = 0.14384103622589046  # 0.5*ln(4/3)
POWER2_PQ = 1.0 / 3.0
POWER_HALF_PQ = 0.034074173710931713  # 1 - sum sqrt(pq)
TSALLIS_REL_15_PQ = 0.23071014330082108
LINEAR_COMBO_PQ = 0.21963795506886761  # 0.6*KL + 0.4*POWER2


def test_kl_reference_value():
    assert kl_functional().eval(P, Q) == pytest.approx(KL_PQ, rel=1e-14)


def test_kl_direct_route_matches_pair_route():
    rng = np.random.default_rng(8)
    pair = kl_pair()
    for w in (2, 3, 5):
        for _ in range(20):
            p = validate(rng.dirichlet(np.ones(w)), tol=1e-9)
            q = validate(rng.dirichlet(8.0 * np.ones(w)) * 0.98 + 0.02 / w, tol=1e-9)
            assert kl_functional().eval(p, q) == pytest.approx(
                hf_div_functional(pair).eval(p, q), abs=1e-12
            )


def test_kl_handles_zero_weights_in_p():
    spiked = validate([0.0, 1.0])
    assert kl_functional().eval(spiked, Q) == pytest.approx(np.log(1.0 / 0.75), rel=1e-14)


def test_diagonal_vanishes():
    for d in (kl_functional(), sm_div_functional(2.0, 2.0), hf_div_functional(power_pair(2.0))):
        assert d.eval(Q, Q) == pytest.approx(0.0, abs=1e-14)


def test_power_reference_values():
    assert hf_div_functional(power_pair(2.0)).eval(P, Q) == pytest.approx(POWER2_PQ, rel=1e-14)
    assert hf_div_functional(power_pair(0.5)).eval(P, Q) == pytest.approx(POWER_HALF_PQ, rel=1e-13)


def test_tsallis_relative_reference_value():
    pair = tsallis_relative_pair(1.5)
    assert hf_div_functional(pair).eval(P, Q) == pytest.approx(TSALLIS_REL_15_PQ, rel=1e-14)


def test_tsallis_relative_is_the_sharma_mittal_diagonal():
    rng = np.random.default_rng(12)
    for alpha in (0.5, 1.5, 2.0):
        pair = tsallis_relative_pair(alpha)
        for _ in range(10):
            p = validate(rng.dirichlet(np.ones(3)), tol=1e-9)
            q = validate(rng.dirichlet(6.0 * np.ones(3)) * 0.97 + 0.01, tol=1e-9)
            assert hf_div_functional(pair).eval(p, q) == pytest.approx(
                sm_div_functional(alpha, alpha).eval(p, q), abs=1e-13
            )


def test_sm_direct_route_matches_pair_route():
    rng = np.random.default_rng(21)
    direct = sm_div_functional(0.5, 0.7)
    wrapped = hf_div_functional(sm_divergence_pair(0.5, 0.7))
    for _ in range(25):
        p = validate(rng.dirichlet(np.ones(4)), tol=1e-9)
        q = validate(rng.dirichlet(8.0 * np.ones(4)) * 0.96 + 0.01, tol=1e-9)
        assert direct.eval(p, q) == pytest.approx(wrapped.eval(p, q), abs=1e-12)


def test_sm_reference_value():
    assert sm_div_functional(2.0, 2.0).eval(P, Q) == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_divergence_validates_inputs():
    d = kl_functional()
    with pytest.raises(LengthMismatch):
        d.eval(P, uniform(3))
    with pytest.raises(DomainError):
        d.eval(P, validate([0.0, 1.0]))  # reference must be strictly positive


def test_nonfinite_value_is_a_domain_error():
    from entrogeo import DivergenceFunctional

    blower = DivergenceFunctional(fn=lambda p, q: float("nan"), name="blower")
    with pytest.raises(DomainError):
        blower.eval(P, Q)


def test_parameter_guards():
    with pytest.raises(ParamOutOfRange):
        power_pair(1.0)
    with pytest.raises(ParamOutOfRange):
        power_pair(-2.0)
    with pytest.raises(ParamOutOfRange):
        tsallis_relative_pair(1.0 + 1e-9)
    with pytest.raises(ParamOutOfRange):
        sm_divergence_pair(0.0, 0.5)
    with pytest.raises(ParamOutOfRange):
        sm_divergence_pair(2.0, 1.0)


def test_pair_metadata_travels_with_the_functional():
    assert kl_functional().pair.name == "kl"
    assert sm_div_functional(0.5, 0.7).pair.name == "sm-div(0.5,0.7)"
    assert hf_div_functional(power_pair(2.0)).name == "D[power(2)]"


def test_linear_composition_of_divergences():
    combo = zeta_compose_div(
        [kl_functional(), hf_div_functional(power_pair(2.0))],
        linear_composer([0.6, 0.4]),
    )
    assert combo.eval(P, Q) == pytest.approx(LINEAR_COMBO_PQ, rel=1e-14)
    assert combo.grad0 == (0.6, 0.4)
    assert len(combo.constituents) == 2
    assert combo.eval(Q, Q) == pytest.approx(0.0, abs=1e-14)


def test_taylor_composition_keeps_positivity():
    zeta = polynomial_composer(
        [(0.6, (1, 0)), (0.4, (0, 1)), (0.2, (2, 0)), (0.1, (1, 1))], arity=2
    )
    combo = zeta_compose_div(
        [kl_functional(), hf_div_functional(power_pair(2.0))], zeta
    )
    assert combo.grad0 == (0.6, 0.4)
    assert combo.eval(P, Q) > 0.0


def test_composition_rejects_a_map_with_an_offset():
    lifted = polynomial_composer([(1.0, (1,)), (0.5, (0,))], arity=1)
    with pytest.raises(ZetaRangeViolation):
        zeta_compose_div([kl_functional()], lifted)


def test_composition_rejects_a_map_that_kills_a_face():
    # zeta = x0 * x1 vanishes when either argument does, so it is zero on
    # whole faces of the orthant, not just at the origin
    degenerate = polynomial_composer([(1.0, (1, 1))], arity=2)
    with pytest.raises(ZetaRangeViolation):
        zeta_compose_div(
            [kl_functional(), hf_div_functional(power_pair(2.0))], degenerate
        )


def test_composition_rejects_wrong_arity():
    from entrogeo.errors import ArityMismatch

    with pytest.raises(ArityMismatch):
        zeta_compose_div([kl_functional()], linear_composer([0.5, 0.5]))


@given(st.integers(2, 5), st.integers(0, 2**32 - 1))
def test_divergences_are_nonnegative(w, seed):
    rng = np.random.default_rng(seed)
    p = validate(rng.dirichlet(np.ones(w)), tol=1e-9)
    q = validate(rng.dirichlet(np.ones(w)) * 0.95 + 0.05 / w, tol=1e-9)
    assert kl_functional().eval(p, q) >= 0.0
    assert hf_div_functional(power_pair(2.0)).eval(p, q) >= 0.0
    assert hf_div_functional(tsallis_relative_pair(0.5)).eval(p, q) >= 0.0
    assert sm_div_functional(2.0, 3.0).eval(p, q) >= -1e-15
