"""The nine built-in pair builders against their formulas written out by hand.

Each reference below spells out one builder's f, f', f'(1), f''(1), f'''(1),
shapes, h, h^-1 and h' the way the builder wrote them before the builders
shared one f table.  Every value must stay bit-identical (np.array_equal),
f at t = 0 included.  The derivative data is also checked against 5-point
stencils of each pair's own f and h.  Gradients at an exact zero weight are
pinned last.
"""

import dataclasses

import numpy as np
import pytest

from entrogeo import (
    builtin_functional,
    kaniadakis,
    kl_pair,
    power_pair,
    renyi,
    shannon,
    sharma_mittal,
    sm_divergence_pair,
    tsallis,
    tsallis_relative_pair,
)
from entrogeo.errors import ShapeMismatch
from entrogeo.hf_entropy import HFPair, require_shape

#: f is pinned on T (t = 0 included), f' on its positive entries.
T = np.array([0.0, 1e-300, 1e-12, 0.01, 0.1, 0.3, 0.5, 0.7, 1.0, 1.3, 2.0, 5.0])
T_POS = T[1:]
EXPONENTS = (0.5, 2.0, 0.3, 1.5, 3.0)
SM_PARAMS = ((0.5, 0.7), (2.0, 3.0), (0.3, 2.0), (2.0, 0.5), (1.5, 0.5))
KAPPAS = (0.3, -0.4, 0.9)


def ref_zero_at_zero(raw):
    def f(t):
        arr = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.zeros(arr.shape)
        pos = arr != 0.0
        out[pos] = raw(arr[pos])
        return float(out[0]) if np.ndim(t) == 0 else out

    return f


def ref_power_derivs(a):
    return a, a * (a - 1.0), a * (a - 1.0) * (a - 2.0)


def ref_power_shape(a):
    return "concave" if a < 1.0 else "convex"


IDENTITY_H = (lambda x: x, lambda y: y, lambda x: np.ones_like(np.asarray(x, dtype=float)))


def ref_sm_h(a, b, sign):
    r = (1.0 - b) / (1.0 - a)
    cb = sign * (1.0 - b)
    ca = sign * (1.0 - a)
    return (
        lambda x: np.expm1(r * np.log(x)) / cb,
        lambda y: np.exp(np.log1p(cb * np.asarray(y, dtype=float)) / r),
        lambda x: np.exp((r - 1.0) * np.log(x)) / ca,
    )


def ref_shannon():
    return dict(
        f=ref_zero_at_zero(lambda t: -(np.log(t) * t)),
        f_prime=lambda t: -np.log(t) - 1.0,
        derivs=(-1.0, -1.0, 1.0),
        shapes=("concave", "increasing"),
        h=IDENTITY_H,
    )


def ref_renyi(a):
    return dict(
        f=lambda t: np.power(t, a),
        f_prime=lambda t: a * np.power(t, a - 1.0),
        derivs=ref_power_derivs(a),
        shapes=(ref_power_shape(a), "increasing" if a < 1.0 else "decreasing"),
        h=(
            lambda x: np.log(x) / (1.0 - a),
            lambda y: np.exp((1.0 - a) * np.asarray(y, dtype=float)),
            lambda x: 1.0 / ((1.0 - a) * np.asarray(x, dtype=float)),
        ),
    )


def ref_tsallis(q):
    return dict(
        f=lambda t: (np.power(t, q) - t) / (1.0 - q),
        f_prime=lambda t: (1.0 - q * np.power(t, q - 1.0)) / (q - 1.0),
        derivs=(-1.0, -q, -q * (q - 2.0)),
        shapes=("concave", "increasing"),
        h=IDENTITY_H,
    )


def ref_sharma_mittal(a, b):
    return dict(ref_renyi(a), h=ref_sm_h(a, b, 1.0))


def ref_kaniadakis(k):
    return dict(
        f=lambda t: (np.power(t, 1.0 - k) - np.power(t, 1.0 + k)) / (2.0 * k),
        f_prime=lambda t: ((1.0 - k) * np.power(t, -k) - (1.0 + k) * np.power(t, k)) / (2.0 * k),
        derivs=(-1.0, -1.0, 1.0 - k * k),
        shapes=("concave", "increasing"),
        h=IDENTITY_H,
    )


def ref_kl():
    return dict(
        f=ref_zero_at_zero(lambda t: np.log(t) * t),
        f_prime=lambda t: np.log(t) + 1.0,
        derivs=(1.0, 1.0, -1.0),
        shapes=("convex", "increasing"),
        h=IDENTITY_H,
    )


def ref_power(a):
    sign = 1.0 if a > 1.0 else -1.0
    return dict(
        ref_renyi(a),
        shapes=("convex", "increasing") if a > 1.0 else ("concave", "decreasing"),
        h=(
            lambda x: sign * (np.asarray(x, dtype=float) - 1.0),
            lambda y: sign * np.asarray(y, dtype=float) + 1.0,
            lambda x: np.full_like(np.asarray(x, dtype=float), sign),
        ),
    )


def ref_tsallis_relative(a):
    return dict(
        f=lambda t: (np.power(t, a) - t) / (a - 1.0),
        f_prime=lambda t: (a * np.power(t, a - 1.0) - 1.0) / (a - 1.0),
        derivs=(1.0, a, a * (a - 2.0)),
        shapes=("convex", "increasing"),
        h=IDENTITY_H,
    )


def ref_sm_divergence(a, b):
    return dict(
        ref_renyi(a),
        shapes=("convex", "increasing") if a > 1.0 else ("concave", "decreasing"),
        h=ref_sm_h(a, b, -1.0),
    )


CASES = [
    ("shannon", shannon, ref_shannon, ()),
    ("kl", kl_pair, ref_kl, ()),
    *[(f"renyi({a})", renyi, ref_renyi, (a,)) for a in EXPONENTS],
    *[(f"tsallis({a})", tsallis, ref_tsallis, (a,)) for a in EXPONENTS],
    *[(f"power({a})", power_pair, ref_power, (a,)) for a in EXPONENTS],
    *[(f"tsallis-rel({a})", tsallis_relative_pair, ref_tsallis_relative, (a,)) for a in EXPONENTS],
    *[(f"sm{ab}", sharma_mittal, ref_sharma_mittal, ab) for ab in SM_PARAMS],
    *[(f"sm-div{ab}", sm_divergence_pair, ref_sm_divergence, ab) for ab in SM_PARAMS],
    *[(f"kaniadakis({k})", kaniadakis, ref_kaniadakis, (k,)) for k in KAPPAS],
]


@pytest.mark.parametrize("build, reference, params", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_pair_data_is_bit_identical(build, reference, params):
    pair, ref = build(*params), reference(*params)
    assert np.array_equal(pair.f(T), ref["f"](T))
    assert [float(pair.f(t)) for t in T] == [float(ref["f"](t)) for t in T]
    assert float(pair.f(0.0)) == 0.0
    assert np.array_equal(pair.f_prime(T_POS), ref["f_prime"](T_POS))
    assert (pair.d2f1, pair.d3f1) == ref["derivs"][1:]  # f'(1) is not kept
    assert (pair.f_shape, pair.h_direction) == ref["shapes"]
    h, h_inverse, h_prime = ref["h"]
    xs = pair.f1 + np.linspace(-0.05, 0.05, 7)
    assert np.array_equal(pair.h(xs), h(xs))
    assert np.array_equal(pair.h_inverse(pair.h(xs)), h_inverse(h(xs)))
    assert np.array_equal(pair.h_prime(xs), h_prime(xs))


#: Step of the reference stencils, and the largest error each shows on this
#: panel with margin: f''(1) reads about 3e-8 and f'''(1) about 2e-4 off
#: (relative to max(|value|, 1)), h' about 5e-13 relative.
STENCIL_STEP = 1e-4
D2F1_TOL, D3F1_TOL, H_PRIME_TOL = 1e-6, 1e-3, 1e-11


def stencil_derivs_at_one(f, s=STENCIL_STEP):
    """f''(1) and f'''(1) from 5-point central stencils."""
    v = [float(f(1.0 + k * s)) for k in (-2, -1, 0, 1, 2)]
    second = (-v[0] + 16.0 * v[1] - 30.0 * v[2] + 16.0 * v[3] - v[4]) / (12.0 * s * s)
    third = (-v[0] + 2.0 * v[1] - 2.0 * v[3] + v[4]) / (2.0 * s**3)
    return second, third


def stencil_first_derivative(g, x, s=STENCIL_STEP):
    """g'(x) from a 5-point central stencil at step s max(1, |x|)."""
    step = s * np.maximum(1.0, np.abs(x))
    return (g(x - 2 * step) - 8.0 * g(x - step) + 8.0 * g(x + step) - g(x + 2 * step)) / (
        12.0 * step
    )


@pytest.mark.parametrize("build, params", [(c[1], c[3]) for c in CASES], ids=[c[0] for c in CASES])
def test_derivative_data_matches_stencils_of_f_and_h(build, params):
    pair = build(*params)
    second, third = stencil_derivs_at_one(pair.f)
    assert abs(second - pair.d2f1) <= D2F1_TOL * max(abs(pair.d2f1), 1.0)
    assert abs(third - pair.d3f1) <= D3F1_TOL * max(abs(pair.d3f1), 1.0)
    xs = pair.f1 + np.linspace(-0.05, 0.05, 7)
    exact = pair.h_prime(xs)
    error = np.abs(stencil_first_derivative(pair.h, xs) - exact)
    assert np.all(error <= H_PRIME_TOL * np.abs(exact))


@pytest.mark.parametrize("missing", ["h_prime", "f_prime", "d2f1", "d3f1"])
def test_a_pair_without_its_derivative_data_is_refused(missing):
    pair = shannon()
    given = {f.name: getattr(pair, f.name) for f in dataclasses.fields(HFPair) if f.init}
    del given[missing]
    with pytest.raises(TypeError, match=f"missing 1 required .*'{missing}'"):
        HFPair(**given)


DIVERGENCE_BUILDERS = (kl_pair, power_pair, tsallis_relative_pair, sm_divergence_pair)


@pytest.mark.parametrize("build, reference, params", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_the_role_is_the_sign_of_c(build, reference, params):
    # c = h'(f(1)) f''(1) as the reference writes it; require_shape accepts
    # exactly the role its sign names: entropy for c < 0, divergence for c > 0
    pair, ref = build(*params), reference(*params)
    assert pair.c == float(ref["h"][2](pair.f1)) * ref["derivs"][1]
    role, other = ("divergence", "entropy") if pair.c > 0.0 else ("entropy", "divergence")
    assert (role == "divergence") == (build in DIVERGENCE_BUILDERS)
    require_shape(pair, role)
    with pytest.raises(ShapeMismatch, match=f"cannot be an? {other}$"):
        require_shape(pair, other)


#: (family, parameters, f'(0+) finite).  Each family at an exponent below 1,
#: where f' blows up at 0, and above 1, where it does not; kaniadakis has one
#: exponent on each side of 1 at every kappa.
ZERO_GRADIENT_CASES = [
    ("shannon", {}, False),
    ("renyi", {"alpha": 0.5}, False),
    ("renyi", {"alpha": 2.0}, True),
    ("tsallis", {"q": 0.5}, False),
    ("tsallis", {"q": 1.5}, True),
    ("sharma_mittal", {"alpha": 0.5, "beta": 0.7}, False),
    ("sharma_mittal", {"alpha": 2.0, "beta": 3.0}, True),
    ("kaniadakis", {"kappa": 0.3}, False),
    ("kaniadakis", {"kappa": -0.4}, False),
]


@pytest.mark.parametrize("family, params, finite", ZERO_GRADIENT_CASES)
def test_gradient_at_an_exact_zero_weight_is_the_one_sided_limit(family, params, finite):
    # h' f'(0+) at the zero, without a warning; the other entries are those
    # of the row with the zero dropped, since f(0) = 0 leaves the sum alone
    gradient = builtin_functional(family, **params).gradient
    g = gradient(np.array([0.0, 0.3, 0.7]))
    assert np.array_equal(g[1:], gradient(np.array([0.3, 0.7])))
    if finite:
        near = gradient(np.array([1e-12, 0.3, 0.7 - 1e-12]))[0]
        assert np.isfinite(g[0]) and g[0] == pytest.approx(near, abs=1e-5)
    else:
        assert g[0] == np.inf
