"""The nine built-in pair builders against their formulas written out by hand.

Each reference below spells out one builder's f, f', f'(1), f''(1), f'''(1),
shapes, h, h^-1 and h' the way the builder wrote them before the builders
shared one f table.  Every value must stay bit-identical (np.array_equal),
f at t = 0 included.  Gradients at an exact zero weight are pinned last.
"""

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
    assert (pair.df1, pair.d2f1, pair.d3f1) == ref["derivs"]
    assert (pair.f_shape, pair.h_direction) == ref["shapes"]
    h, h_inverse, h_prime = ref["h"]
    xs = pair.f1 + np.linspace(-0.05, 0.05, 7)
    assert np.array_equal(pair.h(xs), h(xs))
    assert np.array_equal(pair.h_inverse(pair.h(xs)), h_inverse(h(xs)))
    assert np.array_equal(pair.h_prime(xs), h_prime(xs))


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
