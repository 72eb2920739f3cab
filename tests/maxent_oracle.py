"""A reference-free check of `maximize` for the built-in entropies: the Lagrangian gap.

Every built-in entropy is S = h(sum_i f(p_i)) with h monotone, so S has the
maximizers of F(p) = sum_i phi(p_i), where phi = sign(h') f is concave.  For
multipliers nu = (mu, lambda) on the rows [1; A], set
p_i(nu) = (phi')^-1(mu + lambda . a_i), or 0 where mu + lambda . a_i >= phi'(0+).
Then g(nu) = F(p(nu)) - nu . ([1; A] p(nu) - [1; b]) bounds F from above on
{p >= 0, sum p = 1, A p = b} (weak duality; Boyd & Vandenberghe 2004, ch. 5),
so g(nu) - F(p_hat) >= 0 bounds how far a feasible p_hat is from the maximum.
The multipliers come from p_hat itself: the least-squares fit of phi'(p_hat_i)
on [1, a_i] over p_hat_i > 0.

phi and phi' are written out here from the family formulas, and phi' is
inverted by bisection in log t, so nothing is shared with the solver.
"""

import numpy as np

#: The bisection's bracket in log t, and its rounds: 750 / 2^100 is far below an ulp of log t.
_LOG_LO, _LOG_HI = -700.0, 50.0
_BISECTIONS = 100


def concave_phi(family, **params):
    """(phi, phi') of a built-in family: its f, signed so that phi is concave."""
    if family == "shannon":
        return (lambda t: -t * np.log(np.where(t > 0.0, t, 1.0))), (lambda t: -np.log(t) - 1.0)
    if family in ("renyi", "sharma_mittal"):  # f = t^alpha; h' has the sign of 1 - alpha
        a = params["alpha"]
        sign = np.sign(1.0 - a)
        return (lambda t: sign * np.power(t, a)), (lambda t: sign * a * np.power(t, a - 1.0))
    if family == "tsallis":  # f = (t - t^q) / (q - 1), h = x
        q = params["q"]
        return (
            lambda t: (t - np.power(t, q)) / (q - 1.0),
            lambda t: (1.0 - q * np.power(t, q - 1.0)) / (q - 1.0),
        )
    if family == "kaniadakis":  # f = (t^(1 - k) - t^(1 + k)) / (2 k), h = x
        k = params["kappa"]
        return (
            lambda t: (np.power(t, 1.0 - k) - np.power(t, 1.0 + k)) / (2.0 * k),
            lambda t: ((1.0 - k) * np.power(t, -k) - (1.0 + k) * np.power(t, k)) / (2.0 * k),
        )
    raise ValueError(f"no oracle for {family!r}")


def inverse_slope(dphi, y):
    """t >= 0 with phi'(t) = y entrywise, or 0 where y >= phi'(0+), by bisection in log t."""
    lo = np.full(y.size, _LOG_LO)
    hi = np.full(y.size, _LOG_HI)
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        above = dphi(np.exp(mid)) > y  # phi' decreases, so the root lies above mid
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    return np.where(dphi(np.exp(_LOG_LO)) <= y, 0.0, np.exp(0.5 * (lo + hi)))


def relative_gap(phi, dphi, a, b, p):
    """(g(nu) - F(p)) / |F(p)|, nu fitted to phi'(p) over p > 0; a, b hold the sum row first."""
    support = p > 0.0
    nu = np.linalg.lstsq(a[:, support].T, dphi(p[support]), rcond=None)[0]
    q = inverse_slope(dphi, a.T @ nu)
    value = float(phi(p).sum())
    return (float(phi(q).sum()) - float(nu @ (a @ q - b)) - value) / abs(value)
