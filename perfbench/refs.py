"""Independent references the benchmark judges entrogeo against.

Everything here is derived by hand and written with plain numpy; nothing
calls into entrogeo, so a library result is never judged against the
library's own closed forms (`hf_closed_metric`, `alpha_connection`).

Simplex conventions match the library's `simplex_model`: the parameters are
xi = (p_1, ..., p_W) and p_0 = 1 - sum(xi), so d p_x / d xi_i is +1 for
x = i and -1 for x = 0, and all second parameter derivatives of p vanish.
"""

from __future__ import annotations

import math

import numpy as np

# --- geometry of (h, f) divergences on the simplex -----------------------------


def hf_constants(h1: float, f2: float, f3: float) -> tuple[float, float]:
    """(c, a) of an (h, f) divergence from h'(f(1)), f''(1) and f'''(1).

    The metric is c g_F with c = h'(f(1)) f''(1); the connections are
    c Gamma^(-a) and c Gamma^(+a) with a = (2 f'''(1) + 3 f''(1)) / f''(1).
    """
    return h1 * f2, (2.0 * f3 + 3.0 * f2) / f2


def alpha_coefficients(c: float, a: float) -> tuple[float, float, float]:
    """(metric scale, Gamma factor, Gamma* factor) in units of `simplex_t`.

    Gamma^(alpha) = -(1 + alpha)/2 * T on the simplex, so c Gamma^(-a) is
    -c (1 - a)/2 * T and c Gamma^(+a) is -c (1 + a)/2 * T.
    """
    return c, -c * (1.0 - a) / 2.0, -c * (1.0 + a) / 2.0


def _combine(weights, parts) -> tuple[float, float, float]:
    """Tensors of a linearly composed divergence: weighted sums of the parts."""
    return tuple(sum(w * part[i] for w, part in zip(weights, parts)) for i in range(3))


# f = t ln t, h = x: h' = 1, f'' = 1/t, f''' = -1/t^2.
KL = alpha_coefficients(*hf_constants(1.0, 1.0, -1.0))
# f = t^a, h = (x^r - 1)/(b - 1), r = (1 - b)/(1 - a), at a = 0.5, b = 0.7:
# h'(1) = r/(b - 1) = -2, f''(1) = a(a - 1), f'''(1) = a(a - 1)(a - 2).
SM_05_07 = alpha_coefficients(*hf_constants(0.6 / -0.3, 0.5 * -0.5, 0.5 * -0.5 * -1.5))
# f = t^2, h = x - 1: h' = 1, f'' = 2, f''' = 0.
POWER_2 = alpha_coefficients(*hf_constants(1.0, 2.0, 0.0))
# linear(1, 0.5) of (kl, power(2)).
KL_POWER_LINEAR = _combine((1.0, 0.5), (KL, POWER_2))


def simplex_t(p: np.ndarray) -> np.ndarray:
    """T_ij,k = delta_ijk / p_i^2 - 1 / p_0^2 (indices over the W parameters)."""
    w = p.size - 1
    t = np.full((w, w, w), -1.0 / p[0] ** 2)
    idx = np.arange(w)
    t[idx, idx, idx] += 1.0 / p[1:] ** 2
    return t


def simplex_metric(p: np.ndarray, c: float) -> np.ndarray:
    """c (delta_ij / p_i + 1 / p_0)."""
    return c * (np.diag(1.0 / p[1:]) + 1.0 / p[0])


def simplex_dg(p: np.ndarray, c: float) -> np.ndarray:
    """Exact d_k g_ij of `simplex_metric`, indexed [k, i, j]; equals -c T."""
    return -c * simplex_t(p)


def rel_error(value: np.ndarray, ref: np.ndarray) -> float:
    """max |value - ref| / |ref|, elementwise."""
    return float(np.max(np.abs(np.asarray(value) - ref) / np.abs(ref)))


def soft_error(value: np.ndarray, ref: np.ndarray) -> float:
    """max |value - ref| / (1 + |ref|), elementwise."""
    return float(np.max(np.abs(np.asarray(value) - ref) / (1.0 + np.abs(ref))))


# --- maximum entropy --------------------------------------------------------------


def gibbs(a: np.ndarray, target: float, rounds: int = 200) -> np.ndarray:
    """Shannon maxent under sum p a = target: p ~ exp(lam a), lam by bisection."""

    def weights(lam: float) -> np.ndarray:
        z = lam * a
        e = np.exp(z - z.max())
        return e / e.sum()

    lo, hi = -1e3, 1e3
    for _ in range(rounds):
        mid = 0.5 * (lo + hi)
        if float(weights(mid) @ a) < target:
            lo = mid
        else:
            hi = mid
    return weights(0.5 * (lo + hi))


# --- entropies and divergences on (..., W) batches ------------------------------


def _power_sum(p: np.ndarray, s: float) -> np.ndarray:
    return np.where(p > 0.0, np.power(np.where(p > 0.0, p, 1.0), s), 0.0).sum(axis=-1)


def shannon(p):
    safe = np.where(p > 0.0, p, 1.0)
    return -(p * np.log(safe)).sum(axis=-1)


def renyi(p, alpha):
    return np.log(_power_sum(p, alpha)) / (1.0 - alpha)


def tsallis(p, q):
    return (1.0 - _power_sum(p, q)) / (q - 1.0)


def sharma_mittal(p, alpha, beta):
    return (np.power(_power_sum(p, alpha), (1.0 - beta) / (1.0 - alpha)) - 1.0) / (1.0 - beta)


def kaniadakis(p, kappa):
    return (_power_sum(p, 1.0 - kappa) - _power_sum(p, 1.0 + kappa)) / (2.0 * kappa)


def q_sum(x, y, q):
    """x + y + (1 - q) x y, the law two q-composable entropies combine by."""
    return x + y + (1.0 - q) * x * y


def kl(p, q):
    safe = np.where(p > 0.0, p, 1.0)
    return (p * np.log(safe / q)).sum(axis=-1)


def power2(p, q):
    """sum q (p/q)^2 - 1."""
    return (p * p / q).sum(axis=-1) - 1.0


def _cross_sum(p, q, a):
    return (np.power(p, a) * np.power(q, 1.0 - a)).sum(axis=-1)


def sharma_mittal_div(p, q, alpha, beta):
    r = (1.0 - beta) / (1.0 - alpha)
    return (np.power(_cross_sum(p, q, alpha), r) - 1.0) / (beta - 1.0)


def tsallis_relative(p, q, alpha):
    """sum q f(p/q) with f(t) = (t^alpha - t)/(alpha - 1)."""
    return (_cross_sum(p, q, alpha) - p.sum(axis=-1)) / (alpha - 1.0)


def is_finite_array(x) -> bool:
    arr = np.asarray(x, dtype=float)
    return bool(np.all(np.isfinite(arr)))


def ratio(err: float, tol: float) -> float:
    """err / tol, with nan mapped to inf so a broken result always fails."""
    value = err / tol
    return math.inf if math.isnan(value) else value
