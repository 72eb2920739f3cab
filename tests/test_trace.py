"""The trace kernel: every entropy and divergence against the formulas it replaced.

Each reference below is the formula the library evaluated before all traces
went through one kernel: masked scatter for t ln t, a plain np.power and
sum for the power families, np.where for Kullback-Leibler.  The built-in fs
replace exact zeros by 1 and multiply their values by 0, so every finite
output must stay bit-identical (np.array_equal).  Only the reading of nan
changes: a nan weight now makes its row nan for every family.  The kernel
calls the f of a pair as given, so a user's f sees the weights themselves.

The references evaluate a batch in one call.  The trace kernel sums a batch
above one block (`_BLOCK` elements) in row blocks, so the batches above one
block check that the blocks' sums are those of one call.  The blocks run as
one contiguous share per usable CPU, so batches of several blocks are also
checked against a run with every block in the calling thread.  A
functional's `fn` is not blocked around the kernel: h, composers and checks
see the whole batch, and a user's `fn` is used as given.
"""

import contextvars
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from entrogeo import (
    DivergenceFunctional,
    EntropyFunctional,
    HFPair,
    builtin_functional,
    group_compose,
    hf_div_functional,
    hf_sum,
    identity_conjugator,
    kaniadakis,
    kl_functional,
    kl_pair,
    linear_composer,
    power_pair,
    renyi,
    shannon,
    sharma_mittal,
    sm_div_functional,
    sm_pair_entropy,
    sm_tsallis_entropy,
    tsallis,
    tsallis_relative_pair,
    zeta_compose,
    zeta_compose_div,
)
from entrogeo import formal_group, hf_entropy
from entrogeo.formal_group import _split
from entrogeo.hf_entropy import _BLOCK, zero_preserving

SRC = Path(__file__).resolve().parents[1] / "src"


def ref_zero_preserving(raw):
    def f(t):
        arr = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.zeros(arr.shape)
        pos = arr > 0.0
        if pos.any():
            out[pos] = raw(arr[pos])
        return float(out[0]) if np.ndim(t) == 0 else out

    return f


def ref_power(a):
    return lambda t: np.power(t, a)


#: (family, params) -> f as written before the kernel.
ENTROPY_F = {
    ("shannon", ()): ref_zero_preserving(lambda t: -t * np.log(t)),
    ("renyi", (0.5,)): ref_power(0.5),
    ("renyi", (0.3,)): ref_power(0.3),
    ("renyi", (2.0,)): ref_power(2.0),
    ("tsallis", (1.5,)): lambda t: (t - np.power(t, 1.5)) / (1.5 - 1.0),
    ("tsallis", (0.5,)): lambda t: (t - np.power(t, 0.5)) / (0.5 - 1.0),
    ("tsallis", (2.0,)): lambda t: (t - np.power(t, 2.0)) / (2.0 - 1.0),
    ("sharma_mittal", (0.5, 0.7)): ref_power(0.5),
    ("sharma_mittal", (0.3, 2.0)): ref_power(0.3),
    ("sharma_mittal", (2.0, 0.5)): ref_power(2.0),
    ("kaniadakis", (0.3,)): lambda t: (np.power(t, 0.7) - np.power(t, 1.3)) / (2.0 * 0.3),
}
PARAM_NAMES = {"renyi": ("alpha",), "tsallis": ("q",), "sharma_mittal": ("alpha", "beta"),
               "kaniadakis": ("kappa",), "shannon": ()}
FAMILIES = {"shannon": shannon, "renyi": renyi, "tsallis": tsallis,
            "sharma_mittal": sharma_mittal, "kaniadakis": kaniadakis}


def builtin(family, params):
    return builtin_functional(family, **dict(zip(PARAM_NAMES[family], params)))


def ref_entropy(family, params):
    return _reference_functional(family, params, ENTROPY_F[(family, params)]).fn


def ref_sm_pair(a1, a2, b, w):
    p = np.asarray(w, dtype=float)
    s1 = np.power(p, a1).sum(axis=-1)
    s2 = np.power(p, a2).sum(axis=-1)
    prod = np.power(s1, (b - 1.0) / (a1 - 1.0)) * np.power(s2, (b - 1.0) / (a2 - 1.0))
    return (1.0 - prod) / (b - 1.0)


def ref_sm_tsallis(a, q, w):
    p = np.asarray(w, dtype=float)
    sq = np.power(p, q).sum(axis=-1)
    sa = np.power(p, a).sum(axis=-1)
    return (1.0 - sq * np.power(sa, (q - 1.0) / (a - 1.0))) / (q - 1.0)


def ref_kl(p, q):
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    ratio = np.where(p > 0.0, p / q, 1.0)
    return np.where(p > 0.0, p * np.log(ratio), 0.0).sum(axis=-1)


def ref_sm_div(a, b):
    pair = sm_div_functional(a, b).pair

    def fn(p, q):
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        return pair.h((np.power(p, a) * np.power(q, 1.0 - a)).sum(axis=-1))

    return fn


def ref_hf_div(pair, f):
    def fn(p, q):
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        return pair.h((np.asarray(f(p / q)) * q).sum(axis=-1))

    return fn


def ref_tsallis_rel(a):
    return lambda t: (np.power(t, a) - t) / (a - 1.0)


#: name -> (functional under test, reference fn).
DIVERGENCES = {
    "kl": (kl_functional(), ref_kl),
    "sm(0.5,0.7)": (sm_div_functional(0.5, 0.7), ref_sm_div(0.5, 0.7)),
    "sm(0.3,2)": (sm_div_functional(0.3, 2.0), ref_sm_div(0.3, 2.0)),
    "power(2)": (hf_div_functional(power_pair(2.0)), ref_hf_div(power_pair(2.0), ref_power(2.0))),
    "power(1.5)": (
        hf_div_functional(power_pair(1.5)), ref_hf_div(power_pair(1.5), ref_power(1.5))
    ),
    "power(0.5)": (
        hf_div_functional(power_pair(0.5)), ref_hf_div(power_pair(0.5), ref_power(0.5))
    ),
    "tsallis-rel(0.5)": (
        hf_div_functional(tsallis_relative_pair(0.5)),
        ref_hf_div(tsallis_relative_pair(0.5), ref_tsallis_rel(0.5)),
    ),
    "tsallis-rel(1.5)": (
        hf_div_functional(tsallis_relative_pair(1.5)),
        ref_hf_div(tsallis_relative_pair(1.5), ref_tsallis_rel(1.5)),
    ),
    "hf(kl)": (
        hf_div_functional(kl_pair()),
        ref_hf_div(kl_pair(), ref_zero_preserving(lambda t: t * np.log(t))),
    ),
}


def _half_zero(rng, n, w):
    raw = rng.random((n, w))
    raw[np.argsort(rng.random((n, w)), axis=1) < w // 2] = 0.0
    return raw / raw.sum(axis=1, keepdims=True)


def weight_batches():
    """Dense rows, half-zero rows, rows with one nonzero, single rows, (k, rows, W) stacks.

    The last two are above one block: a half-zero batch whose later blocks
    begin on a dense row, as the kernel chooses its route per block, and a
    (k, rows, W) stack, blocked along k.
    """
    rng = np.random.default_rng(71)
    block_rows = _BLOCK // 8  # rows of width 8 in one block, a whole number of row groups
    blocked = _half_zero(rng, 3 * block_rows + 21, 8)
    blocked[block_rows::block_rows] = rng.dirichlet(np.ones(8), size=3)
    return {
        "dense": rng.dirichlet(np.ones(7), size=40),
        "half-zero": _half_zero(rng, 40, 8),
        # The kernel reads the first row to choose its route: here it misses the zeros.
        "zeros-below-a-dense-row": np.vstack([rng.dirichlet(np.ones(8)), _half_zero(rng, 9, 8)]),
        "one-nonzero": np.vstack([np.eye(5), [[0.0, 0.0, 1.0, 0.0, 0.0]]]),
        "single-row": np.array([0.0, 0.25, 0.0, 0.75]),
        "certain": np.array([1.0]),
        "stack": _half_zero(rng, 3 * 9, 4).reshape(3, 9, 4),
        "blocks-begin-dense": blocked,
        "blocked-stack": _half_zero(rng, 5 * (_BLOCK // 16), 8).reshape(5, -1, 8),
    }


def divergence_pairs():
    """(p, q) with q > 0: the batches above, and the two broadcasts div_connections makes.

    Above one block as well: q of shape (W,) and (1, W) against a blocked p,
    and both broadcasts with a stencil above one block.
    """
    rng = np.random.default_rng(72)
    out = {}
    batches = weight_batches()
    for label, p in batches.items():
        out[label] = (p, rng.dirichlet(np.ones(p.shape[-1]), size=p.shape[:-1]))
    stencil = _half_zero(rng, 9, 4)  # (rows, W + 1)
    parked = rng.dirichlet(np.ones(4), size=(3, 1))  # (k, 1, W + 1)
    out["stencil-vs-parked"] = (stencil, parked)
    out["parked-vs-stencil"] = (parked, rng.dirichlet(np.ones(4), size=9))
    blocked = batches["blocks-begin-dense"]
    out["blocked-vs-q(W,)"] = (blocked, rng.dirichlet(np.ones(8)))
    out["blocked-vs-q(1,W)"] = (blocked, rng.dirichlet(np.ones(8), size=1))
    stencil = _half_zero(rng, _BLOCK // 4 + 3, 4)
    parked = rng.dirichlet(np.ones(4), size=(3, 1))
    out["blocked-stencil-vs-parked"] = (stencil, parked)
    out["parked-vs-blocked-stencil"] = (parked, rng.dirichlet(np.ones(4), size=stencil.shape[0]))
    return out


BATCHES = weight_batches()
PAIRS = divergence_pairs()


@pytest.mark.parametrize("batch", sorted(BATCHES))
@pytest.mark.parametrize("family, params", sorted(ENTROPY_F))
def test_builtin_entropies_are_bit_identical_to_the_masked_formulas(family, params, batch):
    w = BATCHES[batch]
    got = builtin(family, params).eval_batch(w)
    assert np.array_equal(got, ref_entropy(family, params)(w))


@pytest.mark.parametrize("family, params", sorted(ENTROPY_F))
def test_builtin_f_is_bit_identical_on_scalars(family, params):
    f = FAMILIES[family](*params).f
    ref = ENTROPY_F[(family, params)]
    for t in (0.0, 0.3, 1.0, 2.5):
        assert np.array_equal(f(t), ref(t))
    t = np.array([0.0, 0.3, 1.0, 2.5])
    assert np.array_equal(f(t), ref(t))
    # Called directly on a batch above one block whose zeros lie past a dense first row.
    w = BATCHES["blocks-begin-dense"][_BLOCK // 8 :]
    assert (w[0] > 0.0).all() and (w == 0.0).any() and w.size > _BLOCK
    got = f(w)
    assert np.array_equal(got, ref(w)) and not np.isnan(got).any()


@pytest.mark.parametrize("pair", sorted(PAIRS))
@pytest.mark.parametrize("name", sorted(DIVERGENCES))
def test_divergences_are_bit_identical_to_the_direct_formulas(name, pair):
    functional, ref = DIVERGENCES[name]
    p, q = PAIRS[pair]
    assert np.array_equal(functional.fn(p, q), ref(p, q))


@pytest.mark.parametrize("batch", sorted(BATCHES))
def test_closed_form_compositions_are_bit_identical(batch):
    w = BATCHES[batch]
    assert np.array_equal(sm_pair_entropy(0.3, 0.7, 0.5).fn(w), ref_sm_pair(0.3, 0.7, 0.5, w))
    assert np.array_equal(sm_pair_entropy(0.5, 2.0, 1.5).fn(w), ref_sm_pair(0.5, 2.0, 1.5, w))
    assert np.array_equal(sm_tsallis_entropy(0.5, 1.5).fn(w), ref_sm_tsallis(0.5, 1.5, w))
    assert np.array_equal(sm_tsallis_entropy(0.3, 0.7).fn(w), ref_sm_tsallis(0.3, 0.7, w))


def _reference_functional(family, params, f):
    pair = FAMILIES[family](*params)
    built = builtin(family, params)

    def fn(w):
        return pair.h(np.asarray(f(np.asarray(w, dtype=float))).sum(axis=-1))

    return EntropyFunctional(fn=fn, name=built.name, law=built.law)


@pytest.mark.parametrize("batch", sorted(BATCHES))
def test_group_and_zeta_compositions_are_bit_identical(batch):
    w = BATCHES[batch]
    members = [("sharma_mittal", (0.3, 0.5)), ("sharma_mittal", (0.7, 0.5))]
    got, _ = group_compose([builtin(*m) for m in members], identity_conjugator(), m=1)
    ref, _ = group_compose(
        [_reference_functional(*m, ref_power(m[1][0])) for m in members],
        identity_conjugator(),
        m=1,
    )
    assert np.array_equal(got.eval_batch(w), ref.fn(w))
    summed = [("shannon", ()), ("tsallis", (1.5,))]
    composer = linear_composer([1.0, 0.5])
    got = zeta_compose([builtin(*m) for m in summed], composer)
    ref = zeta_compose([_reference_functional(*m, ENTROPY_F[m]) for m in summed], composer)
    assert np.array_equal(got.eval_batch(w), ref.fn(w))


# --- nan and the zero path --------------------------------------------------------


def _entropies():
    """Every built-in family and every composed entropy."""
    out = {f"{family}{params}": builtin(family, params) for family, params in ENTROPY_F}
    out["sm_pair"] = sm_pair_entropy(0.3, 0.7, 0.5)
    out["sm_tsallis"] = sm_tsallis_entropy(0.5, 1.5)
    out["group"], _ = group_compose(
        [builtin("sharma_mittal", (0.3, 0.5)), builtin("sharma_mittal", (0.7, 0.5))],
        identity_conjugator(),
        m=1,
    )
    out["zeta"] = zeta_compose(
        [builtin("shannon", ()), builtin("tsallis", (1.5,))], linear_composer([1.0, 0.5])
    )
    return out


def _divergences():
    out = {name: functional for name, (functional, _) in DIVERGENCES.items()}
    out["composed"] = zeta_compose_div(
        [kl_functional(), hf_div_functional(power_pair(2.0))], linear_composer([1.0, 0.5])
    )
    return out


ENTROPIES = _entropies()
ALL_DIVERGENCES = _divergences()
NAN_ROWS = np.array([[np.nan, 0.5, 0.5], [np.nan, 0.0, 1.0], [0.2, 0.3, 0.5], [0.0, 0.4, 0.6]])


@pytest.mark.parametrize("name", sorted(ENTROPIES))
def test_a_nan_weight_makes_its_entropy_nan(name):
    values = ENTROPIES[name].eval_batch(NAN_ROWS)
    assert np.isnan(values[:2]).all()
    assert np.isfinite(values[2:]).all()


@pytest.mark.parametrize("name", sorted(ALL_DIVERGENCES))
def test_a_nan_weight_makes_its_divergence_nan(name):
    q = np.full(3, 1.0 / 3.0)
    values = ALL_DIVERGENCES[name].fn(NAN_ROWS, q)
    assert np.isnan(values[:2]).all()
    assert np.isfinite(values[2:]).all()


def test_a_negative_weight_is_not_read_as_zero():
    rows = np.array([[-0.1, 0.6, 0.5]])
    q = np.full(3, 1.0 / 3.0)
    with np.errstate(invalid="ignore"):
        assert np.isnan(builtin("shannon", ()).eval_batch(rows)).all()
        assert np.isnan(kl_functional().fn(rows, q)).all()
        assert np.isnan(hf_div_functional(kl_pair()).fn(rows, q)).all()


@pytest.mark.parametrize("name", sorted(ENTROPIES))
def test_entropies_never_evaluate_at_zero_on_a_half_zero_batch(name):
    w = BATCHES["half-zero"]
    with np.errstate(divide="raise", invalid="raise"):
        assert np.isfinite(ENTROPIES[name].eval_batch(w)).all()


@pytest.mark.parametrize("name", sorted(ALL_DIVERGENCES))
def test_divergences_never_evaluate_at_zero_on_a_half_zero_batch(name):
    p, q = PAIRS["half-zero"]
    with np.errstate(divide="raise", invalid="raise"):
        assert np.isfinite(ALL_DIVERGENCES[name].fn(p, q)).all()


@pytest.mark.parametrize("pair", ["half-zero", "blocks-begin-dense", "blocked-vs-q(W,)"])
def test_no_trace_writes_into_its_arguments(pair):
    # Read-only arguments: an in-place write (ln over p / q, the weight product) would raise.
    p, q = (np.array(a) for a in PAIRS[pair])
    p.setflags(write=False)
    q.setflags(write=False)
    for functional in ALL_DIVERGENCES.values():
        functional.fn(p, q)
    for functional in ENTROPIES.values():
        functional.fn(p)


class _Recorder:
    def __init__(self, raw):
        self.raw = raw
        self.calls = []

    def __call__(self, t):
        self.calls.append(np.array(t, copy=True))
        return self.raw(t)


def test_a_user_pair_gets_its_batch_as_given():
    f = _Recorder(np.square)
    pair = HFPair(
        name="square",
        f=f,
        h=lambda x: x - 1.0,
        h_inverse=lambda y: y + 1.0,
        h_prime=np.ones_like,
        d2f1=2.0,
        d3f1=0.0,
        f_prime=lambda t: 2.0 * np.asarray(t),
    )
    p, q = PAIRS["half-zero"]
    assert (p[0] == 0.0).any()
    f.calls.clear()
    hf_sum(pair, p)
    assert len(f.calls) == 1 and np.array_equal(f.calls[0], p)
    f.calls.clear()
    hf_div_functional(pair).fn(p, q)
    assert len(f.calls) == 1 and np.array_equal(f.calls[0], p / q)


def test_zero_preserving_passes_a_positive_array_whole():
    raw = _Recorder(lambda t: -t * np.log(t))
    w = np.random.default_rng(3).dirichlet(np.ones(6), size=(4, 5))
    out = zero_preserving(raw)(w)
    assert len(raw.calls) == 1
    assert raw.calls[0].shape == w.shape and np.array_equal(raw.calls[0], w)
    assert np.array_equal(out, -w * np.log(w))


def test_zero_preserving_never_calls_raw_at_zero():
    raw = _Recorder(lambda t: np.where(t == 0.0, np.nan, t * np.log(t)))
    w = BATCHES["half-zero"]
    out = zero_preserving(raw)(w)
    assert len(raw.calls) == 1 and raw.calls[0].shape == w.shape
    assert not (raw.calls[0] == 0.0).any()
    assert np.array_equal(out, ref_zero_preserving(lambda t: t * np.log(t))(w))
    assert zero_preserving(raw)(0.0) == 0.0


# --- row blocks ---------------------------------------------------------------------


@pytest.mark.parametrize("m", range(1, 9))
def test_row_blocks_keep_a_linear_composer_bit_identical(m, monkeypatch):
    # A linear composer's matmul goes to BLAS, which rounds a lone row, and
    # rows off its unroll, apart from one call over the whole batch.
    monkeypatch.setattr(hf_entropy, "_BLOCK", 64)
    rng = np.random.default_rng(m)
    composer = linear_composer(rng.uniform(0.1, 2.0, m))
    shannon_fn, kl_fn = builtin("shannon", ()).fn, kl_functional().fn
    entropy = zeta_compose([builtin("shannon", ())] * m, composer)
    divergence = zeta_compose_div([kl_functional()] * m, composer)
    for rows in (33, 49, 97, 161, 1001):
        for width in (3, 8, 13):
            p = _half_zero(rng, rows, width)
            q = rng.dirichlet(np.ones(width), size=rows)
            one_call = composer.fn(np.stack([shannon_fn(p)] * m, axis=-1))
            assert np.array_equal(entropy.eval_batch(p), one_call)
            one_call = composer.fn(np.stack([kl_fn(p, q)] * m, axis=-1))
            assert np.array_equal(divergence.fn(p, q), one_call)


def _cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def _one_share(call):
    """call() with every `_split` run inline, as from inside a share."""
    context = contextvars.copy_context()
    context.run(formal_group._IN_SHARE.set, True)
    return context.run(call)


#: Rows of width 100 in one block, and the batch heights of 2, 3 and 31
#: blocks: each last block is short, and with two CPUs 3 and 31 blocks make
#: an uneven last share.
BLOCK_ROWS = _BLOCK // 100
SPLIT_ROWS = {"2-blocks": BLOCK_ROWS + 5, "3-blocks": 2 * BLOCK_ROWS + 100,
              "31-blocks": 30 * BLOCK_ROWS + 13}


@pytest.mark.parametrize("rows", sorted(SPLIT_ROWS))
def test_split_blocks_are_bit_identical_to_one_thread(rows):
    rng = np.random.default_rng(79)
    p = _half_zero(rng, SPLIT_ROWS[rows], 100)
    q = rng.dirichlet(np.ones(100), size=p.shape[0])
    for name, functional in ENTROPIES.items():
        got = functional.eval_batch(p)
        assert np.array_equal(got, _one_share(lambda: functional.eval_batch(p))), name
        assert np.isfinite(got).all(), name
    for name, functional in ALL_DIVERGENCES.items():
        for q_arg in (q, q[0]):
            got = functional.fn(p, q_arg)
            assert np.array_equal(got, _one_share(lambda: functional.fn(p, q_arg))), name


def test_each_cpu_takes_one_contiguous_share_of_the_items():
    n = min(31, _cpus())
    owners = _split(lambda item: threading.get_ident(), range(31))
    for k in range(n):
        share = owners[31 * k // n : 31 * (k + 1) // n]
        assert len(set(share)) == 1  # one thread runs a whole share
        assert (share[0] == threading.get_ident()) == (k == 0)  # the head share is the caller's
    assert _split(lambda item: 2 * item, range(7)) == [2 * item for item in range(7)]
    assert _split(lambda item: item, []) == []


def test_the_trace_kernel_splits_its_row_blocks():
    calls = []

    def f(t):
        calls.append((threading.get_ident(), np.shape(t)[:1]))
        return np.square(t)

    pair = HFPair(name="square", f=f, h=lambda x: x - 1.0, h_inverse=lambda y: y + 1.0,
                  h_prime=np.ones_like, d2f1=2.0, d3f1=0.0, f_prime=lambda t: 2.0 * t)
    calls.clear()
    w = _half_zero(np.random.default_rng(80), SPLIT_ROWS["31-blocks"], 100)
    assert np.array_equal(hf_sum(pair, w), np.square(w).sum(axis=-1))
    assert len(calls) == 31 and sum(rows for _, (rows,) in calls) == w.shape[0]
    threads = len({ident for ident, _ in calls})  # a worker may run more than one share
    assert threads == 1 if _cpus() == 1 else 2 <= threads <= min(31, _cpus())


def test_a_worker_share_keeps_the_callers_errstate():
    w = _half_zero(np.random.default_rng(81), SPLIT_ROWS["3-blocks"], 100)
    w[-1, :2] = [-0.1, 0.1]  # a negative weight in the last row, in the last share
    shannon_fn = builtin("shannon", ()).eval_batch
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        shannon_fn(w)
    with np.errstate(invalid="ignore"):  # a warning in a worker would be an error here
        values = shannon_fn(w)
    assert np.isnan(values[-1]) and np.isfinite(values[:-1]).all()


def test_a_share_keeps_the_callers_error_state_outside_its_context(monkeypatch):
    # numpy 1.x keeps the error state per thread, not in the context: an empty
    # context per share stands in for that here.
    monkeypatch.setattr(formal_group, "contextvars", SimpleNamespace(copy_context=contextvars.Context))
    with np.errstate(invalid="raise", divide="ignore"):
        states = _split(lambda item: np.geterr(), range(31))
        assert states == [np.geterr()] * 31


def test_concurrent_callers_get_the_values_of_one_thread():
    # More calling threads than CPUs, each splitting its own batch through the
    # shared pool, with thread switches forced often.
    w = _half_zero(np.random.default_rng(84), SPLIT_ROWS["3-blocks"], 100)
    functionals = [builtin("shannon", ()), builtin("renyi", (0.3,)), ENTROPIES["sm_pair"]]
    want = [_one_share(lambda: f.eval_batch(w)) for f in functionals]
    got = {}

    def caller(k):
        got[k] = [functionals[(k + j) % 3].eval_batch(w) for j in range(6)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller, args=(k,), daemon=True) for k in range(8)]
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in callers)
    for k in range(8):
        assert all(np.array_equal(got[k][j], want[(k + j) % 3]) for j in range(6))


def _failing_at(fail: dict, finished: list):
    """An item map that sleeps fail[item] seconds and then raises ValueError(item)."""

    def fn(item):
        if item in fail:
            time.sleep(fail[item])
            raise ValueError(item)
        time.sleep(0.2 if item == 9 else 0.0)
        finished.append(item)
        return item

    return fn


def test_the_earliest_failing_item_wins():
    # On two CPUs, 5 (second share) fails first in time and 4 (head share) 50 ms later.
    with pytest.raises(ValueError) as caught:
        _split(_failing_at({4: 0.05, 5: 0.0, 8: 0.0}, []), list(range(10)))
    assert caught.value.args == (4,)


def test_every_share_finishes_before_the_call_raises():
    finished = []
    with pytest.raises(ValueError) as caught:
        _split(_failing_at({0: 0.0}, finished), list(range(10)))
    assert caught.value.args == (0,)
    assert (9 in finished) == (_cpus() > 1)  # in a later share, 0.2 s after the head failed


def _child(code: str) -> str:
    """Run code in a fresh interpreter, which must exit 0 within 60 s; its stdout."""
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


_BULK = f"""
import numpy as np
import entrogeo
shannon = entrogeo.builtin_functional("shannon")
w = np.random.default_rng(82).dirichlet(np.ones(100), size={SPLIT_ROWS["31-blocks"]})
want = shannon.eval_batch(w)
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_a_forked_child_builds_its_own_pool():
    _child(_BULK + """
import os, signal
pid = os.fork()
if pid == 0:  # the parent's pool threads are gone here
    signal.alarm(30)
    os._exit(0 if np.array_equal(shannon.eval_batch(w), want) else 1)
_, status = os.waitpid(pid, 0)
assert os.waitstatus_to_exitcode(status) == 0, status
assert np.array_equal(shannon.eval_batch(w), want)
""")


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no os.sched_setaffinity")
def test_one_usable_cpu_starts_no_thread():
    out = _child("""
import os, sys, threading
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
""" + _BULK + """
print(threading.active_count(), "concurrent.futures" in sys.modules)
""")
    assert out.split() == ["1", "False"]


#: Largest tracemalloc peak of one bulk call on a 10^4 x 100 batch.  One
#: call over the whole batch allocates 8 MB per temporary; row blocks keep
#: a few blocks' worth of temporaries.
BULK_PEAK = 2 * 2**20


def _bulk_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("call", ["eval_batch", "fn"])
@pytest.mark.parametrize("name", sorted(ENTROPIES))
def test_bulk_entropy_evaluation_stays_within_a_few_blocks(name, call):
    w = _half_zero(np.random.default_rng(75), 10_000, 100)
    assert _bulk_peak(lambda: getattr(ENTROPIES[name], call)(w)) < BULK_PEAK


@pytest.mark.parametrize("name", sorted(ALL_DIVERGENCES))
def test_bulk_divergence_evaluation_stays_within_a_few_blocks(name):
    rng = np.random.default_rng(76)
    p = _half_zero(rng, 10_000, 100)
    q = rng.dirichlet(np.ones(100), size=10_000)
    assert _bulk_peak(lambda: ALL_DIVERGENCES[name].fn(p, q)) < BULK_PEAK


# --- user functionals ---------------------------------------------------------------


def _batch_normalised(values):
    """A row-coupled map: each row's value divided by the sum over the whole batch."""
    return values / values.sum()


def test_a_user_divergence_fn_is_used_as_given():
    def fn(p, q):
        return _batch_normalised((np.asarray(p) * np.asarray(q)).sum(axis=-1))

    built = DivergenceFunctional(fn=fn, name="coupled")
    assert built.fn is fn
    rng = np.random.default_rng(77)
    p = rng.dirichlet(np.ones(8), size=_BLOCK // 8 + 100)
    q = rng.dirichlet(np.ones(8), size=p.shape[0])
    assert p.size > _BLOCK
    assert np.array_equal(built.fn(p, q), fn(p, q))


def test_a_user_entropy_fn_is_used_as_given():
    def fn(w):
        return _batch_normalised(np.square(np.asarray(w)).sum(axis=-1))

    built = EntropyFunctional(fn=fn, name="coupled")
    assert built.fn is fn
    w = np.random.default_rng(78).dirichlet(np.ones(8), size=_BLOCK // 8 + 100)
    assert w.size > _BLOCK
    assert np.array_equal(built.eval_batch(w), fn(w))
