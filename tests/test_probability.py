"""Distribution validation, product construction, and file parsing."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from entrogeo import (
    ProbDist,
    product,
    uniform,
    validate,
)
from entrogeo.errors import (
    InvalidArgument,
    LengthMismatch,
    NegativeWeight,
    SumNotOne,
)
from entrogeo.probability import FILE_TOL, SIMPLEX_TOL, load_distribution, loads_distribution


def test_accepts_exact_distribution():
    p = validate([0.2, 0.3, 0.5])
    assert p.size == 3
    assert len(p) == 3
    np.testing.assert_array_equal(p.weights, [0.2, 0.3, 0.5])


def test_weights_are_frozen():
    p = validate([0.5, 0.5])
    with pytest.raises(ValueError):
        p.weights[0] = 1.0


def test_no_silent_renormalization():
    with pytest.raises(SumNotOne) as err:
        validate([0.2, 0.2])
    assert err.value.deviation == pytest.approx(0.6)


def test_sum_tolerance_is_strict():
    off = [0.5, 0.5 + 5e-10]
    with pytest.raises(SumNotOne):
        validate(off, tol=SIMPLEX_TOL)
    p = validate(off, tol=FILE_TOL)
    assert p.size == 2


@pytest.mark.parametrize("tol", [np.nan, -1e-12, -np.inf])
def test_tolerance_must_be_non_negative(tol):
    # a nan tolerance would otherwise accept any weights: |sum - 1| > nan is False
    with pytest.raises(InvalidArgument, match="tol must be a non-negative number"):
        validate([5.0, 7.0], tol=tol)
    with pytest.raises(InvalidArgument):
        ProbDist(np.array([0.5, 0.5]), tol)
    with pytest.raises(InvalidArgument):
        loads_distribution('{"weights": [0.5, 0.5]}', tol=tol)


def test_zero_and_infinite_tolerances_are_accepted():
    assert validate([0.25, 0.75], tol=0.0).size == 2
    assert validate([5.0, 7.0], tol=np.inf).size == 2


def test_negative_weight_rejected():
    with pytest.raises(NegativeWeight):
        validate([1.2, -0.2])


def test_non_finite_rejected():
    with pytest.raises(NegativeWeight):
        validate([np.nan, 1.0])
    with pytest.raises(NegativeWeight):
        validate([np.inf, 1.0])


def test_empty_rejected():
    with pytest.raises(LengthMismatch):
        validate([])


def test_uniform():
    u = uniform(4)
    np.testing.assert_allclose(u.weights, 0.25)
    with pytest.raises(LengthMismatch):  # as ProbDist([]) and maximize(size=0)
        uniform(0)


def test_product_is_row_major():
    joint = product(validate([0.5, 0.5]), validate([0.3, 0.7]))
    np.testing.assert_allclose(joint.weights, [0.15, 0.35, 0.15, 0.35])


@given(st.lists(st.floats(0.01, 10.0), min_size=1, max_size=8))
def test_normalized_vector_validates(raw):
    w = np.asarray(raw)
    p = validate(w / w.sum(), tol=1e-9)
    assert abs(float(p.weights.sum()) - 1.0) <= 1e-9


@given(
    st.lists(st.floats(0.01, 10.0), min_size=1, max_size=6),
    st.lists(st.floats(0.01, 10.0), min_size=1, max_size=6),
)
def test_product_of_distributions_is_a_distribution(raw_p, raw_q):
    wp, wq = np.asarray(raw_p), np.asarray(raw_q)
    p = validate(wp / wp.sum(), tol=1e-9)
    q = validate(wq / wq.sum(), tol=1e-9)
    joint = product(p, q)
    assert joint.size == p.size * q.size
    # entry (i, j) of the outer product sits at offset i*len(q)+j
    i, j = p.size - 1, q.size - 1
    assert joint.weights[i * q.size + j] == pytest.approx(
        float(p.weights[i] * q.weights[j])
    )


def test_loads_json_object():
    p = loads_distribution('{"weights": [0.25, 0.25, 0.5]}')
    np.testing.assert_array_equal(p.weights, [0.25, 0.25, 0.5])


def test_loads_csv_column():
    p = loads_distribution("0.1\n0.2\n0.7\n")
    np.testing.assert_array_equal(p.weights, [0.1, 0.2, 0.7])


def test_loads_rejects_garbage():
    with pytest.raises(LengthMismatch):
        loads_distribution("")
    with pytest.raises(LengthMismatch):
        loads_distribution('{"values": [1.0]}')
    with pytest.raises(LengthMismatch):
        loads_distribution('{"weights": 0.5}')
    for loose in ("[true, false]", '["0.5", "0.5"]'):  # numpy would read 1, 0 and 0.5, 0.5
        with pytest.raises(LengthMismatch, match="must be a list of numbers"):
            loads_distribution(f'{{"weights": {loose}}}')
    for nested in ("[[0.5], [0.5]]", "[[0.25, 0.25], [0.25, 0.25]]", "[[1.0]]"):
        with pytest.raises(LengthMismatch):
            loads_distribution(f'{{"weights": {nested}}}')
    with pytest.raises(LengthMismatch):
        loads_distribution("a,b\n1,2\n")
    with pytest.raises(LengthMismatch):
        loads_distribution("not-a-number\n")
    with pytest.raises(LengthMismatch, match="no numeric rows"):
        loads_distribution(",\n,,\n")


def test_load_roundtrip(tmp_path):
    path = tmp_path / "dist.json"
    path.write_text('{"weights": [0.5, 0.5]}')
    p = load_distribution(path)
    assert p.size == 2
    csv_path = tmp_path / "dist.csv"
    csv_path.write_text("0.5\n0.5\n")
    q = load_distribution(str(csv_path))
    np.testing.assert_array_equal(p.weights, q.weights)


def test_load_rejects_a_file_that_is_not_utf8_text(tmp_path):
    path = tmp_path / "dist.json"
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(LengthMismatch, match=r"'.*dist\.json' is not UTF-8 text"):
        load_distribution(path)
