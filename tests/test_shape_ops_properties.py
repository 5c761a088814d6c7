"""Property tests: the batched reduced-coordinate helpers act matrix by matrix,
and the block reshapings and selection matrices satisfy their identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from multinoise.shape_ops import (
    expand_both,
    outer_svec,
    outer_vec,
    reduce_both,
    reshape_F,
    reshape_G,
    selection_matrices,
    smat,
    svec,
    svec_dim,
    vec,
)

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)

dims = st.integers(min_value=1, max_value=5)
leads = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)
finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64)


def floats(shape):
    return hnp.arrays(np.float64, shape, elements=finite)


def same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def per_matrix(fn, lead, *arrays):
    """fn applied to each leading index of ``arrays`` (shape ``lead`` + ...)."""
    return {idx: fn(*(a[idx] for a in arrays)) for idx in np.ndindex(*lead)}


def assert_batched_equals_per_matrix(batched, lead, singles):
    assert batched.shape[: len(lead)] == lead
    for idx, single in singles.items():
        assert same_bytes(batched[idx], single), idx


@st.composite
def symmetric_batches(draw):
    n, lead = draw(dims), draw(leads)
    R = draw(floats(lead + (n, n)))
    return n, lead, R + R.swapaxes(-1, -2)


@PROPERTY_SETTINGS
@given(lead=leads, p=dims, q=dims, data=st.data())
def test_batched_vec_equals_per_matrix_calls(lead, p, q, data):
    M = data.draw(floats(lead + (p, q)))
    assert_batched_equals_per_matrix(vec(M), lead, per_matrix(vec, lead, M))


@PROPERTY_SETTINGS
@given(symmetric_batches())
def test_batched_svec_equals_per_matrix_calls(case):
    n, lead, S = case
    out = svec(S)
    assert out.shape == lead + (svec_dim(n),) and out.flags.c_contiguous
    assert_batched_equals_per_matrix(out, lead, per_matrix(svec, lead, S))


@PROPERTY_SETTINGS
@given(lead=leads, n=dims, data=st.data())
def test_batched_smat_equals_per_matrix_calls(lead, n, data):
    v = data.draw(floats(lead + (svec_dim(n),)))
    out = smat(v, n)
    assert out.flags.c_contiguous
    assert_batched_equals_per_matrix(out, lead, per_matrix(lambda x: smat(x, n), lead, v))


@PROPERTY_SETTINGS
@given(lead=leads, p=dims, q=dims, data=st.data())
def test_batched_outer_vec_equals_per_matrix_calls(lead, p, q, data):
    a, b = data.draw(floats(lead + (p,))), data.draw(floats(lead + (q,)))
    out = outer_vec(a, b)
    assert_batched_equals_per_matrix(out, lead, per_matrix(outer_vec, lead, a, b))
    for idx in np.ndindex(*lead):
        assert np.array_equal(out[idx], vec(np.outer(a[idx], b[idx])))


@PROPERTY_SETTINGS
@given(lead=leads, n=dims, data=st.data())
def test_batched_outer_svec_equals_per_matrix_calls(lead, n, data):
    a = data.draw(floats(lead + (n,)))
    out = outer_svec(a)
    assert out.flags.c_contiguous
    assert_batched_equals_per_matrix(out, lead, per_matrix(outer_svec, lead, a))
    for idx in np.ndindex(*lead):
        assert np.array_equal(out[idx], svec(np.outer(a[idx], a[idx])))


@PROPERTY_SETTINGS
@given(symmetric_batches())
def test_smat_inverts_svec(case):
    n, _, S = case
    assert same_bytes(smat(svec(S), n), S)


@PROPERTY_SETTINGS
@given(lead=leads, n=dims, data=st.data())
def test_svec_inverts_smat(lead, n, data):
    v = data.draw(floats(lead + (svec_dim(n),)))
    assert same_bytes(svec(smat(v, n)), v)


@PROPERTY_SETTINGS
@given(m=dims, n=dims, p=dims, q=dims, data=st.data())
def test_F_maps_a_kronecker_product_to_the_outer_product_of_the_vecs(m, n, p, q, data):
    A, B = data.draw(floats((m, n))), data.draw(floats((p, q)))
    outer = np.outer(vec(A), vec(B))
    assert np.array_equal(reshape_F(np.kron(A, B), m, n, p, q), outer)
    assert np.array_equal(reshape_G(outer, m, n, p, q), np.kron(A, B))


@PROPERTY_SETTINGS
@given(m=dims, n=dims, p=dims, q=dims, data=st.data())
def test_F_and_G_invert_each_other(m, n, p, q, data):
    X, Y = data.draw(floats((m * p, n * q))), data.draw(floats((m * n, p * q)))
    assert same_bytes(reshape_G(reshape_F(X, m, n, p, q), m, n, p, q), X)
    assert same_bytes(reshape_F(reshape_G(Y, m, n, p, q), m, n, p, q), Y)


@PROPERTY_SETTINGS
@given(n=dims, m=dims, data=st.data())
def test_reduction_inverts_expansion(n, m, data):
    # halving a subnormal rounds it, so the entries are normal floats
    normal = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_subnormal=False, width=64)
    S = data.draw(hnp.arrays(np.float64, (svec_dim(n), svec_dim(m)), elements=normal))
    for k in (n, m):
        sm = selection_matrices(k)
        assert np.array_equal(sm.P @ sm.Q, np.eye(svec_dim(k)))
        assert np.array_equal(sm.Q @ sm.P, sm.T)
    assert np.array_equal(reduce_both(expand_both(S, n, m), n, m), S)


def test_svec_checks_symmetry_per_matrix():
    # the asymmetry of the small matrix is far below the large one's scale
    big = 1e6 * np.eye(2)
    small = np.array([[1.0, 2.0], [2.5, 1.0]])
    with pytest.raises(ValueError, match="asymmetric"):
        svec(np.stack([big, small]))
    assert same_bytes(svec(np.stack([big, big])), np.stack([svec(big)] * 2))
