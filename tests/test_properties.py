"""Property tests over randomly drawn shapes, data and batchings."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from covlasso import (
    LogitMatrix,
    SymmetricMatrix,
    accumulate,
    finalize,
    new_accumulator,
    spectral_root,
)
from covlasso.covariance import BLOCK_ROWS

from oracles import dense_floored_root


@st.composite
def batched_streams(draw):
    n = draw(st.integers(1, 6))
    rows = draw(st.integers(1, 3 * BLOCK_ROWS + 50))
    cuts = sorted(draw(st.lists(st.integers(0, rows), max_size=8)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(rows, n)) * rng.lognormal(0, 3, size=(rows, n))
    return data, cuts


@settings(max_examples=60, deadline=None)
@given(batched_streams())
def test_accumulation_is_invariant_to_batching(stream):
    data, cuts = stream
    n = data.shape[1]
    whole = accumulate(new_accumulator(n), LogitMatrix(data))
    parts = new_accumulator(n)
    for chunk in np.split(data, cuts, axis=0):
        if len(chunk):
            accumulate(parts, LogitMatrix(chunk))
    assert parts.count == whole.count
    assert_array_equal(finalize(parts).mat.data, finalize(whole).mat.data)


@st.composite
def floored_roots(draw):
    """PSD matrices of order m <= 6, often rank-deficient, and a floor."""
    m = draw(st.integers(1, 6))
    rank = draw(st.integers(1, m))
    scale = 10.0 ** draw(st.integers(-4, 4))
    rel = draw(st.sampled_from([0.0, 1e-12, 1e-6, 1e-2, 0.5]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(m, rank)) * scale
    return g @ g.T, rel, rank == m, rng.normal(size=m)


@settings(max_examples=200, deadline=None)
@given(floored_roots())
def test_spectral_root_matches_dense_root(case):
    mat, rel, full_rank, x = case
    sym = SymmetricMatrix(mat)
    root = spectral_root(sym, rel)
    dense = dense_floored_root(sym.data, rel)
    size = np.linalg.norm(dense, 2)
    assert np.linalg.norm(root.apply(x) - dense @ x) <= 1e-10 * size * np.linalg.norm(x)
    assert_allclose(root.col_norms(), np.linalg.norm(dense, axis=0), rtol=0, atol=1e-10 * size)
    if rel > 0.0 or full_rank:  # with floor 0 a rank-deficient root is singular
        ref = np.linalg.solve(dense, x)
        assert np.linalg.norm(root.solve(x) - ref) <= 1e-8 * np.linalg.norm(ref)
