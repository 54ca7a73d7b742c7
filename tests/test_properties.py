"""Property tests over randomly drawn shapes, data and batchings."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from covlasso import LogitMatrix, accumulate, finalize, new_accumulator
from covlasso.covariance import BLOCK_ROWS


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
