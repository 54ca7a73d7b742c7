import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from covlasso import CovMatrix, SymmetricMatrix, reduce_problem

from oracles import spd_matrix

# Fixed examples, so a property failure seen in CI reruns as it was
# logged: pytest --hypothesis-profile=ci
settings.register_profile("ci", derandomize=True, print_blob=True)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def make_cov(rng: np.random.Generator, n: int, cond: float = 100.0, scale: float = 1.0, count: int = 1000) -> CovMatrix:
    return CovMatrix(SymmetricMatrix(spd_matrix(rng, n, cond, scale)), count)


def rp_from(chat, bhat, cov_ii: float = 1.0):
    """Target 0 of Cov = [[cov_ii, bhat^T], [bhat, chat]]: coef[1:] pairs with chat."""
    chat = np.atleast_2d(np.asarray(chat, dtype=np.float64))
    b = np.asarray(bhat, dtype=np.float64)
    full = np.block([[np.array([[cov_ii]]), b[None, :]], [b[:, None], chat]])
    return reduce_problem(CovMatrix(SymmetricMatrix(full), 10), 0)
