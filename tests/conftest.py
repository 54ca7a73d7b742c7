import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from covlasso import CovMatrix, SymmetricMatrix

from oracles import spd_matrix

# Fixed examples, so a property failure seen in CI reruns as it was
# logged: pytest --hypothesis-profile=ci
settings.register_profile("ci", derandomize=True, print_blob=True)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def make_cov(rng: np.random.Generator, n: int, cond: float = 100.0, scale: float = 1.0, count: int = 1000) -> CovMatrix:
    return CovMatrix(SymmetricMatrix(spd_matrix(rng, n, cond, scale)), count)
