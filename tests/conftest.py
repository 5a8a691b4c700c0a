import numpy as np
import pytest

from relqft.lattice import ModelParams


@pytest.fixture
def params3():
    return ModelParams(3, 2)


@pytest.fixture
def params5():
    return ModelParams(5, 2)


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(key=[1234, 0]))
