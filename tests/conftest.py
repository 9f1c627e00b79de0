import numpy as np
import pytest

from mzpovm import oracle


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


def random_pure(rng) -> np.ndarray:
    return oracle.haar_vector(rng)


def random_pure4(rng) -> np.ndarray:
    return oracle.haar_vector(rng, 4)


def random_bloch_in_ball(rng) -> np.ndarray:
    direction = rng.standard_normal(3)
    direction /= np.linalg.norm(direction)
    return direction * rng.random() ** (1.0 / 3.0)


def random_hermitian(rng, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (g + g.conj().T)
