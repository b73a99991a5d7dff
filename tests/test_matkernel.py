import numpy as np
import pytest

from ergospectra.errors import InvalidInput, SingularMatrix
from ergospectra.matkernel import GlPath, hermitian_part, polar

from conftest import random_invertible


def path_points(C, ts):
    """V(t) and V(t)^-1 on the GL path of C, read from pair_many."""
    Vinv, Vst = GlPath(C).pair_many(ts)
    return np.conj(np.swapaxes(Vst, -1, -2)), Vinv


class TestHermitianPart:
    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInput):
            hermitian_part(np.array([[np.nan, 0], [0, 1]]))

    def test_non_hermitian_rejected(self):
        with pytest.raises(InvalidInput):
            hermitian_part(np.array([[0, 1], [0, 0]], dtype=float))


class TestGlPath:
    def test_identity_fixed(self):
        V, Vinv = path_points(np.eye(2), [0.0, 0.3, 1.0])
        assert np.allclose(V, np.eye(2)) and np.allclose(Vinv, np.eye(2))

    def test_polar_midpoint(self):
        V, Vinv = path_points(np.array([[2.0]]), [0.5])
        assert np.allclose(V[0], [[np.sqrt(2.0)]])
        assert np.allclose(Vinv[0], [[1 / np.sqrt(2.0)]])

    def test_endpoints(self, rng):
        C = random_invertible(rng, 3)
        V, _ = path_points(C, [0.0, 1.0])
        assert np.abs(V[0] - np.eye(3)).max() < 1e-12
        assert np.abs(V[1] - C).max() < 1e-10

    def test_shear_grid_invertible(self):
        C = np.array([[1.0, 1.0], [0.0, 1.0]])
        V, _ = path_points(C, np.linspace(0, 1, 11))
        assert np.all(np.abs(np.linalg.det(V)) > 1e-10)

    def test_invertible_on_fine_grid(self, rng):
        # invertibility-preserving property at condition numbers up to 1e4
        grid = np.linspace(0, 1, 101)
        for _ in range(20):
            C = random_invertible(rng, 2, cond_max=1e4)
            V, _ = path_points(C, grid)
            assert np.all(np.abs(np.linalg.det(V)) > 1e-12)

    def test_inverse(self, rng):
        C = random_invertible(rng, 2)
        V, Vinv = path_points(C, [0.25, 0.7])
        assert np.abs(V @ Vinv - np.eye(2)).max() < 1e-9
        assert np.abs(Vinv @ V - np.eye(2)).max() < 1e-9

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrix):
            polar(np.array([[1.0, 0.0], [0.0, 0.0]]))
