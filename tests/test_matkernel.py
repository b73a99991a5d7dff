import warnings

import numpy as np
import pytest

from ergospectra.errors import InvalidInput, SingularMatrix
from ergospectra.matkernel import (GlPath, extreme_singular_values,
                                   hermitian_part, polar)

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


def _lapack_extremes(A):
    s = np.linalg.svd(A, compute_uv=False)
    return s[..., 0], s[..., -1]


def _complex_stack(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestExtremeSingularValues:
    """The closed forms for m <= 2 against LAPACK's singular values."""

    def _check(self, A):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = extreme_singular_values(A)
        smax, smin = _lapack_extremes(A)
        assert s.shape == A.shape[:-2] + (2,)
        assert np.all(np.isfinite(s))
        assert np.all(np.abs(s[..., 0] - smax) <= 1e-13 * smax)
        assert np.all(np.abs(s[..., 1] - smin) <= 1e-13 * smax)
        return s

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("rows", [1, 2])  # square and tall (2m x m)
    @pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
    def test_random_and_orthonormal_frames(self, rng, m, rows, scale):
        A = _complex_stack(rng, (50, 3, rows * m, m))
        self._check(scale * A)
        Q = np.linalg.qr(A)[0]
        s = self._check(scale * Q)
        # orthonormal columns: both extremes equal the scale
        assert np.allclose(s, scale, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("rows", [2, 4])
    @pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
    def test_rank_one(self, rng, rows, scale):
        v = _complex_stack(rng, (40, rows, 1))
        A = scale * v * _complex_stack(rng, (40, 1, 2))
        s = self._check(A)
        assert np.all(s[..., 1] <= 4 * np.finfo(float).eps * s[..., 0])

    def test_zero_matrix(self):
        for m in (1, 2):
            assert np.array_equal(
                extreme_singular_values(np.zeros((3, 2 * m, m))),
                np.zeros((3, 2)))

    def test_independent_of_stack(self, rng):
        A = _complex_stack(rng, (60, 2, 4, 2))
        whole = extreme_singular_values(A)
        parts = np.concatenate([extreme_singular_values(A[i:i + 7])
                                for i in range(0, 60, 7)])
        assert np.array_equal(whole, parts)
        assert np.array_equal(whole[5, 1], extreme_singular_values(A[5, 1]))

    def test_input_not_mutated(self, rng):
        A = _complex_stack(rng, (1, 1))[None]
        copy = A.copy()
        extreme_singular_values(A)
        assert np.array_equal(A, copy)

    def test_three_columns_are_lapack_extremes(self, rng):
        A = _complex_stack(rng, (20, 2, 6, 3))
        s = extreme_singular_values(A)
        smax, smin = _lapack_extremes(A)
        assert np.array_equal(s[..., 0], smax)
        assert np.array_equal(s[..., 1], smin)
