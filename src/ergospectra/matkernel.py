"""Dense complex matrix kernel.

Hermitian eigendecompositions, SVD, determinants with argument, and the
polar-interpolated GL(m, C) path used by the homotopy construction.
All functions are pure; inputs are never mutated.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput, SingularMatrix
from .tolerances import DEFAULT, ToleranceProfile


def as_complex_matrix(a, *, square: bool = False) -> np.ndarray:
    """Validate and convert to a finite complex ndarray."""
    M = np.asarray(a, dtype=complex)
    if M.ndim != 2:
        raise InvalidInput(f"expected a matrix, got shape {M.shape}")
    if square and M.shape[0] != M.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M.view(float))):
        raise InvalidInput("matrix has non-finite entries")
    return M


def hermitian_part(a, *, tol: ToleranceProfile = DEFAULT) -> np.ndarray:
    """Symmetrize, rejecting matrices that are not Hermitian to start with."""
    M = as_complex_matrix(a, square=True)
    scale = max(1.0, float(np.abs(M).max()))
    asym = float(np.abs(M - M.conj().T).max())
    if asym >= tol.hermitian_asym * scale:
        raise InvalidInput(f"matrix asymmetry {asym:.3e} exceeds tolerance")
    return (M + M.conj().T) / 2


def hermitian_eigs(M) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ascending eigenvalues and a unitary eigenvector matrix with a
    deterministic phase convention: the first non-negligible component of
    each column is made real positive.
    """
    H = hermitian_part(M)
    w, V = np.linalg.eigh(H)
    V = _fix_phases(V)
    return w, V


def _fix_phases(V: np.ndarray) -> np.ndarray:
    V = V.copy()
    for j in range(V.shape[1]):
        col = V[:, j]
        idx = np.argmax(np.abs(col) > 1e-12)
        piv = col[idx]
        if piv != 0:
            V[:, j] = col * (abs(piv) / piv)
    return V


def svd(M) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SVD with M = U diag(s) V*; singular values descending."""
    A = as_complex_matrix(M)
    U, s, Vh = np.linalg.svd(A)
    return U, s, Vh.conj().T


def det_with_arg(M) -> tuple[float, float]:
    """Determinant as (modulus, argument) with the argument in (-pi, pi]."""
    A = as_complex_matrix(M, square=True)
    sign, logabs = np.linalg.slogdet(A)
    modulus = float(np.exp(logabs))
    arg = float(np.angle(sign)) if sign != 0 else 0.0
    if arg <= -np.pi:
        arg = np.pi
    return modulus, arg


def polar(C) -> tuple[np.ndarray, np.ndarray]:
    """Polar decomposition C = Q P with Q unitary and P positive definite."""
    A = as_complex_matrix(C, square=True)
    U, s, Vh = np.linalg.svd(A)
    if s[-1] <= 1e-14 * max(s[0], 1.0):
        raise SingularMatrix("polar decomposition of a singular matrix")
    Q = U @ Vh
    P = Vh.conj().T @ (s[:, None] * Vh)
    return Q, P


class GlPath:
    """Invertibility-preserving path V(t) from the identity to C.

    Uses the polar factorization C = QP and interpolates
    V(t) = exp(t log Q) P^t with the principal unitary logarithm.
    """

    def __init__(self, C):
        Q, P = polar(C)
        self.C = as_complex_matrix(C, square=True)
        qw, qv = np.linalg.eig(Q)
        qw = qw / np.abs(qw)  # Q is unitary up to rounding
        self._qlog = np.log(qw)
        self._qv = qv
        self._qvi = np.linalg.inv(qv)
        pw, pv = np.linalg.eigh(P)
        self._plog = np.log(pw)
        self._pv = pv

    def __call__(self, t: float) -> np.ndarray:
        Qt = self._qv @ (np.exp(t * self._qlog)[:, None] * self._qvi)
        Pt = self._pv @ (np.exp(t * self._plog)[:, None] * self._pv.conj().T)
        return Qt @ Pt

    def pair_many(self, ts) -> tuple[np.ndarray, np.ndarray]:
        """(V(t)^-1, V(t)*) stacked over an array of path times."""
        ts = np.asarray(ts, dtype=float)
        eq = np.exp(np.multiply.outer(ts, self._qlog))
        ep = np.exp(np.multiply.outer(ts, self._plog))
        Qt = np.einsum("ij,tj,jk->tik", self._qv, eq, self._qvi)
        Pt = np.einsum("ij,tj,jk->tik", self._pv, ep, self._pv.conj().T)
        Qti = np.einsum("ij,tj,jk->tik", self._qv, 1.0 / eq, self._qvi)
        Pti = np.einsum("ij,tj,jk->tik", self._pv, 1.0 / ep, self._pv.conj().T)
        Vinv = Pti @ Qti
        Vst = np.conj(np.swapaxes(Qt @ Pt, -1, -2))
        return Vinv, Vst

    def inverse(self, t: float) -> np.ndarray:
        Qt = self._qv @ (np.exp(-t * self._qlog)[:, None] * self._qvi)
        Pt = self._pv @ (np.exp(-t * self._plog)[:, None] * self._pv.conj().T)
        return Pt @ Qt


def gl_path(C, t: float) -> np.ndarray:
    """One-shot evaluation of the GL path; see GlPath for repeated use."""
    return GlPath(C)(t)
