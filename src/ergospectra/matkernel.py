"""Dense complex matrix kernel.

Input validation, Hermitian symmetrization, and the polar-interpolated
GL(m, C) path used by the homotopy construction.  All functions are
pure; inputs are never mutated.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput, SingularMatrix

HERMITIAN_ASYM = 1e-12  # max asymmetry accepted before symmetrization


def as_complex_matrix(a, *, square: bool = False) -> np.ndarray:
    """Validate and convert to a finite complex ndarray."""
    M = np.asarray(a, dtype=complex)
    if M.ndim != 2:
        raise InvalidInput(f"expected a matrix, got shape {M.shape}")
    if square and M.shape[0] != M.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise InvalidInput("matrix has non-finite entries")
    return M


def hermitian_part(a) -> np.ndarray:
    """Symmetrize, rejecting matrices that are not Hermitian to start with."""
    M = as_complex_matrix(a, square=True)
    scale = max(1.0, float(np.abs(M).max()))
    asym = float(np.abs(M - M.conj().T).max())
    if asym >= HERMITIAN_ASYM * scale:
        raise InvalidInput(f"matrix asymmetry {asym:.3e} exceeds tolerance")
    return (M + M.conj().T) / 2


def polar(C) -> tuple[np.ndarray, np.ndarray]:
    """Polar decomposition C = Q P with Q unitary and P positive definite."""
    A = as_complex_matrix(C, square=True)
    U, s, Vh = np.linalg.svd(A)
    if s[-1] <= 1e-14 * max(s[0], 1.0):
        raise SingularMatrix("polar decomposition of a singular matrix")
    Q = U @ Vh
    P = Vh.conj().T @ (s[:, None] * Vh)
    return Q, P


def small_matmul(A, B) -> np.ndarray:
    """A @ B for stacks of small matrices, broadcast over leading axes.

    One broadcast product per inner index: numpy.matmul calls BLAS once
    per matrix, which dominates at the 1-6 row sizes used here.  Every
    entry is formed element by element, so it rounds the same whatever
    else shares the stack.
    """
    out = A[..., :, 0, None] * B[..., None, 0, :]
    for j in range(1, A.shape[-1]):
        out = out + A[..., :, j, None] * B[..., None, j, :]
    return out


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
        # middle factors of V^-1 = P^-t Q^-t and V* = (Q^t P^t)*
        self._mid_inv = pv.conj().T @ qv
        self._mid_star = (self._qvi @ pv).conj().T
        self._right = np.stack((self._qvi, qv.conj().T))[:, None]

    def pair_many(self, ts) -> tuple[np.ndarray, np.ndarray]:
        """(V(t)^-1, V(t)*) stacked over an array of path times."""
        ts = np.asarray(ts, dtype=float)
        eq = np.exp(np.multiply.outer(ts, self._qlog))
        ep = np.exp(np.multiply.outer(ts, self._plog))
        # V^-1 = P^-t Q^-t = pv diag(1/ep) (pv* qv) diag(1/eq) qv^-1 and
        # V* = (Q^t P^t)* = pv diag(ep) (qv^-1 pv)* diag(conj eq) qv*,
        # formed together
        middle = np.stack((
            (1.0 / ep)[:, :, None] * self._mid_inv * (1.0 / eq)[:, None, :],
            ep[:, :, None] * self._mid_star * eq.conj()[:, None, :]))
        Vinv, Vst = small_matmul(small_matmul(self._pv, middle), self._right)
        return Vinv, Vst
