"""Dense complex matrix kernel.

Input validation, Hermitian symmetrization, stacked small products and
extreme singular values, and the polar-interpolated GL(m, C) path used
by the homotopy construction.  All functions are pure; inputs are never
mutated.
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


def _row_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the first axis, one row after another."""
    out = x[0]
    for row in x[1:]:
        out = out + row
    return out


def extreme_singular_values(A) -> np.ndarray:
    """(sigma_max, sigma_min) of a stack of tall r x m matrices, r >= m.

    Returns shape A.shape[:-2] + (2,).  For m <= 2 both come from closed
    forms in real arithmetic, each matrix first scaled by a power of two
    near its largest entry so that no square over- or underflows.  With
    a = |f1|^2, d = |f2|^2 and b = f1* f2 the Gram entries of the
    columns, sigma_max^2 = (a + d)/2 + sqrt(((a - d)/2)^2 + |b|^2), a sum
    of positive terms, and sigma_min^2 = det(F*F) / sigma_max^2 with
    det(F*F) the sum of the squared 2 x 2 minors of F (Cauchy-Binet).
    The roots of the characteristic polynomial of F*F would cancel at
    equal singular values, which every orthonormal frame has.  Every
    value is formed element by element, so it does not depend on what
    else shares the stack.  For m >= 3 the extremes of LAPACK's singular
    values are returned.
    """
    A = np.asarray(A)
    r, m = A.shape[-2:]
    if m >= 3:
        s = np.linalg.svd(A, compute_uv=False)
        return np.stack((s[..., 0], s[..., -1]), axis=-1)
    # (m, r, stack): every column entry a contiguous row over the stack
    flat = A.reshape((-1, r, m))
    re = np.ascontiguousarray(flat.real.transpose(2, 1, 0))
    im = np.ascontiguousarray(flat.imag.transpose(2, 1, 0))
    top = np.maximum(np.abs(re).max(axis=(0, 1)), np.abs(im).max(axis=(0, 1)))
    scale = np.ldexp(1.0, np.frexp(top)[1] - 1)  # entries now below 2
    re, im = re / scale, im / scale
    if m == 1:
        s = scale * np.sqrt(_row_sum(re[0] * re[0] + im[0] * im[0]))
        return np.stack((s, s), axis=-1).reshape(A.shape[:-2] + (2,))
    (r1, r2), (i1, i2) = re, im
    a = _row_sum(r1 * r1 + i1 * i1)
    d = _row_sum(r2 * r2 + i2 * i2)
    b2 = _row_sum(r1 * r2 + i1 * i2) ** 2 + _row_sum(r1 * i2 - i1 * r2) ** 2
    # the minors f1_i f2_j - f1_j f2_i, i < j
    I, J = np.triu_indices(r, 1)
    mr = (r1[I] * r2[J] - i1[I] * i2[J]) - (r1[J] * r2[I] - i1[J] * i2[I])
    mi = (r1[I] * i2[J] + i1[I] * r2[J]) - (r1[J] * i2[I] + i1[J] * r2[I])
    det = _row_sum(mr * mr + mi * mi)
    half = 0.5 * (a - d)
    big = 0.5 * (a + d) + np.sqrt(half * half + b2)
    small = np.divide(det, big, out=np.zeros_like(big), where=big > 0.0)
    s = scale[:, None] * np.sqrt(np.stack((big, small), axis=-1))
    return s.reshape(A.shape[:-2] + (2,))


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
