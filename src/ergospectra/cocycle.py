"""Transfer cocycles, Lagrangian frames, and the Cayley/Moebius picture.

The one-step transfer matrix of the eigenvalue equation is conjugated by
P = diag(C, I) into the Hermitian symplectic group (A* J A = J), which
acts on Lagrangian planes; the Cayley transform turns that action into a
Moebius action on unitary matrices W = (X + iY)(X - iY)^{-1}.
"""

from __future__ import annotations

import numpy as np

from .errors import (DegenerateAction, DegenerateFrame, InvalidInput,
                     UnsupportedDirection)
from .matkernel import as_complex_matrix
from .model import OperatorModel


def J_matrix(m: int) -> np.ndarray:
    J = np.zeros((2 * m, 2 * m), dtype=complex)
    J[:m, m:] = np.eye(m)
    J[m:, :m] = -np.eye(m)
    return J


def Q_matrix(m: int) -> np.ndarray:
    return np.diag(np.concatenate([np.ones(m), -np.ones(m)])).astype(complex)


def cayley_element(m: int) -> np.ndarray:
    """The fixed conjugator between the symplectic and pseudo-unitary pictures."""
    I = np.eye(m)
    top = np.hstack([I, -1j * I])
    bot = np.hstack([I, 1j * I])
    return np.vstack([top, bot]) * (np.exp(-1j * np.pi / 4) / np.sqrt(2))


def cayley(A) -> np.ndarray:
    """Conjugate a 2m x 2m matrix by the Cayley element."""
    A = as_complex_matrix(A, square=True)
    m = A.shape[0] // 2
    Cm = cayley_element(m)
    return Cm @ A @ np.linalg.inv(Cm)


class LagrangianFrame:
    """Full-rank 2m x m frame [X; Y] with X*Y = Y*X.

    Represents a Lagrangian plane up to the right GL(m, C) action.
    """

    def __init__(self, stack, tol_symmetry: float = 1e-10, tol_rank: float = 1e-10):
        F = as_complex_matrix(stack)
        if F.shape[0] != 2 * F.shape[1]:
            raise InvalidInput(f"frame must be 2m x m, got {F.shape}")
        m = F.shape[1]
        X, Y = F[:m], F[m:]
        scale = max(1.0, float(np.abs(F).max()) ** 2)
        sym = X.conj().T @ Y - Y.conj().T @ X
        if np.abs(sym).max() > tol_symmetry * scale:
            raise InvalidInput("frame is not Lagrangian: X*Y != Y*X")
        s = np.linalg.svd(F, compute_uv=False)
        if s[-1] <= tol_rank * s[0]:
            raise InvalidInput("frame is rank deficient")
        self.stack = F
        self.m = m

    @classmethod
    def standard(cls, m: int) -> "LagrangianFrame":
        return cls(np.vstack([np.eye(m), np.zeros((m, m))]))

    @property
    def X(self) -> np.ndarray:
        return self.stack[: self.m]

    @property
    def Y(self) -> np.ndarray:
        return self.stack[self.m:]

    def apply(self, A) -> "LagrangianFrame":
        return LagrangianFrame(np.asarray(A) @ self.stack)

    def right_multiply(self, R) -> "LagrangianFrame":
        return LagrangianFrame(self.stack @ np.asarray(R))

    def orthonormalized(self) -> "LagrangianFrame":
        Q, _ = np.linalg.qr(self.stack)
        return LagrangianFrame(Q)


def transfer_matrices(model: OperatorModel, E, blocks) -> np.ndarray:
    """Conjugated transfer matrices [[(E - f)C^-1, -C*], [C^-1, 0]].

    blocks is a stack of potential values f, shape (..., m, m).  E is a
    scalar or an array of energies; an array adds its shape as leading
    axes, so the result has shape E.shape + blocks.shape[:-2] + (2m, 2m).
    C^-1 and C* are formed once per call.
    """
    m = model.m
    Cinv = np.linalg.inv(model.C)
    E = np.asarray(E)
    blocks = np.asarray(blocks)
    EI = E.reshape(E.shape + (1,) * (blocks.ndim - 2) + (1, 1)) * np.eye(m)
    top = (EI - blocks) @ Cinv
    A = np.zeros(top.shape[:-2] + (2 * m, 2 * m), dtype=complex)
    A[..., :m, :m] = top
    A[..., :m, m:] = -model.C.conj().T
    A[..., m:, :m] = Cinv
    return A


def transfer_step(model: OperatorModel, E: float, theta):
    """One-step transfer matrices (hat form, conjugated form) at theta."""
    m = model.m
    C = model.C
    Cinv = np.linalg.inv(C)
    f = model.f(theta)
    Ahat = np.zeros((2 * m, 2 * m), dtype=complex)
    Ahat[:m, :m] = Cinv @ (E * np.eye(m) - f)
    Ahat[:m, m:] = -Cinv @ C.conj().T
    Ahat[m:, :m] = np.eye(m)
    return Ahat, transfer_matrices(model, E, f)


def transfer_product(model: OperatorModel, E: float, theta, n: int) -> np.ndarray:
    """n-step cocycle product; identity at n=0, inverse product for n<0."""
    if n < 0 and not model.base.invertible:
        raise UnsupportedDirection("backward product on a non-invertible base")
    steps = transfer_matrices(model, E, model.blocks(theta, n))
    if n < 0:
        # A_{E,n}(theta) = A(T^n theta)^-1 ... A(T^-1 theta)^-1 for n < 0,
        # the blocks running T^-1 theta, ..., T^n theta from theta back
        steps = np.linalg.inv(steps)
    P = np.eye(2 * model.m, dtype=complex)
    for A in steps:
        P = A @ P
    return P


def frame_to_unitary(frame: LagrangianFrame, tol_degenerate: float = 1e-12) -> np.ndarray:
    """W = (X + iY)(X - iY)^{-1}; unitary, right-action invariant."""
    X, Y = frame.X, frame.Y
    den = X - 1j * Y
    s = np.linalg.svd(den, compute_uv=False)
    if s[-1] <= tol_degenerate * max(1.0, s[0]):
        raise DegenerateFrame("X - iY is numerically singular")
    return (X + 1j * Y) @ np.linalg.inv(den)


def mobius_act(Aring, W, tol_degenerate: float = 1e-12) -> np.ndarray:
    """Action of a pseudo-unitary block matrix on a unitary point."""
    Aring = as_complex_matrix(Aring, square=True)
    W = as_complex_matrix(W, square=True)
    m = W.shape[0]
    A1, A2 = Aring[:m, :m], Aring[:m, m:]
    A3, A4 = Aring[m:, :m], Aring[m:, m:]
    den = A1 + A2 @ W
    s = np.linalg.svd(den, compute_uv=False)
    if s[-1] <= tol_degenerate * max(1.0, s[0]):
        raise DegenerateAction("A1 + A2 W is numerically singular")
    return (A3 + A4 @ W) @ np.linalg.inv(den)


def det_kernel_test(frame: LagrangianFrame, cutoff: float = 1e-8):
    """det W via the closed product formula, and dim of the fix space of W.

    The eigenspace of W at 1 agrees with ker Y, so the dimension is read
    off the singular values of Y with a relative cutoff.
    """
    X, Y = frame.X, frame.Y
    gram = X.conj().T @ X + Y.conj().T @ Y
    detW = (np.linalg.det(X + 1j * Y) * np.linalg.det(X.conj().T + 1j * Y.conj().T)
            / np.linalg.det(gram))
    s = np.linalg.svd(Y, compute_uv=False)
    scale = max(float(s[0]), float(np.abs(frame.stack).max()), 1e-300)
    dim_fix = int(np.sum(s <= cutoff * scale))
    return detW, dim_fix


def symplectic_defect(A) -> float:
    """|| A* J A - J ||, zero exactly on HSp(2m, C)."""
    A = as_complex_matrix(A, square=True)
    m = A.shape[0] // 2
    J = J_matrix(m)
    return float(np.linalg.norm(A.conj().T @ J @ A - J, 2))


def pseudo_unitary_defect(Aring) -> float:
    """|| A* Q A - Q || with Q = diag(I, -I)."""
    Aring = as_complex_matrix(Aring, square=True)
    m = Aring.shape[0] // 2
    Q = Q_matrix(m)
    return float(np.linalg.norm(Aring.conj().T @ Q @ Aring - Q, 2))
