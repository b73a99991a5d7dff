"""Operator models on l2(Z, C^m).

An operator is determined by an invertible off-diagonal block C, a
Hermitian-block potential f, and base dynamics T generating the diagonal
blocks B(n) = f(T^(n-1) theta) along an orbit.  Finite restrictions H^N
are block tridiagonal with B(N) in the top-left corner and B(1) in the
bottom-right, C on the sub-diagonal and C* on the super-diagonal.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import eigvals_banded

from .errors import InvalidInput, UnsupportedDirection
from .matkernel import as_complex_matrix, hermitian_part

_CAT = np.array([[2, 1], [1, 1]])
_CAT_INV = np.array([[1, -1], [-1, 2]])

TORUS = "torus_rotation"
CAT = "cat_map"
DOUBLING = "doubling_map"


class BaseDynamics:
    """Ergodic base (Theta, T): torus rotation, cat map, or doubling map.

    Rational independence of torus frequencies is the caller's
    responsibility and is not verified here.
    """

    def __init__(self, kind: str, alpha=None):
        if kind == TORUS:
            if alpha is None:
                raise InvalidInput("torus rotation requires a frequency vector")
            a = np.atleast_1d(np.asarray(alpha, dtype=float))
            if a.ndim != 1 or a.size < 1 or not np.all(np.isfinite(a)):
                raise InvalidInput("frequency vector must be a finite 1-d array")
            self.alpha = np.mod(a, 1.0)
            self.d = a.size
        elif kind == CAT:
            self.alpha = None
            self.d = 2
        elif kind == DOUBLING:
            self.alpha = None
            self.d = 1
        else:
            raise InvalidInput(f"unknown base dynamics kind {kind!r}")
        self.kind = kind

    @property
    def invertible(self) -> bool:
        return self.kind != DOUBLING

    def advance(self, theta, n: int = 1) -> np.ndarray:
        """T^n applied to theta; n may be negative on invertible bases."""
        p = np.atleast_1d(np.asarray(theta, dtype=float))
        if p.size != self.d:
            raise InvalidInput(f"point has dimension {p.size}, expected {self.d}")
        if self.kind == TORUS:
            return np.mod(p + n * self.alpha, 1.0)
        if self.kind == CAT:
            M = np.linalg.matrix_power(_CAT if n >= 0 else _CAT_INV, abs(n))
            return np.mod(M @ p, 1.0)
        if n < 0:
            raise UnsupportedDirection("doubling map has no backward orbit")
        return np.mod(p * float(2 ** n), 1.0)

    def orbit(self, theta, N: int) -> np.ndarray:
        """Points theta, T theta, ..., T^(N-1) theta as an (N, d) array.

        For N < 0 the backward orbit T^-1 theta, ..., T^N theta, stepped
        back from theta one site at a time, as a (-N, d) array.
        """
        p = np.atleast_1d(np.asarray(theta, dtype=float))
        n_sites = np.arange(N) if N >= 0 else -np.arange(1, 1 - N)
        out = np.empty((n_sites.size, self.d))
        if self.kind == TORUS:
            # closed form per point: no accumulated rounding along the orbit
            out[:] = np.mod(p + n_sites[:, None] * self.alpha, 1.0)
            return out
        step = 1 if N >= 0 else -1
        if N < 0:
            p = self.advance(p, -1)
        for n in range(n_sites.size):
            out[n] = p
            p = self.advance(p, step)
        return out


def torus_rotation(alpha) -> BaseDynamics:
    return BaseDynamics(TORUS, alpha)


class ConstantPotential:
    """f identically equal to one Hermitian block."""

    def __init__(self, block):
        self.block = hermitian_part(block)
        self.m = self.block.shape[0]

    def at(self, points) -> np.ndarray:
        """f at each point of an (P, d) stack, shape (P, m, m)."""
        return np.tile(self.block, (len(points), 1, 1))

    def __call__(self, theta) -> np.ndarray:
        return self.at(np.atleast_1d(theta)[None])[0]

    def fourier_blocks(self) -> dict:
        return {(0,): self.block}


class TrigBlockPotential:
    """Finite trigonometric polynomial with matrix Fourier blocks.

    f(theta) = sum over modes k of F_k e^{2 pi i <k, theta>}, with the
    symmetry F_{-k} = F_k* enforced so that f is Hermitian-valued.
    """

    def __init__(self, m: int, coeffs: dict):
        self.m = int(m)
        table = {}
        for k, block in coeffs.items():
            k = tuple(int(x) for x in np.atleast_1d(k))
            F = as_complex_matrix(block, square=True)
            if F.shape[0] != self.m:
                raise InvalidInput("Fourier block size does not match m")
            table[k] = F
        # enforce F_{-k} = F_k* (fill missing partners, check present ones)
        for k in list(table):
            mk = tuple(-x for x in k)
            if mk in table:
                if not np.allclose(table[mk], table[k].conj().T, atol=1e-12):
                    raise InvalidInput(f"blocks at modes {k} and {mk} are not adjoint")
            else:
                table[mk] = table[k].conj().T
        self.coeffs = table

    def at(self, points) -> np.ndarray:
        """f at each point of an (P, d) stack, shape (P, m, m)."""
        p = np.asarray(points, dtype=float)
        f = np.zeros((len(p), self.m, self.m), dtype=complex)
        for k, F in self.coeffs.items():
            f += F * np.exp(2j * np.pi * (p @ np.array(k, dtype=float)))[
                :, None, None]
        return (f + f.conj().swapaxes(-1, -2)) / 2

    def __call__(self, theta) -> np.ndarray:
        return self.at(np.atleast_1d(theta)[None])[0]

    def fourier_blocks(self) -> dict:
        return dict(self.coeffs)


class ScalarTrigPotential:
    """Real scalar trigonometric polynomial as a 1x1 potential."""

    def __init__(self, coeffs):
        # coeffs maps integer mode k to complex v_hat_k with conjugate symmetry
        self.coeffs = {int(k): complex(c) for k, c in coeffs.items()}
        self.m = 1

    def at(self, points) -> np.ndarray:
        """f at each point of an (P, d) stack, shape (P, 1, 1); only the
        first coordinate of a point is read."""
        x = np.asarray(points, dtype=float)[:, 0]
        s = np.zeros(x.size)
        for k, c in self.coeffs.items():
            e = np.exp(2j * np.pi * k * x)
            # Re(c e(kx)) with the two products a complex scalar product
            # rounds; the array product may fuse them
            s = s + (c.real * e.real - c.imag * e.imag)
        return s.astype(complex)[:, None, None]

    def value(self, x: float) -> float:
        return float(self.at([[x]])[0, 0, 0].real)

    def __call__(self, theta) -> np.ndarray:
        return self.at(np.atleast_1d(theta)[None])[0]

    def fourier_blocks(self) -> dict:
        # the real part of sum c_k e(kx) has coefficients (c_k + conj c_-k)/2
        modes = set(self.coeffs) | {-k for k in self.coeffs}
        return {k: np.array([[(self.coeffs.get(k, 0.0)
                               + np.conj(self.coeffs.get(-k, 0.0))) / 2]])
                for k in modes}


class OperatorModel:
    """A block Schrodinger operator (C, f, base dynamics).

    The potential f gives its block at one point, f(theta), and at each
    point of an (P, d) stack, f.at(points); blocks() makes one at() call.
    """

    def __init__(self, m: int, C, potential, base: BaseDynamics, name: str = "",
                 meta: dict | None = None):
        self.m = int(m)
        self.C = as_complex_matrix(C, square=True)
        if self.C.shape[0] != self.m:
            raise InvalidInput("C size does not match m")
        self.cond_C = float(np.linalg.cond(self.C))
        if not np.isfinite(self.cond_C) or self.cond_C > 1e14:
            raise InvalidInput("C is numerically singular")
        self.potential = potential
        self.base = base
        self.name = name
        self.meta = dict(meta or {})
        # Hermitian-ness spot check on a fixed sample
        rng = np.random.default_rng(0)
        for theta in rng.random((8, base.d)):
            f = potential(theta)
            if f.shape != (self.m, self.m):
                raise InvalidInput("potential block size does not match m")
            if np.abs(f - f.conj().T).max() > 1e-10 * max(1.0, np.abs(f).max()):
                raise InvalidInput("potential is not Hermitian-valued")

    def f(self, theta) -> np.ndarray:
        return self.potential(theta)

    def blocks(self, theta, N: int) -> np.ndarray:
        """f along the orbit: blocks[n] = f(T^n theta), n = 0..N-1.

        For N < 0, blocks[k] = f(T^-(k+1) theta) on the backward orbit.
        """
        return self.potential.at(self.base.orbit(theta, N))

    def potential_bound(self) -> float:
        """Upper bound on sup ||f(theta)||_2: the sum of the spectral norms
        of the potential's Fourier blocks."""
        return float(sum(np.linalg.norm(F, 2)
                         for F in self.potential.fourier_blocks().values()))


def free_model(m: int = 1, C=None) -> OperatorModel:
    """Zero potential; for m=1, C=1 this is the free Laplacian."""
    if C is None:
        C = np.eye(m)
    base = torus_rotation([(np.sqrt(5) - 1) / 2] )
    return OperatorModel(m, C, ConstantPotential(np.zeros((m, m))), base, name="free")


def constant_model(block, C=None, alpha=None) -> OperatorModel:
    block = np.asarray(block, dtype=complex)
    m = block.shape[0]
    if C is None:
        C = np.eye(m)
    base = torus_rotation([(np.sqrt(5) - 1) / 2] if alpha is None else alpha)
    return OperatorModel(m, C, ConstantPotential(block), base, name="constant")


def _band_form(diag_blocks: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Lower band storage ab[r, q] = H[q+r, q] of the block tridiagonal H."""
    N, m, _ = diag_blocks.shape
    n = N * m
    bw = 2 * m - 1
    ab = np.zeros((bw + 1, n), dtype=complex)
    for a in range(m):
        for b in range(a + 1):
            ab[a - b, b::m][:N] += diag_blocks[:, a, b]
    if N > 1:
        for a in range(m):
            for b in range(m):
                ab[m + a - b, b:(N - 1) * m:m] += C[a, b]
    return ab


def finite_restriction(model: OperatorModel, theta, N: int) -> np.ndarray:
    """Dense H^N: diagonal blocks B(N)..B(1) top-left to bottom-right."""
    if N < 1:
        raise InvalidInput("N must be at least 1")
    m = model.m
    blocks = model.blocks(theta, N)
    H = np.zeros((N * m, N * m), dtype=complex)
    for i in range(N):
        # top-left block row i holds B(N - i) = f(T^(N-1-i) theta)
        H[i * m:(i + 1) * m, i * m:(i + 1) * m] = blocks[N - 1 - i]
        if i + 1 < N:
            H[(i + 1) * m:(i + 2) * m, i * m:(i + 1) * m] = model.C
            H[i * m:(i + 1) * m, (i + 1) * m:(i + 2) * m] = model.C.conj().T
    return H


def restriction_eigenvalues(model: OperatorModel, theta, N: int,
                            diag_shift=None) -> np.ndarray:
    """Ascending eigenvalues of H^N (+ optional real diagonal shift)."""
    if N < 1:
        raise InvalidInput("N must be at least 1")
    blocks = model.blocks(theta, N)[::-1]  # top-left block first
    ab = _band_form(blocks, model.C)
    if diag_shift is not None:
        shift = np.asarray(diag_shift, dtype=float)
        if shift.shape != (N * model.m,):
            raise InvalidInput("diagonal shift length must be m*N")
        ab[0] += shift
    return eigvals_banded(ab, lower=True)


def count_below(eigenvalues: np.ndarray, E):
    """Number of eigenvalues <= E, counting 1e-12-close ones as below.

    E may be an array of energies; the counts are then an array too.
    """
    counts = np.searchsorted(eigenvalues, np.asarray(E, dtype=float) + 1e-12,
                             side="right")
    return counts if np.ndim(counts) else int(counts)


def eigenvalue_count(model: OperatorModel, theta, N: int, E: float) -> float:
    """Fraction of eigenvalues of H^N at most E."""
    ev = restriction_eigenvalues(model, theta, N)
    return count_below(ev, E) / (model.m * N)


def ids(model: OperatorModel, theta0, N: int, E_grid,
        theta_average: int = 1) -> np.ndarray:
    """IDS estimates on an energy grid from finite restrictions.

    theta_average > 1 averages the counting over that many base points
    spread along a diagonal of the torus, for variance reduction.
    """
    E = np.atleast_1d(np.asarray(E_grid, dtype=float))
    total = np.zeros(E.size)
    samples = max(1, int(theta_average))
    p0 = np.atleast_1d(np.asarray(theta0, dtype=float))
    for s in range(samples):
        theta = np.mod(p0 + s / samples, 1.0)
        ev = restriction_eigenvalues(model, theta, N)
        total += count_below(ev, E)
    return total / (samples * model.m * N)
