"""Aubry duality: scalar trigonometric potentials and their block duals.

A degree-d real trigonometric polynomial v defines a scalar operator
u_{n-1} + u_{n+1} + v(theta + n alpha) u_n.  Its dual is a long-range
operator on l2(Z) with cosine potential, which regroups into a block
operator on l2(Z, C^d): C is the upper-triangular Toeplitz matrix of
(v_d ... v_1), the diagonal blocks carry 2 cos terms along the orbit,
and the base advances by d*alpha per block step.  The one-step dual
cocycle is a companion matrix whose d-step product equals the block
transfer matrix exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegreeZeroLeading, InvalidInput
from .model import (OperatorModel, ScalarTrigPotential, torus_rotation, ids as
                    ids_scan)
from .cocycle import transfer_step


@dataclass(frozen=True)
class TrigPolynomial:
    """Real-valued trig polynomial sum_k v_k e^{2 pi i k theta}, |k| <= d."""

    coeffs: tuple      # (v_{-d}, ..., v_0, ..., v_d) as complex numbers
    alpha: float

    def __post_init__(self):
        c = tuple(complex(x) for x in self.coeffs)
        if len(c) % 2 != 1:
            raise InvalidInput("coefficients must run over k = -d..d")
        d = len(c) // 2
        if d < 1:
            raise InvalidInput("degree must be at least 1")
        if abs(c[-1]) == 0:
            raise DegreeZeroLeading("leading coefficient v_d vanishes")
        for k in range(1, d + 1):
            if abs(c[d + k] - np.conj(c[d - k])) > 1e-12 * max(1.0, abs(c[d + k])):
                raise InvalidInput("coefficients must satisfy v_{-k} = conj(v_k)")
        if abs(c[d].imag) > 1e-12:
            raise InvalidInput("v_0 must be real")
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "alpha", float(self.alpha))

    @property
    def degree(self) -> int:
        return len(self.coeffs) // 2

    def coeff(self, k: int) -> complex:
        d = self.degree
        if abs(k) > d:
            return 0.0
        return self.coeffs[d + k]

    def value(self, x: float) -> float:
        d = self.degree
        s = sum(self.coeffs[d + k] * np.exp(2j * np.pi * k * x)
                for k in range(-d, d + 1))
        return float(np.real(s))


def amo_dual_polynomial(lam: float, alpha: float) -> TrigPolynomial:
    """v = 2 lam cos(2 pi theta): the almost Mathieu dual at coupling lam."""
    return TrigPolynomial(coeffs=(lam, 0.0, lam), alpha=alpha)


class _DualPotential:
    """Diagonal 2cos blocks plus constant off-diagonal Fourier data."""

    def __init__(self, v: TrigPolynomial):
        self.v = v
        self.m = v.degree

    def at(self, points) -> np.ndarray:
        """f at each point of an (P, d) stack, shape (P, m, m); only the
        first coordinate of a point is read."""
        d = self.m
        x = np.asarray(points, dtype=float)[:, 0]
        f = np.empty((x.size, d, d), dtype=complex)
        f[:] = [[self.v.coeff(i - j) for j in range(d)] for i in range(d)]
        # row i carries the site theta + (d-1-i) alpha; the constant
        # Fourier mode of v also sits on the diagonal
        shift = (d - 1 - np.arange(d)) * self.v.alpha
        f[:, np.arange(d), np.arange(d)] = (
            2 * np.cos(2 * np.pi * (x[:, None] + shift)) + self.v.coeff(0))
        return f

    def __call__(self, theta) -> np.ndarray:
        return self.at(np.atleast_1d(theta)[None])[0]

    def fourier_blocks(self) -> dict:
        d = self.m
        const = np.array([[self.v.coeff(0) if i == j else self.v.coeff(i - j)
                           for j in range(d)] for i in range(d)], dtype=complex)
        # 2 cos(2 pi (x + s)) = e(s) e(x) + e(-s) e(-x), row i at s = (d-1-i) alpha
        phase = np.exp(2j * np.pi * (d - 1 - np.arange(d)) * self.v.alpha)
        return {(0,): const, (1,): np.diag(phase), (-1,): np.diag(phase.conj())}


def build_dual(v: TrigPolynomial) -> OperatorModel:
    """Block model dual to the scalar operator with potential v.

    The block base rotates by d*alpha (one block consumes d scalar
    sites); the underlying scalar frequency is kept in the metadata for
    label-group arithmetic.
    """
    d = v.degree
    C = np.zeros((d, d), dtype=complex)
    for i in range(d):
        for j in range(i, d):
            C[i, j] = v.coeff(d + i - j)
    base = torus_rotation([d * v.alpha])
    return OperatorModel(d, C, _DualPotential(v), base, name="dual",
                         meta={"alpha": v.alpha, "degree": d})


def scalar_model(v: TrigPolynomial) -> OperatorModel:
    """The scalar operator itself: m=1, C=1, potential v along alpha."""
    d = v.degree
    coeffs = {k: v.coeff(k) for k in range(-d, d + 1)}
    return OperatorModel(1, np.eye(1), ScalarTrigPotential(coeffs),
                         torus_rotation([v.alpha]), name="scalar")


def one_step_matrix(v: TrigPolynomial, E: float, x: float) -> np.ndarray:
    """Companion matrix of the scalar eigenvalue recursion at site x."""
    d = v.degree
    n = 2 * d
    L = np.zeros((n, n), dtype=complex)
    row = np.empty(n, dtype=complex)
    for i in range(d - 1):
        row[i] = -v.coeff(d - 1 - i)
    row[d - 1] = E - 2 * np.cos(2 * np.pi * x) - v.coeff(0)
    for i in range(1, d + 1):
        row[d - 1 + i] = -v.coeff(-i)
    L[0] = row / v.coeff(d)
    for i in range(1, n):
        L[i, i - 1] = 1.0
    return L


def check_factorization(v: TrigPolynomial, E: float, theta: float) -> float:
    """Residual of the d-step companion product against the dual transfer.

    L(theta + (d-1) alpha) ... L(theta) equals the hat-form one-step
    transfer matrix of the block dual; the identity is algebraic so the
    residual is at rounding level.
    """
    d = v.degree
    prod = np.eye(2 * d, dtype=complex)
    for k in range(d):
        prod = one_step_matrix(v, E, theta + k * v.alpha) @ prod
    dual = build_dual(v)
    Ahat, _ = transfer_step(dual, E, [theta % 1.0])
    denom = max(1.0, float(np.linalg.norm(Ahat)))
    return float(np.linalg.norm(prod - Ahat) / denom)


def check_ids_duality(v: TrigPolynomial, E_grid, N: int, theta0=0.0):
    """Sup difference of the scalar and dual IDS estimates on a grid."""
    scal = scalar_model(v)
    dual = build_dual(v)
    a = ids_scan(scal, [theta0], N, E_grid)
    b = ids_scan(dual, [theta0], N, E_grid)
    return float(np.max(np.abs(a - b))), a, b
