"""Fibered rotation numbers by continuous phase tracking.

The cocycle is deformed to the identity along an explicit symplectic
path built from shear and lower-triangular factors together with a
polar-interpolated GL(m) path for C.  Tracking the determinant phase of
the unitary image W of a Lagrangian frame along this path gives a
continuous argument function m*x(t); its time average is the fibered
rotation number (in turns, i.e. arg/2pi).
"""

from __future__ import annotations

from dataclasses import dataclass, field
import itertools

import numpy as np

from .errors import (DegenerateFrame, InvalidInput, RefinementExhausted,
                     UnsupportedBase)
from .matkernel import GlPath
from .model import OperatorModel, TORUS
from .cocycle import LagrangianFrame, frame_to_unitary, transfer_step

MAX_SUBSTEPS = 2 ** 14
START_SUBSTEPS = 16
QUARTER_TURN = 0.25
CERT_TURNS = 0.2
CURVATURE_SAFETY = 3.0
MIN_INTERVAL = 2.0 ** -48


def _wrap(x):
    """Signed distance to the nearest integer, in (-1/2, 1/2]."""
    return x - np.round(x)


def _batch_det(A: np.ndarray) -> np.ndarray:
    m = A.shape[-1]
    if m == 1:
        return A[..., 0, 0]
    if m == 2:
        return A[..., 0, 0] * A[..., 1, 1] - A[..., 0, 1] * A[..., 1, 0]
    if m == 3:
        # named minors: NumPy reuses a large temporary operand of * in
        # place, which changes the rounding with the length of the stack
        c0 = A[..., 1, 1] * A[..., 2, 2] - A[..., 1, 2] * A[..., 2, 1]
        c1 = A[..., 1, 0] * A[..., 2, 2] - A[..., 1, 2] * A[..., 2, 0]
        c2 = A[..., 1, 0] * A[..., 2, 1] - A[..., 1, 1] * A[..., 2, 0]
        return A[..., 0, 0] * c0 - A[..., 0, 1] * c1 + A[..., 0, 2] * c2
    return np.linalg.det(A)


def _det_phase(frames: np.ndarray, m: int) -> np.ndarray:
    """Phase of det W for a batch of frames, in turns mod 1.

    det W = det(X + iY) / det(X - iY), so only two determinants are
    needed and no inversion is performed.
    """
    X = frames[..., :m, :]
    Y = frames[..., m:, :]
    dp = _batch_det(X + 1j * Y)
    dm = _batch_det(X - 1j * Y)
    return np.mod((np.angle(dp) - np.angle(dm)) / (2 * np.pi), 1.0)


@dataclass
class PhaseLedger:
    """Continuous branch of (1/2pi) arg det W along a recorded path."""

    accumulated: float = 0.0
    last_phase: float = 0.0
    substep_budget: int = START_SUBSTEPS
    steps: int = 0

    def record(self, phase: float) -> float:
        phase = float(np.mod(phase, 1.0))
        delta = float(_wrap(phase - self.last_phase))
        self.accumulated += delta
        self.last_phase = phase
        self.steps += 1
        return delta

    def consistent(self, tol: float = 1e-8) -> bool:
        return abs(_wrap(self.accumulated - self.last_phase)) < tol


class _VCache:
    """Dyadic-grid cache of (V(t)^-1, V(t)*) along the GL path of C."""

    def __init__(self, C):
        self.path = GlPath(C)
        self._table = {}

    def get(self, t: float):
        key = float(t)
        hit = self._table.get(key)
        if hit is None:
            V = self.path(t)
            hit = (np.linalg.inv(V), V.conj().T)
            self._table[key] = hit
        return hit

    def pair_many(self, ts: np.ndarray):
        key = ts.tobytes()
        hit = self._table.get(key)
        if hit is None:
            hit = self.path.pair_many(ts)
            self._table[key] = hit
        return hit


class HomotopyPath:
    """Symplectic path P^t from the identity at t=0 through the cocycle.

    On [0, 1] the path is G1^{-1} G2(t) G1 with G1 a fixed shear by
    -CC* and G2(t) a shear/lower-triangular/GL-path product; beyond
    t = 1 it is extended by the cocycle: P^t(theta) = P^{t-n}(T^n theta)
    A_{E,n}(theta).
    """

    def __init__(self, model: OperatorModel, E: float, theta0, N: int = 0,
                 vcache: _VCache | None = None):
        self.model = model
        self.E = float(E)
        self.theta0 = np.atleast_1d(np.asarray(theta0, dtype=float))
        m = model.m
        self.m = m
        self.CCstar = model.C @ model.C.conj().T
        self.vcache = vcache if vcache is not None else _VCache(model.C)
        self._blocks = model.blocks(self.theta0, N) if N > 0 else np.empty((0, m, m), complex)
        self._orbit = model.base.orbit(self.theta0, max(N, 1))
        self._steps = {}

    def _block(self, n: int) -> np.ndarray:
        if n >= len(self._blocks):
            pts = self.model.base.orbit(self.theta0, n + 1)
            extra = np.array([self.model.f(p) for p in pts[len(self._blocks):]])
            self._blocks = np.concatenate([self._blocks, extra]) if len(self._blocks) else extra
            self._orbit = pts
        return self._blocks[n]

    def theta_at(self, n: int) -> np.ndarray:
        self._block(n)
        return self._orbit[n]

    def step_matrix(self, n: int, t: float) -> np.ndarray:
        """G1^{-1} G2(t) G1 ... unassembled: returns M(t) = G1^{-1} G2(t),
        meant to act on G1-premultiplied frames."""
        m = self.m
        I = np.eye(m)
        D = self.E * I - self._block(n) - self.CCstar - I
        Vinv, Vst = self.vcache.get(t)
        M = np.empty((2 * m, 2 * m), dtype=complex)
        M[:m, :m] = (I + t * t * D + t * self.CCstar) @ Vinv
        M[:m, m:] = (t * D + self.CCstar) @ Vst
        M[m:, :m] = t * Vinv
        M[m:, m:] = Vst
        return M

    def step_matrices(self, n: int, ts) -> np.ndarray:
        """step_matrix for an array of t values, shape (T, 2m, 2m)."""
        m = self.m
        ts = np.asarray(ts, dtype=float)
        I = np.eye(m)
        D = self.E * I - self._block(n) - self.CCstar - I
        Vinv, Vst = self.vcache.pair_many(ts)
        t = ts[:, None, None]
        M = np.empty((ts.size, 2 * m, 2 * m), dtype=complex)
        M[:, :m, :m] = (I + t * t * D + t * self.CCstar) @ Vinv
        M[:, :m, m:] = (t * D + self.CCstar) @ Vst
        M[:, m:, :m] = t * Vinv
        M[:, m:, m:] = Vst
        return M

    def one_step(self, n: int) -> np.ndarray:
        """Conjugated transfer matrix A_E(T^n theta)."""
        A = self._steps.get(n)
        if A is None:
            A = transfer_step(self.model, self.E, self.theta_at(n))[1]
            self._steps[n] = A
        return A

    def G1(self) -> np.ndarray:
        m = self.m
        G = np.eye(2 * m, dtype=complex)
        G[:m, m:] = -self.CCstar
        return G

    def evaluate(self, t: float) -> np.ndarray:
        """Full P^t(theta) including the cocycle extension."""
        if t < 0:
            raise InvalidInput("path parameter must be nonnegative")
        n = int(np.floor(t))
        frac = t - n
        m = self.m
        A = np.eye(2 * m, dtype=complex)
        for k in range(n):
            A = self.one_step(k) @ A
        if frac == 0.0:
            return A
        return self.step_matrix(n, frac) @ self.G1() @ A


def _normalize(frames: np.ndarray) -> np.ndarray:
    Q, _ = np.linalg.qr(frames)
    return Q


def _step_mats(path: HomotopyPath, n: int, ts: np.ndarray, conjugator):
    M = path.step_matrices(n, ts)
    if conjugator is not None:
        # one stacked inverse per block: inv(B) @ M rounds exactly as the
        # per-time products do, where solve(B, M) moves the last digits
        B = np.array([conjugator(n + float(t)) for t in ts])
        M = np.linalg.inv(B) @ M
    return M


MAX_STEP_SAMPLES = 2 ** 20
BLOCK = 64
RENORM_GAMMA = 0.5


def _certified_prefix(dt, chord, margin, smin0, smin1, coef) -> int:
    """Number of leading intervals of a block that pass the certificate.

    Row i describes the interval of length dt[i] from sample i-1 (or
    the block's start) to sample i: chord (T, B) and margin (T,) bound
    sup ||F'|| on it, smin0 and smin1 (T, B) are sigma_min at its ends.
    The prefix ends at the first row where the pinch sc is not positive
    or the phase bound reaches CERT_TURNS.  The log is masked where
    sc <= 0, so a failing row leaks no warning.
    """
    L = chord + margin[:, None]
    sc = 0.5 * (smin0 + smin1 - L * dt[:, None])
    ok = sc > 0.0
    one = np.ones_like(sc)
    q0 = np.divide(smin0, sc, out=one.copy(), where=ok)
    q1 = np.divide(smin1, sc, out=one, where=ok)
    bound = coef * (np.log(q0) + np.log(q1))
    fail = ~ok.all(axis=1) | (bound.max(axis=1) >= CERT_TURNS)
    return int(np.argmax(fail)) if fail.any() else dt.size


def _certified_samples(path: HomotopyPath, n: int, base: np.ndarray,
                       substeps: int, conjugator):
    """Certified sample times of the frame path on one unit step.

    Yields (t, F(t)) in increasing t, ending exactly at t = 1, with the
    guarantee that between consecutive samples neither the det-W phase
    nor any eigenphase of W moves by CERT_TURNS or more, so continuous
    branches can be read off by nearest-lift wrapping with no aliasing.

    The certificate is a priori rather than observational.  W is
    invariant under the right GL(m) action on frames, so the tracked
    quantity depends only on the column span of F(t) = M(t) B.  With
    g an upper bound for ||M'(t) M(t)^{-1}|| and gamma(F) the ratio
    sigma_min / sigma_max, the identity sigma_min(X -+ iY) =
    sigma_min([X; Y]) for Lagrangian stacks bounds both the det-phase
    velocity, by (2m/pi) g / gamma turns, and every eigenphase velocity,
    by g / gamma; and log gamma itself is 2g-Lipschitz.  Endpoint values
    of gamma therefore pinch the whole interval, and a fast spike hiding
    between samples is impossible by construction.  Frames are QR
    renormalized (a right action, so phase-neutral) whenever gamma
    degrades, keeping the bound proportional to g alone.

    Sample i of a block is only compared with sample i-1, so the whole
    block of BLOCK candidate times is certified in one pass and the
    accepted samples are its prefix up to the first failing interval.
    """
    m = path.m
    coef = max(2.0 * m / np.pi, 1.0)
    ncoarse = 64
    coarse = np.linspace(0.0, 1.0, ncoarse + 1)
    Mc = _step_mats(path, n, coarse, conjugator)
    d2 = np.diff(Mc, 2, axis=0)
    cell_curv = CURVATURE_SAFETY * ncoarse ** 2 * np.sqrt(
        np.sum(np.abs(d2) ** 2, axis=(1, 2)))  # per interior node
    nodes = np.arange(cell_curv.size)

    def curvature(a, b):
        """Max of cell_curv over the cells each interval [a, b] touches."""
        lo = np.maximum((a * ncoarse).astype(int) - 1, 0)
        hi = np.minimum(np.ceil(b * ncoarse).astype(int), ncoarse - 2)
        inside = (nodes >= lo[:, None]) & (nodes <= hi[:, None])
        curv = np.where(inside, cell_curv, -np.inf).max(axis=1)
        return np.where(hi >= lo, curv, cell_curv.max())

    t0 = 0.0
    anchor = base  # frames at path time t are M(t) @ anchor
    M0 = _step_mats(path, n, np.array([0.0]), conjugator)
    F0 = np.einsum("tij,bjk->tbik", M0, anchor)[0]
    s0 = np.linalg.svd(F0, compute_uv=False)
    samples = 0
    h = 1.0 / substeps
    while t0 < 1.0:
        h = min(h, 1.0 - t0)
        if h <= MIN_INTERVAL or samples > MAX_STEP_SAMPLES:
            raise RefinementExhausted(
                "phase-tracking step size collapsed; the frame path passes "
                "too close to a degenerate configuration")
        ts = np.unique(np.minimum(t0 + h * np.arange(1, BLOCK + 1), 1.0))
        M = _step_mats(path, n, ts, conjugator)
        F = np.einsum("tij,bjk->tbik", M, anchor)
        s = np.linalg.svd(F, compute_uv=False)
        anorm = float(np.linalg.norm(anchor, axis=(1, 2)).max())
        # interval i runs from sample i-1 (sample -1 is the block start)
        prev_t = np.concatenate(([t0], ts[:-1]))
        dF = np.empty_like(F)
        dF[0] = F[0] - F0
        dF[1:] = F[1:] - F[:-1]
        dt = ts - prev_t
        # sup ||F'|| on each interval: chord slope plus curvature margin
        chord = np.linalg.norm(dF, axis=(2, 3)) / dt[:, None]  # (T, B)
        smin = s[..., -1]
        smin0 = np.concatenate((s0[None, ..., -1], smin[:-1]))
        margin = dt * curvature(prev_t, ts) * anorm
        accepted = _certified_prefix(dt, chord, margin, smin0, smin, coef)
        if accepted == 0:
            h *= 0.5
            continue
        for i in range(accepted):
            yield ts[i], F[i]
        samples += accepted
        t0, F0, s0 = ts[accepted - 1], F[accepted - 1], s[accepted - 1]
        # re-anchor by QR: a right GL(m) action, leaving W and phases intact
        # when the worst sigma_min / sigma_max of the stacks degrades
        if np.min(s0[..., -1] / s0[..., 0]) < RENORM_GAMMA and t0 < 1.0:
            Q = _normalize(F0)
            anchor = np.linalg.solve(M[accepted - 1][None], Q)
            F0 = Q
            s0 = np.linalg.svd(F0, compute_uv=False)
        if accepted == ts.size:
            h *= 2.0


def track_frames(model: OperatorModel, E: float, theta0, frames: np.ndarray,
                 N: int, conjugator=None, substeps: int = START_SUBSTEPS,
                 vcache: _VCache | None = None):
    """Track det W phases of a batch of frames along the homotopy path.

    frames: (B, 2m, m) array of Lagrangian frame stacks.
    conjugator(time) optionally supplies a symplectic family B; the
    tracked path is then the conjugated one, B(n+t)^{-1} P^t B(n) on
    each unit step, which deforms the conjugated cocycle to the
    identity.  Returns (accumulated turns per frame, ledgers, frames).
    """
    frames = np.asarray(frames, dtype=complex)
    if frames.ndim == 2:
        frames = frames[None]
    B = frames.shape[0]
    m = model.m
    path = HomotopyPath(model, E, theta0, N, vcache=vcache)
    G1 = path.G1()
    phases = _det_phase(frames, m)
    acc = np.zeros(B)
    last = phases.copy()
    budget_used = substeps
    for n in range(N):
        if conjugator is not None:
            base = G1 @ (conjugator(float(n)) @ frames)
        else:
            base = G1 @ frames
        Fs = np.array([F for _, F in _certified_samples(
            path, n, base, substeps, conjugator)])
        phs = _det_phase(Fs, m)
        # nearest-lift steps, summed in sample order (accumulate is
        # sequential, so acc matches a per-sample running sum bitwise)
        steps = _wrap(np.diff(phs, axis=0, prepend=last[None]))
        acc = np.add.accumulate(np.concatenate((acc[None], steps)))[-1]
        last = phs[-1]
        budget_used = max(budget_used, len(Fs))
        frames = _normalize(Fs[-1])
    ledgers = [PhaseLedger(accumulated=float(acc[b]), last_phase=float(last[b]),
                           substep_budget=budget_used, steps=N) for b in range(B)]
    return acc, ledgers, frames


def rot_number(model: OperatorModel, E: float, theta0=None,
               frame: LagrangianFrame | None = None, N: int = 1000,
               substeps: int = START_SUBSTEPS):
    """Fibered rotation number estimate at resolution N, in turns.

    Returns (estimate, ledger) with estimate = accumulated / N, where
    accumulated is the continuous branch of (1/2pi) arg det W along the
    homotopy path anchored at 0 on the starting frame.
    """
    if theta0 is None:
        theta0 = np.zeros(model.base.d)
    if frame is None:
        frame = LagrangianFrame.standard(model.m)
    acc, ledgers, _ = track_frames(model, E, theta0, frame.stack[None], N,
                                   substeps=substeps)
    return float(acc[0]) / N, ledgers[0]


def rot_number_batch(model: OperatorModel, E: float, theta0, frames, N: int):
    """rot_number for many frames at once (shared path evaluation)."""
    stacks = np.array([f.stack if isinstance(f, LagrangianFrame) else f
                       for f in frames])
    acc, ledgers, _ = track_frames(model, E, theta0, stacks, N)
    return acc / N, ledgers


def accumulated_phase(model: OperatorModel, E: float, theta0=None, N: int = 1000):
    """m * x_E^N: the tracked det-W phase after N unit steps (turns)."""
    if theta0 is None:
        theta0 = np.zeros(model.base.d)
    frame = LagrangianFrame.standard(model.m)
    acc, _, _ = track_frames(model, E, theta0, frame.stack[None], N)
    return float(acc[0])


def char_poly_identity(model: OperatorModel, theta, N: int, z: complex) -> float:
    """Relative residual of det(C)^N det U_z(N+1) = det(z - H^N).

    The determinant factor det(C)^N normalizes the transfer-matrix
    solution U_z, whose recursion divides by C at every site.
    """
    from .model import finite_restriction
    m = model.m
    # propagate the (U(n+1); U(n)) stack with per-step QR renormalization,
    # accumulating log det of the triangular factors; forming the raw
    # product makes det(U_top) ill-conditioned for long orbits
    F = np.vstack([np.eye(m), np.zeros((m, m))]).astype(complex)
    log_lhs = complex(N) * np.log(complex(np.linalg.det(model.C)))
    p = np.atleast_1d(np.asarray(theta, dtype=float))
    for _ in range(N):
        Ahat, _ = transfer_step(model, z, p)
        Q, R = np.linalg.qr(Ahat @ F)
        log_lhs += np.sum(np.log(np.diag(R).astype(complex)))
        F = Q
        p = model.base.advance(p, 1)
    det_top = complex(np.linalg.det(F[:m]))
    log_lhs = log_lhs + np.log(det_top) if det_top != 0 else complex(-np.inf)
    H = finite_restriction(model, theta, N)
    sign, logabs = np.linalg.slogdet(z * np.eye(m * N) - H)
    if sign == 0:  # z is an eigenvalue of H^N: the determinant vanishes
        log_rhs = complex(-np.inf)
    else:
        log_rhs = np.log(complex(sign)) + logabs
    # |lhs - rhs| / max(1, |rhs|), evaluated at a common log scale so that
    # determinants far beyond double range stay comparable
    s = max(log_lhs.real, log_rhs.real, 0.0)
    num = abs(np.exp(log_lhs - s) - np.exp(log_rhs - s))
    den = max(np.exp(-s), abs(np.exp(log_rhs - s)))
    return float(num / den)


def frame_after(model: OperatorModel, E: float, theta0, N: int,
                frame: LagrangianFrame | None = None,
                normalize: bool = True) -> np.ndarray:
    """Frame stack A_{E,N}(theta0) Lambda, QR-normalized per step by default."""
    if frame is None:
        frame = LagrangianFrame.standard(model.m)
    F = frame.stack.copy()
    p = np.atleast_1d(np.asarray(theta0, dtype=float))
    for _ in range(N):
        _, A = transfer_step(model, E, p)
        F = A @ F
        if normalize:
            F, _ = np.linalg.qr(F)
        p = model.base.advance(p, 1)
    return F


def omega_matrix(model: OperatorModel, E: float, theta0, n: int,
                 frame: LagrangianFrame | None = None) -> np.ndarray:
    """Hermitian generator of the E-motion: dW/dE = i W Omega.

    Omega(E, n) = -2 (X+ - iY+)^{-*} S (X+ - iY+)^{-1} with
    S = sum_{k=1}^{n} (C^{-1} X+(k-1))* (C^{-1} X+(k-1)), computed on
    raw (non-normalized) frames.
    """
    if frame is None:
        frame = LagrangianFrame.standard(model.m)
    m = model.m
    Cinv = np.linalg.inv(model.C)
    F = frame.stack.copy()
    p = np.atleast_1d(np.asarray(theta0, dtype=float))
    S = np.zeros((m, m), dtype=complex)
    for _ in range(n):
        CX = Cinv @ F[:m]
        S += CX.conj().T @ CX
        _, A = transfer_step(model, E, p)
        F = A @ F
        p = model.base.advance(p, 1)
    den = np.linalg.inv(F[:m] - 1j * F[m:])
    Omega = -2 * den.conj().T @ S @ den
    return (Omega + Omega.conj().T) / 2


@dataclass
class PhaseCurves:
    """Continuous eigenphase branches of W along an energy grid (turns)."""

    E_grid: np.ndarray
    N: int
    phases: np.ndarray  # (len(E_grid), m)

    def integer_crossings(self, j: int) -> int:
        """Number of integer crossings of branch j over the grid."""
        f = np.floor(self.phases[:, j] - 1e-9)
        return int(np.sum(np.abs(np.diff(f)) > 0))


def _match_phases(prev: np.ndarray, new_mod: np.ndarray):
    """Continue unwrapped branches prev to the new mod-1 values.

    Chooses the permutation and integer lifts minimizing the total
    circular displacement; feasible by brute force for small m.
    """
    m = prev.size
    best = None
    for perm in itertools.permutations(range(m)):
        cand = new_mod[list(perm)]
        delta = _wrap(cand - prev)
        cost = float(np.sum(np.abs(delta)))
        if best is None or cost < best[0]:
            best = (cost, prev + delta, float(np.max(np.abs(delta))))
    return best[1], best[2]


def _match_down(prev: np.ndarray, new_mod: np.ndarray,
                tol: float = 1e-9) -> np.ndarray:
    """Continue non-increasing branches with the downward integer lift.

    Valid whenever every true move lies in (-1/2, tol]; the permutation
    with the smallest total downward displacement is selected.
    """
    m = prev.size
    best = None
    for perm in itertools.permutations(range(m)):
        delta = np.mod(new_mod[list(perm)] - prev - tol, 1.0) + tol - 1.0
        cost = float(np.sum(np.abs(delta)))
        if best is None or cost < best[0]:
            best = (cost, prev + delta)
    return best[1]


def _eigenphases_mod(W: np.ndarray) -> np.ndarray:
    return np.sort(np.mod(np.angle(np.linalg.eigvals(W)) / (2 * np.pi), 1.0))


RANK_DEFICIENT, X_MINUS_IY_SINGULAR = 1, 2


def _unitary_eigenphases(frames: np.ndarray):
    """Sorted eigenphases of W (turns mod 1) for a stack of frames.

    frames: (k, 2m, m).  Returns (phases (k, m), status (k,)), where a
    nonzero status marks a frame that LagrangianFrame (rank) or
    frame_to_unitary (X - iY) would reject, with the same tolerances;
    the phases of such a frame are meaningless.
    """
    m = frames.shape[-1]
    X, Y = frames[:, :m], frames[:, m:]
    s = np.linalg.svd(frames, compute_uv=False)
    den = X - 1j * Y
    sd = np.linalg.svd(den, compute_uv=False)
    status = np.zeros(len(frames), dtype=int)
    status[sd[:, -1] <= 1e-12 * np.maximum(1.0, sd[:, 0])] = X_MINUS_IY_SINGULAR
    status[s[:, -1] <= 1e-10 * s[:, 0]] = RANK_DEFICIENT
    den[status != 0] = np.eye(m)  # keep the stacked inverse finite
    W = (X + 1j * Y) @ np.linalg.inv(den)
    return _eigenphases_mod(W), status


def _anchor_eigenphases(model: OperatorModel, E: float, theta0, N: int,
                        substeps: int = START_SUBSTEPS) -> np.ndarray:
    """Eigenphase branches at t = N, anchored at 0 at the standard frame."""
    m = model.m
    path = HomotopyPath(model, E, theta0, N)
    G1 = path.G1()
    frame = LagrangianFrame.standard(m).stack
    branches = np.zeros(m)  # W(0) = I
    for n in range(N):
        base = (G1 @ frame)[None]
        Fs = np.array([F[0] for _, F in _certified_samples(
            path, n, base, substeps, None)])
        for phases, status in zip(*_unitary_eigenphases(Fs)):
            if status == RANK_DEFICIENT:
                raise InvalidInput("frame is rank deficient")
            if status == X_MINUS_IY_SINGULAR:
                raise DegenerateFrame("X - iY is numerically singular")
            branches, worst = _match_phases(branches, phases)
            if worst >= QUARTER_TURN:
                raise RefinementExhausted(
                    "eigenphase branch moved a quarter turn on a certified grid")
        frame, _ = np.linalg.qr(Fs[-1])
    return branches


def phase_curves(model: OperatorModel, theta0, N: int, E_grid,
                 max_depth: int = 60) -> PhaseCurves:
    """Continuous eigenphase branches of W_{Lambda_N(E)} over an E grid.

    Branches are anchored by tracking in t at the first grid energy and
    then continued in E with adaptive bisection whenever any branch
    moves a quarter turn or more between adjacent energies.
    """
    E = np.atleast_1d(np.asarray(E_grid, dtype=float))
    if E.size < 2 or np.any(np.diff(E) <= 0):
        raise InvalidInput("E_grid must be sorted with at least two points")
    m = model.m

    def eigphases(energy):
        F = frame_after(model, energy, theta0, N)
        return _eigenphases_mod(frame_to_unitary(
            LagrangianFrame(F, tol_symmetry=1e-6)))

    totals = {}

    def total(energy):
        """Continuous branch of the summed eigenphases (the det-W phase),
        obtained by certified tracking in t -- immune to E-aliasing."""
        key = float(energy)
        if key not in totals:
            totals[key] = accumulated_phase(model, key, theta0, N)
        return totals[key]

    out = np.empty((E.size, m))
    branches = _anchor_eigenphases(model, E[0], theta0, N)
    out[0] = branches

    def continue_to(cur, e_lo, e_hi, depth):
        # every branch is non-increasing in E, so once the total drop
        # over the interval is below half a turn, each branch moves
        # within (-1/2, 0] and the downward lift is the only consistent
        # one; the total also cross-checks the chosen matching
        S = total(e_hi) - total(e_lo)
        if abs(S) < 0.45:
            # lift tolerance sits above the ~1e-7 eigenphase noise so a
            # flat branch is not wrapped a full turn downward
            new = _match_down(cur, eigphases(e_hi), tol=1e-6)
            if abs(float(np.sum(new - cur)) - S) < 0.05:
                return new
        if depth >= max_depth:
            raise RefinementExhausted("energy bisection depth exhausted")
        mid = 0.5 * (e_lo + e_hi)
        if not e_lo < mid < e_hi:  # interval below float resolution
            raise RefinementExhausted(
                "energy interval fell below float resolution")
        half = continue_to(cur, e_lo, mid, depth + 1)
        return continue_to(half, mid, e_hi, depth + 1)

    for i in range(1, E.size):
        branches = continue_to(branches, E[i - 1], E[i], 0)
        out[i] = branches
    return PhaseCurves(E_grid=E, N=N, phases=out)


def _plane_rotation(m: int, angle: float) -> np.ndarray:
    """Rotation in the (1, m+1) symplectic coordinate plane."""
    R = np.eye(2 * m, dtype=complex)
    c, s = np.cos(angle), np.sin(angle)
    R[0, 0] = c
    R[0, m] = s
    R[m, 0] = -s
    R[m, m] = c
    return R


def conjugation_shift(model: OperatorModel, E: float, r, N: int = 2000,
                      theta0=None) -> float:
    """Rotation-number shift under a half-integer-degree torus conjugation.

    The conjugator family rotates the first symplectic coordinate plane
    by the angle (pi/2)<r, theta> evaluated on the real orbit lift, so
    its det-W phase winds by <r, theta>/2 turns per period.  Returns
    (rot(conjugated) - rot(original)) mod 1; the expected value is
    -<r, alpha>/2 mod 1.
    """
    if model.base.kind != TORUS:
        raise UnsupportedBase("conjugation shift requires a torus-rotation base")
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if r.size != model.base.d:
        raise InvalidInput("r must have one entry per torus frequency")
    if theta0 is None:
        theta0 = np.zeros(model.base.d)
    theta0 = np.atleast_1d(np.asarray(theta0, dtype=float))
    alpha = model.base.alpha
    m = model.m

    rot0, _ = rot_number(model, E, theta0, N=N)

    def conjugator(time: float) -> np.ndarray:
        # the clockwise family has degree r under the det-W orientation
        lift = theta0 + time * alpha
        return _plane_rotation(m, -(np.pi / 2) * float(np.dot(r, lift)))

    start = LagrangianFrame.standard(m).stack
    acc, _, _ = track_frames(model, E, theta0, start[None], N,
                             conjugator=conjugator)
    rot1 = float(acc[0]) / N
    return float(np.mod(rot1 - rot0, 1.0))


def bridge_terms(model: OperatorModel, theta0, E: float, N: int):
    """(ell, m x_E^{N+1}) for the eigenvalue-count bridge inequality.

    ell = mN - #{eigenvalues of H^N at most E}; the accumulated phase
    after N+1 unit steps is pinched between ell and ell + m.
    """
    from .model import restriction_eigenvalues, count_below
    ev = restriction_eigenvalues(model, theta0, N)
    ell = model.m * N - count_below(ev, E)
    mx = accumulated_phase(model, E, theta0, N + 1)
    return ell, mx
