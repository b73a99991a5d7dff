"""Fibered rotation numbers by continuous phase tracking.

The cocycle is deformed to the identity along an explicit symplectic
path built from shear and lower-triangular factors together with a
polar-interpolated GL(m) path for C.  Tracking the determinant phase of
the unitary image W of a Lagrangian frame along this path gives a
continuous argument function m*x(t); its time average is the fibered
rotation number (in turns, i.e. arg/2pi).

One tracker, `track_frames`, serves every caller, and it takes an
array of energies.  The step matrices are affine in E, so those of all
energies and sample times are formed in one stacked call, with V(t)
evaluated once per distinct time.  Each energy keeps its own sample
times, step size and anchor, so its result does not depend on which
other energies share the call.  The step size is set by a controller:
after each block of candidate times it is scaled by STEP_TARGET *
CERT_TURNS over the block's largest phase bound, clamped to STEP_CLAMP,
and it carries over into the next unit step.
"""

from __future__ import annotations

from dataclasses import dataclass
import itertools

import numpy as np

from .errors import (DegenerateFrame, InvalidInput, RefinementExhausted,
                     UnsupportedBase)
from .matkernel import GlPath, small_matmul
from .model import OperatorModel, TORUS
from .cocycle import LagrangianFrame, frame_to_unitary, transfer_matrices

START_SUBSTEPS = 16
QUARTER_TURN = 0.25
CERT_TURNS = 0.2
CURVATURE_SAFETY = 3.0
MIN_INTERVAL = 2.0 ** -48
MAX_STEP_SAMPLES = 2 ** 20
BLOCK = 64
RENORM_GAMMA = 0.5
STEP_TARGET = 0.5          # aim a block's largest phase bound at this share of CERT_TURNS
STEP_CLAMP = (0.125, 2.0)  # range of the factor h changes by after one block
COARSE = np.linspace(0.0, 1.0, 65)  # curvature grid of every unit step
PHASE_CHUNK = 1024  # samples whose det-W phases are taken together


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


class HomotopyPath:
    """Symplectic path P^t from the identity at t=0 through the cocycle.

    On [0, 1] the path is G1^{-1} G2(t) G1 with G1 a fixed shear by
    -CC* and G2(t) a shear/lower-triangular/GL-path product; beyond
    t = 1 it is extended by the cocycle: P^t(theta) = P^{t-n}(T^n theta)
    A_{E,n}(theta).  E may be an array of energies: the paths of all of
    them share the orbit blocks and the GL path V(t) of C.
    """

    def __init__(self, model: OperatorModel, E, theta0, N: int):
        self.model = model
        self.E = np.asarray(E, dtype=float)
        self.m = model.m
        self.N = N
        self.CCstar = model.C @ model.C.conj().T
        self.gl = GlPath(model.C)
        self._coarse_v = None
        self._blocks = model.blocks(theta0, N)
        self._D0 = -self._blocks - self.CCstar - np.eye(self.m)  # D at E = 0

    def _v_pairs(self, ts: np.ndarray):
        """(V(t)^-1, V(t)*) at sorted distinct times; the curvature grid,
        asked for on every unit step, is evaluated once."""
        if ts.size != COARSE.size or not np.array_equal(ts, COARSE):
            return self.gl.pair_many(ts)
        if self._coarse_v is None:
            self._coarse_v = self.gl.pair_many(ts)
        return self._coarse_v

    def step_matrices(self, n: int, ts, E) -> np.ndarray:
        """M(t) = G1^{-1} G2(t) on unit step n at path times ts and
        energies E (broadcast against ts), shape ts.shape + (2m, 2m);
        meant to act on G1-premultiplied frames.

        D = E I - f - CC* - I enters M affinely, M = M0(t) + E M1(t), so
        V(t), M0 and the non-zero block row of M1 are formed once per
        distinct time.
        """
        m = self.m
        ts = np.asarray(ts, dtype=float)
        u, inv = np.unique(ts, return_inverse=True)
        Vinv, Vst = self._v_pairs(u)
        t = u[:, None, None]
        tD = t * self._D0[n] + self.CCstar
        # bottom block row [t V^-1, V*]; the top one is tD @ that plus
        # [V^-1, 0], and E adds t times the bottom row to it
        bottom = np.concatenate((t * Vinv, Vst), axis=-1)
        top = small_matmul(tD, bottom)
        top[..., :m] += Vinv
        inv = inv.reshape(ts.shape)
        E = np.asarray(E, dtype=float)[..., None, None]
        M = np.empty(np.broadcast_shapes(E.shape[:-2], ts.shape)
                     + (2 * m, 2 * m), dtype=complex)
        M[..., :m, :] = top[inv] + E * (t * bottom)[inv]
        M[..., m:, :] = bottom[inv]
        return M

    def G1(self) -> np.ndarray:
        m = self.m
        G = np.eye(2 * m, dtype=complex)
        G[:m, m:] = -self.CCstar
        return G

    def evaluate(self, t: float) -> np.ndarray:
        """Full P^t(theta) including the cocycle extension, 0 <= t <= N,
        for a path built with one energy."""
        if not 0 <= t <= self.N:
            raise InvalidInput(f"path parameter must lie in [0, {self.N}]")
        n = int(np.floor(t))
        frac = t - n
        A = np.eye(2 * self.m, dtype=complex)
        for step in transfer_matrices(self.model, self.E, self._blocks[:n]):
            A = step @ A
        if frac == 0.0:
            return A
        return self.step_matrices(n, [frac], self.E)[0] @ self.G1() @ A


def _normalize(frames: np.ndarray) -> np.ndarray:
    Q, _ = np.linalg.qr(frames)
    return Q


def _step_mats(path: HomotopyPath, n: int, ts: np.ndarray, E, conjugator):
    """Step matrices at path times ts and energies E, broadcast together."""
    M = path.step_matrices(n, ts, E)
    if conjugator is not None:
        # one stacked inverse per block: inv(B) @ M rounds exactly as the
        # per-time products do, where solve(B, M) moves the last digits
        B = np.array([conjugator(n + float(t)) for t in np.ravel(ts)])
        M = np.linalg.inv(B.reshape(np.shape(ts) + M.shape[-2:])) @ M
    return M


def _certified_prefix(dt, chord, margin, smin0, smin1, coef, starts):
    """Certified leading intervals of each block, and its largest bound.

    The candidates of several blocks are stacked along the first axis,
    block b starting at row starts[b].  Row i describes the interval of
    length dt[i] from the previous sample of its block (or the block's
    start) to sample i: chord (S, B) and margin (S,) bound sup ||F'|| on
    it, smin0 and smin1 (S, B) are sigma_min at its ends.  A block's
    prefix ends at its first row where the pinch sc is not positive
    (phase bound inf) or the phase bound reaches CERT_TURNS.  The log is
    masked where sc <= 0, so a failing row leaks no warning.

    Returns the accepted rows per block and the largest phase bound over
    the rows the certificate examined: the accepted ones and the first
    failing one.
    """
    L = chord + margin[:, None]
    sc = 0.5 * (smin0 + smin1 - L * dt[:, None])
    ok = sc > 0.0
    one = np.ones_like(sc)
    q0 = np.divide(smin0, sc, out=one.copy(), where=ok)
    q1 = np.divide(smin1, sc, out=one, where=ok)
    bound = coef * (np.log(q0) + np.log(q1))
    row = np.where(ok.all(axis=1), bound.max(axis=1), np.inf)
    ends = np.append(starts[1:], row.size)
    first_fail = np.minimum.reduceat(
        np.where(row >= CERT_TURNS, np.arange(row.size), row.size), starts)
    failed = first_fail < ends
    # every accepted row's bound lies below the failing row's
    worst = np.where(failed, row[np.minimum(first_fail, row.size - 1)],
                     np.maximum.reduceat(row, starts))
    return np.minimum(first_fail, ends) - starts, worst


def _step_factor(worst: np.ndarray) -> np.ndarray:
    """Factor h changes by after a block whose largest bound is worst."""
    # a failed pinch (inf) shrinks h the most; a block that did not move
    # at all (0) grows it the most
    finite = np.isfinite(worst)
    scale = np.where(finite, STEP_CLAMP[1], STEP_CLAMP[0])
    np.divide(STEP_TARGET * CERT_TURNS, worst, out=scale,
              where=finite & (worst > 0))
    return np.clip(scale, *STEP_CLAMP)


def _certified_samples(path: HomotopyPath, n: int, base: np.ndarray,
                       h: np.ndarray, conjugator):
    """Certified sample times of the frame paths on one unit step.

    base (K, B, 2m, m) holds the frames at t = 0 of each of the K
    energies of the path, and h (K,) their step sizes; h is updated in
    place and is left at the step each energy starts its next unit step
    with.  Yields (k, t, F) for energy k in increasing t, ending exactly
    at t = 1, with the guarantee that between consecutive samples of an
    energy neither the det-W phase nor any eigenphase of W moves by
    CERT_TURNS or more, so continuous branches can be read off by
    nearest-lift wrapping with no aliasing.

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

    Each pass evaluates one block of up to BLOCK candidate times t0 + h,
    t0 + 2h, ... per energy still short of t = 1, all energies in one
    stacked call.  Sample i of a block is only compared with sample
    i-1, so every block is certified at once and its accepted samples
    are the prefix up to the first failing interval.  The step
    controller then scales h by STEP_TARGET * CERT_TURNS over the
    largest phase bound the block's certificate examined, within
    STEP_CLAMP, whether the block accepted all, some or none of its
    candidates: the bound grows about linearly with the interval, so
    the next block aims at half the allowed phase motion.
    """
    K = base.shape[0]
    m = path.m
    coef = max(2.0 * m / np.pi, 1.0)
    ncoarse = COARSE.size - 1
    E = path.E
    Mc = _step_mats(path, n, COARSE, E[:, None], conjugator)
    d2 = np.diff(Mc, 2, axis=1)
    cell_curv = CURVATURE_SAFETY * ncoarse ** 2 * np.sqrt(
        np.sum(np.abs(d2) ** 2, axis=(2, 3)))  # (K, interior nodes)

    def curvature(a, b, k):
        """Max of energy k's cell_curv over the cells each interval
        [a, b] touches."""
        lo = np.maximum((a * ncoarse).astype(int) - 1, 0)
        hi = np.minimum(np.ceil(b * ncoarse).astype(int), ncoarse - 2)
        curv = np.where(hi >= lo, cell_curv[k, np.minimum(lo, hi)],
                        cell_curv[k].max(axis=1))
        for d in range(1, int(np.max(hi - lo, initial=0)) + 1):
            inside = lo + d <= hi
            curv[inside] = np.maximum(curv[inside],
                                      cell_curv[k[inside], lo[inside] + d])
        return curv

    t0 = np.zeros(K)
    anchor = base.copy()  # frames at path time t are M(t) @ anchor
    anorm = np.linalg.norm(anchor, axis=(2, 3)).max(axis=1)
    F0 = small_matmul(Mc[:, 0, None], anchor)
    s0 = np.linalg.svd(F0, compute_uv=False)
    samples = np.zeros(K, dtype=int)
    live = np.arange(K)
    steps = np.arange(1, BLOCK + 1)
    while live.size:
        h[live] = np.minimum(h[live], 1.0 - t0[live])
        if np.any(h[live] <= MIN_INTERVAL) or \
                np.any(samples[live] > MAX_STEP_SAMPLES):
            raise RefinementExhausted(
                "phase-tracking step size collapsed; the frame path passes "
                "too close to a degenerate configuration")
        grid = np.minimum(t0[live, None] + h[live, None] * steps, 1.0)
        # each block runs up to and including its first time at 1
        keep = np.ones(grid.shape, dtype=bool)
        keep[:, 1:] = grid[:, :-1] < 1.0
        sizes = keep.sum(axis=1)
        starts = np.cumsum(sizes) - sizes
        ts = grid[keep]
        k = np.repeat(live, sizes)
        M = _step_mats(path, n, ts, E[k], conjugator)
        F = small_matmul(M[:, None], anchor[k])
        s = np.linalg.svd(F, compute_uv=False)
        # interval i runs from sample i-1, or from its block's start
        prev_t = np.empty_like(ts)
        prev_t[1:] = ts[:-1]
        prev_t[starts] = t0[live]
        prev_F = np.empty_like(F)
        prev_F[1:] = F[:-1]
        prev_F[starts] = F0[live]
        smin = s[..., -1]
        smin0 = np.empty_like(smin)
        smin0[1:] = smin[:-1]
        smin0[starts] = s0[live, ..., -1]
        dt = ts - prev_t
        # sup ||F'|| on each interval: chord slope plus curvature margin
        chord = np.linalg.norm(F - prev_F, axis=(2, 3)) / dt[:, None]
        margin = dt * curvature(prev_t, ts, k) * anorm[k]
        accepted, worst = _certified_prefix(dt, chord, margin, smin0, smin,
                                            coef, starts)
        h[live] *= _step_factor(worst)
        rank = np.arange(ts.size) - np.repeat(starts, sizes)
        take = np.flatnonzero(rank < np.repeat(accepted, sizes))
        yield from zip(k[take].tolist(), ts[take].tolist(), F[take])
        moved = accepted > 0
        last = (starts + accepted - 1)[moved]
        kept = live[moved]
        samples[kept] += accepted[moved]
        t0[kept], F0[kept], s0[kept] = ts[last], F[last], s[last]
        # re-anchor by QR: a right GL(m) action, leaving W and phases intact
        # when the worst sigma_min / sigma_max of the stacks degrades
        gamma = np.min(s0[kept, ..., -1] / s0[kept, ..., 0], axis=1)
        redo = (gamma < RENORM_GAMMA) & (t0[kept] < 1.0)
        if redo.any():
            r = kept[redo]
            Q = _normalize(F0[r])
            anchor[r] = np.linalg.solve(M[last[redo]][:, None], Q)
            anorm[r] = np.linalg.norm(anchor[r], axis=(2, 3)).max(axis=1)
            F0[r] = Q
            s0[r] = np.linalg.svd(Q, compute_uv=False)
        live = live[t0[live] < 1.0]


def track_frames(model: OperatorModel, E, theta0, frames: np.ndarray,
                 N: int, conjugator=None, substeps: int = START_SUBSTEPS):
    """Track det W phases of a batch of frames along the homotopy path.

    E is one energy or an array of them; frames: (B, 2m, m) Lagrangian
    frame stacks, the same starting frames for every energy.  substeps
    sets the first step size, 1/substeps; the step controller adapts it
    from there.  conjugator(time) optionally supplies a symplectic family
    B; the tracked path is then the conjugated one, B(n+t)^{-1} P^t B(n)
    on each unit step, which deforms the conjugated cocycle to the
    identity.

    Returns (acc, last, frames): the accumulated turns and the last
    det-W phase mod 1, shape E.shape + (B,), and the final normalized
    frames, shape E.shape + (B, 2m, m).  Each energy's values are the
    same bit for bit as when it is tracked alone.
    """
    E = np.asarray(E, dtype=float)
    energies = E.ravel()
    K = energies.size
    frames = np.asarray(frames, dtype=complex)
    if frames.ndim == 2:
        frames = frames[None]
    B = frames.shape[0]
    m = model.m
    path = HomotopyPath(model, energies, theta0, N)
    G1 = path.G1()
    last = np.tile(_det_phase(frames, m), (K, 1))
    frames = np.tile(frames, (K, 1, 1, 1))
    acc = np.zeros((K, B))
    h = np.full(K, 1.0 / substeps)
    for n in range(N):
        if conjugator is not None:
            base = G1 @ (conjugator(float(n)) @ frames)
        else:
            base = G1 @ frames
        # det-W phases in chunks as the samples arrive, so the frames of a
        # whole unit step are never held at once
        ks, chunk, phs = [], [], []
        final = [None] * K
        for k, _, F in _certified_samples(path, n, base, h, conjugator):
            ks.append(k)
            chunk.append(F)
            final[k] = F
            if len(chunk) == PHASE_CHUNK:
                phs.append(_det_phase(np.array(chunk), m))
                chunk = []
        if chunk:
            phs.append(_det_phase(np.array(chunk), m))
        order = np.argsort(ks, kind="stable")  # by energy, in sample order
        ks = np.array(ks)[order]
        phs = np.concatenate(phs)[order]
        counts = np.bincount(ks, minlength=K)
        ends = np.cumsum(counts)
        starts = ends - counts
        prev = np.empty_like(phs)
        prev[1:] = phs[:-1]
        prev[starts] = last
        # nearest-lift steps, summed per energy in sample order (accumulate
        # is sequential, so acc matches a per-sample running sum bitwise;
        # the zero padding after an energy's last step leaves it unchanged)
        table = np.zeros((K, counts.max() + 1, B))
        table[:, 0] = acc
        table[ks, np.arange(ks.size) - starts[ks] + 1] = _wrap(phs - prev)
        acc = np.add.accumulate(table, axis=1)[:, -1]
        last = phs[ends - 1]
        frames = _normalize(np.array(final))
    shape = E.shape + (B,)
    return (acc.reshape(shape), last.reshape(shape),
            frames.reshape(shape + frames.shape[-2:]))


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
    acc, last, _ = track_frames(model, E, theta0, frame.stack, N,
                                substeps=substeps)
    ledger = PhaseLedger(accumulated=float(acc[0]),
                         last_phase=float(last[0]), steps=N)
    return float(acc[0]) / N, ledger


def rot_number_batch(model: OperatorModel, E: float, theta0, frames, N: int):
    """rot_number for many frames at once (shared path evaluation)."""
    stacks = np.array([f.stack if isinstance(f, LagrangianFrame) else f
                       for f in frames])
    acc, last, _ = track_frames(model, E, theta0, stacks, N)
    ledgers = [PhaseLedger(accumulated=float(a), last_phase=float(p), steps=N)
               for a, p in zip(acc, last)]
    return acc / N, ledgers


def accumulated_phase(model: OperatorModel, E, theta0=None, N: int = 1000):
    """m * x_E^N: the tracked det-W phase after N unit steps (turns).

    A float for one energy; an array of the same shape for an array of
    energies, all tracked in one call.
    """
    if theta0 is None:
        theta0 = np.zeros(model.base.d)
    frame = LagrangianFrame.standard(model.m)
    acc = track_frames(model, E, theta0, frame.stack, N)[0][..., 0]
    return float(acc) if acc.ndim == 0 else acc


def char_poly_identity(model: OperatorModel, theta, N: int, z: complex) -> float:
    """Relative residual of det(C)^N det U_z(N+1) = det(z - H^N).

    The determinant factor det(C)^N normalizes the transfer-matrix
    solution U_z, whose recursion divides by C at every site.
    """
    from .model import finite_restriction
    m = model.m
    # propagate the (U(n+1); U(n)) stack with per-step QR renormalization,
    # accumulating log det of the triangular factors; forming the raw
    # product makes det(U_top) ill-conditioned for long orbits.  The
    # conjugated steps are P Ahat P^-1 with P = diag(C, I), so starting
    # at P [I; 0] = [C; 0] scales det of the top block by det C.
    F = np.vstack([model.C, np.zeros((m, m))]).astype(complex)
    log_lhs = complex(N - 1) * np.log(complex(np.linalg.det(model.C)))
    for A in transfer_matrices(model, z, model.blocks(theta, N)):
        Q, R = np.linalg.qr(A @ F)
        log_lhs += np.sum(np.log(np.diag(R).astype(complex)))
        F = Q
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
    for A in transfer_matrices(model, E, model.blocks(theta0, N)):
        F = A @ F
        if normalize:
            F, _ = np.linalg.qr(F)
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
    F = frame.stack.copy()
    S = np.zeros((m, m), dtype=complex)
    for A in transfer_matrices(model, E, model.blocks(theta0, n)):
        F = A @ F
        # the bottom block of a conjugated step is C^-1 X of the frame before it
        S += F[m:].conj().T @ F[m:]
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
    path = HomotopyPath(model, [E], theta0, N)
    G1 = path.G1()
    frame = LagrangianFrame.standard(m).stack
    branches = np.zeros(m)  # W(0) = I
    h = np.array([1.0 / substeps])
    for n in range(N):
        base = (G1 @ frame)[None, None]
        Fs = np.array([F[0] for _, _, F in _certified_samples(
            path, n, base, h, None)])
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

    The tracked totals are gathered level by level before the branches
    are matched: the whole grid in one tracker call, then, for each
    bisection depth below max_depth, every midpoint of an interval whose
    total moves by 0.45 or more in one call.  These are exactly the
    energies the matching bisects for the total alone; a bisection forced
    only by the matching cross-check tracks its midpoint on demand.
    """
    E = np.atleast_1d(np.asarray(E_grid, dtype=float))
    if E.size < 2 or np.any(np.diff(E) <= 0):
        raise InvalidInput("E_grid must be sorted with at least two points")
    m = model.m

    def eigphases(energy):
        F = frame_after(model, energy, theta0, N)
        return _eigenphases_mod(frame_to_unitary(
            LagrangianFrame(F, tol_symmetry=1e-6)))

    totals = dict(zip(E.tolist(), accumulated_phase(model, E, theta0, N)))
    level = list(zip(E[:-1].tolist(), E[1:].tolist()))
    for _ in range(max_depth):
        level = [(lo, hi) for lo, hi in level
                 if abs(totals[hi] - totals[lo]) >= 0.45
                 and lo < 0.5 * (lo + hi) < hi]
        if not level:
            break
        mids = [0.5 * (lo + hi) for lo, hi in level]
        totals.update(zip(mids, accumulated_phase(model, mids, theta0, N)))
        level = [half for (lo, hi), mid in zip(level, mids)
                 for half in ((lo, mid), (mid, hi))]

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
    acc, _, _ = track_frames(model, E, theta0, start, N,
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
