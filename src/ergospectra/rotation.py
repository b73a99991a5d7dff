"""Fibered rotation numbers by continuous phase tracking.

The cocycle is deformed to the identity along an explicit symplectic
path built from shear and lower-triangular factors together with a
polar-interpolated GL(m) path for C.  Tracking the determinant phase of
the unitary image W of a Lagrangian frame along this path gives a
continuous argument function m*x(t); its time average is the fibered
rotation number (in turns, i.e. arg/2pi).

One tracker, `track_frames`, serves every caller, and it takes an
array of energies.  The path obeys the cocycle identity P^t(theta) =
P^(t-n)(T^n theta) A_{E,n}(theta), so the winding over N unit steps is
the sum of the windings of the single unit steps, and unit step n only
needs the Lagrangian plane it starts from.  A QR walk along the orbit
supplies these planes, and every (energy, unit step) pair is then
tracked as an independent lane: LANES lanes share one stacked call per
block of candidate times, with V(t) evaluated once per distinct time.
Each lane keeps its own sample times, step size and anchor, so its
samples do not depend on which other lanes share its stack.  The step
size starts every unit step at 1/substeps and is set by a controller:
after each block of candidate times it is scaled by STEP_TARGET *
CERT_TURNS over the block's largest phase bound, clamped to STEP_CLAMP.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
import itertools

import numpy as np

from .errors import (DegenerateFrame, InvalidInput, RefinementExhausted,
                     UnsupportedBase)
from .matkernel import GlPath, extreme_singular_values, small_matmul
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
LANES = 16  # (energy, unit step) lanes tracked side by side in one stack
PHASE_TOL = 1e-8  # turns by which two det-W phases of one plane may differ


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

    def consistent(self, tol: float = PHASE_TOL) -> bool:
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

    def step_matrices(self, n, ts, E) -> np.ndarray:
        """M(t) = G1^{-1} G2(t) on unit steps n at path times ts and
        energies E, the three broadcast together, shape broadcast +
        (2m, 2m); meant to act on G1-premultiplied frames.

        D = E I - f - CC* - I enters M affinely, M = M0(t) + E M1(t), so
        V(t) is formed once per distinct time; every entry is formed
        element by element, whatever else shares the call.
        """
        m = self.m
        ts = np.asarray(ts, dtype=float)
        u, inv = np.unique(ts, return_inverse=True)
        Vinv, Vst = self._v_pairs(u)
        shape = np.broadcast_shapes(np.shape(n), ts.shape, np.shape(E))
        pick = np.broadcast_to(inv.reshape(ts.shape), shape)
        t = np.broadcast_to(ts, shape)[..., None, None]
        # bottom block row [t V^-1, V*]; the top one is tD @ that plus
        # [V^-1, 0], and E adds t times the bottom row to it
        bottom = np.concatenate((u[:, None, None] * Vinv, Vst), axis=-1)[pick]
        tD = t * self._D0[np.broadcast_to(n, shape)] + self.CCstar
        top = small_matmul(tD, bottom)
        top[..., :m] += Vinv[pick]
        E = np.asarray(E, dtype=float)[..., None, None]
        M = np.empty(shape + (2 * m, 2 * m), dtype=complex)
        M[..., :m, :] = top + E * (t * bottom)
        M[..., m:, :] = bottom
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


def _step_mats(path: HomotopyPath, n, ts: np.ndarray, E, conjugator):
    """Step matrices on unit steps n at path times ts and energies E,
    broadcast together."""
    M = path.step_matrices(n, ts, E)
    if conjugator is not None:
        # one conjugator call and one stacked inverse per block: inv(B) @ M
        # rounds exactly as the per-time products do, where solve(B, M)
        # moves the last digits
        M = np.linalg.inv(conjugator(n + ts)) @ M
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


class _LaneStack:
    """Certified sampling state of a stack of lanes.

    A lane is one unit step n of one energy k.  Lane i starts at t = 0
    from the frames base[i] (B, 2m, m) with step size h[i]; t0, h,
    anchor, F0 and s0 are its own.  Each call of advance() certifies one
    block of up to BLOCK candidate times t0 + h, t0 + 2h, ... for every
    lane still short of t = 1, all lanes in one stacked call, and
    appends each lane's accepted times and frames to its queue.

    Sample i of a block is only compared with sample i-1, so every block
    is certified at once and its accepted samples are the prefix up to
    the first failing interval.  The step controller then scales h by
    STEP_TARGET * CERT_TURNS over the largest phase bound the block's
    certificate examined, within STEP_CLAMP, whether the block accepted
    all, some or none of its candidates: the bound grows about linearly
    with the interval, so the next block aims at half the allowed phase
    motion.
    """

    def __init__(self, path: HomotopyPath, k, n, base, h, conjugator):
        self.path, self.conjugator = path, conjugator
        self.k, self.n, self.E = k, n, path.E[k]
        self.base, self.h = base, h
        self.coef = max(2.0 * path.m / np.pi, 1.0)
        Mc = _step_mats(path, n[:, None], COARSE, self.E[:, None], conjugator)
        d2 = np.diff(Mc, 2, axis=1)
        self.cell_curv = CURVATURE_SAFETY * (COARSE.size - 1) ** 2 * np.sqrt(
            np.sum(np.abs(d2) ** 2, axis=(2, 3)))  # (lanes, interior nodes)
        self.t0 = np.zeros(k.size)
        self.anchor = base.copy()  # frames at path time t are M(t) @ anchor
        self.anorm = np.linalg.norm(base, axis=(2, 3)).max(axis=1)
        self.F0 = small_matmul(Mc[:, 0, None], base)
        self.s0 = extreme_singular_values(self.F0)
        self.start = _det_phase(self.F0, path.m)  # det-W phase at t = 0
        self.samples = np.zeros(k.size, dtype=int)
        self.queues = [deque() for _ in range(k.size)]
        self.live = np.arange(k.size)

    def _curvature(self, a, b, lane):
        """Max of each lane's cell_curv over the cells its interval
        [a, b] touches."""
        ncoarse = COARSE.size - 1
        cell_curv = self.cell_curv
        lo = np.maximum((a * ncoarse).astype(int) - 1, 0)
        hi = np.minimum(np.ceil(b * ncoarse).astype(int), ncoarse - 2)
        curv = np.where(hi >= lo, cell_curv[lane, np.minimum(lo, hi)],
                        cell_curv[lane].max(axis=1))
        for d in range(1, int(np.max(hi - lo, initial=0)) + 1):
            inside = lo + d <= hi
            curv[inside] = np.maximum(curv[inside],
                                      cell_curv[lane[inside], lo[inside] + d])
        return curv

    def advance(self):
        """One stacked pass: one block of candidates for every live lane."""
        live, t0, h = self.live, self.t0, self.h
        h[live] = np.minimum(h[live], 1.0 - t0[live])
        if np.any(h[live] <= MIN_INTERVAL) or \
                np.any(self.samples[live] > MAX_STEP_SAMPLES):
            raise RefinementExhausted(
                "phase-tracking step size collapsed; the frame path passes "
                "too close to a degenerate configuration")
        grid = np.minimum(t0[live, None]
                          + h[live, None] * np.arange(1, BLOCK + 1), 1.0)
        # each block runs up to and including its first time at 1
        keep = np.ones(grid.shape, dtype=bool)
        keep[:, 1:] = grid[:, :-1] < 1.0
        sizes = keep.sum(axis=1)
        starts = np.cumsum(sizes) - sizes
        ts = grid[keep]
        lane = np.repeat(live, sizes)
        M = _step_mats(self.path, self.n[lane], ts, self.E[lane],
                       self.conjugator)
        F = small_matmul(M[:, None], self.anchor[lane])
        s = extreme_singular_values(F)
        # interval i runs from sample i-1, or from its block's start
        prev_t = np.empty_like(ts)
        prev_t[1:] = ts[:-1]
        prev_t[starts] = t0[live]
        prev_F = np.empty_like(F)
        prev_F[1:] = F[:-1]
        prev_F[starts] = self.F0[live]
        smin = s[..., -1]
        smin0 = np.empty_like(smin)
        smin0[1:] = smin[:-1]
        smin0[starts] = self.s0[live, ..., -1]
        dt = ts - prev_t
        # sup ||F'|| on each interval: chord slope plus curvature margin
        chord = np.linalg.norm(F - prev_F, axis=(2, 3)) / dt[:, None]
        margin = dt * self._curvature(prev_t, ts, lane) * self.anorm[lane]
        accepted, worst = _certified_prefix(dt, chord, margin, smin0, smin,
                                            self.coef, starts)
        h[live] *= _step_factor(worst)
        moved = accepted > 0
        for i, a, b in zip(live[moved].tolist(), starts[moved].tolist(),
                           (starts + accepted)[moved].tolist()):
            self.queues[i].append((ts[a:b].tolist(), F[a:b]))
        last = (starts + accepted - 1)[moved]
        kept = live[moved]
        self.samples[kept] += accepted[moved]
        t0[kept], self.F0[kept], self.s0[kept] = ts[last], F[last], s[last]
        # re-anchor by QR: a right GL(m) action, leaving W and phases intact
        # when the worst sigma_min / sigma_max of the stacks degrades
        s0 = self.s0
        gamma = np.min(s0[kept, ..., -1] / s0[kept, ..., 0], axis=1)
        redo = (gamma < RENORM_GAMMA) & (t0[kept] < 1.0)
        if redo.any():
            r = kept[redo]
            Q = _normalize(self.F0[r])
            self.anchor[r] = np.linalg.solve(M[last[redo]][:, None], Q)
            self.anorm[r] = np.linalg.norm(self.anchor[r],
                                           axis=(2, 3)).max(axis=1)
            self.F0[r] = Q
            s0[r] = extreme_singular_values(Q)
        self.live = live[t0[live] < 1.0]


def _certified_samples(stack: _LaneStack, lane: int):
    """Certified sample times of the frame paths of one lane.

    Yields (k, t, F) for the lane's energy k in increasing t, ending
    exactly at t = 1, with the guarantee that between consecutive
    samples neither the det-W phase nor any eigenphase of W moves by
    CERT_TURNS or more, so continuous branches can be read off by
    nearest-lift wrapping with no aliasing.  The samples are read from
    the lane's queue in the shared stack, which runs its next stacked
    pass whenever that queue is empty; the lane's step size starts at
    the stack's h, 1/substeps.

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
    """
    queue, k = stack.queues[lane], int(stack.k[lane])
    while True:
        while queue:
            ts, F = queue.popleft()
            for t, Ft in zip(ts, F):
                yield k, t, Ft
        if stack.t0[lane] >= 1.0:
            return
        stack.advance()


def _walk(path: HomotopyPath, G1, start, k, n, head):
    """Frames that start the lanes (k, n), consecutive in (energy, n)
    order.

    The frame starting unit step n+1 is the QR-normalized image of the
    one starting unit step n under P_n = M_n(1) G1, the unconjugated
    step; a lane with n = 0 starts at start, and the first lane, when it
    continues an energy, at head.  Returns the frames and the head of
    the lane after the last.
    """
    P = small_matmul(path.step_matrices(n, 1.0, path.E[k]), G1)
    w = np.empty(k.shape + start.shape, dtype=complex)
    w[0] = head
    w[n == 0] = start
    # the lanes of each energy form a run; all runs advance together
    index = np.arange(k.size)
    rank = index - np.maximum.accumulate(np.where(n == 0, index, 0))
    for j in range(1, rank.max(initial=0) + 1):
        i = np.flatnonzero(rank == j)
        w[i] = _normalize(small_matmul(P[i - 1, None], w[i - 1]))
    return w, _normalize(small_matmul(P[-1], w[-1]))


def _lane_samples(path: HomotopyPath, frames: np.ndarray, conjugator,
                  substeps: int):
    """Every certified sample of every lane, in stacks of LANES lanes.

    Yields (k, F, ph) per lane, in (energy, n) order: the energy index,
    and the frames and det-W phases of the lane's samples in increasing
    t.  At every junction, the det-W phase at t = 0 of a lane must equal
    that of the sample before it -- the last one of the previous unit
    step, or the starting frames for n = 0 -- within PHASE_TOL;
    otherwise the walk and the tracked path disagree and
    RefinementExhausted is raised.
    """
    m, N = path.m, path.N
    G1 = path.G1()
    start = frames if conjugator is None else small_matmul(
        conjugator(0.0), frames)
    origin = _det_phase(frames, m)
    head, tail = start, origin
    for lo in range(0, path.E.size * N, LANES):
        k, n = np.divmod(np.arange(lo, min(lo + LANES, path.E.size * N)), N)
        w, head = _walk(path, G1, start, k, n, head)
        stack = _LaneStack(path, k, n, small_matmul(G1, w),
                           np.full(k.size, 1.0 / substeps), conjugator)
        for i in range(k.size):
            F = np.array([Ft for _, _, Ft in _certified_samples(stack, i)])
            ph = _det_phase(F, m)
            before = origin if n[i] == 0 else tail
            if np.any(np.abs(_wrap(stack.start[i] - before)) >= PHASE_TOL):
                raise RefinementExhausted(
                    "a unit step's starting frame misses the det-W phase at "
                    "the end of the step before it")
            tail = ph[-1]
            yield int(k[i]), F, ph


def track_frames(model: OperatorModel, E, theta0, frames: np.ndarray,
                 N: int, conjugator=None, substeps: int = START_SUBSTEPS):
    """Track det W phases of a batch of frames along the homotopy path.

    E is one energy or an array of them; frames: (B, 2m, m) Lagrangian
    frame stacks, the same starting frames for every energy.  A QR walk
    along the orbit gives the frames that start each unit step, and each
    (energy, unit step) pair is then tracked as its own lane, LANES
    lanes side by side; the phases are folded in (energy, n, t) order.
    substeps sets the first step size of every unit step, 1/substeps;
    the step controller adapts it from there.  conjugator(time)
    optionally supplies a symplectic family B; the tracked path is then
    the conjugated one, B(n+t)^{-1} P^t B(n) on each unit step, which
    deforms the conjugated cocycle to the identity.  It is called with
    an array of times as well, and then returns one matrix per time.

    Returns (acc, last, frames): the accumulated turns and the last
    det-W phase mod 1, shape E.shape + (B,), and the final normalized
    frames, shape E.shape + (B, 2m, m).  Each energy's values are the
    same bit for bit as when it is tracked alone.  N < 1, substeps < 1
    and non-finite energies raise InvalidInput.
    """
    E = np.asarray(E, dtype=float)
    if N < 1 or substeps < 1:
        raise InvalidInput(
            f"need N >= 1 and substeps >= 1, got N={N}, substeps={substeps}")
    if not np.all(np.isfinite(E)):
        raise InvalidInput("energies must be finite")
    frames = np.asarray(frames, dtype=complex)
    if frames.ndim == 2:
        frames = frames[None]
    path = HomotopyPath(model, E.ravel(), theta0, N)
    K, B = path.E.size, frames.shape[0]
    acc = np.zeros((K, B))
    last = np.tile(_det_phase(frames, model.m), (K, 1))
    final = np.tile(frames, (K, 1, 1, 1))
    for k, F, ph in _lane_samples(path, frames, conjugator, substeps):
        # nearest-lift steps, summed in sample order (accumulate is
        # sequential, so acc matches a per-sample running sum bitwise)
        prev = np.empty_like(ph)
        prev[0] = last[k]
        prev[1:] = ph[:-1]
        acc[k] = np.add.accumulate(
            np.concatenate((acc[k, None], _wrap(ph - prev))))[-1]
        last[k], final[k] = ph[-1], F[-1]
    shape = E.shape + (B,)
    return (acc.reshape(shape), last.reshape(shape),
            _normalize(final).reshape(shape + frames.shape[-2:]))


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
    s = extreme_singular_values(frames)
    den = X - 1j * Y
    sd = extreme_singular_values(den)
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
    frame = LagrangianFrame.standard(m).stack[None]
    branches = np.zeros(m)  # W(0) = I
    for _, F, _ in _lane_samples(path, frame, None, substeps):
        for phases, status in zip(*_unitary_eigenphases(F[:, 0])):
            if status == RANK_DEFICIENT:
                raise InvalidInput("frame is rank deficient")
            if status == X_MINUS_IY_SINGULAR:
                raise DegenerateFrame("X - iY is numerically singular")
            branches, worst = _match_phases(branches, phases)
            if worst >= QUARTER_TURN:
                raise RefinementExhausted(
                    "eigenphase branch moved a quarter turn on a certified grid")
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


def _plane_rotation(m: int, angle) -> np.ndarray:
    """Rotation in the (1, m+1) symplectic coordinate plane.

    angle may be an array; the result then has shape angle.shape +
    (2m, 2m), one rotation per angle.
    """
    angle = np.asarray(angle, dtype=float)
    R = np.empty(angle.shape + (2 * m, 2 * m), dtype=complex)
    R[...] = np.eye(2 * m)
    c, s = np.cos(angle), np.sin(angle)
    R[..., 0, 0] = c
    R[..., 0, m] = s
    R[..., m, 0] = -s
    R[..., m, m] = c
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

    def conjugator(time) -> np.ndarray:
        # the clockwise family has degree r under the det-W orientation;
        # an array of times gives one matrix per time
        lift = theta0 + np.multiply.outer(time, alpha)
        return _plane_rotation(m, -(np.pi / 2) * (lift @ r))

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
