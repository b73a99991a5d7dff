"""Uniform-hyperbolicity detection and unstable-section winding degrees.

The stable/unstable Lagrangian bundles are estimated by QR dichotomy:
a long forward sweep aligns the leading m columns of the orthonormal
companion frame with the unstable plane, a backward sweep with the
stable plane.  Uniform hyperbolicity is declared when the per-step
singular-gap is bounded away from zero and the estimated planes are
invariant and transversal on consecutive orbit samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import subspace_angles

from .errors import RefineGrid, UnsupportedBase, UnsupportedDirection
from .model import OperatorModel, TORUS
from .cocycle import LagrangianFrame, frame_to_unitary, transfer_matrices

DEFAULT_N_ITER = 2000
DEFAULT_SAMPLES = 3
DEFAULT_GAP_THRESHOLD = float(np.exp(0.01))
ANGLE_TOL = 1e-6
SWEEP_CHUNK = 64  # orbit steps whose transfer matrices are formed together


@dataclass
class SplittingEstimate:
    """Sampled stable/unstable splitting along one orbit segment."""

    theta_samples: np.ndarray        # (samples, d), consecutive orbit points
    unstable: list                   # frame stacks (2m x m) per sample
    stable: list
    gap: float                       # per-step log singular-value gap
    converged: bool
    model: OperatorModel = None
    E: float = 0.0
    n_iter: int = DEFAULT_N_ITER


def _qr_sweep(model: OperatorModel, energies: np.ndarray, blocks,
              collect_last: int, backward: bool):
    """QR iteration of K full companion frames over the given blocks in order."""
    m = model.m
    Q = np.broadcast_to(np.eye(2 * m, dtype=complex),
                        (energies.size, 2 * m, 2 * m)).copy()
    logs = np.zeros((energies.size, 2 * m))
    frames = []
    steps = len(blocks)
    for k in range(steps):
        if k % SWEEP_CHUNK == 0:
            # (K, SWEEP_CHUNK, 2m, 2m) at a time: memory stays O(K) however
            # long the orbit
            chunk = transfer_matrices(model, energies,
                                      blocks[k:k + SWEEP_CHUNK])
        A = chunk[:, k % SWEEP_CHUNK]
        if steps - k <= collect_last:
            frames.append(Q[:, :, :m].copy())
        Q, R = np.linalg.qr(np.linalg.solve(A, Q) if backward else A @ Q)
        d = np.abs(np.diagonal(R, axis1=1, axis2=2))
        logs += np.log(np.maximum(d, 1e-300))
    frames.append(Q[:, :, :m].copy())
    chi = np.sort(logs / steps, axis=1)[:, ::-1]
    return chi, np.stack(frames[-(collect_last + 1):])


def _forward_sweep(model: OperatorModel, energies: np.ndarray, blocks,
                   steps: int, collect_last: int):
    """QR dichotomy for K energies along the first `steps` orbit blocks.

    Returns per-step Lyapunov estimates (K, 2m), descending, and the
    leading-m frames (collect_last + 1, K, 2m, m) at the last
    collect_last + 1 orbit points reached, in orbit order.
    """
    return _qr_sweep(model, energies, blocks[:steps], collect_last, False)


def _backward_sweep(model: OperatorModel, energies: np.ndarray, blocks,
                    steps: int, collect_last: int):
    """Same dichotomy run backward over the last `steps` orbit blocks;
    leading columns align with the stable plane.

    The frames are returned in orbit order, the last one at the base
    point of blocks[-steps].
    """
    chi, frames = _qr_sweep(model, energies, blocks[::-1][:steps],
                            collect_last, True)
    return chi, frames[::-1]


def _max_angle(F1: np.ndarray, F2: np.ndarray) -> float:
    return float(np.max(subspace_angles(F1, F2)))


def _min_angle_between(F1: np.ndarray, F2: np.ndarray) -> float:
    return float(np.min(subspace_angles(F1, F2)))


def uh_test(model: OperatorModel, E: float, n_iter: int = DEFAULT_N_ITER,
            samples: int = DEFAULT_SAMPLES,
            gap_threshold: float = DEFAULT_GAP_THRESHOLD,
            theta0=None):
    """Dichotomy test at energy E: the one-energy case of uh_test_many.

    Returns (is_uh, SplittingEstimate).  Inconclusive runs are reported
    as is_uh=False with converged=False.
    """
    return uh_test_many(model, [E], n_iter, samples, gap_threshold, theta0)[0]


def uh_test_many(model: OperatorModel, energies, n_iter: int = DEFAULT_N_ITER,
                 samples: int = DEFAULT_SAMPLES,
                 gap_threshold: float = DEFAULT_GAP_THRESHOLD,
                 theta0=None):
    """Dichotomy test at each of several energies along one orbit.

    The potential blocks of the orbit segment are evaluated once and
    both sweeps advance all energies together; the invariance,
    Lagrangian and transversality checks run per energy.  Returns a
    list of (is_uh, SplittingEstimate), one per energy, in order.
    """
    if not model.base.invertible:
        raise UnsupportedDirection("uh_test needs backward iteration")
    if theta0 is None:
        theta0 = np.zeros(model.base.d)
    theta0 = np.atleast_1d(np.asarray(theta0, dtype=float))
    energies = np.atleast_1d(np.asarray(energies, dtype=float))
    m = model.m
    pts = model.base.orbit(theta0, samples)
    steps = n_iter + samples - 1
    # blocks[i] = f(T^(i - n_iter) theta0): the forward sweep walks
    # i < steps, the backward sweep i >= n_iter
    blocks = model.blocks(model.base.advance(theta0, -n_iter), n_iter + steps)
    chi_f, unstable = _forward_sweep(model, energies, blocks, steps,
                                     samples - 1)
    _, stable = _backward_sweep(model, energies, blocks, steps, samples - 1)
    # (K, samples - 1, 2m, 2m): the steps between consecutive samples
    sample_steps = transfer_matrices(model, energies,
                                     blocks[n_iter:n_iter + samples - 1])

    results = []
    for e, E in enumerate(energies.tolist()):
        Fu = list(unstable[:, e])
        Fs = list(stable[:, e])
        gap = float(chi_f[e, m - 1] - chi_f[e, m])
        converged = True
        # invariance along consecutive samples
        for k, A in enumerate(sample_steps[e]):
            if _max_angle(A @ Fu[k], Fu[k + 1]) > ANGLE_TOL:
                converged = False
            if _max_angle(A @ Fs[k], Fs[k + 1]) > ANGLE_TOL:
                converged = False
        # the fibers of a genuine splitting are Lagrangian
        if converged:
            for F in Fu + Fs:
                try:
                    LagrangianFrame(F, tol_symmetry=1e-6)
                except Exception:
                    converged = False
                    break
        transversal = all(
            _min_angle_between(Fu[k], Fs[k]) > ANGLE_TOL
            for k in range(samples))
        is_uh = bool(converged and transversal
                     and gap >= np.log(gap_threshold))
        results.append((is_uh, SplittingEstimate(
            theta_samples=pts, unstable=Fu, stable=Fs, gap=gap,
            converged=converged, model=model, E=E, n_iter=n_iter)))
    return results


def unstable_frame(model: OperatorModel, E: float, theta, n_iter: int) -> np.ndarray:
    """Unstable-plane frame at one base point via a forward sweep."""
    blocks = model.blocks(model.base.advance(theta, -n_iter), n_iter)
    _, frames = _forward_sweep(model, np.array([float(E)]), blocks, n_iter, 0)
    return frames[-1, 0]


@dataclass
class SectionDegree:
    r: np.ndarray  # integer winding per torus coordinate


def section_degree(splitting: SplittingEstimate, grid: int = 64,
                   n_iter: int | None = None, max_refine: int = 4) -> SectionDegree:
    """Winding of det W over the unstable section along coordinate loops."""
    model = splitting.model
    if model.base.kind != TORUS:
        raise UnsupportedBase("section degree requires a torus base")
    if n_iter is None:
        n_iter = splitting.n_iter
    d = model.base.d
    theta0 = splitting.theta_samples[0]
    r = np.zeros(d, dtype=int)
    for j in range(d):
        n_pts = grid
        for attempt in range(max_refine + 1):
            total, ok = _loop_winding(model, splitting.E, theta0, j, n_pts, n_iter)
            if ok:
                break
            n_pts *= 2
        else:
            raise RefineGrid(f"coordinate loop {j} unresolved at {n_pts} points")
        if abs(total - round(total)) > 1e-3:
            raise RefineGrid(f"winding {total} not integral on loop {j}")
        r[j] = int(round(total))
    return SectionDegree(r=r)


def _loop_winding(model, E, theta0, j, n_pts, n_iter):
    from .rotation import PhaseLedger
    phases = []
    for s in range(n_pts + 1):
        theta = np.array(theta0, dtype=float)
        theta[j] = np.mod(theta[j] + s / n_pts, 1.0)
        F = unstable_frame(model, E, theta, n_iter)
        W = frame_to_unitary(LagrangianFrame(F, tol_symmetry=1e-6))
        phases.append(float(np.angle(np.linalg.det(W)) / (2 * np.pi)))
    ledger = PhaseLedger(last_phase=np.mod(phases[0], 1.0))
    for ph in phases[1:]:
        delta = ledger.record(ph)
        if abs(delta) >= 0.25:
            return 0.0, False
    return ledger.accumulated, True


def contraction_fit(model: OperatorModel, E: float,
                    splitting: SplittingEstimate, n_max: int = 50):
    """Fit ||A_n v_s|| ~ c L^{-n} on the stable fiber; returns (c, L)."""
    theta = splitting.theta_samples[0]
    w = splitting.stable[0][:, 0]
    norms = []
    for A in transfer_matrices(model, E, model.blocks(theta, n_max)):
        w = A @ w
        norms.append(float(np.linalg.norm(w)))
    # roundoff re-injects the unstable direction once the stable part
    # bottoms out; fit only the initial decaying segment
    cut = max(int(np.argmin(norms)) + 1, 3)
    n = np.arange(1, cut + 1)
    slope, logc = np.polyfit(n, np.log(norms[:cut]), 1)
    return float(np.exp(logc)), float(np.exp(-slope))
