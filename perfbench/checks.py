"""Reference computations and output checks for the benchmark workloads.

Nothing here calls ergospectra.  Each check either recomputes what it
compares against from the raw model data (the blocks C, F_0, F_1, the
frequency and the base point) or tests a property the paper's method
must have.  Every check returns a list of problems; an empty list means
the outputs passed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh, eigvalsh_tridiagonal

GOLDEN = (5 ** 0.5 - 1) / 2

# An eigenvalue within this distance of E is counted on both sides: the
# bridge is then accepted if it holds for either count.
COUNT_SLACK = 1e-9
# Rounding slack on N * rot and on eigenphase sums (turns).
PHASE_SLACK = 1e-6
# Branches of W's eigenphases must be non-increasing in E within this.
MONOTONE_TOL = 1e-9
# Gap labels: distance of m * IDS to Z alpha + Z, as in ergospectra.gaps.
LABEL_TOL = 1e-2
# |m(1 - IDS) - rot| modulo Z alpha + Z, as in acceptance criterion 04.
IDS_ROT_TOL = 5e-3


@dataclass(frozen=True)
class BlockSpec:
    """Raw data of a block operator on l2(Z, C^m) over a circle rotation.

    f(theta) = F0 + F1 e^{2 pi i theta} + F1* e^{-2 pi i theta}, with F0
    Hermitian, and B(n) = f(theta0 + (n - 1) alpha).
    """

    C: np.ndarray
    F0: np.ndarray
    F1: np.ndarray
    alpha: float
    theta0: float

    @property
    def m(self) -> int:
        return self.C.shape[0]

    def f(self, theta: float) -> np.ndarray:
        e = np.exp(2j * np.pi * theta)
        return self.F0 + self.F1 * e + self.F1.conj().T * np.conj(e)


def restriction_eigenvalues(spec: BlockSpec, n: int) -> np.ndarray:
    """Eigenvalues of H^n, assembled densely in the natural site order.

    (H u)_k = C* u_{k-1} + B(k) u_k + C u_{k+1} for k = 1..n, with the
    boundary terms dropped.
    """
    m = spec.m
    H = np.zeros((n * m, n * m), dtype=complex)
    for k in range(n):
        s = slice(k * m, (k + 1) * m)
        H[s, s] = spec.f(np.mod(spec.theta0 + k * spec.alpha, 1.0))
        if k + 1 < n:
            t = slice((k + 1) * m, (k + 2) * m)
            H[s, t] = spec.C
            H[t, s] = spec.C.conj().T
    return eigvalsh(H)


def count_range(eigenvalues: np.ndarray, E: float) -> tuple[int, int]:
    """Smallest and largest plausible count of eigenvalues at most E."""
    lo = int(np.searchsorted(eigenvalues, E - COUNT_SLACK, side="right"))
    hi = int(np.searchsorted(eigenvalues, E + COUNT_SLACK, side="right"))
    return lo, hi


def bridge_problems(total_phase, energies, eigenvalues, m: int, n: int,
                    what: str) -> list[str]:
    """Eigenvalue-count bridge: ell <= (phase after n steps) <= ell + m.

    ell = m(n - 1) - #{eigenvalues of H^{n-1} at most E}; eigenvalues
    holds the spectrum of H^{n-1}.
    """
    problems = []
    for E, phase in zip(energies, total_phase):
        lo, hi = count_range(eigenvalues, float(E))
        ok = any(m * (n - 1) - c - PHASE_SLACK <= phase
                 <= m * (n - 1) - c + m + PHASE_SLACK for c in (lo, hi))
        if not ok:
            ell = m * (n - 1) - lo
            problems.append(f"{what}: phase {phase:.6f} at E={E:.6f} outside "
                            f"the bridge [{ell}, {ell + m}]")
    return problems


def rotation_scan_problems(energies, rots, eigenvalues, m: int,
                           N: int) -> list[str]:
    """Checks on a rotation-number scan at resolution N.

    N * rot obeys the bridge at every energy and is non-increasing
    across the (ascending) grid.
    """
    phase = N * np.asarray(rots, dtype=float)
    problems = bridge_problems(phase, energies, eigenvalues, m, N,
                               "rotation scan")
    rise = float(np.max(np.diff(phase), initial=0.0))
    if rise > PHASE_SLACK:
        problems.append(f"rotation scan: N*rot increases by {rise:.3e} "
                        "between adjacent energies")
    return problems


def phase_curve_problems(energies, phases, eigenvalues, m: int,
                         N: int) -> list[str]:
    """Checks on eigenphase branches (len(energies), m) at resolution N.

    Every branch is non-increasing in E, and the branch sum, the det-W
    phase, obeys the bridge at every grid energy.
    """
    phases = np.asarray(phases, dtype=float)
    problems = []
    rise = float(np.max(np.diff(phases, axis=0), initial=0.0))
    if rise > MONOTONE_TOL:
        problems.append(f"phase curves: a branch increases by {rise:.3e}")
    problems += bridge_problems(phases.sum(axis=1), energies, eigenvalues,
                                m, N, "phase curves")
    return problems


def scalar_chain_eigenvalues(coeffs, alpha: float, theta0: float,
                             L: int) -> np.ndarray:
    """Eigenvalues of u_{n-1} + u_{n+1} + v(theta0 + n alpha) u_n on L sites.

    coeffs = (v_{-d}, ..., v_d) of the real trigonometric polynomial v.
    The fraction of them at most E is the chain's IDS estimate at E.
    """
    d = len(coeffs) // 2
    x = np.mod(theta0 + np.arange(L) * alpha, 1.0)
    v = np.real(sum(c * np.exp(2j * np.pi * (k - d) * x)
                    for k, c in enumerate(coeffs)))
    return eigvalsh_tridiagonal(v, np.ones(L - 1))


def group_distance(x: float, alpha: float, k_max: int) -> float:
    """Distance from x to {k alpha + j : |k| <= k_max, j integer}."""
    ka = np.arange(-k_max, k_max + 1) * alpha
    return float(np.min(np.abs(x - ka - np.round(x - ka))))


def overlapping(intervals) -> list[bool]:
    """Flag each interval that overlaps another one in the list."""
    flags = [False] * len(intervals)
    for i, (a_lo, a_hi) in enumerate(intervals):
        for j, (b_lo, b_hi) in enumerate(intervals):
            if i != j and a_lo < b_hi and b_lo < a_hi:
                flags[i] = True
    return flags


@dataclass(frozen=True)
class GapOutcome:
    """What the gap-labelling workload reports for one interior gap."""

    interval: tuple
    ids_value: float
    label: tuple | None            # (k, j): m * ids ~ k alpha + j
    verify: tuple | None = None    # (E, m(1 - IDS(E)), rot(E))


def gap_problems(gaps: list[GapOutcome], m: int, alpha: float, k_max: int,
                 reference_ids, ids_tol: float) -> list[str]:
    """Checks on the gap records that do not overlap another record.

    reference_ids(E) is an IDS computed apart from the program; it must
    match the reported IDS at each gap midpoint within ids_tol and the
    reported m(1 - IDS) at each verified energy within m * ids_tol.
    """
    problems = []
    labels = [g.label for g in gaps]
    if len(set(labels)) != len(labels):
        problems.append(f"gap labels are not distinct: {labels}")
    for g in gaps:
        where = f"gap ({g.interval[0]:.4f}, {g.interval[1]:.4f})"
        mid = 0.5 * (g.interval[0] + g.interval[1])
        ref = float(reference_ids(mid))
        if abs(ref - g.ids_value) > ids_tol:
            problems.append(f"{where}: IDS {g.ids_value:.6f} but the scalar "
                            f"chain counts {ref:.6f}")
        x = m * g.ids_value
        dist = group_distance(x, alpha, k_max)
        if dist >= LABEL_TOL:
            problems.append(f"{where}: m*IDS={x:.6f} is {dist:.2e} from the "
                            "label group")
        if g.label is None:
            problems.append(f"{where}: no label")
        else:
            (k,), j = g.label
            if abs(x - k * alpha - j) >= LABEL_TOL:
                problems.append(f"{where}: label {g.label} is "
                                f"{abs(x - k * alpha - j):.2e} from m*IDS")
        if g.verify is not None:
            E, lhs, rot = g.verify
            ref_lhs = m * (1.0 - float(reference_ids(E)))
            if abs(lhs - ref_lhs) > m * ids_tol:
                problems.append(f"{where}: m(1-IDS)={lhs:.6f} at E={E:.6f} "
                                f"but the scalar chain gives {ref_lhs:.6f}")
            dist = group_distance(lhs - rot, alpha, k_max)
            if dist >= IDS_ROT_TOL:
                problems.append(f"{where}: |m(1-IDS) - rot| = {dist:.2e} "
                                "modulo the label group")
    return problems
