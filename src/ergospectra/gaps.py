"""Gap detection, label-group arithmetic, and the IDS/rotation identity.

A spectral gap shows up at finite size as a maximal energy interval on
which the IDS estimate is flat and the dichotomy test certifies uniform
hyperbolicity.  On a torus-rotation base the flat IDS value, scaled by
m, lies in the countable group Z^d alpha + Z; the label is the best
small-coefficient representation of that group element.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
import itertools

import numpy as np

from .errors import InvalidInput
from .model import (OperatorModel, count_below, ids as ids_scan,
                    restriction_eigenvalues)
from .rotation import rot_number
from .hyperbolicity import uh_test_many

FLAT_TOL = 2e-3
LABEL_TOL = 1e-2


@dataclass(frozen=True)
class LabelGroup:
    """The gap-label group: Z^d alpha + Z on a torus, or the integers."""

    kind: str = "torus"              # "torus" | "integers"
    alpha: tuple = ()
    k_max: int = 20

    def __post_init__(self):
        if self.kind not in ("torus", "integers"):
            raise InvalidInput(f"unknown label group kind {self.kind!r}")
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))
        if self.kind == "torus" and not self.alpha:
            raise InvalidInput("torus label group needs a frequency vector")

    def _candidates(self):
        if self.kind == "integers":
            yield (), 0.0
            return
        d = len(self.alpha)
        rng = range(-self.k_max, self.k_max + 1)
        for k in itertools.product(rng, repeat=d):
            yield k, float(np.dot(k, self.alpha))

    def best_label(self, x: float, tol: float = LABEL_TOL):
        """Best (k, j, distance) with |x - <k, alpha> - j| minimized.

        Among candidates within tol the smallest |k|_1 wins, breaking
        remaining ties by distance and then lexicographically.
        """
        scored = []
        for k, ka in self._candidates():
            j = int(round(x - ka))
            dist = abs(x - ka - j)
            scored.append((dist, sum(abs(i) for i in k), k, j))
        hits = [s for s in scored if s[0] < tol]
        if hits:
            dist, _, k, j = min(hits, key=lambda s: (s[1], s[0], s[2]))
        else:
            dist, _, k, j = min(scored, key=lambda s: (s[0], s[1], s[2]))
        return k, j, dist

    def distance(self, x: float) -> float:
        """Distance from x to the nearest group element (searched to k_max)."""
        return min(abs(x - ka - round(x - ka)) for _, ka in self._candidates())

    def reduce(self, x: float) -> float:
        return float(np.mod(x, 1.0)) if self.kind == "torus" else x


@dataclass
class GapRecord:
    """One detected spectral gap (or unbounded flat region)."""

    interval: tuple          # (E_lo, E_hi)
    ids_value: float
    interior: bool
    label: tuple | None = None        # (k, j) when matched
    label_distance: float | None = None
    rot_value: float | None = None
    rot_distance: float | None = None  # |m(1-ids) - rot| modulo the group
    degree: tuple | None = None

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.interval[0] + self.interval[1])


def _flat_runs(values: np.ndarray, tol: float):
    """Maximal index runs on which the value range stays below tol."""
    runs = []
    i = 0
    n = values.size
    while i < n:
        j = i
        lo = hi = values[i]
        while j + 1 < n:
            lo2, hi2 = min(lo, values[j + 1]), max(hi, values[j + 1])
            if hi2 - lo2 >= tol:
                break
            lo, hi = lo2, hi2
            j += 1
        if j > i:
            runs.append((i, j))
        i = j + 1 if j > i else i + 1
    return runs


def _refine_edge(model, e_out, e_in, n_iter, theta0, steps: int = 10):
    """Bisect the uh_test flag between non-gap and gap energies, all edges
    in lockstep.

    e_out and e_in are arrays of outer (expected non-UH) and inner (UH)
    energies, one pair per edge.  The outer energies are tested first:
    where one is UH the band lies within one grid step and the edge
    stays at its inner energy.  Every other edge is bisected for `steps`
    rounds, each round testing all midpoints in one batched call, so each
    edge visits the midpoints sequential bisection would.
    """
    e_out = np.array(e_out, dtype=float)
    e_in = np.array(e_in, dtype=float)
    if e_in.size == 0:
        return e_in
    outer_uh = [flag for flag, _ in
                uh_test_many(model, e_out, n_iter=n_iter, theta0=theta0)]
    pending = np.flatnonzero(~np.array(outer_uh))
    if pending.size == 0:
        return e_in
    for _ in range(steps):
        mid = 0.5 * (e_out[pending] + e_in[pending])
        flags = np.array([flag for flag, _ in
                          uh_test_many(model, mid, n_iter=n_iter,
                                       theta0=theta0)])
        e_in[pending[flags]] = mid[flags]
        e_out[pending[~flags]] = mid[~flags]
    return e_in


def detect_gaps(model: OperatorModel, E_range, resolution: int, N: int,
                theta0=None, n_iter: int = 2000, flat_tol: float = FLAT_TOL,
                refine_steps: int = 10):
    """Locate flat-IDS, UH-certified energy intervals.

    Returns GapRecords including the unbounded flat regions below and
    above the spectrum (interior=False) and interior gaps
    (interior=True), with edges sharpened by bisection on the
    dichotomy flag.  One restriction H^N at theta0 gives the IDS on the
    grid and at every gap midpoint, the values ids() would return.
    """
    if resolution < 50:
        raise InvalidInput("resolution must be at least 50 grid points")
    if theta0 is None:
        theta0 = np.zeros(model.base.d)
    E_lo, E_hi = float(E_range[0]), float(E_range[1])
    if not E_hi > E_lo:
        raise InvalidInput("empty energy range")
    grid = np.linspace(E_lo, E_hi, resolution)
    # the restriction ids() counts on at theta0
    ev = restriction_eigenvalues(model, np.mod(theta0, 1.0), N)
    rows = model.m * N
    vals = count_below(ev, grid) / rows
    runs = _flat_runs(vals, flat_tol)
    mids = [0.5 * (grid[i] + grid[j]) for i, j in runs]
    tested = uh_test_many(model, mids, n_iter=n_iter, theta0=theta0) \
        if runs else []
    runs = [run for run, (is_uh, _) in zip(runs, tested) if is_uh]
    # one edge below each run that does not start the grid, one above
    # each run that does not end it
    edges = [(i - 1, i, r, 0) for r, (i, _) in enumerate(runs) if i > 0] + \
        [(j + 1, j, r, 1) for r, (_, j) in enumerate(runs)
         if j < resolution - 1]
    bounds = [[grid[i], grid[j]] for i, j in runs]
    refined = _refine_edge(model, [grid[o] for o, _, _, _ in edges],
                           [grid[n] for _, n, _, _ in edges], n_iter, theta0,
                           refine_steps)
    for (_, _, r, side), e in zip(edges, refined):
        bounds[r][side] = e
    records = []
    for (i, j), (lo, hi) in zip(runs, bounds):
        value = float(count_below(ev, 0.5 * (lo + hi)) / rows)
        interior = bool(i > 0 and j < resolution - 1
                        and flat_tol < value < 1 - flat_tol)
        records.append(GapRecord(interval=(float(lo), float(hi)),
                                 ids_value=value, interior=interior))
    return records


def label_gap(record: GapRecord, group: LabelGroup, m: int,
              tol: float = LABEL_TOL) -> GapRecord:
    """Attach the best (k, j) label for m * ids_value; may stay unmatched."""
    k, j, dist = group.best_label(m * record.ids_value, tol=tol)
    if dist < tol:
        return replace(record, label=(k, j), label_distance=float(dist))
    return replace(record, label=None, label_distance=float(dist))


def verify_ids_rot(model: OperatorModel, E: float, N: int, group: LabelGroup,
                   theta0=None):
    """Check m(1 - N(E)) = rot(E) modulo the label group at resolution N.

    Returns (lhs, rhs, distance_mod_group), all in turns.
    """
    if theta0 is None:
        theta0 = np.zeros(model.base.d)
    lhs = model.m * (1.0 - float(ids_scan(model, theta0, N, [E])[0]))
    rhs, _ = rot_number(model, E, theta0, N=N)
    return lhs, rhs, group.distance(lhs - rhs)


def gap_records_csv(records, m: int, alpha_dim: int = 1) -> str:
    """CSV table of gap records (no header comment; the CLI adds one)."""
    k_cols = ",".join(f"k{i}" for i in range(alpha_dim))
    deg_cols = ",".join(f"degree{i}" for i in range(alpha_dim))
    lines = [f"E_lo,E_hi,interior,ids,m_ids,{k_cols},j,rot_turns,dist_mod_group,{deg_cols}"]
    for r in records:
        k = r.label[0] if r.label else ("",) * alpha_dim
        j = r.label[1] if r.label is not None else ""
        ks = ",".join(str(x) for x in k)
        deg = r.degree if r.degree else ("",) * alpha_dim
        degs = ",".join(str(x) for x in deg)
        rot = "" if r.rot_value is None else repr(float(r.rot_value))
        dist = "" if r.rot_distance is None else repr(float(r.rot_distance))
        lines.append(
            f"{r.interval[0]!r},{r.interval[1]!r},{int(r.interior)},"
            f"{r.ids_value!r},{m * r.ids_value!r},{ks},{j},{rot},{dist},{degs}")
    return "\n".join(lines) + "\n"
