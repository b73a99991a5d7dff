"""The three benchmark workloads.

A workload's constructor is its set-up: it builds the inputs from the
seed, builds the models and warms up the code paths it will time.
run() is one round, the timed section; it returns the outputs that
check() then tests against computations made apart from the program.
check() returns (attempted, failures, problems): attempted counts
operations, failures describes each operation that failed, and
problems lists every check that did not hold on the operations that
did not fail.

Random models are drawn as a seeded perturbation of fixed reference
models, so that every seed asks for about the same amount of work and
the run-to-run spread of the timings stays small.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

# Timed calls go through the module attributes, where the tracer
# installs its wrappers.
from ergospectra import cli, gaps, rotation
from ergospectra.duality import TrigPolynomial, build_dual
from ergospectra.errors import ErgospectraError
from ergospectra.hyperbolicity import uh_test
from ergospectra.model import (OperatorModel, TrigBlockPotential,
                               restriction_eigenvalues, torus_rotation)

from perfbench import checks
from perfbench.checks import BlockSpec, GapOutcome

REFERENCE_SEED = 2503_19845
PERTURBATION = 0.02


def block_spec(m: int, cond: float, rng: np.random.Generator) -> BlockSpec:
    """A reference block model of size m, perturbed by rng.

    C has singular values spread geometrically over [1, cond], so it is
    not unitary for cond > 1 and the GL path of C is not trivial.
    """
    ref = np.random.default_rng([REFERENCE_SEED, m])

    def cgauss(g):
        return g.normal(size=(m, m)) + 1j * g.normal(size=(m, m))

    def draw(shape_fn):
        return shape_fn(ref) + PERTURBATION * shape_fn(rng)

    U, _ = np.linalg.qr(draw(cgauss))
    V, _ = np.linalg.qr(draw(cgauss))
    C = U @ np.diag(np.geomspace(1.0, cond, m)) @ V.conj().T
    A = draw(cgauss)
    F0 = (A + A.conj().T) / 2
    F1 = draw(cgauss) / 2
    alpha = float(ref.uniform(0.2, 0.8) + PERTURBATION * rng.uniform(-1, 1))
    theta0 = float(ref.random() + PERTURBATION * rng.uniform(-1, 1)) % 1.0
    return BlockSpec(C=C, F0=F0, F1=F1, alpha=alpha, theta0=theta0)


def build_model(spec: BlockSpec) -> OperatorModel:
    potential = TrigBlockPotential(spec.m, {(0,): spec.F0, (1,): spec.F1})
    return OperatorModel(spec.m, spec.C, potential, torus_rotation([spec.alpha]))


class GapLabelling:
    """The README gap example: detect, label and verify gaps of a block dual.

    The block dual of v = (1, 1, 0, 1, 1) at the inverse golden mean has
    m = 2.  Detection runs at resolution 200 with N = 800 over the
    spectral hull; the seed picks the energies inside the two widest
    sound gaps at which verify_ids_rot runs, and the base point of the
    scalar chain the checks count on.  Operation: one interior gap
    record.  A record whose interval overlaps another record's is a
    failed operation (a fault of gaps._refine_edge); the detection does
    not depend on the seed, so every run fails the same records.
    """

    V = (1.0, 1.0, 0.0, 1.0, 1.0)
    ALPHA = checks.GOLDEN
    RESOLUTION = 200
    N = 800
    N_ITER = 300
    N_VERIFY = 400
    VERIFIED = 2
    K_MAX = 20
    # Reference scalar chain: L sites, and the finite-size tolerance of
    # the IDS comparison.  Each restriction may hold a boundary
    # eigenvalue in the gap at each of its ends: 2/L for the chain and
    # 2/N for the dual's m*N eigenvalues, m boundary modes per end.
    L = 4000
    IDS_TOL = 2 / L + 2 / N

    def __init__(self, seed: int, workers: int, scratch: Path):
        self.model = build_dual(TrigPolynomial(self.V, self.ALPHA))
        ev = restriction_eigenvalues(self.model, [0.0], 300)
        self.hull = (float(ev[0]) - 0.5, float(ev[-1]) + 0.5)
        self.group = gaps.LabelGroup("torus", (self.ALPHA,), k_max=self.K_MAX)
        rng = np.random.default_rng(seed)
        self.verify_at = rng.uniform(0.25, 0.75, self.VERIFIED)
        self.chain_theta = float(rng.random())
        self._chain = None
        uh_test(self.model, 0.0, n_iter=10)
        rotation.rot_number(self.model, 0.0, N=2)

    def run(self):
        records = gaps.detect_gaps(self.model, self.hull, self.RESOLUTION,
                                   self.N, n_iter=self.N_ITER)
        interior = [gaps.label_gap(r, self.group, self.model.m)
                    for r in records if r.interior]
        bad = checks.overlapping([r.interval for r in interior])
        sound = sorted((i for i, b in enumerate(bad) if not b),
                       key=lambda i: interior[i].interval[0]
                       - interior[i].interval[1])
        verified = {}
        for i, u in zip(sound, self.verify_at):
            lo, hi = interior[i].interval
            E = lo + u * (hi - lo)
            lhs, rot, _ = gaps.verify_ids_rot(self.model, E, self.N_VERIFY,
                                              self.group)
            verified[i] = (E, lhs, rot)
        return [GapOutcome(interval=r.interval, ids_value=r.ids_value,
                           label=r.label, verify=verified.get(i))
                for i, r in enumerate(interior)]

    def reference_ids(self, E: float) -> float:
        if self._chain is None:
            self._chain = checks.scalar_chain_eigenvalues(
                self.V, self.ALPHA, self.chain_theta, self.L)
        return np.searchsorted(self._chain, E, side="right") / self.L

    def check(self, outcomes):
        bad = checks.overlapping([g.interval for g in outcomes])
        sound = [g for g, b in zip(outcomes, bad) if not b]
        problems = checks.gap_problems(sound, self.model.m, self.ALPHA,
                                       self.K_MAX, self.reference_ids,
                                       self.IDS_TOL)
        verified = sum(g.verify is not None for g in sound)
        if verified != self.VERIFIED:
            problems.append(f"{verified} gaps verified, expected "
                            f"{self.VERIFIED}")
        failures = [f"gap ({g.interval[0]:.4f}, {g.interval[1]:.4f}) overlaps "
                    "another gap record" for g, b in zip(outcomes, bad) if b]
        return len(outcomes), failures, problems


class RotationScan:
    """The CLI `rot` subcommand on an m = 2 trig_blocks model.

    C has condition number 3.  The grid has 6 energies across the
    spectrum of H^(N-1) plus a margin of 0.5 on each side, at N = 120,
    run through ergospectra.cli.main with a process pool of `workers`.
    Operation: one energy.
    """

    M = 2
    COND = 3.0
    N = 120
    POINTS = 6
    MARGIN = 0.5

    def __init__(self, seed: int, workers: int, scratch: Path):
        self.spec = block_spec(self.M, self.COND, np.random.default_rng(seed))
        ev = restriction_eigenvalues(build_model(self.spec),
                                     [self.spec.theta0], self.N - 1)
        self.workers = workers
        self.out = scratch / "rot"
        self.config = scratch / "rot.json"
        cfg = self._config(float(ev[0]) - self.MARGIN,
                           float(ev[-1]) + self.MARGIN, self.POINTS, self.N)
        self.config.write_text(json.dumps(cfg))
        warm = scratch / "warm.json"
        warm.write_text(json.dumps(self._config(0.0, 1.0, 2, 2)))
        if cli.main(["rot", "--config", str(warm), "--out",
                     str(scratch / "warm"), "--workers", "1"]) != 0:
            raise RuntimeError("warm-up rot scan failed")
        self._eigenvalues = None

    def _config(self, E_min, E_max, points, N) -> dict:
        s = self.spec

        def mat(a):
            return [[[z.real, z.imag] for z in row] for row in a]

        return {
            "m": s.m,
            "C": mat(s.C),
            "potential": {"type": "trig_blocks",
                          "modes": [{"k": [0], "block": mat(s.F0)},
                                    {"k": [1], "block": mat(s.F1)}]},
            "base": {"type": "torus", "alpha": [s.alpha]},
            "theta0": [s.theta0],
            "scan": {"E_min": E_min, "E_max": E_max, "points": points,
                     "N": N},
            "seed": 0,
        }

    def run(self):
        code = cli.main(["rot", "--config", str(self.config), "--out",
                         str(self.out), "--workers", str(self.workers)])
        if code != 0:
            return code, []
        with open(self.out / "rot.csv", newline="") as fh:
            rows = [r for r in csv.reader(fh) if not r[0].startswith("#")]
        return code, [(float(E), float(rot)) for E, rot, _ in rows[1:]]

    def check(self, outputs):
        code, rows = outputs
        if code != 0:
            return self.POINTS, [f"rot command exited with {code}"] * \
                self.POINTS, []
        if self._eigenvalues is None:
            self._eigenvalues = checks.restriction_eigenvalues(self.spec,
                                                               self.N - 1)
        energies, rots = zip(*rows)
        problems = checks.rotation_scan_problems(
            energies, rots, self._eigenvalues, self.M, self.N)
        if len(rows) != self.POINTS:
            problems.append(f"{len(rows)} rows, expected {self.POINTS}")
        return self.POINTS, [], problems


class PhasePortrait:
    """phase_curves for two models each of m = 1, 2, 3 at short orbits.

    Each grid spans the spectrum of H^N plus a margin of 0.5; C has
    condition number 3.  Operation: one phase_curves call.
    """

    MODELS = ((1, 6, 10), (2, 3, 10), (3, 2, 10)) * 2     # (m, N, energies)
    COND = 3.0
    MARGIN = 0.5

    def __init__(self, seed: int, workers: int, scratch: Path):
        rng = np.random.default_rng(seed)
        self.cases = []
        for m, N, points in self.MODELS:
            spec = block_spec(m, self.COND, rng)
            model = build_model(spec)
            ev = restriction_eigenvalues(model, [spec.theta0], N)
            grid = np.linspace(ev[0] - self.MARGIN, ev[-1] + self.MARGIN,
                               points)
            self.cases.append((spec, model, N, grid))
        spec, model, N, grid = self.cases[-1]
        rotation.phase_curves(model, [spec.theta0], 1, grid[:2])
        self._eigenvalues = None

    def run(self):
        out = []
        for spec, model, N, grid in self.cases:
            try:
                out.append(rotation.phase_curves(model, [spec.theta0], N,
                                                 grid).phases)
            except ErgospectraError as exc:  # a failed operation
                out.append(exc)
        return out

    def check(self, outputs):
        if self._eigenvalues is None:
            self._eigenvalues = [checks.restriction_eigenvalues(spec, N - 1)
                                 for spec, _, N, _ in self.cases]
        failures, problems = [], []
        for (spec, _, N, grid), ev, phases in zip(self.cases,
                                                  self._eigenvalues, outputs):
            if isinstance(phases, Exception):
                failures.append(f"phase_curves m={spec.m}: {phases!r}")
            else:
                problems += checks.phase_curve_problems(grid, phases, ev,
                                                        spec.m, N)
        return len(self.cases), failures, problems


WORKLOADS = {"gap_labelling": GapLabelling, "rotation_scan": RotationScan,
             "phase_portrait": PhasePortrait}
