import functools

import numpy as np
import pytest

from ergospectra import rotation
from ergospectra.errors import (InvalidInput, RefinementExhausted,
                                UnsupportedBase)
from ergospectra.cocycle import (LagrangianFrame, frame_to_unitary,
                                 transfer_product)
from ergospectra.model import OperatorModel, constant_model, free_model
from ergospectra.rotation import (HomotopyPath, PhaseLedger, bridge_terms,
                                  char_poly_identity, conjugation_shift,
                                  frame_after, omega_matrix, phase_curves,
                                  rot_number, rot_number_batch)

from conftest import random_model


class TestHomotopyPath:
    def test_endpoints(self, rng):
        model = random_model(rng, m=2)
        path = HomotopyPath(model, 0.4, [0.13])
        assert np.abs(path.evaluate(0.0) - np.eye(4)).max() < 1e-12
        A1 = transfer_product(model, 0.4, [0.13], 1)
        assert np.abs(path.evaluate(1.0) - A1).max() < 1e-9

    def test_two_step_extension(self, rng):
        model = random_model(rng, m=2)
        path = HomotopyPath(model, -0.6, [0.42])
        A2 = transfer_product(model, -0.6, [0.42], 2)
        assert np.abs(path.evaluate(2.0) - A2).max() < 1e-9
        # interior point sits between the unit products, continuous in t
        mid = path.evaluate(1.5)
        assert np.all(np.isfinite(mid))

    def test_negative_t_rejected(self, rng):
        path = HomotopyPath(random_model(rng, m=1), 0.0, [0.0])
        with pytest.raises(InvalidInput):
            path.evaluate(-0.5)

    def test_continuity_near_unit_time(self, rng):
        model = random_model(rng, m=2)
        path = HomotopyPath(model, 0.2, [0.3])
        # first-order modulus of continuity: the gap at eps shrinks in
        # proportion to a coarse finite-difference slope of the path
        slope = np.abs(path.evaluate(1.0) - path.evaluate(0.99)).max() / 0.01
        eps = 1e-6
        gap = np.abs(path.evaluate(1.0 - eps) - path.evaluate(1.0)).max()
        assert gap < 4.0 * slope * eps + 1e-12


class TestPhaseLedger:
    def test_accumulates_small_steps(self):
        ledger = PhaseLedger()
        for ph in np.linspace(0, 1.5, 61)[1:]:
            ledger.record(ph)
        assert ledger.accumulated == pytest.approx(1.5, abs=1e-12)
        assert ledger.consistent()

    def test_wraparound(self):
        ledger = PhaseLedger(last_phase=0.9)
        ledger.record(0.05)  # crosses the integer upward by 0.15
        assert ledger.accumulated == pytest.approx(0.15)


class TestRotNumber:
    def test_free_center(self):
        est, ledger = rot_number(free_model(), 0.0, N=1000)
        assert abs(est - 0.5) < 1e-2
        assert ledger.consistent()

    def test_free_large_E(self):
        est, _ = rot_number(free_model(), 50.0, N=1000)
        assert abs(est) < 1e-2

    def test_below_spectrum_full_turn(self):
        est, _ = rot_number(free_model(), -3.0, N=1000)
        assert abs(est - 1.0) < 1e-2

    def test_fine_subdivision_oracle(self, rng):
        # N=1 accumulated phase is substep-size independent once resolved
        model = random_model(rng, m=2)
        coarse, _ = rot_number(model, 0.8, N=1, substeps=16)
        fine, _ = rot_number(model, 0.8, N=1, substeps=4096)
        assert abs(coarse - fine) < 1e-6

    def test_substep_halving_cauchy(self, rng):
        model = random_model(rng, m=1)
        a, _ = rot_number(model, 0.3, N=20, substeps=256)
        b, _ = rot_number(model, 0.3, N=20, substeps=512)
        assert abs(a - b) * 20 < 1e-7

    def test_frame_independence(self):
        model = free_model()
        frames = [LagrangianFrame.standard(1).stack,
                  np.array([[1.0], [1.0]]),
                  np.array([[0.0], [1.0]])]
        for N in (10, 100):
            vals, _ = rot_number_batch(model, 0.7, [0.0], frames, N)
            spread = vals.max() - vals.min()
            assert N * spread <= 1 + 1e-3


class TestCharPoly:
    def test_single_site(self):
        model = constant_model(np.array([[1.3]]))
        # U_z(2) = z - b exactly, so the residual is at rounding level
        assert char_poly_identity(model, [0.0], 1, 2.0 + 0.5j) < 1e-12

    def test_free_three_sites(self):
        assert char_poly_identity(free_model(), [0.0], 3, 0.0) < 1e-10

    def test_random_block(self, rng):
        model = random_model(rng, m=2)
        z = complex(rng.normal(), rng.normal())
        assert char_poly_identity(model, [0.21], 6, z) < 1e-8


class TestPhaseCurves:
    def test_free_non_increasing(self):
        curves = phase_curves(free_model(), [0.0], 4, np.linspace(-3, 3, 121))
        assert np.all(np.diff(curves.phases[:, 0]) <= 1e-9)

    def test_crossings_count_eigenvalues(self):
        # tracking to t = 3 sees H^2 of the free Laplacian, whose
        # eigenvalues are -1 and 1
        curves = phase_curves(free_model(), [0.0], 3, np.linspace(-3, 3, 121))
        assert curves.integer_crossings(0) == 2

    def test_above_spectrum_no_integer_values(self):
        curves = phase_curves(free_model(), [0.0], 4, np.linspace(3.0, 3.5, 11))
        frac = np.abs(curves.phases - np.round(curves.phases))
        assert np.all(frac > 1e-6)

    def test_bad_grid(self):
        with pytest.raises(InvalidInput):
            phase_curves(free_model(), [0.0], 3, [1.0, 0.5])


class TestBridge:
    def test_between_clusters(self, rng):
        model = random_model(rng, m=2)
        from ergospectra.model import restriction_eigenvalues
        ev = restriction_eigenvalues(model, [0.0], 8)
        gaps = np.diff(ev)
        k = int(np.argmax(gaps))
        E = 0.5 * (ev[k] + ev[k + 1])
        ell, mx = bridge_terms(model, [0.0], E, 8)
        assert ell - 1e-6 <= mx <= ell + model.m + 1e-6


class TestDerivative:
    def test_dW_dE_matches_generator(self, rng):
        model = random_model(rng, m=2)
        E, n = 0.35, 8
        h = 1e-6
        from ergospectra.cocycle import frame_to_unitary

        def W_at(energy):
            F = frame_after(model, energy, [0.0], n, normalize=False)
            return frame_to_unitary(LagrangianFrame(F, tol_symmetry=1e-6))

        dW = (W_at(E + h) - W_at(E - h)) / (2 * h)
        W = W_at(E)
        Omega = omega_matrix(model, E, [0.0], n)
        pred = 1j * W @ Omega
        assert np.abs(dW - pred).max() < 1e-4 * max(1.0, np.abs(pred).max())
        # the generator is Hermitian negative semidefinite
        w = np.linalg.eigvalsh(Omega)
        assert np.all(w <= 1e-8)


class TestConjugationShift:
    def test_zero_r(self):
        shift = conjugation_shift(free_model(), 3.0, [0], N=300)
        assert min(shift, 1 - shift) < 1e-6

    def test_half_degree(self):
        model = free_model()
        alpha = model.base.alpha[0]
        shift = conjugation_shift(model, 3.0, [1], N=500)
        expect = np.mod(-alpha / 2, 1.0)
        assert abs(shift - expect) < 5e-3

    def test_requires_torus(self):
        from ergospectra.model import BaseDynamics, CAT, ConstantPotential, \
            OperatorModel
        model = OperatorModel(1, np.eye(1), ConstantPotential([[0.0]]),
                              BaseDynamics(CAT))
        with pytest.raises(UnsupportedBase):
            conjugation_shift(model, 3.0, [1, 0], N=10)


def _reference_samples(path, n, base, substeps, conjugator, events):
    """The per-sample acceptance loop that _certified_samples replaced.

    Kept as an oracle: it certifies one candidate time at a time and
    appends "halve" / "reanchor" to events when the step is halved or
    the frames are re-anchored by QR.
    """
    m = path.m
    coef = max(2.0 * m / np.pi, 1.0)
    ncoarse = 64
    coarse = np.linspace(0.0, 1.0, ncoarse + 1)
    Mc = rotation._step_mats(path, n, coarse, conjugator)
    d2 = np.diff(Mc, 2, axis=0)
    cell_curv = rotation.CURVATURE_SAFETY * ncoarse ** 2 * np.sqrt(
        np.sum(np.abs(d2) ** 2, axis=(1, 2)))

    def curvature(a, b):
        lo = max(int(a * ncoarse) - 1, 0)
        hi = min(int(np.ceil(b * ncoarse)), ncoarse - 2)
        return float(cell_curv[lo:hi + 1].max()) if hi >= lo else float(
            cell_curv.max())

    t0 = 0.0
    anchor = base
    M0 = rotation._step_mats(path, n, np.array([0.0]), conjugator)
    F0 = np.einsum("tij,bjk->tbik", M0, anchor)[0]
    s0 = np.linalg.svd(F0, compute_uv=False)
    h = 1.0 / substeps
    while t0 < 1.0:
        h = min(h, 1.0 - t0)
        if h <= rotation.MIN_INTERVAL:
            raise RefinementExhausted("step size collapsed")
        ts = np.unique(np.minimum(
            t0 + h * np.arange(1, rotation.BLOCK + 1), 1.0))
        M = rotation._step_mats(path, n, ts, conjugator)
        F = np.einsum("tij,bjk->tbik", M, anchor)
        s = np.linalg.svd(F, compute_uv=False)
        anorm = float(np.linalg.norm(anchor, axis=(1, 2)).max())
        accepted = 0
        prev_t, prev_F, prev_s = t0, F0, s0
        for i in range(ts.size):
            dt = ts[i] - prev_t
            chord = np.linalg.norm(F[i] - prev_F, axis=(1, 2)) / dt
            L = chord + dt * curvature(prev_t, ts[i]) * anorm
            smin0, smin1 = prev_s[..., -1], s[i][..., -1]
            sc = 0.5 * (smin0 + smin1 - L * dt)
            if np.any(sc <= 0.0):
                break
            bound = coef * (np.log(smin0 / sc) + np.log(smin1 / sc))
            if float(bound.max()) >= rotation.CERT_TURNS:
                break
            yield ts[i], F[i]
            accepted = i + 1
            prev_t, prev_F, prev_s = ts[i], F[i], s[i]
        if accepted == 0:
            events.append("halve")
            h *= 0.5
            continue
        t0, F0, s0 = prev_t, prev_F, prev_s
        sv = np.linalg.svd(F0, compute_uv=False)
        if float(np.min(sv[..., -1] / sv[..., 0])) < rotation.RENORM_GAMMA \
                and t0 < 1.0:
            events.append("reanchor")
            Q = rotation._normalize(F0)
            anchor = np.linalg.solve(M[accepted - 1][None], Q)
            F0 = Q
            s0 = np.linalg.svd(F0, compute_uv=False)
        if accepted == ts.size:
            h *= 2.0


def _reference_step_mats(path, n, ts, conjugator):
    """_step_mats with the conjugator inverted per path time."""
    M = path.step_matrices(n, ts).copy()
    if conjugator is not None:
        for i, t in enumerate(ts):
            M[i] = np.linalg.inv(conjugator(n + float(t))) @ M[i]
    return M


def _reference_anchor(model, E, theta0, N):
    """_anchor_eigenphases with one LagrangianFrame / frame_to_unitary /
    eigvals per sample, on the oracle's samples."""
    m = model.m
    path = rotation.HomotopyPath(model, E, theta0, N)
    G1 = path.G1()
    frame = LagrangianFrame.standard(m).stack
    branches = np.zeros(m)
    for n in range(N):
        base = (G1 @ frame)[None]
        for _, F in _reference_samples(path, n, base,
                                          rotation.START_SUBSTEPS, None, []):
            W = frame_to_unitary(LagrangianFrame(F[0], tol_symmetry=np.inf))
            branches, _ = rotation._match_phases(
                branches, rotation._eigenphases_mod(W))
        frame, _ = np.linalg.qr(F[0])
    return branches


def _recording(sampler, log):
    def wrapped(*args, **kwargs):
        for sample in sampler(*args, **kwargs):
            log.append(sample)
            yield sample
    return wrapped


def _conjugator(m, r, alpha):
    return lambda time: rotation._plane_rotation(
        m, -(np.pi / 2) * r * time * alpha)


def _ill_conditioned_model(rng, m, cond):
    """random_model with the singular values of C spread to exactly cond."""
    model = random_model(rng, m=m)
    U, _, Vh = np.linalg.svd(model.C)
    s = np.geomspace(1.0, cond, m)
    return OperatorModel(m, U @ np.diag(s) @ Vh, model.potential, model.base)


class TestCertifiedSampler:
    """The block-vectorised sampler against the per-sample oracle."""

    def _compare(self, monkeypatch, model, E, N, substeps=16,
                 conjugator=None, frames=None):
        m = model.m
        if frames is None:
            frames = LagrangianFrame.standard(m).stack[None]
        events, new, ref = [], [], []
        real = rotation._certified_samples
        oracle = functools.partial(_reference_samples, events=events)
        monkeypatch.setattr(rotation, "_certified_samples", _recording(real, new))
        acc, _, out = rotation.track_frames(model, E, [0.17], frames, N,
                                            conjugator=conjugator,
                                            substeps=substeps)
        monkeypatch.setattr(rotation, "_certified_samples",
                            _recording(oracle, ref))
        _, _, ref_out = rotation.track_frames(model, E, [0.17], frames, N,
                                              conjugator=conjugator,
                                              substeps=substeps)
        assert len(new) == len(ref)
        for (t, F), (rt, rF) in zip(new, ref):
            assert t == rt
            assert np.array_equal(F, rF)
        assert np.array_equal(out, ref_out)
        # the old per-sample running sum of nearest-lift steps
        ref_acc = np.zeros(frames.shape[0])
        last = rotation._det_phase(frames, m)
        for _, F in ref:
            ph = rotation._det_phase(F, m)
            ref_acc += rotation._wrap(ph - last)
            last = ph
        assert np.array_equal(acc, ref_acc)
        return events

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_per_sample_loop(self, monkeypatch, rng, m):
        model = random_model(rng, m=m, cond_max=4.0)
        frames = np.array([LagrangianFrame.standard(m).stack,
                           np.vstack([np.eye(m), np.eye(m)])])
        self._compare(monkeypatch, model, 0.4, 3, frames=frames)

    @pytest.mark.parametrize("m", [1, 2])
    def test_conjugated_path(self, monkeypatch, rng, m):
        model = random_model(rng, m=m, cond_max=4.0)
        conj = _conjugator(m, 1.0, model.base.alpha[0])
        self._compare(monkeypatch, model, 0.9, 3, conjugator=conj)

    def test_qr_reanchor(self, monkeypatch, rng):
        model = _ill_conditioned_model(rng, 2, 50.0)
        events = self._compare(monkeypatch, model, 0.9, 1)
        assert "reanchor" in events

    def test_step_halving(self, monkeypatch, rng):
        model = random_model(rng, m=2, cond_max=4.0)
        events = self._compare(monkeypatch, model, -0.5, 2, substeps=1)
        assert "halve" in events

    def test_certificate_never_holds(self, monkeypatch, rng):
        monkeypatch.setattr(rotation, "CERT_TURNS", -np.inf)
        with pytest.raises(RefinementExhausted):
            rot_number(random_model(rng, m=2), 0.4, N=1)


class TestAnchorEigenphases:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_per_sample_unitary(self, rng, m):
        model = random_model(rng, m=m, cond_max=4.0)
        branches = rotation._anchor_eigenphases(model, 0.2, [0.3], 3)
        assert np.array_equal(branches, _reference_anchor(model, 0.2, [0.3], 3))

    def test_rejections_flagged_per_frame(self):
        good = LagrangianFrame.standard(1).stack
        rank_deficient = np.zeros((2, 1), dtype=complex)
        singular_den = np.array([[1.0], [-1j]])  # X - iY = 0
        _, status = rotation._unitary_eigenphases(
            np.array([good, rank_deficient, singular_den]))
        assert list(status) == [0, rotation.RANK_DEFICIENT,
                                rotation.X_MINUS_IY_SINGULAR]


class TestConjugatedStepMatrices:
    @pytest.mark.parametrize("m", [1, 2])
    def test_shift_matches_per_time_inverse(self, monkeypatch, rng, m):
        model = random_model(rng, m=m, cond_max=4.0)
        new = conjugation_shift(model, 0.9, [1], N=10)
        monkeypatch.setattr(rotation, "_step_mats", _reference_step_mats)
        old = conjugation_shift(model, 0.9, [1], N=10)
        assert abs(rotation._wrap(new - old)) < 1e-12


class TestDetPhase:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_independent_of_stack_size(self, rng, m):
        # past 2**14 frames NumPy may compute a product in place in a
        # temporary; the phases must not depend on how frames are stacked
        F = (rng.standard_normal((20000, 2 * m, m))
             + 1j * rng.standard_normal((20000, 2 * m, m)))
        one_by_one = [rotation._det_phase(F[i:i + 1], m)
                      for i in range(len(F))]
        assert np.array_equal(rotation._det_phase(F, m),
                              np.concatenate(one_by_one))
