import numpy as np
import pytest

from ergospectra.errors import (InvalidInput, UnsupportedBase,
                               UnsupportedDirection)
from scipy.linalg import subspace_angles

from ergospectra import hyperbolicity
from ergospectra.hyperbolicity import (_backward_sweep, _forward_sweep,
                                       contraction_fit, section_degree,
                                       uh_test, uh_test_many, unstable_frame)
from ergospectra.model import (BaseDynamics, CAT, DOUBLING, ConstantPotential,
                               OperatorModel, free_model,
                               restriction_eigenvalues)
from ergospectra.cocycle import LagrangianFrame, transfer_step

from conftest import random_model


class TestUhTest:
    def test_free_outside_spectrum(self):
        is_uh, splitting = uh_test(free_model(), 3.0, n_iter=400)
        assert is_uh
        assert splitting.converged
        assert splitting.gap >= 0.01

    def test_free_inside_spectrum(self):
        is_uh, _ = uh_test(free_model(), 0.0, n_iter=400)
        assert not is_uh

    def test_splitting_invariance_and_transversality(self):
        from scipy.linalg import subspace_angles
        model = free_model()
        is_uh, s = uh_test(model, 2.5, n_iter=400)
        assert is_uh
        for k in range(len(s.unstable) - 1):
            _, A = transfer_step(model, 2.5, s.theta_samples[k])
            assert np.max(subspace_angles(A @ s.unstable[k],
                                          s.unstable[k + 1])) < 1e-6
        for Fu, Fs in zip(s.unstable, s.stable):
            assert np.min(subspace_angles(Fu, Fs)) > 1e-6

    def test_fibers_are_lagrangian(self):
        _, s = uh_test(free_model(), 3.0, n_iter=400)
        for F in s.unstable + s.stable:
            LagrangianFrame(F, tol_symmetry=1e-6)

    def test_non_lagrangian_fiber_not_uh(self, monkeypatch):
        # multiplying the bottom row of a real 2x1 frame by i breaks
        # X*Y = Y*X, so the real check rejects every fiber
        real = hyperbolicity.LagrangianFrame
        monkeypatch.setattr(hyperbolicity, "LagrangianFrame",
                            lambda F, **kw: real(F * np.array([[1], [1j]]),
                                                 **kw))
        is_uh, splitting = uh_test(free_model(), 3.0, n_iter=400)
        assert not is_uh and not splitting.converged

    def test_other_errors_in_lagrangian_check_propagate(self, monkeypatch):
        def broken(F, **kw):
            raise RuntimeError("not a Lagrangian-check failure")

        monkeypatch.setattr(hyperbolicity, "LagrangianFrame", broken)
        with pytest.raises(RuntimeError):
            uh_test(free_model(), 3.0, n_iter=400)

    def test_doubling_rejected(self):
        model = OperatorModel(1, np.eye(1), ConstantPotential([[0.0]]),
                              BaseDynamics(DOUBLING))
        with pytest.raises(UnsupportedDirection):
            uh_test(model, 3.0)

    def test_cat_map_base(self):
        model = OperatorModel(1, np.eye(1), ConstantPotential([[0.0]]),
                              BaseDynamics(CAT))
        is_uh, _ = uh_test(model, 3.0, n_iter=200)
        assert is_uh

    def test_no_iterations_rejected(self):
        with pytest.raises(InvalidInput):
            uh_test(free_model(), 3.0, n_iter=0)

    @pytest.mark.parametrize("samples", [0, 1])
    def test_too_few_samples_rejected(self, samples):
        # with fewer than two samples no invariance check could run
        with pytest.raises(InvalidInput):
            uh_test(free_model(), 3.0, n_iter=50, samples=samples)

    @pytest.mark.parametrize("E", [np.nan, np.inf])
    def test_non_finite_energy_rejected(self, E):
        with pytest.raises(InvalidInput):
            uh_test_many(free_model(), [3.0, E], n_iter=50)

    def test_angles_match_scipy(self, rng):
        # the stacked principal angles against scipy's, on converged and
        # on unconverged (short-sweep) frames of the m = 1, 2, 3 models
        for m in (1, 2, 3):
            model = random_model(rng, m=m, cond_max=5.0)
            energies = np.linspace(-6.0, 6.0, 13)
            for steps in (3, 60):
                blocks = model.blocks([0.2], steps)
                _, Fu = _forward_sweep(model, energies, blocks, steps, 1)
                _, Fs = _backward_sweep(model, energies, blocks, steps, 1)
                sines = np.sin(hyperbolicity._principal_angles(Fu, Fs))
                for k in range(2):
                    for e in range(energies.size):
                        ref = np.sin(subspace_angles(Fu[k, e], Fs[k, e]))
                        assert abs(sines[k, e, 0] - ref.max()) < 1e-12
                        assert abs(sines[k, e, 1] - ref.min()) < 1e-12


def band_and_gap_energies(model):
    """Energies in bands (eigenvalues of H^200) and in gaps (the middle of
    the widest eigenvalue spacing, and above the spectrum)."""
    ev = restriction_eigenvalues(model, [0.0], 200)
    widest = int(np.argmax(np.diff(ev)))
    return np.array([ev[len(ev) // 3], ev[2 * len(ev) // 3],
                     0.5 * (ev[widest] + ev[widest + 1]), ev[-1] + 1.0])


def reference_sweep(model, E, points, backward, collect_last):
    """Per-step QR dichotomy through transfer_step, one energy at a time."""
    m = model.m
    Q = np.eye(2 * m, dtype=complex)
    logs = np.zeros(2 * m)
    frames = []
    order = points[::-1] if backward else points
    for k, p in enumerate(order):
        if len(order) - k <= collect_last:
            frames.append(Q[:, :m].copy())
        _, A = transfer_step(model, E, p)
        Q, R = np.linalg.qr(np.linalg.solve(A, Q) if backward else A @ Q)
        logs += np.log(np.abs(np.diag(R)))
    frames.append(Q[:, :m].copy())
    return np.sort(logs / len(order))[::-1], frames[::-1] if backward else frames


class TestBatchedSweep:
    STEPS = 60
    COLLECT = 2

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("backward", [False, True])
    def test_matches_per_step_reference(self, rng, m, backward):
        model = random_model(rng, m=m)
        energies = band_and_gap_energies(model)
        points = model.base.orbit([0.37], self.STEPS)
        blocks = model.blocks([0.37], self.STEPS)
        sweep = _backward_sweep if backward else _forward_sweep
        chi, frames = sweep(model, energies, blocks, self.STEPS, self.COLLECT)
        assert frames.shape == (self.COLLECT + 1, energies.size, 2 * m, m)
        for e, E in enumerate(energies):
            ref_chi, ref_frames = reference_sweep(model, E, points, backward,
                                                  self.COLLECT)
            assert np.abs(chi[e] - ref_chi).max() < 1e-10
            for F, G in zip(frames[:, e], ref_frames):
                assert np.max(subspace_angles(F, G)) < 1e-8

    def test_many_equals_single_calls(self, rng):
        model = random_model(rng, m=2)
        energies = np.concatenate([band_and_gap_energies(model),
                                   np.linspace(-6.0, 6.0, 8)])
        assert energies.size == 12
        many = uh_test_many(model, energies, n_iter=150, theta0=[0.1])
        for E, (flag, s) in zip(energies, many):
            single_flag, single = uh_test(model, E, n_iter=150, theta0=[0.1])
            assert flag == single_flag
            assert s.converged == single.converged
            assert s.gap == single.gap
        assert any(flag for flag, _ in many)
        assert not all(flag for flag, _ in many)


class TestContraction:
    def test_stable_decay(self):
        model = free_model()
        _, s = uh_test(model, 3.0, n_iter=400)
        c, L = contraction_fit(model, 3.0, s)
        assert L > 1.0
        # the free transfer matrix at E=3 contracts by (3+sqrt5)/2 per step
        assert L == pytest.approx((3 + np.sqrt(5)) / 2, rel=1e-2)

    def test_fit_ignores_last_digit_rounding(self, rng):
        # moving the base point by one ulp changes only the rounding of
        # the orbit; the fit window ends before the roundoff floor
        for _ in range(4):
            model = random_model(rng, m=3)
            theta = float(rng.random())
            fits = []
            for t in (theta, np.nextafter(theta, 1.0)):
                _, s = uh_test(model, 6.0, n_iter=200, theta0=[t])
                fits.append(np.array(contraction_fit(model, 6.0, s)))
            assert np.all(np.abs(fits[1] - fits[0]) <= 1e-10 * fits[0])


class TestSectionDegree:
    def test_constant_cocycle_zero(self):
        _, s = uh_test(free_model(), 3.0, n_iter=200)
        deg = section_degree(s, grid=16, n_iter=200)
        assert list(deg.r) == [0]

    def test_grid_refinement_invariant(self):
        _, s = uh_test(free_model(), 2.5, n_iter=200)
        d1 = section_degree(s, grid=16, n_iter=200)
        d2 = section_degree(s, grid=32, n_iter=200)
        assert list(d1.r) == list(d2.r)

    def test_requires_torus(self):
        model = OperatorModel(1, np.eye(1), ConstantPotential([[0.0]]),
                              BaseDynamics(CAT))
        _, s = uh_test(model, 3.0, n_iter=200)
        with pytest.raises(UnsupportedBase):
            section_degree(s)


class TestUnstableFrame:
    def test_matches_expanding_eigenvector(self):
        # at E=3 the free transfer matrix is constant with eigenvalues
        # (3 +- sqrt5)/2; the unstable plane is the expanding eigenvector
        model = free_model()
        F = unstable_frame(model, 3.0, [0.2], n_iter=200)
        lam = (3 + np.sqrt(5)) / 2
        v = np.array([lam, 1.0])
        v = v / np.linalg.norm(v)
        overlap = abs(np.vdot(v, F[:, 0]))
        assert overlap == pytest.approx(1.0, abs=1e-8)

    def test_random_model_gap_detected_above_spectrum(self, rng):
        model = random_model(rng, m=2)
        bound = model.potential_bound() + 2 * np.linalg.norm(model.C, 2) + 3.0
        is_uh, s = uh_test(model, bound, n_iter=400)
        assert is_uh and s.gap > 0.01
