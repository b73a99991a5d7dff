import numpy as np
import pytest

from ergospectra import rotation
from ergospectra.errors import (InvalidInput, RefinementExhausted,
                                UnsupportedBase)
from ergospectra.matkernel import small_matmul
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
        path = HomotopyPath(model, 0.4, [0.13], N=1)
        assert np.abs(path.evaluate(0.0) - np.eye(4)).max() < 1e-12
        A1 = transfer_product(model, 0.4, [0.13], 1)
        assert np.abs(path.evaluate(1.0) - A1).max() < 1e-9

    def test_two_step_extension(self, rng):
        model = random_model(rng, m=2)
        path = HomotopyPath(model, -0.6, [0.42], N=2)
        A2 = transfer_product(model, -0.6, [0.42], 2)
        assert np.abs(path.evaluate(2.0) - A2).max() < 1e-9
        # interior point sits between the unit products, continuous in t
        mid = path.evaluate(1.5)
        assert np.all(np.isfinite(mid))

    def test_negative_t_rejected(self, rng):
        path = HomotopyPath(random_model(rng, m=1), 0.0, [0.0], N=1)
        with pytest.raises(InvalidInput):
            path.evaluate(-0.5)

    def test_t_past_N_rejected(self, rng):
        path = HomotopyPath(random_model(rng, m=2), 0.1, [0.2], N=3)
        assert np.all(np.isfinite(path.evaluate(3)))
        with pytest.raises(InvalidInput):
            path.evaluate(3.5)

    def test_continuity_near_unit_time(self, rng):
        model = random_model(rng, m=2)
        path = HomotopyPath(model, 0.2, [0.3], N=1)
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


def _reference_samples(path, k, n, base, h, conjugator, events):
    """The per-sample acceptance loop that the stacked lanes replaced.

    Kept as an oracle for one lane: unit step n of energy k, started at
    step size h from the frames base.  It certifies one candidate time
    at a time and appends "halve" / "reanchor" to events when a block
    accepts nothing or the frames are re-anchored by QR.  After each
    block it scales h by STEP_TARGET * CERT_TURNS over the largest phase
    bound its loop examined, within STEP_CLAMP.
    """
    m = path.m
    E = path.E[k]
    coef = max(2.0 * m / np.pi, 1.0)
    ncoarse = 64
    coarse = np.linspace(0.0, 1.0, ncoarse + 1)
    Mc = rotation._step_mats(path, n, coarse, E, conjugator)
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
    F0 = small_matmul(Mc[0], anchor)
    s0 = np.linalg.svd(F0, compute_uv=False)
    while t0 < 1.0:
        h = min(h, 1.0 - t0)
        if h <= rotation.MIN_INTERVAL:
            raise RefinementExhausted("step size collapsed")
        ts = np.unique(np.minimum(
            t0 + h * np.arange(1, rotation.BLOCK + 1), 1.0))
        M = rotation._step_mats(path, n, ts, E, conjugator)
        F = small_matmul(M[:, None], anchor[None])
        s = np.linalg.svd(F, compute_uv=False)
        anorm = float(np.linalg.norm(anchor, axis=(1, 2)).max())
        accepted = 0
        worst = -np.inf
        prev_t, prev_F, prev_s = t0, F0, s0
        for i in range(ts.size):
            dt = ts[i] - prev_t
            chord = np.linalg.norm(F[i] - prev_F, axis=(1, 2)) / dt
            L = chord + dt * curvature(prev_t, ts[i]) * anorm
            smin0, smin1 = prev_s[..., -1], s[i][..., -1]
            sc = 0.5 * (smin0 + smin1 - L * dt)
            if np.any(sc <= 0.0):
                worst = np.inf
                break
            bound = coef * (np.log(smin0 / sc) + np.log(smin1 / sc))
            worst = max(worst, float(bound.max()))
            if float(bound.max()) >= rotation.CERT_TURNS:
                break
            yield k, ts[i], F[i]
            accepted = i + 1
            prev_t, prev_F, prev_s = ts[i], F[i], s[i]
        h *= float(np.clip(rotation.STEP_TARGET * rotation.CERT_TURNS
                           / worst if worst > 0 else np.inf,
                           *rotation.STEP_CLAMP))
        if accepted == 0:
            events.append("halve")
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


def _reference_sampler(events):
    """_reference_samples in the place of _certified_samples: it reads
    the lane's unit step, energy, frames and first step from the stack
    and never runs the stack's passes."""
    def sampler(stack, lane):
        return _reference_samples(stack.path, stack.k[lane], stack.n[lane],
                                  stack.base[lane], float(stack.h[lane]),
                                  stack.conjugator, events)
    return sampler


def _reference_step_mats(path, n, ts, E, conjugator):
    """_step_mats with the conjugator inverted per path time."""
    M = path.step_matrices(n, ts, E).copy()
    if conjugator is not None:
        flat = M.reshape(-1, *M.shape[-2:])
        times = np.broadcast_to(n + np.asarray(ts), M.shape[:-2]).ravel()
        for i, t in enumerate(times):
            flat[i] = np.linalg.inv(conjugator(float(t))) @ flat[i]
    return M


def _reference_anchor(model, E, theta0, N):
    """_anchor_eigenphases with one LagrangianFrame / frame_to_unitary /
    eigvals per sample, on the oracle's samples: each unit step starts
    at h = 1/START_SUBSTEPS from the frame of a per-step QR walk."""
    m = model.m
    path = rotation.HomotopyPath(model, [E], theta0, N)
    G1 = path.G1()
    frame = LagrangianFrame.standard(m).stack[None]
    branches = np.zeros(m)
    for n in range(N):
        base = small_matmul(G1, frame)
        for _, _, F in _reference_samples(path, 0, n, base,
                                          1.0 / rotation.START_SUBSTEPS,
                                          None, []):
            W = frame_to_unitary(LagrangianFrame(F[0], tol_symmetry=np.inf))
            branches, _ = rotation._match_phases(
                branches, rotation._eigenphases_mod(W))
        P = small_matmul(path.step_matrices(n, 1.0, E), G1)
        frame = rotation._normalize(small_matmul(P, frame))
    return branches


def _recording(sampler, log):
    """sampler, logging (n, k, t, F) for every sample of a lane."""
    def wrapped(stack, lane):
        for sample in sampler(stack, lane):
            log.append((stack.n[lane], *sample))
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
        oracle = _reference_sampler(events)
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
        for (n, _, t, F), (rn, _, rt, rF) in zip(new, ref):
            assert n == rn
            assert t == rt
            assert np.array_equal(F, rF)
        assert np.array_equal(out, ref_out)
        # the old per-sample running sum of nearest-lift steps
        ref_acc = np.zeros(frames.shape[0])
        last = rotation._det_phase(frames, m)
        for _, _, _, F in ref:
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


class TestEnergyBatch:
    """Energies tracked together equal the same energies tracked alone."""

    def _compare(self, model, energies, frames, N):
        acc, last, out = rotation.track_frames(model, energies, [0.17],
                                               frames, N)
        assert acc.shape == (energies.size, frames.shape[0])
        for i, E in enumerate(energies):
            a, p, o = rotation.track_frames(model, E, [0.17], frames, N)
            assert np.array_equal(acc[i], a)
            assert np.array_equal(last[i], p)
            assert np.array_equal(out[i], o)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_batch_equals_one_energy_calls(self, rng, m):
        model = random_model(rng, m=m, cond_max=4.0)
        frames = np.array([LagrangianFrame.standard(m).stack,
                           np.vstack([np.eye(m), np.eye(m)])])
        energies = np.array([-2.5, -0.4, 0.0, 0.9, 0.9, 3.1])
        self._compare(model, energies, frames, 3)

    def test_stack_past_in_place_threshold(self, rng):
        # 24 energies x 64 candidates x 2 frames x 18 entries: the first
        # block's frame stack holds over 2**14 complex entries, the size
        # from which NumPy may reuse a temporary in place
        model = random_model(rng, m=3, cond_max=4.0)
        frames = np.array([LagrangianFrame.standard(3).stack,
                           np.vstack([np.eye(3), np.eye(3)])])
        energies = np.linspace(-4.0, 4.0, 24)
        assert energies.size * rotation.BLOCK * frames[0].size * 2 > 2 ** 14
        self._compare(model, energies, frames, 2)


class TestLanes:
    """Unit steps tracked as lanes of a stack, started from a QR walk."""

    @pytest.mark.parametrize("conjugated", [False, True])
    def test_one_lane_stack_equals_default(self, monkeypatch, rng,
                                           conjugated):
        model = random_model(rng, m=2, cond_max=4.0)
        frames = np.array([LagrangianFrame.standard(2).stack,
                           np.vstack([np.eye(2), np.eye(2)])])
        conj = _conjugator(2, 1.0, model.base.alpha[0]) if conjugated \
            else None
        energies = np.array([-1.3, 0.4, 2.2])
        N = 2 * rotation.LANES // energies.size + 3  # stacks span energies
        default = rotation.track_frames(model, energies, [0.17], frames, N,
                                        conjugator=conj)
        monkeypatch.setattr(rotation, "LANES", 1)
        single = rotation.track_frames(model, energies, [0.17], frames, N,
                                       conjugator=conj)
        for a, b in zip(default, single):
            assert np.array_equal(a, b)

    def test_perturbed_walk_frame_breaks_junction(self, monkeypatch, rng):
        model = random_model(rng, m=2, cond_max=4.0)
        real = rotation._walk

        def perturbed(*args):
            w, head = real(*args)
            w = w.copy()
            # lane 2 is unit step 2: rotate its plane a little
            w[2] = small_matmul(rotation._plane_rotation(2, 1e-3), w[2])
            return w, head

        rot_number(model, 0.4, N=4)
        monkeypatch.setattr(rotation, "_walk", perturbed)
        with pytest.raises(RefinementExhausted, match="starting frame"):
            rot_number(model, 0.4, N=4)


def _recursive_phase_curves(model, theta0, N, E_grid, visited,
                            max_depth=60):
    """phase_curves with the totals tracked one energy at a time, when the
    recursive bisection first asks for them; tracked energies go to
    visited."""
    E = np.asarray(E_grid, dtype=float)
    totals = {}

    def total(energy):
        key = float(energy)
        if key not in totals:
            visited.append(key)
            totals[key] = rotation.accumulated_phase(model, key, theta0, N)
        return totals[key]

    def eigphases(energy):
        F = frame_after(model, energy, theta0, N)
        return rotation._eigenphases_mod(frame_to_unitary(
            LagrangianFrame(F, tol_symmetry=1e-6)))

    def continue_to(cur, e_lo, e_hi, depth):
        S = total(e_hi) - total(e_lo)
        if abs(S) < 0.45:
            new = rotation._match_down(cur, eigphases(e_hi), tol=1e-6)
            if abs(float(np.sum(new - cur)) - S) < 0.05:
                return new
        assert depth < max_depth
        mid = 0.5 * (e_lo + e_hi)
        half = continue_to(cur, e_lo, mid, depth + 1)
        return continue_to(half, mid, e_hi, depth + 1)

    out = [rotation._anchor_eigenphases(model, E[0], theta0, N)]
    for i in range(1, E.size):
        out.append(continue_to(out[-1], E[i - 1], E[i], 0))
    return np.array(out)


class TestLevelwisePhaseCurves:
    @pytest.mark.parametrize("case", ["free", "random_m2"])
    def test_visits_the_recursive_energies(self, monkeypatch, rng, case):
        if case == "free":
            model, N, grid = free_model(), 4, np.linspace(-3.0, 3.0, 9)
        else:
            model, N = random_model(rng, m=2, cond_max=3.0), 3
            grid = np.linspace(-6.0, 6.0, 8)
        ref_visits = []
        ref = _recursive_phase_curves(model, [0.2], N, grid, ref_visits)
        visits = []
        real = rotation.accumulated_phase
        monkeypatch.setattr(
            rotation, "accumulated_phase",
            lambda model, E, *a: visits.extend(np.ravel(E).tolist())
            or real(model, E, *a))
        curves = phase_curves(model, [0.2], N, grid)
        assert len(ref_visits) > grid.size  # the grid alone did not do
        assert sorted(visits) == sorted(ref_visits)
        assert np.array_equal(curves.phases, ref)
