import numpy as np
import pytest

from ergospectra.errors import (DegenerateFrame, InvalidInput,
                                UnsupportedDirection)
from ergospectra.cocycle import (J_matrix, LagrangianFrame, Q_matrix, cayley,
                                 cayley_element, det_kernel_test,
                                 frame_to_unitary, mobius_act,
                                 pseudo_unitary_defect, symplectic_defect,
                                 transfer_matrices, transfer_product,
                                 transfer_step)
from ergospectra.model import (CAT, DOUBLING, BaseDynamics, ConstantPotential,
                               OperatorModel, TrigBlockPotential, free_model)

from conftest import random_hermitian, random_invertible, random_model


def random_frame(rng, m):
    S = random_hermitian(rng, m)
    stack = np.vstack([np.eye(m), S])
    R = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    R += 3 * np.eye(m)  # keep R well conditioned
    return LagrangianFrame(stack @ R)


class TestTransferStep:
    def test_free_rotation(self):
        _, A = transfer_step(free_model(), 0.0, [0.0])
        assert np.allclose(A, [[0, -1], [1, 0]])

    def test_free_det_one(self):
        for E in (-1.3, 0.0, 2.7):
            _, A = transfer_step(free_model(), E, [0.0])
            assert np.linalg.det(A) == pytest.approx(1.0)

    def test_symplectic(self, rng):
        model = random_model(rng, m=2)
        _, A = transfer_step(model, 0.7, [0.23])
        assert symplectic_defect(A) < 1e-10 * np.linalg.norm(A, 2) ** 2

    def test_hat_form_blocks(self, rng):
        model = random_model(rng, m=2)
        Ahat, A = transfer_step(model, 1.1, [0.4])
        Cinv = np.linalg.inv(model.C)
        f = model.f([0.4])
        assert np.abs(Ahat[:2, :2] - Cinv @ (1.1 * np.eye(2) - f)).max() < 1e-12
        assert np.abs(Ahat[2:, :2] - np.eye(2)).max() < 1e-12
        P = np.block([[model.C, np.zeros((2, 2))],
                      [np.zeros((2, 2)), np.eye(2)]])
        assert np.abs(A - P @ Ahat @ np.linalg.inv(P)).max() < 1e-10


class TestTransferMatrices:
    """The stacked builder against per-site transfer_step on one orbit."""

    @pytest.mark.parametrize("E", [0.8, np.array([-2.5, -0.3, 0.0, 1.7])],
                             ids=["scalar", "array"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_transfer_step(self, rng, m, E):
        model = random_model(rng, m=m)
        points = model.base.orbit([0.31], 7)
        A = transfer_matrices(model, E, model.blocks([0.31], 7))
        assert A.shape == np.shape(E) + (7, 2 * m, 2 * m)
        A = A.reshape((-1, 7, 2 * m, 2 * m))
        for e, Ee in enumerate(np.atleast_1d(E)):
            for j, p in enumerate(points):
                assert np.array_equal(A[e, j],
                                      transfer_step(model, float(Ee), p)[1])


class TestTransferProduct:
    def test_identity_at_zero(self, rng):
        model = random_model(rng, m=2)
        assert np.array_equal(transfer_product(model, 0.5, [0.1], 0),
                              np.eye(4))

    def test_one_step(self, rng):
        model = random_model(rng, m=2)
        _, A = transfer_step(model, 0.5, [0.1])
        assert np.abs(transfer_product(model, 0.5, [0.1], 1) - A).max() < 1e-12

    def test_forward_backward_cancel(self, rng):
        model = random_model(rng, m=2)
        theta = np.array([0.1])
        fwd = transfer_product(model, 0.5, theta, 5)
        back = transfer_product(model, 0.5, model.base.advance(theta, 5), -5)
        scale = max(1.0, np.abs(fwd).max())
        assert np.abs(back @ fwd - np.eye(4)).max() < 1e-8 * scale

    def test_cocycle_law(self, rng):
        model = random_model(rng, m=2)
        theta = np.array([0.37])
        n, k = 3, 4
        lhs = transfer_product(model, -0.2, theta, n + k)
        rhs = (transfer_product(model, -0.2, model.base.advance(theta, n), k)
               @ transfer_product(model, -0.2, theta, n))
        assert np.abs(lhs - rhs).max() < 1e-8 * max(1.0, np.abs(lhs).max())

    def test_cat_map_backward_steps_back_from_theta(self, rng):
        # T^-n theta in one jump collapses to the fixed point 0 on the cat
        # map for n >= 39; the product must use T^-1 theta, ..., T^-n theta
        C = random_invertible(rng, 2, 10.0)
        F = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) / 2
        pot = TrigBlockPotential(2, {(0, 0): random_hermitian(rng, 2),
                                     (1, 0): F, (0, 1): F.T})
        model = OperatorModel(2, C, pot, BaseDynamics(CAT))
        theta, n, E = np.array([0.3, 0.7]), 40, 0.4
        ref = np.eye(4, dtype=complex)
        p = theta
        for _ in range(n):
            p = model.base.advance(p, -1)
            ref = np.linalg.inv(transfer_step(model, E, p)[1]) @ ref
        P = transfer_product(model, E, theta, -n)
        assert np.abs(P - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_backward_needs_invertible_base(self):
        model = OperatorModel(1, np.eye(1), ConstantPotential([[0.0]]),
                              BaseDynamics(DOUBLING))
        with pytest.raises(UnsupportedDirection):
            transfer_product(model, 0.0, [0.3], -1)


class TestCayley:
    def test_identity(self):
        assert np.abs(cayley(np.eye(4)) - np.eye(4)).max() < 1e-12

    def test_J_diagonalized(self):
        out = cayley(np.array([[0, 1], [-1, 0]], dtype=complex))
        assert np.abs(out - np.diag([1j, -1j])).max() < 1e-12

    def test_pseudo_unitary_image(self, rng):
        model = random_model(rng, m=1)
        _, A = transfer_step(model, 0.9, [0.6])
        assert pseudo_unitary_defect(cayley(A)) < 1e-10 * np.linalg.norm(A, 2) ** 2

    def test_element_is_unitary(self):
        Cm = cayley_element(2)
        assert np.abs(Cm.conj().T @ Cm - np.eye(4)).max() < 1e-12


class TestLagrangianFrame:
    def test_standard(self):
        F = LagrangianFrame.standard(2)
        assert np.allclose(F.X, np.eye(2)) and np.allclose(F.Y, 0)

    def test_non_lagrangian_rejected(self):
        stack = np.vstack([np.eye(2), np.array([[0, 1], [0, 0]])])
        with pytest.raises(InvalidInput):
            LagrangianFrame(stack)

    def test_rank_deficient_rejected(self):
        with pytest.raises(InvalidInput):
            LagrangianFrame(np.zeros((4, 2)))

    def test_symplectic_image_stays_lagrangian(self, rng):
        model = random_model(rng, m=2)
        _, A = transfer_step(model, 0.4, [0.15])
        F = random_frame(rng, 2).apply(A)
        assert isinstance(F, LagrangianFrame)


class TestFrameToUnitary:
    def test_standard_plane(self):
        W = frame_to_unitary(LagrangianFrame.standard(2))
        assert np.abs(W - np.eye(2)).max() < 1e-12

    def test_vertical_plane(self):
        F = LagrangianFrame(np.vstack([np.zeros((2, 2)), np.eye(2)]))
        assert np.abs(frame_to_unitary(F) + np.eye(2)).max() < 1e-12

    def test_diagonal_line(self):
        F = LagrangianFrame(np.array([[1.0], [1.0]]))
        assert frame_to_unitary(F)[0, 0] == pytest.approx(1j)

    def test_right_action_invariance(self, rng):
        F = random_frame(rng, 2)
        W = frame_to_unitary(F)
        for _ in range(20):
            R = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            R += 3 * np.eye(2)
            assert np.abs(frame_to_unitary(F.right_multiply(R)) - W).max() < 1e-9

    def test_unitary_output(self, rng):
        W = frame_to_unitary(random_frame(rng, 3))
        assert np.abs(W.conj().T @ W - np.eye(3)).max() < 1e-8

    def test_degenerate_frame(self):
        # X - iY singular: X = I, Y = iI is not Lagrangian, use a real
        # rotation onto the -i eigenplane instead at m = 1
        F = LagrangianFrame(np.array([[1.0], [-1j]]), tol_symmetry=np.inf)
        with pytest.raises(DegenerateFrame):
            frame_to_unitary(F)


class TestMobius:
    def test_identity_action(self, rng):
        W = frame_to_unitary(random_frame(rng, 2))
        assert np.abs(mobius_act(np.eye(4), W) - W).max() < 1e-12

    def test_block_diagonal_unitary(self, rng):
        A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        B = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        U1, _ = np.linalg.qr(A)
        U2, _ = np.linalg.qr(B)
        Aring = np.block([[U1, np.zeros((2, 2))], [np.zeros((2, 2)), U2]])
        W = frame_to_unitary(random_frame(rng, 2))
        out = mobius_act(Aring, W)
        assert np.abs(out - U2 @ W @ np.linalg.inv(U1)).max() < 1e-10

    def test_commutes_with_frame_route(self, rng):
        model = random_model(rng, m=2)
        _, A = transfer_step(model, 0.3, [0.61])
        F = random_frame(rng, 2)
        lhs = mobius_act(cayley(A), frame_to_unitary(F))
        rhs = frame_to_unitary(F.apply(A))
        assert np.abs(lhs - rhs).max() < 1e-8
        assert np.abs(lhs.conj().T @ lhs - np.eye(2)).max() < 1e-8


class TestDetKernel:
    def test_horizontal(self):
        detW, dim_fix = det_kernel_test(LagrangianFrame.standard(2))
        assert detW == pytest.approx(1.0)
        assert dim_fix == 2

    def test_vertical(self):
        F = LagrangianFrame(np.vstack([np.zeros((2, 2)), np.eye(2)]))
        detW, dim_fix = det_kernel_test(F)
        assert detW == pytest.approx((-1.0) ** 2)
        assert dim_fix == 0

    def test_partial_kernel(self):
        F = LagrangianFrame(np.vstack([np.eye(2), np.diag([0.0, 1.0])]))
        _, dim_fix = det_kernel_test(F)
        assert dim_fix == 1

    def test_matches_direct_det(self, rng):
        F = random_frame(rng, 2)
        detW, _ = det_kernel_test(F)
        assert abs(detW - np.linalg.det(frame_to_unitary(F))) < 1e-9
