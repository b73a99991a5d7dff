import numpy as np
import pytest

from ergospectra.errors import InvalidInput, UnsupportedDirection
from ergospectra.model import (BaseDynamics, ConstantPotential, OperatorModel,
                               ScalarTrigPotential, TrigBlockPotential, CAT,
                               DOUBLING, TORUS, constant_model, eigenvalue_count,
                               finite_restriction, free_model, ids,
                               restriction_eigenvalues, torus_rotation)
from ergospectra.duality import TrigPolynomial, _DualPotential, build_dual

from conftest import GOLDEN, random_model


class TestBaseDynamics:
    def test_torus_round_trip(self):
        base = torus_rotation([GOLDEN, 0.31])
        p = np.array([0.2, 0.9])
        q = base.advance(base.advance(p, 7), -7)
        assert np.abs(q - p).max() < 1e-12

    def test_cat_round_trip(self):
        base = BaseDynamics(CAT)
        p = np.array([0.2, 0.7])
        q = base.advance(base.advance(p, 5), -5)
        assert np.abs(q - p).max() < 1e-12

    def test_doubling_forward_only(self):
        base = BaseDynamics(DOUBLING)
        assert base.advance([0.3], 1)[0] == pytest.approx(0.6)
        with pytest.raises(UnsupportedDirection):
            base.advance([0.3], -1)

    def test_orbit_matches_advance(self):
        base = torus_rotation([GOLDEN])
        orbit = base.orbit([0.1], 5)
        for n in range(5):
            assert np.abs(orbit[n] - base.advance([0.1], n)).max() < 1e-12

    def test_backward_orbit_steps_back_from_theta(self):
        torus = torus_rotation([GOLDEN])
        back = torus.orbit([0.1], -5)
        for k in range(5):
            assert np.abs(back[k] - torus.advance([0.1], -(k + 1))).max() < 1e-12
        cat = BaseDynamics(CAT)
        p = np.array([0.3, 0.7])
        back = cat.orbit(p, -40)
        for k in range(40):
            p = cat.advance(p, -1)
            assert np.array_equal(back[k], p)
        with pytest.raises(UnsupportedDirection):
            BaseDynamics(DOUBLING).orbit([0.3], -1)

    def test_unknown_kind(self):
        with pytest.raises(InvalidInput):
            BaseDynamics("horocycle")


class TestBlocks:
    def test_entries_match_fresh_evaluation(self, rng):
        model = random_model(rng, m=2)
        blocks = model.blocks([0.3], 500)
        for n in rng.integers(0, 500, 5):
            fresh = model.f(model.base.advance([0.3], int(n)))
            assert np.abs(fresh - blocks[n]).max() < 1e-14


def _per_point(potential, theta):
    """The one-point formulas that the stacked potentials replaced."""
    x = float(np.atleast_1d(theta)[0])
    if isinstance(potential, ConstantPotential):
        return potential.block
    if isinstance(potential, TrigBlockPotential):
        f = np.zeros((potential.m, potential.m), dtype=complex)
        for k, F in potential.coeffs.items():
            f += F * np.exp(2j * np.pi * float(np.dot(k, theta)))
        return (f + f.conj().T) / 2
    if isinstance(potential, ScalarTrigPotential):
        s = sum(c * np.exp(2j * np.pi * k * x)
                for k, c in potential.coeffs.items())
        return np.array([[float(np.real(s))]], dtype=complex)
    d, v = potential.m, potential.v
    return np.array([[2 * np.cos(2 * np.pi * (x + (d - 1 - i) * v.alpha))
                      + v.coeff(0) if i == j else v.coeff(i - j)
                      for j in range(d)] for i in range(d)], dtype=complex)


class TestStackedPotentials:
    @pytest.mark.parametrize("kind", [TORUS, CAT, DOUBLING])
    def test_blocks_equal_per_point_values(self, rng, kind):
        base = torus_rotation([GOLDEN]) if kind == TORUS else BaseDynamics(kind)
        d = base.d
        modes = [(1,), (3,)] if d == 1 else [(1, 0), (0, 1), (2, -1)]
        trig = {(0,) * d: np.diag([0.5, -1.0])}
        trig.update({k: rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                     for k in modes})
        potentials = [
            ConstantPotential(np.diag([1.0, 2.0])),
            TrigBlockPotential(2, trig),
            ScalarTrigPotential({0: 0.7, 1: 0.5 + 0.2j, -1: 0.5 - 0.2j,
                                 2: 0.3 + 0.35j, -2: 0.3 - 0.35j}),
            _DualPotential(TrigPolynomial((0.4 - 0.1j, 1.0 + 0.3j, 0.2,
                                           1.0 - 0.3j, 0.4 + 0.1j), GOLDEN)),
        ]
        theta = rng.random(d)
        points = base.orbit(theta, 300)
        for potential in potentials:
            model = OperatorModel(potential.m, np.eye(potential.m),
                                  potential, base)
            blocks = model.blocks(theta, 300)
            assert np.array_equal(
                blocks, [_per_point(potential, p) for p in points])
            assert np.array_equal(blocks, [potential(p) for p in points])


class TestFiniteRestriction:
    def test_free_laplacian(self):
        H = finite_restriction(free_model(), [0.0], 3)
        assert np.allclose(H, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])

    def test_amo_single_site(self):
        lam = 0.8
        model = OperatorModel(1, np.eye(1),
                              ScalarTrigPotential({1: lam, -1: lam}),
                              torus_rotation([GOLDEN]))
        H = finite_restriction(model, [0.0], 1)
        assert H[0, 0] == pytest.approx(2 * lam)

    def test_dual_block_hand_assembly(self):
        # degree-2 dual model: C = [[1,1],[0,1]], diagonal 2cos blocks
        v = TrigPolynomial((1.0, 1.0, 0.0, 1.0, 1.0), GOLDEN)
        model = build_dual(v)
        alpha = GOLDEN
        theta = 0.11
        H = finite_restriction(model, [theta], 2)

        def f(x):
            return np.array([[2 * np.cos(2 * np.pi * (x + alpha)), 1.0],
                             [1.0, 2 * np.cos(2 * np.pi * x)]])

        C = np.array([[1.0, 1.0], [0.0, 1.0]])
        # top-left block is B(2) = f at the advanced point (orbit step 2*alpha)
        expect = np.zeros((4, 4))
        expect[:2, :2] = f(theta + 2 * alpha)
        expect[2:, 2:] = f(theta)
        expect[2:, :2] = C
        expect[:2, 2:] = C.T
        assert np.abs(H - expect).max() < 1e-12

    def test_hermitian_and_banded_agreement(self, rng):
        model = random_model(rng, m=2)
        H = finite_restriction(model, [0.2], 6)
        assert np.abs(H - H.conj().T).max() < 1e-12
        dense = np.sort(np.linalg.eigvalsh(H))
        banded = restriction_eigenvalues(model, [0.2], 6)
        assert np.abs(dense - banded).max() < 1e-10

    def test_bad_N(self):
        with pytest.raises(InvalidInput):
            finite_restriction(free_model(), [0.0], 0)


class TestEigenvalueCount:
    def test_above_spectrum(self):
        assert eigenvalue_count(free_model(), [0.0], 3, 3.0) == 1.0

    def test_below_spectrum(self):
        assert eigenvalue_count(free_model(), [0.0], 3, -3.0) == 0.0

    def test_at_interior_eigenvalue(self):
        # H^3 of the free Laplacian has eigenvalues -sqrt2, 0, sqrt2; the
        # inclusive convention counts the eigenvalue at 0, giving 2/3
        ev = restriction_eigenvalues(free_model(), [0.0], 3)
        assert np.allclose(ev, [-np.sqrt(2), 0.0, np.sqrt(2)], atol=1e-12)
        assert eigenvalue_count(free_model(), [0.0], 3, 0.0) == pytest.approx(2 / 3)


class TestIds:
    def test_free_closed_form(self):
        vals = ids(free_model(), [0.0], 5000, [0.0])
        assert abs(vals[0] - 0.5) < 1e-2

    def test_outside_is_exact(self, rng):
        model = random_model(rng, m=2)
        bound = model.potential_bound() + 2 * np.linalg.norm(model.C, 2) + 1.0
        low, high = ids(model, [0.3], 200, [-bound, bound])
        assert low == 0.0 and high == 1.0

    def test_monotone(self, rng):
        model = random_model(rng, m=2)
        vals = ids(model, [0.1], 300, np.linspace(-6, 6, 40))
        assert np.all(np.diff(vals) >= 0)
        assert np.all((0 <= vals) & (vals <= 1))

    def test_orbit_point_consistency(self):
        model = free_model()
        a = ids(model, [0.0], 2000, [0.3])
        b = ids(model, model.base.advance([0.0], 17), 2000, [0.3])
        assert abs(a[0] - b[0]) <= 1 / 2000 + 2e-2

    def test_theta_average(self):
        vals = ids(free_model(), [0.0], 500, [0.0], theta_average=4)
        assert abs(vals[0] - 0.5) < 2e-2


class TestPotentials:
    def test_trig_block_symmetry_enforced(self, rng):
        F = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        pot = TrigBlockPotential(2, {(1,): F})
        th = [0.37]
        f = pot(th)
        assert np.abs(f - f.conj().T).max() < 1e-12

    def test_trig_block_conflicting_modes(self):
        with pytest.raises(InvalidInput):
            TrigBlockPotential(1, {(1,): [[1.0]], (-1,): [[2.0]]})

    def test_scalar_trig_value(self):
        pot = ScalarTrigPotential({1: 0.5, -1: 0.5})
        assert pot.value(0.0) == pytest.approx(1.0)
        assert pot([0.25])[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_constant_model_bound(self):
        model = constant_model(np.diag([0.0, 10.0]))
        assert model.potential_bound() == pytest.approx(10.0)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_bound_dominates_sampled_norms(self, rng, m):
        for modes in (1, 2, 3):
            model = random_model(rng, m=m, modes=modes)
            bound = model.potential_bound()
            for theta in rng.random((200, 1)):
                assert np.linalg.norm(model.f(theta), 2) <= bound

    def test_bound_on_scalar_and_dual_potentials(self, rng):
        models = [
            OperatorModel(1, [[1.0]], ScalarTrigPotential({1: 0.5, 2: 0.3j}),
                          torus_rotation([GOLDEN])),
            build_dual(TrigPolynomial((0.4, 1.0, 0.2, 1.0, 0.4), GOLDEN)),
        ]
        for model in models:
            bound = model.potential_bound()
            for theta in rng.random((500, 1)):
                assert np.linalg.norm(model.f(theta), 2) <= bound

    def test_singular_C_rejected(self):
        with pytest.raises(InvalidInput):
            OperatorModel(1, [[0.0]], ConstantPotential([[0.0]]),
                          torus_rotation([GOLDEN]))

    def test_non_hermitian_potential_rejected(self):
        class Bad:
            def __call__(self, theta):
                return np.array([[0.0, 1.0], [0.0, 0.0]])

        with pytest.raises(InvalidInput):
            OperatorModel(2, np.eye(2), Bad(), torus_rotation([GOLDEN]))
