import numpy as np
import pytest

from regselect.operators import DenseOperator
from regselect.selection import TruncatedSquaredLoss
from regselect.spectral import (
    Landweber,
    SpectralCutoff,
    Tikhonov,
    landweber_iterations,
    landweber_solve,
    spectral_filter_solve,
    tikhonov_solve,
    truncate,
)


class TestTikhonovFilter:
    def test_componentwise_hand_values(self):
        # A = diag(2, 0.5), y = (1, 1), lam = 0.1
        # x_i = a_i y_i / (a_i^2 + lam): 2/4.1 = 20/41, 0.5/0.35 = 10/7
        op = DenseOperator(np.diag([2.0, 0.5]))
        x = spectral_filter_solve(op.decomposition(), Tikhonov(), np.array([1.0, 1.0]), 0.1)
        np.testing.assert_allclose(np.sort(x), np.sort([20.0 / 41.0, 10.0 / 7.0]),
                                   rtol=1e-12)

    def test_factors_formula(self):
        eig = np.array([4.0, 1.0, 0.09])
        np.testing.assert_allclose(Tikhonov().factors(eig, 0.5), 1.0 / (eig + 0.5),
                                   rtol=1e-14)

    def test_direct_and_spectral_routes_agree(self):
        rng = np.random.default_rng(0)
        A = DenseOperator(rng.standard_normal((15, 12))).normalize()
        dec = A.decomposition()
        for lam in (1e-4, 1e-2, 1.0, 50.0):
            y = rng.standard_normal(15)
            direct = tikhonov_solve(A, y, lam)
            filtered = spectral_filter_solve(dec, Tikhonov(), y, lam)
            np.testing.assert_allclose(direct, filtered, atol=1e-10)

    def test_filter_bound(self):
        # sup_sigma g(sigma) sqrt(sigma) <= 1 / (2 sqrt(lam)) <= 1 / sqrt(lam)
        eig = np.geomspace(1e-8, 1.0, 200)
        for lam in (1e-4, 1e-2, 0.5):
            vals = Tikhonov().factors(eig, lam) * np.sqrt(eig)
            assert vals.max() <= 1.0 / np.sqrt(lam) + 1e-12

    def test_lambda_monotonicity(self):
        # larger lam shrinks every reconstruction coefficient
        eig = np.array([2.0, 0.5, 0.01])
        g1 = Tikhonov().factors(eig, 0.1)
        g2 = Tikhonov().factors(eig, 1.0)
        assert np.all(g2 < g1)

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            Tikhonov().factors(np.array([1.0]), 0.0)


class TestLandweberFilter:
    def test_hand_recursion_three_steps(self):
        # A = diag(2, 0.5), y = (1, 1), stepsize 0.2, k = 3 iterations.
        # component 1: x <- 0.2 x + 0.4 gives 0.4, 0.48, 0.496
        # component 2: x <- 0.95 x + 0.1 gives 0.1, 0.195, 0.28525
        op = DenseOperator(np.diag([2.0, 0.5]))
        x = landweber_solve(op, np.array([1.0, 1.0]), 3, stepsize=0.2)
        np.testing.assert_allclose(np.sort(x), np.sort([0.496, 0.28525]), rtol=1e-12)

    def test_iteration_count_mapping(self):
        # k = floor(1 / lam); these quotients are exact in floating point
        assert landweber_iterations(1e-3) == 1000
        assert landweber_iterations(0.02) == 50
        assert landweber_iterations(0.3) == 3
        assert landweber_iterations(1.0) == 1
        assert landweber_iterations(2.0) == 0

    def test_filter_matches_iteration(self):
        rng = np.random.default_rng(1)
        A = DenseOperator(rng.standard_normal((10, 8))).normalize()
        y = rng.standard_normal(10)
        for lam in (0.5, 0.1, 0.02, 1e-3):
            k = landweber_iterations(lam)
            iterated = landweber_solve(A, y, k, stepsize=0.2)
            filtered = spectral_filter_solve(A.decomposition(), Landweber(stepsize=0.2),
                                             y, lam)
            np.testing.assert_allclose(iterated, filtered, atol=1e-10)

    def test_zero_iterations_zero_vector(self):
        op = DenseOperator(np.eye(3))
        np.testing.assert_array_equal(landweber_solve(op, np.ones(3), 0, 0.2), np.zeros(3))

    def test_zero_eigenvalue_continuity(self):
        # continuous extension g(0) = stepsize * k keeps the filter finite
        g = Landweber(stepsize=0.2).factors(np.array([0.0, 1.0]), 0.1)
        assert g[0] == pytest.approx(0.2 * 10)

    def test_stepsize_validation(self):
        with pytest.raises(ValueError):
            Landweber(stepsize=0.0)
        with pytest.raises(ValueError):
            Landweber(stepsize=2.0)
        # stepsize * max eigenvalue must stay below 2 for convergence
        with pytest.raises(ValueError):
            Landweber(stepsize=1.9).factors(np.array([4.0]), 0.5)


class TestSpectralCutoff:
    def test_pseudoinverse_when_cutoff_below_spectrum(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((8, 8))
        op = DenseOperator(A)
        dec = op.decomposition()
        lam = 0.5 * dec.singular_values.min() ** 2
        y = rng.standard_normal(8)
        x = spectral_filter_solve(dec, SpectralCutoff(), y, lam)
        np.testing.assert_allclose(x, np.linalg.solve(A, y), atol=1e-8)

    def test_kills_small_modes(self):
        op = DenseOperator(np.diag([2.0, 0.1]))
        y = np.array([1.0, 1.0])
        x = spectral_filter_solve(op.decomposition(), SpectralCutoff(), y, 1.0)
        # only the eigenvalue 4 survives the cutoff at lam=1; 0.01 is zeroed
        assert np.count_nonzero(np.abs(x) > 1e-14) == 1


class TestTruncation:
    def test_inside_ball_untouched(self):
        x = np.array([0.3, 0.4])
        np.testing.assert_array_equal(truncate(x), x)

    def test_outside_ball_radial_projection(self):
        x = np.array([3.0, 4.0])
        np.testing.assert_allclose(truncate(x), [0.6, 0.8], rtol=1e-14)

    def test_custom_radius(self):
        np.testing.assert_allclose(truncate(np.array([4.0, 0.0]), radius=2.0),
                                   [2.0, 0.0], rtol=1e-14)

    def test_loss_bounded_by_four(self):
        # both arguments inside the unit ball: ||Tx - x'||^2 <= (1+1)^2 = 4
        rng = np.random.default_rng(3)
        loss = TruncatedSquaredLoss()
        assert loss.bound == 4.0
        for _ in range(100):
            x = rng.standard_normal(6) * 10
            truth = rng.standard_normal(6)
            truth = truth / max(1.0, np.linalg.norm(truth))
            assert loss(x, truth) <= 4.0 + 1e-12

    def test_loss_hand_value(self):
        # x = (3,4) truncates to (0.6,0.8); against truth (0.6,0.8) loss is 0
        assert TruncatedSquaredLoss()(np.array([3.0, 4.0]), np.array([0.6, 0.8])) == \
            pytest.approx(0.0, abs=1e-14)
