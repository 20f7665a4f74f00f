import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from regselect.experiments.methods import (
    LassoMethod,
    SoftThresholdMethod,
    SpectralFilterMethod,
    TvDenoiseMethod,
)
from regselect.operators import DenseOperator, IdentityOperator
from regselect.selection import (
    L1BregmanLoss,
    TrainingSet,
    TruncatedSquaredLoss,
    geometric_grid,
)
from regselect.experiments.studies import _squared_error_matrix
from regselect.spectral import Landweber, SpectralCutoff, Tikhonov, spectral_filter_solve
from regselect.variational import SolverConfig, soft_threshold, total_variation


def spectral_fixture(seed=0, n=6, m=10, d=8, tau=0.05):
    rng = np.random.default_rng(seed)
    op = DenseOperator(rng.standard_normal((m, d))).normalize()
    xs = rng.standard_normal((n, d))
    xs /= np.linalg.norm(xs, axis=1, keepdims=True) * 1.25
    ys = op.apply(xs) + tau * rng.standard_normal((n, m))
    return op, TrainingSet(ys, xs)


def assert_close_to_scale(got, want, scale):
    """Agreement to 1e-10 relative to ||X||^2 + ||x||^2: the coefficient-space
    forms subtract terms of that size, so a loss near zero keeps their
    rounding error rather than a relative error of its own size."""
    assert np.all(np.abs(np.asarray(got) - want) <= 1e-10 * scale)


@st.composite
def spectral_problems(draw):
    """A random (operator, training set, grid) and one of the three filters."""
    m, d = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    n, count = draw(st.integers(1, 8)), draw(st.integers(1, 25))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    op, data = spectral_fixture(seed, n, m, d, tau=draw(st.floats(0.01, 0.5)))
    lams = 10.0 ** np.random.default_rng(seed).uniform(-3.0, 1.0, count)
    filt = draw(st.sampled_from((Tikhonov(), Landweber(stepsize=0.2), SpectralCutoff())))
    return SpectralFilterMethod(op, filt), data, lams


class TestSpectralFilterMethod:
    def test_call_matches_solver(self):
        op, data = spectral_fixture()
        method = SpectralFilterMethod(op, Tikhonov())
        y = data.ys[0]
        np.testing.assert_allclose(
            method(y, 0.3),
            spectral_filter_solve(op.decomposition(), Tikhonov(), y, 0.3),
            atol=1e-14)

    def test_solve_grid_matches_per_call(self):
        op, data = spectral_fixture(1)
        for filt in (Tikhonov(), Landweber(stepsize=0.2)):
            method = SpectralFilterMethod(op, filt)
            grid = geometric_grid(1e-3, 10.0, 30)
            stacked = method.solve_grid(data.ys[0], grid.values)
            for lam, row in zip(grid.values, stacked):
                np.testing.assert_allclose(row, method(data.ys[0], lam), atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(spectral_problems())
    def test_risk_curve_hook_matches_generic_loop(self, problem):
        method, data, lams = problem
        loss = TruncatedSquaredLoss()
        fast = method.risk_curve(loss, data, lams)
        slow = np.array([
            np.mean([loss(method(y, lam), x) for y, x in data.pairs])
            for lam in lams])
        # truncated reconstructions and truths lie in the unit ball, so the
        # subtracted terms are at most 2 and so is the scale of rounding
        assert_close_to_scale(fast, slow, 2.0)

    @settings(max_examples=60, deadline=None)
    @given(spectral_problems())
    def test_squared_error_matrix_matches_per_pair(self, problem):
        method, data, lams = problem
        errors = _squared_error_matrix(method, data, lams)
        recons = [[method(y, lam) for lam in lams] for y in data.ys]
        direct = np.array([[np.sum((r - x) ** 2) for r in row]
                           for row, x in zip(recons, data.xs)])
        scale = np.array([[r @ r + x @ x for r in row] for row, x in zip(recons, data.xs)])
        assert_close_to_scale(errors, direct, scale)

    def test_risk_curve_hook_declines_other_losses(self):
        op, data = spectral_fixture(3)
        method = SpectralFilterMethod(op, Tikhonov())
        assert method.risk_curve(L1BregmanLoss(), data, np.array([0.1])) is None

    def test_risk_curve_hook_declines_out_of_ball_truths(self):
        op, data = spectral_fixture(4)
        big = TrainingSet(data.ys, data.xs * 10.0)
        method = SpectralFilterMethod(op, Tikhonov())
        assert method.risk_curve(TruncatedSquaredLoss(), big, np.array([0.1])) is None

    def test_filter_table_cached_per_grid(self):
        op, _ = spectral_fixture(5)
        method = SpectralFilterMethod(op, Tikhonov())
        lams = np.array([0.1, 1.0])
        assert method.filter_table(lams) is method.filter_table(lams.copy())


@st.composite
def l1_problems(draw):
    """Random pairs and an unsorted grid, with ties and zeros in |y|, exact
    zeros in the truths, and grid values equal to some |y_j|."""
    n, d, count = draw(st.integers(1, 8)), draw(st.integers(1, 40)), draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    levels = np.append(0.0, rng.uniform(0.0, 2.0, 3))  # few magnitudes, so |y| ties
    mags = np.where(rng.random((n, d)) < 0.5, rng.choice(levels, (n, d)),
                    rng.uniform(0.0, 2.0, (n, d)))
    ys = rng.choice([-1.0, 1.0], (n, d)) * mags
    xs = rng.standard_normal((n, d)) * (rng.random((n, d)) < 0.7)
    lams = np.concatenate([rng.choice(mags.ravel(), count),
                           10.0 ** rng.uniform(-3.0, 0.5, count)])
    rng.shuffle(lams)
    return TrainingSet(ys, xs), lams


class TestSoftThresholdMethod:
    def test_call_is_soft_threshold(self):
        rng = np.random.default_rng(6)
        y = rng.standard_normal(20)
        method = SoftThresholdMethod()
        np.testing.assert_array_equal(method(y, 0.4), soft_threshold(y, 0.4))

    def test_solve_grid_matches_per_call(self):
        rng = np.random.default_rng(7)
        y = rng.standard_normal(15)
        method = SoftThresholdMethod()
        lams = np.array([0.0, 0.2, 1.0, 5.0])
        stacked = method.solve_grid(y, lams)
        for lam, row in zip(lams, stacked):
            np.testing.assert_array_equal(row, method(y, lam))

    @settings(max_examples=100, deadline=None)
    @given(l1_problems())
    def test_risk_curve_hook_matches_generic_loop(self, problem):
        data, lams = problem
        method, loss = SoftThresholdMethod(), L1BregmanLoss()
        fast = method.risk_curve(loss, data, lams)
        slow = np.mean([loss.batch(method.solve_grid(y, lams), x) for y, x in data.pairs], axis=0)
        scale = np.abs(data.xs).sum(axis=1).mean()
        assert np.all(np.abs(fast - slow) <= 1e-12 * scale)
        # Grid values that keep the same coordinates (up to zeros of x) have
        # equal risks.  The hook keeps those ties exact; the matrix product in
        # `batch` may round equal rows differently by their position.  So the
        # minimizer is checked against per-call losses, whose ties are exact.
        per_call = np.mean([[loss(method(y, lam), x) for lam in lams] for y, x in data.pairs],
                           axis=0)
        assert np.argmin(fast) == np.argmin(per_call)

    def test_risk_curve_hook_declines_other_cases(self):
        rng = np.random.default_rng(13)
        method, lams = SoftThresholdMethod(), np.array([0.1, 1.0])
        flat = TrainingSet(rng.standard_normal((3, 8)), rng.standard_normal((3, 8)))
        images = TrainingSet(rng.standard_normal((3, 4, 4)), rng.standard_normal((3, 4, 4)))
        assert method.risk_curve(TruncatedSquaredLoss(), flat, lams) is None
        assert method.risk_curve(L1BregmanLoss(), images, lams) is None


class TestLassoMethod:
    def test_identity_reduces_to_soft_threshold(self):
        rng = np.random.default_rng(8)
        y = rng.standard_normal(25)
        method = LassoMethod(IdentityOperator(25))
        np.testing.assert_allclose(method(y, 0.3), soft_threshold(y, 0.3), atol=1e-5)

    def test_solve_grid_matches_per_call(self):
        rng = np.random.default_rng(9)
        op = DenseOperator(rng.standard_normal((12, 8))).normalize()
        y = rng.standard_normal(12)
        cfg = SolverConfig(tolerance=1e-10, max_iterations=10 ** 6)
        method = LassoMethod(op, cfg)
        lams = np.array([0.5, 0.2, 0.05])
        stacked = method.solve_grid(y, lams)
        for lam, row in zip(lams, stacked):
            np.testing.assert_allclose(row, method(y, lam), atol=1e-6)


class TestTvDenoiseMethod:
    def test_returns_feasible_certificate(self):
        rng = np.random.default_rng(10)
        y = rng.random((6, 6))
        method = TvDenoiseMethod()
        x, eta = method(y, 0.4)
        assert x.shape == (6, 6)
        assert np.abs(eta).max() <= 1.0
        # certificate pairs with the reconstruction's own gradient at full value
        from regselect.operators import GradientOperator

        g = GradientOperator(6).apply(x.ravel())
        active = np.abs(g) > 1e-6
        np.testing.assert_allclose(eta[active], np.sign(g[active]), atol=1e-4)

    def test_lambda_zero_passthrough(self):
        rng = np.random.default_rng(11)
        y = rng.random((5, 5))
        x, eta = TvDenoiseMethod()(y, 0.0)
        np.testing.assert_allclose(x, y, atol=1e-12)
        assert np.all(eta == 0.0)

    def test_denoised_tv_decreases_with_lambda(self):
        rng = np.random.default_rng(12)
        y = rng.random((8, 8))
        method = TvDenoiseMethod()
        tvs = [total_variation(method(y, lam)[0]) for lam in (0.01, 0.1, 1.0)]
        assert tvs[0] >= tvs[1] >= tvs[2]
