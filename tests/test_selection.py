import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from regselect.operators import DenseOperator
from regselect.selection import (
    L1BregmanLoss,
    TrainingSet,
    TruncatedSquaredLoss,
    erm_select,
    geometric_grid,
    quasi_optimality_landweber,
    quasi_optimality_tikhonov,
    risk_curve,
)
from regselect.spectral import (
    Landweber,
    Tikhonov,
    landweber_factors,
    landweber_iterations,
    spectral_filter_solve,
)
from regselect.experiments.methods import SpectralFilterMethod
from regselect.variational import bregman_l1


class TestGeometricGrid:
    def test_recurrence(self):
        g = geometric_grid(1e-4, 100.0, 500)
        for j in range(1, g.count):
            assert g.values[j] == pytest.approx(g.values[j - 1] * g.ratio, rel=1e-12)

    def test_endpoints(self):
        g = geometric_grid(1e-3, 1.0, 87)
        assert g.values[0] == pytest.approx(1e-3, rel=1e-12)
        assert g.values[-1] == pytest.approx(1.0, rel=1e-10)

    def test_ratio_formula(self):
        g = geometric_grid(1e-5, 1.0, 500)
        assert g.ratio == pytest.approx((1.0 / 1e-5) ** (1.0 / 499.0), rel=1e-14)

    def test_two_point_grid(self):
        g = geometric_grid(0.5, 2.0, 2)
        np.testing.assert_allclose(g.values, [0.5, 2.0], rtol=1e-15)
        assert g.ratio == pytest.approx(4.0)

    def test_single_point_grid(self):
        g = geometric_grid(0.3, 0.3, 1)
        np.testing.assert_array_equal(g.values, [0.3])
        with pytest.raises(ValueError):
            geometric_grid(0.3, 0.4, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            geometric_grid(0.0, 1.0, 10)
        with pytest.raises(ValueError):
            geometric_grid(1.0, 0.5, 10)
        with pytest.raises(ValueError):
            geometric_grid(1e-3, 1.0, 0)

    def test_len(self):
        assert len(geometric_grid(1e-2, 1.0, 33)) == 33


class TestTrainingSet:
    def test_pairing_validation(self):
        with pytest.raises(ValueError):
            TrainingSet(np.ones((3, 2)), np.ones((2, 2)))
        with pytest.raises(ValueError):
            TrainingSet(np.ones((0, 2)), np.ones((0, 2)))

    def test_pairs_iterates_rows(self):
        data = TrainingSet(np.array([[1.0], [2.0]]), np.array([[3.0], [4.0]]))
        got = [(y[0], x[0]) for y, x in data.pairs]
        assert got == [(1.0, 3.0), (2.0, 4.0)]


class TestLosses:
    def test_truncated_squared_hand_value(self):
        loss = TruncatedSquaredLoss()
        # (3,4) truncates to (0.6,0.8); truth (0,0): squared norm 1
        assert loss(np.array([3.0, 4.0]), np.zeros(2)) == pytest.approx(1.0)
        assert loss.bound == 4.0

    def test_truncated_batch_matches_loop(self):
        rng = np.random.default_rng(0)
        loss = TruncatedSquaredLoss()
        recons = rng.standard_normal((40, 6)) * 2
        truth = rng.standard_normal(6) * 0.3
        batch = loss.batch(recons, truth)
        loop = np.array([loss(r, truth) for r in recons])
        np.testing.assert_allclose(batch, loop, atol=1e-12)

    def test_l1_bregman_matches_function(self):
        rng = np.random.default_rng(1)
        loss = L1BregmanLoss()
        recon = rng.standard_normal(9)
        truth = rng.standard_normal(9)
        assert loss(recon, truth) == pytest.approx(bregman_l1(truth, recon), rel=1e-12)

    def test_l1_bregman_batch_matches_loop(self):
        rng = np.random.default_rng(2)
        loss = L1BregmanLoss()
        recons = rng.standard_normal((25, 7))
        truth = rng.standard_normal(7)
        np.testing.assert_allclose(loss.batch(recons, truth),
                                   [loss(r, truth) for r in recons], atol=1e-12)


def scalar_method(y, lam):
    # toy rule x = y / (1 + lam); risk curves are exactly computable
    return y / (1.0 + lam)


class TestSelection:
    def test_empirical_risk_hand_value(self):
        data = TrainingSet(np.array([[1.0, 0.0]]), np.array([[0.5, 0.0]]))
        loss = TruncatedSquaredLoss()
        # recon = (1/(1+1), 0) = (0.5, 0): loss 0 at lam=1, 1/36 at lam=2
        curve = risk_curve(scalar_method, loss, data, [1.0, 2.0])
        np.testing.assert_allclose(curve, [0.0, 1.0 / 36.0], atol=1e-15)

    def test_risk_curve_matches_pointwise_risks(self):
        rng = np.random.default_rng(3)
        data = TrainingSet(rng.standard_normal((6, 4)), rng.standard_normal((6, 4)) * 0.3)
        grid = geometric_grid(1e-2, 10.0, 25)
        loss = TruncatedSquaredLoss()
        curve = risk_curve(scalar_method, loss, data, grid)
        loop = [np.mean([loss(scalar_method(y, lam), x) for y, x in data.pairs])
                for lam in grid.values]
        np.testing.assert_allclose(curve, loop, atol=1e-12)

    def test_erm_select_is_argmin(self):
        rng = np.random.default_rng(4)
        data = TrainingSet(rng.standard_normal((8, 3)), rng.standard_normal((8, 3)) * 0.2)
        grid = geometric_grid(1e-3, 100.0, 60)
        loss = TruncatedSquaredLoss()
        lam_hat, risks = erm_select(scalar_method, loss, data, grid)
        assert lam_hat == grid.values[np.argmin(risks)]

    def test_erm_tie_goes_to_smallest_index(self):
        class FlatMethod:
            def __call__(self, y, lam):
                return np.zeros_like(y)

        data = TrainingSet(np.ones((2, 2)), np.ones((2, 2)) * 0.1)
        grid = geometric_grid(0.1, 10.0, 7)
        lam_hat, risks = erm_select(FlatMethod(), TruncatedSquaredLoss(), data, grid)
        assert np.ptp(risks) == 0.0
        assert lam_hat == grid.values[0]

    def test_spectral_fast_paths_match_plain_loop(self):
        # hook -> solve_grid -> plain loop must all agree exactly; a bare
        # callable has neither hook, so risk_curve runs the per-call loop
        rng = np.random.default_rng(5)
        op = DenseOperator(rng.standard_normal((12, 9))).normalize()
        method = SpectralFilterMethod(op, Tikhonov())
        xs = rng.standard_normal((5, 9))
        xs /= np.linalg.norm(xs, axis=1, keepdims=True) * 1.3
        ys = op.apply(xs) + 0.05 * rng.standard_normal((5, 12))
        data = TrainingSet(ys, xs)
        grid = geometric_grid(1e-3, 10.0, 40)
        loss = TruncatedSquaredLoss()
        fast = risk_curve(method, loss, data, grid)
        plain = risk_curve(lambda y, lam: method(y, lam), loss, data, grid)
        np.testing.assert_allclose(fast, plain, atol=1e-10)


def reference_qo_landweber(op, y, lams, stepsize):
    """The per-grid-point loop: two factor rows and one norm per grid value."""
    dec = op.decomposition()
    eig = dec.singular_values ** 2
    coeffs = (y @ dec.left) * dec.singular_values
    dists = []
    for lam in lams[1:]:
        k = landweber_iterations(lam)
        delta = (landweber_factors(eig, 2 * k, stepsize) - landweber_factors(eig, k, stepsize)) * coeffs
        dists.append(np.linalg.norm(delta))
    return int(np.argmin(dists))


@st.composite
def landweber_qo_problems(draw):
    """A random normalized operator, observation and stepsize, and a grid
    dense enough that many points share k; about a third of the grids end
    above 1, in a tail where k = 0 and the distance is 0."""
    m, d = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    op = DenseOperator(rng.standard_normal((m, d))).normalize()
    y = rng.standard_normal(m) * draw(st.sampled_from([0.0, 1e-3, 1.0]))
    grid = geometric_grid(10.0 ** rng.uniform(-3.0, -1.5), 10.0 ** rng.uniform(-1.4, 0.6),
                          draw(st.integers(2, 400)))
    return op, y, grid, draw(st.floats(0.05, 1.95))


class TestQuasiOptimality:
    def test_tikhonov_brute_force_oracle(self):
        rng = np.random.default_rng(6)
        op = DenseOperator(rng.standard_normal((10, 10))).normalize()
        dec = op.decomposition()
        grid = geometric_grid(1e-4, 1.0, 50)
        y = rng.standard_normal(10)
        path = [spectral_filter_solve(dec, Tikhonov(), y, lam) for lam in grid.values]
        j, lam = quasi_optimality_tikhonov(path, grid)
        dists = [np.linalg.norm(path[i + 1] - path[i]) for i in range(len(path) - 1)]
        assert j == int(np.argmin(dists))
        assert lam == grid.values[j]

    def test_tikhonov_never_selects_last_point(self):
        grid = geometric_grid(0.1, 10.0, 5)
        path = np.zeros((5, 3))  # all-equal path: ties resolve to index 0
        j, _ = quasi_optimality_tikhonov(path, grid)
        assert j == 0

    def test_tikhonov_image_shaped_path(self):
        rng = np.random.default_rng(7)
        grid = geometric_grid(0.1, 10.0, 6)
        path = rng.standard_normal((6, 4, 4))
        j, _ = quasi_optimality_tikhonov(path, grid)
        flat = path.reshape(6, -1)
        dists = np.linalg.norm(np.diff(flat, axis=0), axis=1)
        assert j == int(np.argmin(dists))

    def test_tikhonov_path_length_validation(self):
        grid = geometric_grid(0.1, 10.0, 5)
        with pytest.raises(ValueError):
            quasi_optimality_tikhonov(np.zeros((4, 3)), grid)

    def test_landweber_brute_force_oracle(self):
        rng = np.random.default_rng(8)
        op = DenseOperator(rng.standard_normal((9, 9))).normalize()
        dec = op.decomposition()
        grid = geometric_grid(1e-2, 1.0, 30)
        y = rng.standard_normal(9)
        j, lam = quasi_optimality_landweber(op, y, grid, stepsize=0.2)
        # oracle: compare iterate k(lam_{j+1}) with its doubling directly
        filt = Landweber(stepsize=0.2)
        dists = []
        for i in range(grid.count - 1):
            k = landweber_iterations(grid.values[i + 1])
            # spectral_filter_solve consumes lam, so evaluate via factors at k, 2k
            from regselect.spectral import landweber_factors

            sig = dec.singular_values
            coeff = (y @ dec.left) * sig
            xk = (landweber_factors(sig ** 2, k, 0.2) * coeff) @ dec.right.T
            x2k = (landweber_factors(sig ** 2, 2 * k, 0.2) * coeff) @ dec.right.T
            dists.append(np.linalg.norm(x2k - xk))
        assert j == int(np.argmin(dists))
        assert lam == grid.values[j]

    def test_landweber_zero_iterations_edge(self):
        # lam > 1 at the tail means k = 0 and the doubling distance is 0;
        # the rule must still return a well-defined index
        rng = np.random.default_rng(9)
        op = DenseOperator(rng.standard_normal((5, 5))).normalize()
        grid = geometric_grid(0.5, 4.0, 8)
        j, lam = quasi_optimality_landweber(op, rng.standard_normal(5), grid)
        assert 0 <= j < grid.count - 1

    @settings(max_examples=80, deadline=None)
    @given(landweber_qo_problems())
    def test_landweber_matches_per_grid_point_loop(self, problem):
        op, y, grid, stepsize = problem
        j, lam = quasi_optimality_landweber(op, y, grid, stepsize)
        assert j == reference_qo_landweber(op, y, grid.values, stepsize)
        assert lam == grid.values[j]

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 12), st.lists(st.integers(0, 5000), min_size=1, max_size=40),
           st.floats(0.05, 1.95), st.integers(0, 2 ** 32 - 1))
    def test_landweber_factor_rows_equal_scalar_calls_bitwise(self, r, ks, stepsize, seed):
        rng = np.random.default_rng(seed)
        eig = rng.uniform(0.0, 1.0, r) * (rng.random(r) < 0.8)  # some exact zeros
        ks = np.array([0, 1, 2] + ks)
        table = landweber_factors(eig, ks, stepsize)
        stacked = np.stack([landweber_factors(eig, int(k), stepsize) for k in ks])
        assert table.shape == (ks.size, r)
        assert table.tobytes() == stacked.tobytes()
