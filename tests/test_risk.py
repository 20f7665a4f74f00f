import numpy as np
import pytest

from regselect.experiments.methods import SpectralFilterMethod
from regselect.experiments.models import sample_unit_ball
from regselect.experiments.risk import RiskReport, rng_from
from regselect.experiments.studies import _holdout_curve, _squared_error_matrix
from regselect.operators import IdentityOperator
from regselect.selection import TrainingSet, TruncatedSquaredLoss, risk_curve
from regselect.spectral import Tikhonov


class TestRngDerivation:
    def test_deterministic(self):
        a = rng_from(42, "role", 3).standard_normal(5)
        b = rng_from(42, "role", 3).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_tags_separate_streams(self):
        a = rng_from(42, "train", 0).standard_normal(4)
        b = rng_from(42, "train", 1).standard_normal(4)
        c = rng_from(42, "test", 0).standard_normal(4)
        assert np.abs(a - b).max() > 1e-12
        assert np.abs(a - c).max() > 1e-12

    def test_master_seed_separates_streams(self):
        a = rng_from(0, "x").standard_normal(4)
        b = rng_from(1, "x").standard_normal(4)
        assert np.abs(a - b).max() > 1e-12

    def test_adding_later_tags_preserves_earlier_draws(self):
        # trial 0 draws must not depend on how many trials run in total
        first = rng_from(7, "trial", 0).standard_normal(3)
        for extra in range(1, 4):
            rng_from(7, "trial", extra).standard_normal(3)
        np.testing.assert_array_equal(first, rng_from(7, "trial", 0).standard_normal(3))

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            rng_from(-1, "x")
        with pytest.raises(ValueError):
            rng_from(2 ** 64, "x")


class IdentityDenoise:
    """Minimal model: truths uniform in the ball, observed without noise."""

    def __init__(self, d):
        self.d = d

    def sample(self, rng, n):
        xs = sample_unit_ball(self.d, rng, n)
        return TrainingSet(xs.copy(), xs)


class TestEstimateExpectedRisk:
    """The Monte Carlo risk estimate: the empirical risk over fresh samples."""

    def test_identity_noiseless_corner(self):
        # Tikhonov on the identity shrinks by 1/(1+lam), so the loss is
        # (lam/(1+lam))^2 ||x||^2 and the risk is that times d/(d+2)
        d, lam, n_mc = 6, 0.5, 40_000
        method = SpectralFilterMethod(IdentityOperator(d), Tikhonov())
        data = IdentityDenoise(d).sample(rng_from(0, "expected-risk"), n_mc)
        (mean,) = risk_curve(method, TruncatedSquaredLoss(), data, [lam])
        want = (lam / (1 + lam)) ** 2 * d / (d + 2.0)
        assert mean == pytest.approx(want, rel=0.03)

    def test_quantiles_bracket_distribution(self):
        d, lam = 4, 1.0
        method = SpectralFilterMethod(IdentityOperator(d), Tikhonov())
        data = IdentityDenoise(d).sample(rng_from(1, "expected-risk"), 10_000)
        losses = _squared_error_matrix(method, data, [lam])[:, 0]
        p05, p95 = np.percentile(losses, [5, 95])
        scale = (lam / (1 + lam)) ** 2
        # ||x||^2 has CDF t^(d/2) on [0,1]: p-th quantile is p^(2/d)
        assert p05 == pytest.approx(scale * 0.05 ** (2.0 / d), rel=0.1)
        assert p95 == pytest.approx(scale * 0.95 ** (2.0 / d), rel=0.02)

    def test_deterministic_in_seed(self):
        method = SpectralFilterMethod(IdentityOperator(3), Tikhonov())
        args = (method, TruncatedSquaredLoss(), IdentityDenoise(3), [0.2, 0.4], 500)
        a = _holdout_curve(*args, 9, "holdout")
        b = _holdout_curve(*args, 9, "holdout")
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, _holdout_curve(*args, 10, "holdout"))

    def test_rejects_bad_n_mc(self):
        method = SpectralFilterMethod(IdentityOperator(3), Tikhonov())
        with pytest.raises(ValueError):
            _holdout_curve(method, TruncatedSquaredLoss(), IdentityDenoise(3), [0.2], 0, 0,
                           "holdout")


class TestRiskReport:
    def test_row_count_validation(self):
        grid = np.array([0.1, 0.2, 0.3])
        ok = RiskReport(grid=grid, risk_mean=np.zeros(3), risk_p05=np.zeros(3),
                        risk_p95=np.zeros(3), lambda_hats=np.zeros(5), metadata={})
        assert len(ok.grid) == 3
        with pytest.raises(ValueError):
            RiskReport(grid=grid, risk_mean=np.zeros(2), risk_p05=np.zeros(3),
                       risk_p95=np.zeros(3), lambda_hats=np.zeros(5), metadata={})
