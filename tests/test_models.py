import struct

import numpy as np
import pytest

from regselect.experiments import models
from regselect.experiments.idx import load_idx_images
from regselect.experiments.models import (
    SparseDeblur,
    SparseDenoise,
    SpectralSource,
    TvImages,
    sample_unit_ball,
)
from regselect.experiments.risk import rng_from
from regselect.experiments.studies import StudyConfig, make_loss, run_risk_curve
from regselect.operators import ConvolutionOperator


class TestUnitBall:
    def test_norms_never_exceed_one(self):
        rng = np.random.default_rng(0)
        pts = sample_unit_ball(8, rng, 5000)
        assert pts.shape == (5000, 8)
        assert np.linalg.norm(pts, axis=1).max() <= 1.0 + 1e-12

    def test_second_moment(self):
        # E ||X||^2 = d / (d + 2) for the uniform ball; MC tolerance ~30 sigma
        rng = np.random.default_rng(1)
        for d in (2, 5, 11):
            pts = sample_unit_ball(d, rng, 200_000)
            want = d / (d + 2.0)
            assert np.mean(np.sum(pts ** 2, axis=1)) == pytest.approx(want, rel=0.02)

    def test_mean_is_origin(self):
        rng = np.random.default_rng(2)
        pts = sample_unit_ball(1, rng, 100_000)
        # Var X = 1/3 in d=1; allow 4 standard errors
        assert abs(pts.mean()) <= 4.0 * np.sqrt(1.0 / 3.0 / 100_000)

    def test_single_draw_shape(self):
        rng = np.random.default_rng(3)
        assert sample_unit_ball(6, rng).shape == (6,)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            sample_unit_ball(0, np.random.default_rng(0))


class TestSpectralSource:
    def test_sample_shapes_and_norms(self):
        model = SpectralSource(d=12, noise_level=0.05)
        data = model.sample(rng_from(0, "t"), 40)
        assert data.ys.shape == (40, 12)
        assert data.xs.shape == (40, 12)
        assert np.linalg.norm(data.xs, axis=1).max() <= 1.0 + 1e-9

    def test_noiseless_consistency(self):
        # tau = 0: observations are exactly the operator applied to the truths
        model = SpectralSource(d=10, noise_level=0.0)
        data = model.sample(rng_from(1, "t"), 15)
        np.testing.assert_allclose(data.ys, model.operator().apply(data.xs), atol=1e-14)

    def test_operator_is_normalized_and_cached(self):
        model = SpectralSource(d=20)
        op = model.operator()
        assert op.operator_norm() <= 1.0 + 1e-10
        assert model.operator() is op
        # same seed, fresh instance: identical matrix
        np.testing.assert_array_equal(SpectralSource(d=20).operator().matrix, op.matrix)

    def test_different_operator_seeds_differ(self):
        a = SpectralSource(d=8, operator_seed=0).operator().matrix
        b = SpectralSource(d=8, operator_seed=1).operator().matrix
        assert np.abs(a - b).max() > 1e-3

    def test_smoother_sources_have_smaller_high_mode_content(self):
        # larger s multiplies coefficients by higher powers of eigenvalues < 1,
        # so the norm of the truth shrinks with s on the same base draw
        rough = SpectralSource(d=30, source_exponent=0.25)
        smooth = SpectralSource(d=30, source_exponent=2.0)
        xs_r = rough.sample(rng_from(2, "t"), 50).xs
        xs_s = smooth.sample(rng_from(2, "t"), 50).xs
        assert np.linalg.norm(xs_s, axis=1).mean() < np.linalg.norm(xs_r, axis=1).mean()

    def test_determinism(self):
        model = SpectralSource(d=9, noise_level=0.1)
        a = model.sample(rng_from(5, "t"), 7)
        b = model.sample(rng_from(5, "t"), 7)
        np.testing.assert_array_equal(a.ys, b.ys)
        np.testing.assert_array_equal(a.xs, b.xs)


class TestSparseModels:
    def test_denoise_sparsity_and_norm(self):
        model = SparseDenoise(d=100, sparsity=7, noise_level=0.1)
        data = model.sample(rng_from(6, "t"), 30)
        counts = np.count_nonzero(data.xs, axis=1)
        assert np.all(counts == 7)
        np.testing.assert_allclose(np.linalg.norm(data.xs, axis=1), 1.0, rtol=1e-12)

    def test_denoise_observation_model(self):
        model = SparseDenoise(d=50, sparsity=5, noise_level=0.0)
        data = model.sample(rng_from(7, "t"), 10)
        np.testing.assert_array_equal(data.ys, data.xs)

    def test_deblur_noiseless_matches_convolution(self):
        model = SparseDeblur(d=64, sparsity=4, noise_level=0.0)
        data = model.sample(rng_from(8, "t"), 6)
        op = model.operator()
        assert isinstance(op, ConvolutionOperator)
        np.testing.assert_allclose(data.ys, op.apply(data.xs), atol=1e-12)

    def test_deblur_operator_normalized(self):
        assert SparseDeblur(d=128).operator().operator_norm() <= 1.0 + 1e-10


class TestTvImages:
    def test_pool_and_sample(self):
        model = TvImages(side=10, pool_size=16)
        pool = model.pool()
        assert pool.shape == (16, 10, 10)
        assert pool.min() >= 0.0 and pool.max() <= 1.0
        data = model.sample(rng_from(10, "t"), 12)
        assert data.xs.shape == (12, 10, 10)
        assert data.ys.shape == (12, 10, 10)

    def test_noise_is_additive_gaussian(self):
        model = TvImages(side=8, pool_size=4, noise_level=0.0)
        data = model.sample(rng_from(11, "t"), 5)
        np.testing.assert_array_equal(data.ys, data.xs)

    def test_pool_determinism(self):
        np.testing.assert_array_equal(TvImages(side=9, pool_size=8).pool(),
                                      TvImages(side=9, pool_size=8).pool())

    def test_truths_are_pool_members(self):
        model = TvImages(side=6, pool_size=5, noise_level=0.1)
        pool = model.pool()
        data = model.sample(rng_from(12, "t"), 20)
        for img in data.xs:
            assert any(np.array_equal(img, p) for p in pool)

    def test_idx_source_describes_the_file(self, tmp_path):
        # the side and pool_size fields keep their defaults (28, 256); the
        # descriptor and the TV loss bound must follow the 4-image 16x16 file
        path = tmp_path / "tiny.idx"
        pixels = np.arange(4 * 16 * 16, dtype=np.uint8).reshape(4, 16, 16)
        path.write_bytes(struct.pack(">IIII", 0x00000803, 4, 16, 16) + pixels.tobytes())
        model = TvImages(source=str(path))
        info = model.describe()
        assert (info["side"], info["pool_size"]) == (16, 4)
        loss = make_loss(StudyConfig(model="tv", tv_source=str(path)), model)
        assert loss.bound == 4.0 * 16 * 15

    def test_idx_source_is_parsed_once_per_run(self, tmp_path, monkeypatch):
        path = tmp_path / "tiny.idx"
        pixels = np.arange(3 * 6 * 6, dtype=np.uint8).reshape(3, 6, 6)
        path.write_bytes(struct.pack(">IIII", 0x00000803, 3, 6, 6) + pixels.tobytes())
        loads = []

        def counting_load(source):
            loads.append(source)
            return load_idx_images(source)

        monkeypatch.setattr(models, "load_idx_images", counting_load)
        cfg = StudyConfig(model="tv", tv_source=str(path), n=1, trials=3,
                          grid=(0.05, 0.5, 2), out=str(tmp_path / "out"))
        run_risk_curve(cfg)  # loss bound, three samples, CSV metadata
        assert loads == [str(path)]

    def test_pool_is_read_only(self):
        pool = TvImages(side=6, pool_size=3).pool()
        with pytest.raises(ValueError):
            pool[0, 0, 0] = 0.5
