"""The benchmark workloads: the study each one calls, its inputs per round,
and the checks of its outputs.

A run of a workload is a series of rounds.  Round r of a run with seed n
calls one study driver with the study seed `round_seed(n, r)`, so every
round is a fresh problem and a cache kept across study calls cannot turn
later rounds into repeats of the first.  An operation is one ERM selection
made by the study; `selections(cfg)` says how many a round makes.

The checks recompute what the study reports with this file's own numpy
code (SVD filters, closed-form soft-threshold losses, circulant matrices,
forward differences) or test a property the method must have.  They reuse
the program's seeded samplers only to regenerate the study's inputs.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np

from regselect.experiments.methods import TvDenoiseMethod
from regselect.experiments.risk import rng_from
from regselect.experiments.studies import (
    StudyConfig,
    make_model,
    run_plateau_study,
    run_qo_comparison,
    run_risk_curve,
)
from regselect.variational import lasso_solve

# Rounding slack for quantities that are >= 0 in exact arithmetic but are
# computed as a difference of two sums.
EPS = 1e-12
# Absolute tolerance when comparing a loss recomputed here with the study's.
LOSS_TOL = 1e-10
# Largest lasso optimality violation accepted at lambda_hat, relative to
# lambda_hat.  The solver stops when its step is small, which certifies no
# accuracy; violations of up to 7e-4 lambda were seen on the full workload.
KKT_RTOL = 5e-2
# TV: primal-dual gap at lambda_hat relative to the primal objective, and the
# slack below zero allowed for a TV Bregman risk whose dual field is inexact.
# The solver also stops on a small step; relative gaps of up to 3e-5 were
# seen at lambda = 1.
TV_GAP_RTOL = 1e-3
TV_RISK_TOL = 1e-4


def round_seed(seed: int, r: int) -> int:
    """Study seed of round r of a run with the given seed (63 bits)."""
    digest = hashlib.blake2s(f"{seed}:{r}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def own_grid(lo: float, hi: float, count: int) -> np.ndarray:
    """Geometric grid lo * q^j with q = (hi/lo)^(1/(count-1))."""
    ratio = (hi / lo) ** (1.0 / (count - 1))
    return lo * ratio ** np.arange(count)


def grid_index(lams: np.ndarray, lam: float) -> int:
    """Index of the grid value a CSV reports, which is written with repr."""
    j = int(np.argmin(np.abs(lams - lam)))
    if not math.isclose(lams[j], lam, rel_tol=1e-12):
        raise ValueError(f"{lam!r} is not a grid value")
    return j


def read_csv(path) -> tuple[dict, list[str], list[list[str]]]:
    """Split a study CSV into its `# key=value` metadata, header and rows."""
    meta, rows = {}, []
    header = None
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    if header is None:
        raise ValueError(f"{path}: no header row")
    return meta, header, rows


class Check:
    """Outcome of checking one round: failed selections and what went wrong.

    A problem that cannot be pinned on one selection marks the round's
    outputs as incorrect instead.
    """

    def __init__(self):
        self.failed = 0
        self.problems: list[str] = []
        self.correct = True

    def fail(self, count: int, message: str):
        self.failed += count
        self.problems.append(message)

    def wrong(self, message: str):
        self.correct = False
        self.problems.append(message)


class Workload:
    name = ""
    driver = None
    outputs: tuple[str, ...] = ()

    def config(self, seed: int, out: Path, tiny: bool) -> StudyConfig:
        raise NotImplementedError

    def prepare(self, cfg: StudyConfig) -> None:
        """Write the round's input files, if the study reads any."""

    def selections(self, cfg: StudyConfig) -> int:
        raise NotImplementedError

    def check(self, cfg: StudyConfig) -> Check:
        raise NotImplementedError


# ---------------------------------------------------------------- qo-spectral


def _spectral_recon(coef: np.ndarray, factors: np.ndarray, vt: np.ndarray) -> np.ndarray:
    """Filter reconstructions V diag(g sigma) U^T y: coef (n, r), factors (m, r) -> (m, n, d)."""
    return (factors[:, None, :] * coef[None, :, :]) @ vt


def _truncate_rows(z: np.ndarray) -> np.ndarray:
    nrm = np.linalg.norm(z, axis=-1, keepdims=True)
    return np.where(nrm > 1.0, z / np.maximum(nrm, 1e-300), z)


class QoSpectral(Workload):
    """compare-qo: learned minus quasi-optimal test error for Tikhonov and Landweber."""

    name = "qo-spectral"
    driver = staticmethod(run_qo_comparison)
    outputs = ("qo_comparison.csv",)

    def config(self, seed, out, tiny):
        cfg = StudyConfig(model="spectral", seed=seed, operator_seed=seed, trials=1, out=str(out))
        if tiny:
            cfg = replace(cfg, d=12, trials=2, qo_n_train=30, qo_n_test=4,
                          qo_tikhonov_grid=(1e-5, 10.0, 40), qo_landweber_grid=(1e-3, 1.0, 30))
        return cfg

    def selections(self, cfg):
        return 2 * len(cfg.qo_taus) * cfg.trials

    def check(self, cfg):
        chk = Check()
        try:
            meta, header, rows = read_csv(Path(cfg.out) / "qo_comparison.csv")
        except (OSError, ValueError) as exc:
            chk.fail(self.selections(cfg), f"unreadable output: {exc}")
            return chk
        cells = [(m, ti) for m in ("tikhonov", "landweber") for ti in range(len(cfg.qo_taus))]
        if header != ["method", "tau", "mean", "std"] or len(rows) != len(cells):
            chk.fail(self.selections(cfg), f"expected {len(cells)} rows of method,tau,mean,std")
            return chk
        if int(meta.get("seed", -1)) != cfg.seed or int(meta.get("trials", -1)) != cfg.trials:
            chk.wrong("metadata does not record the study's seed and trials")
        for (m, ti), row in zip(cells, rows):
            if row[0] != m or float(row[1]) != cfg.qo_taus[ti]:
                chk.fail(cfg.trials, f"row {row} out of order")
            elif not (math.isfinite(float(row[2])) and float(row[3]) >= 0.0):
                chk.fail(cfg.trials, f"row {row} has a non-finite mean or negative std")
        # Recompute one cell in full; the round seed picks which.
        m, ti = cells[cfg.seed % len(cells)]
        mean, std, scale = self._cell(cfg, m, ti)
        got_mean, got_std = map(float, rows[cells.index((m, ti))][2:])
        tol = 1e-10 * scale
        if abs(got_mean - mean) > tol + 1e-8 * abs(mean) or abs(got_std - std) > tol + 1e-8 * abs(std):
            chk.fail(cfg.trials, f"cell ({m}, tau={cfg.qo_taus[ti]}): study gives mean {got_mean!r} "
                                 f"std {got_std!r}, recomputed mean {mean!r} std {std!r}")
        return chk

    def _cell(self, cfg, method_name, ti):
        """Mean and std over trials of learned minus QO test error, by definition."""
        tau = float(cfg.qo_taus[ti])
        model = replace(make_model(cfg), noise_level=tau)
        u, sig, vt = np.linalg.svd(model.operator().matrix, full_matrices=False)
        eig = sig ** 2
        lams = own_grid(*(cfg.qo_tikhonov_grid if method_name == "tikhonov" else cfg.qo_landweber_grid))
        if method_name == "tikhonov":
            keys = np.arange(lams.size)
            factors = 1.0 / (eig[None, :] + lams[:, None])
        else:
            # Landweber with k = floor(1/lam) steps; grid points sharing k give
            # the same reconstruction, so compute one row per distinct k.
            ks = np.floor(1.0 / lams).astype(np.int64)
            distinct, keys = np.unique(ks, return_inverse=True)
            factors = self._landweber(eig, distinct, cfg.stepsize)

        def coef(ys):
            return (np.asarray(ys) @ u) * sig

        test = model.sample(rng_from(cfg.seed, "qo-test", method_name, ti), cfg.qo_n_test)
        c_test = coef(test.ys)
        if method_name == "landweber":
            # Doubling rule: grid point j compares 2k and k steps, k from point j+1.
            k_next, doubled = np.unique(np.floor(1.0 / lams[1:]).astype(np.int64), return_inverse=True)
            step_gap = self._landweber(eig, 2 * k_next, cfg.stepsize) - self._landweber(eig, k_next, cfg.stepsize)
        # Quasi-optimality index per test observation.
        qo = np.empty(cfg.qo_n_test, dtype=int)
        for i in range(cfg.qo_n_test):
            if method_name == "tikhonov":
                path = (factors * c_test[i]) @ vt
                qo[i] = int(np.argmin(np.linalg.norm(np.diff(path, axis=0), axis=1)))
            else:
                qo[i] = int(np.argmin(np.linalg.norm((step_gap * c_test[i]) @ vt, axis=1)[doubled]))

        def test_error(j_per_obs):
            recon = (factors[keys[j_per_obs]] * c_test) @ vt
            return float(np.mean(np.sum((recon - test.xs) ** 2, axis=1)))

        qo_error = test_error(qo)
        diffs = []
        for trial in range(cfg.trials):
            train = model.sample(rng_from(cfg.seed, "qo-train", method_name, ti, trial), cfg.qo_n_train)
            c_train, x_trunc = coef(train.ys), _truncate_rows(train.xs)
            risk = np.empty(factors.shape[0])
            for lo in range(0, factors.shape[0], 10):
                recon = _truncate_rows(_spectral_recon(c_train, factors[lo:lo + 10], vt))
                risk[lo:lo + 10] = np.mean(np.sum((recon - x_trunc) ** 2, axis=2), axis=1)
            j_hat = int(np.argmin(risk[keys]))
            diffs.append(test_error(np.full(cfg.qo_n_test, j_hat)) - qo_error)
        return float(np.mean(diffs)), float(np.std(diffs)), qo_error

    @staticmethod
    def _landweber(eig, ks, stepsize):
        """Filter factors (1 - (1 - eta e)^k) / e of k Landweber steps, one row per k."""
        ks = np.asarray(ks, dtype=float)[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            g = (1.0 - (1.0 - stepsize * eig[None, :]) ** ks) / eig[None, :]
        return np.where(eig[None, :] > 0, g, stepsize * ks)


# ------------------------------------------------------------ denoise-plateau


def soft_l1_curve(ys: np.ndarray, xs: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Mean l1-Bregman loss of soft thresholding at every grid value, closed form.

    sign(S_lam(y)) = sign(y) on {|y| > lam} and 0 elsewhere, so the loss
    ||x||_1 - <sign(S_lam(y)), x> is ||x||_1 minus a prefix sum of
    sign(y_j) x_j over the coordinates sorted by decreasing |y_j|.
    """
    n, d = ys.shape
    ay = np.abs(ys)
    order = np.argsort(-ay, axis=1, kind="stable")
    prefix = np.zeros((n, d + 1))
    prefix[:, 1:] = np.cumsum(np.take_along_axis(np.sign(ys) * xs, order, axis=1), axis=1)
    ascending = np.sort(ay, axis=1)
    losses = np.empty((n, lams.size))
    for i in range(n):
        above = d - np.searchsorted(ascending[i], lams, side="right")
        losses[i] = np.abs(xs[i]).sum() - prefix[i, above]
    return losses.mean(axis=0)


class DenoisePlateau(Workload):
    """plateau-study --model denoise: holdout risk of lambda_hat per training size."""

    name = "denoise-plateau"
    driver = staticmethod(run_plateau_study)
    outputs = ("plateau_trials.csv", "plateau.csv")

    def config(self, seed, out, tiny):
        cfg = StudyConfig(model="denoise", seed=seed, trials=1, n_mc=50, out=str(out))
        if tiny:
            cfg = replace(cfg, d=48, sparsity=4, n_mc=6, trials=2, grid=(1e-4, 100.0, 40),
                          plateau_sizes=(2, 5))
        return cfg

    def selections(self, cfg):
        return len(cfg.plateau_sizes) * cfg.trials

    def check(self, cfg):
        chk = Check()
        total = self.selections(cfg)
        try:
            meta, header, rows = read_csv(Path(cfg.out) / "plateau_trials.csv")
            _, agg_header, agg_rows = read_csv(Path(cfg.out) / "plateau.csv")
            oracle_lambda, oracle_risk = float(meta["oracle_lambda"]), float(meta["oracle_risk"])
        except (OSError, ValueError, KeyError) as exc:
            chk.fail(total, f"unreadable output: {exc}")
            return chk
        expected = [(int(n), t) for n in cfg.plateau_sizes for t in range(cfg.trials)]
        if header != ["n", "trial", "lambda_hat", "risk"] or [(int(r[0]), int(r[1])) for r in rows] != expected:
            chk.fail(total, "plateau_trials.csv does not hold one row per (n, trial)")
            return chk
        model = make_model(cfg)
        lams = own_grid(*cfg.grid)
        pool = model.sample(rng_from(cfg.seed, "plateau-holdout"), cfg.n_mc)
        holdout = soft_l1_curve(pool.ys, pool.xs, lams)
        best = float(holdout.min())
        try:
            j_oracle = grid_index(lams, oracle_lambda)
        except ValueError as exc:
            chk.fail(total, f"oracle: {exc}")
            return chk
        if holdout[j_oracle] > best + LOSS_TOL or abs(oracle_risk - best) > LOSS_TOL:
            chk.fail(total, f"oracle lambda {oracle_lambda!r} / risk {oracle_risk!r} do not minimize "
                            f"the recomputed holdout curve (minimum {best!r})")
            return chk
        risks_by_n: dict[int, list[float]] = {}
        for n_text, trial_text, lam_text, risk_text in rows:
            n, trial, lam_hat, risk = int(n_text), int(trial_text), float(lam_text), float(risk_text)
            risks_by_n.setdefault(n, []).append(risk)
            try:
                j = grid_index(lams, lam_hat)
            except ValueError as exc:
                chk.fail(1, f"n={n} trial={trial}: {exc}")
                continue
            train = model.sample(rng_from(cfg.seed, "plateau-train", n, trial), n)
            curve = soft_l1_curve(train.ys, train.xs, lams)
            if risk < oracle_risk or risk < -EPS:
                chk.fail(1, f"n={n} trial={trial}: risk {risk!r} below the oracle risk or zero")
            elif abs(holdout[j] - risk) > LOSS_TOL:
                chk.fail(1, f"n={n} trial={trial}: risk {risk!r} is not the holdout risk {holdout[j]!r}")
            elif curve[j] > curve.min() + LOSS_TOL:
                chk.fail(1, f"n={n} trial={trial}: lambda_hat {lam_hat!r} does not minimize the "
                            f"training risk ({curve[j]!r} > {curve.min()!r})")
        if agg_header != ["n", "risk_mean", "risk_p05", "risk_p95"] or len(agg_rows) != len(risks_by_n):
            chk.wrong("plateau.csv does not hold one row per training size")
        for row in agg_rows:
            risks = risks_by_n.get(int(row[0]), [math.nan])
            mean, p05, p95 = map(float, row[1:])
            if not (math.isclose(mean, float(np.mean(risks)), rel_tol=1e-12, abs_tol=EPS)
                    and min(risks) - EPS <= p05 <= p95 <= max(risks) + EPS):
                chk.wrong(f"plateau.csv row {row} does not summarize its trials")
        return chk


# ----------------------------------------------------- deblur-path and tv-idx


def _risk_curve_outputs(cfg, chk: Check):
    """(grid, mean, p05, p95, lambda_hats) from the risk-curve CSVs, or None."""
    try:
        _, header, rows = read_csv(Path(cfg.out) / "risk_curve.csv")
        _, t_header, t_rows = read_csv(Path(cfg.out) / "risk_curve_trials.csv")
    except (OSError, ValueError) as exc:
        chk.fail(cfg.trials, f"unreadable output: {exc}")
        return None
    if header != ["lambda", "risk_mean", "risk_p05", "risk_p95"] or len(rows) != cfg.grid[2] \
            or t_header != ["trial", "lambda_hat"] or len(t_rows) != cfg.trials:
        chk.fail(cfg.trials, "risk-curve CSVs do not hold one row per grid value and per trial")
        return None
    table = np.array(rows, dtype=float)
    lams = own_grid(*cfg.grid)
    if not np.allclose(table[:, 0], lams, rtol=1e-12, atol=0.0):
        chk.wrong("risk_curve.csv grid differs from the configured grid")
    return lams, table[:, 1], table[:, 2], table[:, 3], [float(r[1]) for r in t_rows]


def circulant(kernel: np.ndarray) -> np.ndarray:
    """Matrix C with C x the circular convolution of kernel and x."""
    d = kernel.size
    return kernel[(np.arange(d)[:, None] - np.arange(d)[None, :]) % d]


def deriv2_gaussian_kernel(d: int) -> np.ndarray:
    """Mean-free second derivative of exp(-t^2/(2 pi^2)) on centred integers,
    scaled to unit operator norm (largest Fourier magnitude)."""
    t = np.arange(d, dtype=float) - d // 2
    h = np.exp(-t ** 2 / (2 * np.pi ** 2)) * (t ** 2 / np.pi ** 4 - 1.0 / np.pi ** 2)
    h = h - h.mean()
    return h / np.abs(np.fft.fft(h)).max()


class DeblurPath(Workload):
    """risk-curve --model deblur: warm-started FISTA lasso along the grid."""

    name = "deblur-path"
    driver = staticmethod(run_risk_curve)
    outputs = ("risk_curve.csv", "risk_curve_trials.csv")

    def config(self, seed, out, tiny):
        cfg = StudyConfig(model="deblur", seed=seed, n=1, trials=1, grid=(1e-4, 1.0, 20), out=str(out))
        if tiny:
            cfg = replace(cfg, d=32, sparsity=2, n=2, grid=(1e-2, 1.0, 6))
        return cfg

    def selections(self, cfg):
        return cfg.trials

    def check(self, cfg):
        chk = Check()
        parsed = _risk_curve_outputs(cfg, chk)
        if parsed is None:
            return chk
        lams, mean, p05, p95, hats = parsed
        if np.any(np.minimum(np.minimum(mean, p05), p95) < -EPS):
            chk.wrong("a risk-curve value is negative")
        model = make_model(cfg)
        op = model.operator()
        mat = circulant(deriv2_gaussian_kernel(model.d))
        if not np.allclose(op.kernel, mat[:, 0], rtol=0.0, atol=1e-12):
            chk.wrong("the study's blur kernel differs from the documented formula")
        trials = [model.sample(rng_from(cfg.seed, "risk-curve-train", t), cfg.n) for t in range(cfg.trials)]
        # Above max ||A^T y||_inf every lasso solution is 0, so the l1-Bregman
        # loss of pair i is exactly ||x_i||_1.
        lam_max = max(float(np.abs(data.ys @ mat).max()) for data in trials)
        l1 = float(np.mean([np.abs(data.xs).sum(axis=1).mean() for data in trials]))
        above = lams >= lam_max
        if not np.allclose(mean[above], l1, rtol=1e-12, atol=EPS):
            chk.wrong(f"risk above lambda_max={lam_max!r} differs from the mean l1 norm {l1!r}")
        for t, (data, lam_hat) in enumerate(zip(trials, hats)):
            try:
                j = grid_index(lams, lam_hat)
            except ValueError as exc:
                chk.fail(1, f"trial {t}: {exc}")
                continue
            if cfg.trials == 1 and mean[j] > mean.min():
                chk.fail(1, f"trial {t}: lambda_hat {lam_hat!r} does not minimize the risk curve")
                continue
            worst = 0.0
            for y in data.ys:
                x = lasso_solve(op, y, lam_hat)
                grad = mat.T @ (y - mat @ x)
                on = x != 0
                worst = max(worst,
                            float(np.abs(grad[on] - lam_hat * np.sign(x[on])).max(initial=0.0)),
                            float((np.abs(grad[~on]) - lam_hat).max(initial=0.0)))
            if worst > KKT_RTOL * lam_hat:
                chk.fail(1, f"trial {t}: lasso optimality violated by {worst!r} at lambda_hat {lam_hat!r}")
        return chk


def rectangle_images(seed: int, count: int, side: int) -> np.ndarray:
    """Piecewise-constant uint8 images: each the clipped sum of 2-4 random
    bright rectangles."""
    rng = np.random.default_rng(seed)
    imgs = np.zeros((count, side, side))
    for img in imgs:
        for _ in range(int(rng.integers(2, 5))):
            r0, r1 = np.sort(rng.integers(0, side, size=2))
            c0, c1 = np.sort(rng.integers(0, side, size=2))
            img[r0:r1 + 1, c0:c1 + 1] += rng.random()
    return np.round(np.clip(imgs, 0.0, 1.0) * 255.0).astype(np.uint8)


def forward_differences(img: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return img[1:, :] - img[:-1, :], img[:, 1:] - img[:, :-1]


def forward_differences_adjoint(pv: np.ndarray, ph: np.ndarray) -> np.ndarray:
    d = pv.shape[1]
    out = np.zeros((d, d))
    out[:-1, :] -= pv
    out[1:, :] += pv
    out[:, :-1] -= ph
    out[:, 1:] += ph
    return out


def rof_gap(y: np.ndarray, lam: float, x: np.ndarray, eta: np.ndarray) -> tuple[float, float]:
    """Primal-dual gap and primal value of min 0.5||x - y||^2 + lam TV(x).

    The dual point is p = lam * eta (|p| <= lam), with dual value
    0.5||y||^2 - 0.5||y - D^T p||^2; eta is flat, vertical differences first.
    """
    d = y.shape[0]
    p = lam * eta
    pv, ph = p[:d * (d - 1)].reshape(d - 1, d), p[d * (d - 1):].reshape(d, d - 1)
    dv, dh = forward_differences(x)
    primal = 0.5 * float(((x - y) ** 2).sum()) + lam * float(np.abs(dv).sum() + np.abs(dh).sum())
    dual = 0.5 * float((y ** 2).sum()) - 0.5 * float(((y - forward_differences_adjoint(pv, ph)) ** 2).sum())
    return primal - dual, primal


class TvIdx(Workload):
    """run_risk_curve on the tv model, with ground truths read from an IDX file."""

    name = "tv-idx"
    driver = staticmethod(run_risk_curve)
    outputs = ("risk_curve.csv", "risk_curve_trials.csv")
    pool_size = 256

    def config(self, seed, out, tiny):
        cfg = StudyConfig(model="tv", seed=seed, n=1, trials=1, grid=(1e-2, 1.0, 5), out=str(out),
                          tv_source=str(Path(out).parent / "images.idx"))
        if tiny:
            cfg = replace(cfg, n=2, grid=(1e-1, 1.0, 3), tv_side=8)
        return cfg

    def _pixels(self, cfg):
        return rectangle_images(cfg.seed, self.pool_size, cfg.tv_side)

    def prepare(self, cfg):
        px = self._pixels(cfg)
        count, rows, cols = px.shape
        Path(cfg.tv_source).write_bytes(struct.pack(">IIII", 0x00000803, count, rows, cols) + px.tobytes())

    def selections(self, cfg):
        return cfg.trials

    def check(self, cfg):
        chk = Check()
        model = make_model(cfg)
        if not np.array_equal(model.pool(), self._pixels(cfg).astype(float) / 255.0):
            chk.fail(cfg.trials, "the pool read from the IDX file differs from the written pixels / 255")
            return chk
        parsed = _risk_curve_outputs(cfg, chk)
        if parsed is None:
            return chk
        lams, mean, p05, p95, hats = parsed
        if np.any(np.minimum(np.minimum(mean, p05), p95) < -TV_RISK_TOL):
            chk.wrong(f"a risk-curve value is below -{TV_RISK_TOL}")
        solver = TvDenoiseMethod(cfg.tv_config)
        for t, lam_hat in enumerate(hats):
            try:
                j = grid_index(lams, lam_hat)
            except ValueError as exc:
                chk.fail(1, f"trial {t}: {exc}")
                continue
            if cfg.trials == 1 and mean[j] > mean.min():
                chk.fail(1, f"trial {t}: lambda_hat {lam_hat!r} does not minimize the risk curve")
                continue
            data = model.sample(rng_from(cfg.seed, "risk-curve-train", t), cfg.n)
            worst = 0.0
            for y in data.ys:
                x, eta = solver(y, lam_hat)
                gap, primal = rof_gap(y, lam_hat, x, eta)
                worst = max(worst, gap / primal)
            if worst > TV_GAP_RTOL:
                chk.fail(1, f"trial {t}: relative primal-dual gap {worst!r} at lambda_hat {lam_hat!r}")
        return chk


WORKLOADS = {w.name: w for w in (QoSpectral(), DenoisePlateau(), DeblurPath(), TvIdx())}
