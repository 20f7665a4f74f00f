"""Experiment drivers: each run_* function consumes a StudyConfig, writes
CSV files into the output directory, and returns its results in memory.

All randomness flows through rng_from(seed, role, indices...), so rerunning
with the same config and seed reproduces every output byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ..bounds import (
    BoundParams,
    convex_bound,
    convex_optimal,
    cq_factor,
    effective_alpha,
    erm_bound,
    hoeffding_bound,
    spectral_bound,
    spectral_optimal,
)
from ..selection import (
    L1BregmanLoss,
    ParamGrid,
    TruncatedSquaredLoss,
    TvBregmanLoss,
    erm_select,
    geometric_grid,
    quasi_optimality_landweber,
    quasi_optimality_tikhonov,
    risk_curve,
)
from ..spectral import Landweber, SpectralCutoff, Tikhonov
from ..variational import SolverConfig, LASSO_CONFIG, TV_CONFIG
from .dataio import save_dataset, write_csv
from .methods import LassoMethod, SoftThresholdMethod, SpectralFilterMethod, TvDenoiseMethod
from .models import SparseDeblur, SparseDenoise, SpectralSource, TvImages
from .risk import RiskReport, rng_from

MODEL_CHOICES = ("spectral", "denoise", "deblur", "tv")
FILTER_CHOICES = ("tikhonov", "landweber", "cutoff")
LOSS_CHOICES = ("truncated-squared", "l1-bregman", "tv-bregman")


@dataclass
class StudyConfig:
    """Knobs shared by all studies; CLI flags map onto the first block.

    Fields left at None resolve to per-model defaults (d, sparsity, loss).
    The second block holds study-specific settings that are fixed in the
    CLI but adjustable from library code.
    """

    model: str = "spectral"
    d: int | None = None
    source_exponent: float = 0.5
    sparsity: int | None = None
    tau: float = 0.01
    n: int = 50
    n_mc: int = 500
    grid: tuple[float, float, int] = (1e-4, 100.0, 500)
    filter: str = "tikhonov"
    loss: str | None = None
    seed: int = 0
    trials: int = 30
    out: str = "."

    stepsize: float = 0.2
    eta: float = 0.05
    operator_seed: int = 0
    tau_count: int = 30
    tau_range: tuple[float, float] = (1e-4, 1e-1)
    dense_grid_points: int = 1000
    plateau_sizes: tuple[int, ...] = tuple(range(5, 101, 5))
    qo_taus: tuple[float, ...] = (1e-3, 1e-2, 1e-1, 0.5)
    qo_n_train: int = 1000
    qo_n_test: int = 50
    qo_tikhonov_grid: tuple[float, float, int] = (1e-5, 10.0, 1000)
    qo_landweber_grid: tuple[float, float, int] = (1e-3, 1.0, 800)
    tv_source: str | None = None
    tv_side: int = 28
    lasso_config: SolverConfig = LASSO_CONFIG
    tv_config: SolverConfig = TV_CONFIG

    def __post_init__(self):
        if self.model not in MODEL_CHOICES:
            raise ValueError(f"model must be one of {MODEL_CHOICES}")
        if self.filter not in FILTER_CHOICES:
            raise ValueError(f"filter must be one of {FILTER_CHOICES}")
        if self.loss is not None and self.loss not in LOSS_CHOICES:
            raise ValueError(f"loss must be one of {LOSS_CHOICES}")
        if self.n < 1 or self.n_mc < 1 or self.trials < 1:
            raise ValueError("n, n_mc and trials must be positive")

    @property
    def out_dir(self) -> Path:
        return Path(self.out)


def make_model(cfg: StudyConfig):
    if cfg.model == "spectral":
        return SpectralSource(d=cfg.d or 70, source_exponent=cfg.source_exponent,
                              noise_level=cfg.tau, operator_seed=cfg.operator_seed)
    if cfg.model == "denoise":
        return SparseDenoise(d=cfg.d or 1024, sparsity=cfg.sparsity or 64,
                             noise_level=cfg.tau)
    if cfg.model == "deblur":
        return SparseDeblur(d=cfg.d or 256, sparsity=cfg.sparsity or 8,
                            noise_level=cfg.tau)
    return TvImages(source=cfg.tv_source, noise_level=cfg.tau, side=cfg.tv_side)


def make_filter(cfg: StudyConfig):
    if cfg.filter == "tikhonov":
        return Tikhonov()
    if cfg.filter == "landweber":
        return Landweber(stepsize=cfg.stepsize)
    return SpectralCutoff()


def make_method(cfg: StudyConfig, model):
    if isinstance(model, SpectralSource):
        return SpectralFilterMethod(model.operator(), make_filter(cfg))
    if isinstance(model, SparseDenoise):
        return SoftThresholdMethod()
    if isinstance(model, SparseDeblur):
        return LassoMethod(model.operator(), cfg.lasso_config)
    return TvDenoiseMethod(cfg.tv_config)


def make_loss(cfg: StudyConfig, model):
    info = model.describe()
    kind = cfg.loss
    if kind is None:
        kind = {"spectral": "truncated-squared", "denoise": "l1-bregman",
                "deblur": "l1-bregman", "tv": "tv-bregman"}[info["model"]]
    if kind == "truncated-squared":
        if isinstance(model, TvImages):
            raise ValueError("truncated-squared loss applies to vector models only")
        return TruncatedSquaredLoss()
    if kind == "l1-bregman":
        if isinstance(model, TvImages):
            raise ValueError("l1-bregman loss applies to vector models only")
        if isinstance(model, (SparseDenoise, SparseDeblur)):
            bound = 2.0 * float(np.sqrt(model.sparsity))  # truths are unit-norm and sparse
        else:
            bound = 2.0 * float(np.sqrt(getattr(model, "d", 1)))
        return L1BregmanLoss(bound=bound)
    if not isinstance(model, TvImages):
        raise ValueError("tv-bregman loss needs the tv model's dual certificates")
    side = info["side"]
    return TvBregmanLoss(bound=4.0 * side * (side - 1))


def experiment_grid(cfg: StudyConfig) -> ParamGrid:
    lo, hi, count = cfg.grid
    return geometric_grid(lo, hi, int(count))


def _study_metadata(cfg: StudyConfig, model, loss, extra: dict | None = None) -> dict:
    meta = dict(sorted(model.describe().items()))
    meta.update({"seed": cfg.seed, "n": cfg.n, "n_mc": cfg.n_mc, "trials": cfg.trials,
                 "grid": "{}:{}:{}".format(*cfg.grid), "filter": cfg.filter,
                 "loss": loss.kind})
    if extra:
        meta.update(extra)
    return meta


def _holdout_curve(method, loss, model, grid, n_mc: int, seed: int, *tags) -> np.ndarray:
    pool = model.sample(rng_from(seed, *tags), n_mc)
    return risk_curve(method, loss, pool, grid)


def run_generate(cfg: StudyConfig) -> Path:
    """Emit a dataset file for the configured model."""
    model = make_model(cfg)
    rng = rng_from(cfg.seed, "generate")
    data = model.sample(rng, cfg.n)
    operator = model.operator() if hasattr(model, "operator") else None
    if operator is None:  # TV images observe through the identity
        from ..operators import IdentityOperator

        operator = IdentityOperator(int(np.prod(data.xs.shape[1:])))
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    path = cfg.out_dir / "dataset.bin"
    save_dataset(path, model.describe(), operator, data)
    return path


def run_risk_curve(cfg: StudyConfig) -> RiskReport:
    """Empirical risk curves over the grid across trials, with selections."""
    model = make_model(cfg)
    method = make_method(cfg, model)
    loss = make_loss(cfg, model)
    grid = experiment_grid(cfg)
    risks = np.empty((cfg.trials, grid.count))
    hats = np.empty(cfg.trials)
    for trial in range(cfg.trials):
        data = model.sample(rng_from(cfg.seed, "risk-curve-train", trial), cfg.n)
        lam_hat, curve = erm_select(method, loss, data, grid)
        risks[trial] = curve
        hats[trial] = lam_hat
    report = RiskReport(
        grid=grid.values,
        risk_mean=risks.mean(axis=0),
        risk_p05=np.percentile(risks, 5, axis=0),
        risk_p95=np.percentile(risks, 95, axis=0),
        lambda_hats=hats,
        metadata=_study_metadata(cfg, model, loss),
    )
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(cfg.out_dir / "risk_curve.csv",
              ["lambda", "risk_mean", "risk_p05", "risk_p95"],
              zip(report.grid, report.risk_mean, report.risk_p05, report.risk_p95),
              metadata=report.metadata)
    write_csv(cfg.out_dir / "risk_curve_trials.csv",
              ["trial", "lambda_hat"],
              [(t, hats[t]) for t in range(cfg.trials)],
              metadata=report.metadata)
    return report


def _dense_grid(cfg: StudyConfig) -> ParamGrid:
    # One decade beyond the experiment grid on each side.
    lo, hi, _ = cfg.grid
    return geometric_grid(lo / 10.0, hi * 10.0, cfg.dense_grid_points)


def run_rate_study(cfg: StudyConfig) -> list[tuple]:
    """Noise-level sweep of the oracle risk, normalized by the theoretical rate."""
    if cfg.model != "spectral":
        raise ValueError("the rate study runs on the spectral model")
    model0 = make_model(cfg)
    filt = make_filter(cfg)
    method = SpectralFilterMethod(model0.operator(), filt)
    loss = make_loss(cfg, model0)
    alpha = effective_alpha(filt, cfg.source_exponent)
    rate_exponent = 4.0 * alpha / (2.0 * alpha + 1.0)
    taus = np.geomspace(cfg.tau_range[0], cfg.tau_range[1], cfg.tau_count)
    dense = _dense_grid(cfg)
    rows = []
    for i, tau in enumerate(taus):
        model = replace(model0, noise_level=float(tau))
        pool = model.sample(rng_from(cfg.seed, "rate-pool", i), cfg.n_mc)
        curve = risk_curve(method, loss, pool, dense)
        j = int(np.argmin(curve))
        ratio = curve[j] / tau ** rate_exponent
        rows.append((float(tau), cfg.filter, cfg.source_exponent,
                     float(dense.values[j]), float(curve[j]), float(ratio)))
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(cfg.out_dir / f"rate_{cfg.filter}.csv",
              ["tau", "filter", "source_exponent", "lambda_star", "risk", "ratio"],
              rows, metadata=_study_metadata(cfg, model0, loss, {"alpha": alpha}))
    return rows


def run_noise_study(cfg: StudyConfig) -> list[tuple]:
    """Noise-level sweep comparing the oracle parameter with learned ones."""
    if cfg.model != "spectral":
        raise ValueError("the noise study runs on the spectral model")
    model0 = make_model(cfg)
    method = SpectralFilterMethod(model0.operator(), make_filter(cfg))
    loss = make_loss(cfg, model0)
    grid = experiment_grid(cfg)
    dense = _dense_grid(cfg)
    taus = np.geomspace(cfg.tau_range[0], cfg.tau_range[1], cfg.tau_count)
    rows = []
    for i, tau in enumerate(taus):
        model = replace(model0, noise_level=float(tau))
        star_pool = model.sample(rng_from(cfg.seed, "noise-star", i), cfg.n_mc)
        star_curve = risk_curve(method, loss, star_pool, dense)
        j_star = int(np.argmin(star_curve))
        holdout = _holdout_curve(method, loss, model, grid, cfg.n_mc, cfg.seed,
                                 "noise-holdout", i)
        hats = np.empty(cfg.trials)
        hat_risks = np.empty(cfg.trials)
        for trial in range(cfg.trials):
            data = model.sample(rng_from(cfg.seed, "noise-train", i, trial), cfg.n)
            lam_hat, curve = erm_select(method, loss, data, grid)
            hats[trial] = lam_hat
            hat_risks[trial] = holdout[int(np.argmin(curve))]
        rows.append((float(tau), float(dense.values[j_star]), float(star_curve[j_star]),
                     float(hats.mean()), float(np.percentile(hats, 5)), float(np.percentile(hats, 95)),
                     float(hat_risks.mean()), float(np.percentile(hat_risks, 5)),
                     float(np.percentile(hat_risks, 95))))
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(cfg.out_dir / "noise_study.csv",
              ["tau", "lambda_star", "risk_star",
               "lambda_hat_mean", "lambda_hat_p05", "lambda_hat_p95",
               "risk_hat_mean", "risk_hat_p05", "risk_hat_p95"],
              rows, metadata=_study_metadata(cfg, model0, loss))
    return rows


@dataclass(frozen=True)
class PlateauResult:
    """Per-trial selections plus aggregates and the grid-oracle baseline."""

    detail: list
    aggregate: list
    oracle_lambda: float
    oracle_risk: float


def run_plateau_study(cfg: StudyConfig) -> PlateauResult:
    """Risk of the learned parameter as the training-set size grows."""
    model = make_model(cfg)
    method = make_method(cfg, model)
    loss = make_loss(cfg, model)
    grid = experiment_grid(cfg)
    holdout = _holdout_curve(method, loss, model, grid, cfg.n_mc, cfg.seed, "plateau-holdout")
    j_oracle = int(np.argmin(holdout))
    detail = []
    aggregate = []
    for n in cfg.plateau_sizes:
        risks = np.empty(cfg.trials)
        for trial in range(cfg.trials):
            data = model.sample(rng_from(cfg.seed, "plateau-train", n, trial), int(n))
            lam_hat, curve = erm_select(method, loss, data, grid)
            risk = holdout[int(np.argmin(curve))]
            detail.append((int(n), trial, float(lam_hat), float(risk)))
            risks[trial] = risk
        aggregate.append((int(n), float(risks.mean()),
                          float(np.percentile(risks, 5)), float(np.percentile(risks, 95))))
    result = PlateauResult(detail, aggregate,
                           float(grid.values[j_oracle]), float(holdout[j_oracle]))
    meta = _study_metadata(cfg, model, loss,
                           {"oracle_lambda": result.oracle_lambda,
                            "oracle_risk": result.oracle_risk})
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(cfg.out_dir / "plateau_trials.csv",
              ["n", "trial", "lambda_hat", "risk"], detail, metadata=meta)
    write_csv(cfg.out_dir / "plateau.csv",
              ["n", "risk_mean", "risk_p05", "risk_p95"], aggregate, metadata=meta)
    return result


def _squared_error_matrix(method: SpectralFilterMethod, data, lams) -> np.ndarray:
    """Plain squared test errors ||X_lam(y_i) - x_i||^2, shape (n, N)."""
    recon_sq, cross, truth_sq = method.squared_terms(data, lams)
    return recon_sq - 2.0 * cross + truth_sq[:, None]


def run_qo_comparison(cfg: StudyConfig):
    """Learned-versus-quasi-optimality test errors for both spectral methods.

    Returns (rows, diffs): one (method, tau, mean, std) row per cell, and
    the per-trial error differences behind each row.
    """
    base = SpectralSource(d=cfg.d or 70, source_exponent=cfg.source_exponent,
                          noise_level=cfg.tau, operator_seed=cfg.operator_seed)
    op = base.operator()
    loss = TruncatedSquaredLoss()
    rows = []
    diffs: dict[tuple[str, float], np.ndarray] = {}
    for method_name, grid_spec, filt in (
        ("tikhonov", cfg.qo_tikhonov_grid, Tikhonov()),
        ("landweber", cfg.qo_landweber_grid, Landweber(stepsize=cfg.stepsize)),
    ):
        grid = geometric_grid(*grid_spec)
        method = SpectralFilterMethod(op, filt)
        for ti, tau in enumerate(cfg.qo_taus):
            model = replace(base, noise_level=float(tau))
            test = model.sample(rng_from(cfg.seed, "qo-test", method_name, ti), cfg.qo_n_test)
            errors = _squared_error_matrix(method, test, grid.values)
            qo_indices = np.empty(cfg.qo_n_test, dtype=int)
            for i, y in enumerate(test.ys):
                if method_name == "tikhonov":
                    path = method.solve_grid(y, grid.values)
                    qo_indices[i], _ = quasi_optimality_tikhonov(path, grid)
                else:
                    qo_indices[i], _ = quasi_optimality_landweber(op, y, grid, cfg.stepsize)
            qo_error = errors[np.arange(cfg.qo_n_test), qo_indices].mean()
            trial_diffs = np.empty(cfg.trials)
            for trial in range(cfg.trials):
                train = model.sample(rng_from(cfg.seed, "qo-train", method_name, ti, trial),
                                     cfg.qo_n_train)
                _, curve = erm_select(method, loss, train, grid)
                learned_error = errors[:, int(np.argmin(curve))].mean()
                trial_diffs[trial] = learned_error - qo_error
            rows.append((method_name, float(tau),
                         float(trial_diffs.mean()), float(trial_diffs.std())))
            diffs[(method_name, float(tau))] = trial_diffs
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(cfg.out_dir / "qo_comparison.csv",
              ["method", "tau", "mean", "std"], rows,
              metadata={"seed": cfg.seed, "trials": cfg.trials,
                        "n_train": cfg.qo_n_train, "n_test": cfg.qo_n_test,
                        "d": cfg.d or 70, "source_exponent": cfg.source_exponent,
                        "operator_seed": cfg.operator_seed})
    return rows, diffs


def run_bound_check(cfg: StudyConfig):
    """Evaluate the closed-form bound curve and selection guarantees."""
    model = make_model(cfg)
    loss = make_loss(cfg, model)
    grid = experiment_grid(cfg)
    if cfg.model == "spectral":
        family = "spectral"
        alpha = effective_alpha(make_filter(cfg), cfg.source_exponent)
    else:
        family = "convex"
        alpha = 0.5  # unused by the convex formulas
    params = BoundParams(tau=cfg.tau, beta=1.0, alpha=alpha, M=loss.bound,
                         eta=cfg.eta, n=cfg.n, N=grid.count)
    if family == "spectral":
        bound = lambda lam: spectral_bound(lam, params)
        lam_star, u_star = spectral_optimal(params)
    else:
        bound = lambda lam: convex_bound(lam, params)
        lam_star, u_star = convex_optimal(params)
    curve_rows = [(float(lam), float(bound(lam))) for lam in grid.values]
    cq = cq_factor(family, grid.ratio, alpha)
    additive = (13.0 * params.M / (2.0 * params.n)) * np.log(2.0 * params.N / params.eta)
    summary = {
        "family": family,
        "alpha": float(alpha),
        "lambda_star": float(lam_star),
        "u_star": float(u_star),
        "q": float(grid.ratio),
        "cq": float(cq),
        "erm_additive": float(additive),
        "erm_bound": float(erm_bound(u_star, cq, params)),
        "hoeffding_bound_at_zero": float(hoeffding_bound(0.0, params)),
    }
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    meta = _study_metadata(cfg, model, loss)
    write_csv(cfg.out_dir / "bound_curve.csv", ["lambda", "bound"], curve_rows, metadata=meta)
    write_csv(cfg.out_dir / "bound_summary.csv", list(summary.keys()),
              [tuple(summary.values())], metadata=meta)
    return curve_rows, summary
