"""Command-line front end for the experiment drivers.

Every subcommand accepts the same flags plus an optional key=value config
file; flags win over the file.  All outputs are CSV (or the dataset
container for `generate`) written into --out.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..variational import ConvergenceError
from .studies import (
    FILTER_CHOICES,
    LOSS_CHOICES,
    MODEL_CHOICES,
    StudyConfig,
    run_bound_check,
    run_generate,
    run_noise_study,
    run_plateau_study,
    run_qo_comparison,
    run_rate_study,
    run_risk_curve,
)


def parse_grid(text: str) -> tuple[float, float, int]:
    """Parse lo:hi:N into (float, float, int)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must look like lo:hi:N, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ValueError(f"bad grid {text!r}: {exc}") from None
    return lo, hi, count


# Option name -> (config attribute, converter, extra argparse keywords).  The
# flag is --name with '_' spelled '-'; config files use the same names.
OPTIONS = {
    "model": ("model", str, {"choices": MODEL_CHOICES}),
    "d": ("d", int, {"help": "signal dimension"}),
    "s": ("source_exponent", float, {"help": "source smoothness exponent"}),
    "sparsity": ("sparsity", int, {}),
    "tau": ("tau", float, {"help": "noise level"}),
    "n": ("n", int, {"help": "training pairs per trial"}),
    "n_mc": ("n_mc", int, {"help": "Monte Carlo sample count"}),
    "grid": ("grid", parse_grid, {"metavar": "LO:HI:N"}),
    "filter": ("filter", str, {"choices": FILTER_CHOICES}),
    "loss": ("loss", str, {"choices": LOSS_CHOICES}),
    "seed": ("seed", int, {}),
    "trials": ("trials", int, {}),
    "out": ("out", str, {"help": "output directory"}),
}

# Subcommand -> (driver, names of the files it writes under --out, as
# str.format templates over the config).
COMMANDS = {
    "generate": (run_generate, ("dataset.bin",)),
    "risk-curve": (run_risk_curve, ("risk_curve.csv", "risk_curve_trials.csv")),
    "rate-study": (run_rate_study, ("rate_{cfg.filter}.csv",)),
    "noise-study": (run_noise_study, ("noise_study.csv",)),
    "plateau-study": (run_plateau_study, ("plateau.csv", "plateau_trials.csv")),
    "compare-qo": (run_qo_comparison, ("qo_comparison.csv",)),
    "bound-check": (run_bound_check, ("bound_curve.csv", "bound_summary.csv")),
}


def read_config_file(path: str | Path) -> dict:
    """Flat key=value text; '#' starts a comment; keys mirror the flags."""
    values = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in OPTIONS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        attr, convert, _ = OPTIONS[key]
        values[attr] = convert(value.strip())
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regselect",
        description="Reproducible studies of learned regularization strengths.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key=value config file")
        for key, (_, convert, extra) in OPTIONS.items():
            p.add_argument("--" + key.replace("_", "-"), type=convert, default=None, **extra)
    return parser


def config_from_args(args: argparse.Namespace) -> StudyConfig:
    values: dict = {}
    if args.config is not None:
        values.update(read_config_file(args.config))
    for key, (attr, _, _) in OPTIONS.items():
        given = getattr(args, key)
        if given is not None:
            values[attr] = given
    return StudyConfig(**values)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    driver, names = COMMANDS[args.command]
    try:
        driver(cfg)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    paths = [str(cfg.out_dir / name.format(cfg=cfg)) for name in names]
    print(f"wrote {' and '.join(paths)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
