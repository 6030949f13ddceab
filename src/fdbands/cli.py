"""Command-line interface.

Subcommands: simulate | band | quantile | gauss-test | coverage | verify.
Data goes to files (or stdout for single values), diagnostics to stderr.
Exit codes: 0 success, 1 configuration error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .errors import (
    ConfigError,
    FdbandsError,
    NotAvailable,
    SampleTooSmall,
    UnsupportedOrder,
)
from .fdata import Grid, csv_row, read_sample_csv, write_csv, write_sample_csv
from .harness import ExperimentConfig, run_coverage
from .quantile import QUANTILE_METHODS
from .rng import METHOD_DRAW, NOISE_DRAW, SAMPLE_DRAW, StreamKey
from .scb import SE_MODES, band_curves, band_parts, gauss_test
from .simmodels import MODEL_A_BANDWIDTH, ModelSpec, add_observation_noise, sample_model
from .transforms import GAUSSIAN_NULL_STATISTICS, TRANSFORMATION_NAMES
from .verify import ORACLES, run_oracles, write_oracle_csv

_CONFIG_ERRORS = (ConfigError, NotAvailable, SampleTooSmall, UnsupportedOrder)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdbands",
        description="Simultaneous bands and Gaussianity tests for statistics of curve samples",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="draw a synthetic curve sample and write it as CSV")
    p.add_argument("--model", required=True, choices=["A", "B", "C"])
    p.add_argument("--n", required=True, type=int, help="number of curves")
    p.add_argument("--t", required=True, type=int, help="grid points on [0, 1]")
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.add_argument("--bandwidth", type=float, default=MODEL_A_BANDWIDTH)
    p.add_argument("--jitter", type=float, default=0.0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("band", help="simultaneous band for a statistic of a sample CSV")
    _sample_statistic_args(p)
    p.add_argument("--se-mode", choices=list(SE_MODES), default="estimated")
    p.add_argument("--bias", action="store_true", help="subtract the plug-in bias estimate")
    p.add_argument("--out", required=True)

    p = sub.add_parser("quantile", help="max-quantile estimate for a statistic of a sample CSV")
    _sample_statistic_args(p)
    p.add_argument("--out", default=None, help="write a one-row CSV instead of stdout")

    p = sub.add_parser("gauss-test", help="test Gaussianity through skewness/kurtosis bands")
    _sample_statistic_args(p, statistics=GAUSSIAN_NULL_STATISTICS, default_stat="skewness_z")
    p.add_argument("--se-mode", choices=list(SE_MODES), default="gaussian_exact")
    p.add_argument("--bias", action="store_true")
    p.add_argument("--out", default=None)

    p = sub.add_parser("coverage", help="Monte Carlo coverage experiment from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="override the config's output path")

    p = sub.add_parser("verify", help="run independent numerical oracles")
    p.add_argument(
        "--oracle",
        default="all",
        help=f"comma-separated subset of {','.join(ORACLES)} or 'all'",
    )
    p.add_argument("--out", required=True)

    return parser


def _sample_statistic_args(p, statistics=TRANSFORMATION_NAMES, default_stat="cohens_d"):
    p.add_argument("--in", dest="infile", required=True, help="sample CSV path")
    p.add_argument("--stat", choices=list(statistics), default=default_stat)
    p.add_argument("--method", choices=list(QUANTILE_METHODS), default="mult")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--b", type=int, default=1000, help="bootstrap replicates")
    p.add_argument("--seed", type=int, default=0)


def _require_out_dir(path) -> None:
    """Fail before a long run whose output could only fail to be written at its end."""
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(f"no directory to write {path!r} in")


def _cmd_simulate(args) -> int:
    spec = ModelSpec(args.model, bandwidth=args.bandwidth, jitter=args.jitter)
    grid = Grid.equispaced(args.t)
    sample = sample_model(spec, args.n, grid, StreamKey(args.seed, 0, SAMPLE_DRAW))
    sample = add_observation_noise(sample, args.noise_sigma, StreamKey(args.seed, 0, NOISE_DRAW))
    write_sample_csv(sample, args.out)
    print(f"wrote {sample.n} curves x {sample.t} points to {args.out}", file=sys.stderr)
    return 0


def _cmd_band(args) -> int:
    sample = read_sample_csv(args.infile)
    band = band_curves(
        sample,
        statistic=args.stat,
        method=args.method,
        alpha=args.alpha,
        b=args.b,
        key=StreamKey(args.seed, 0, METHOD_DRAW),
        se_mode=args.se_mode,
        bias_correction=args.bias,
    )
    columns = (band.grid.points, band.center.values, band.lower.values, band.upper.values)
    rows = ((*cells, band.q.q, band.q.method) for cells in zip(*(c.tolist() for c in columns)))
    write_csv(args.out, "s,center,lower,upper,q,method", rows)
    print(f"wrote band ({args.stat}, {band.q.method}, q={band.q.q:.4f}) to {args.out}", file=sys.stderr)
    return 0


def _cmd_quantile(args) -> int:
    sample = read_sample_csv(args.infile)
    key = StreamKey(args.seed, 0, METHOD_DRAW)
    q = band_parts(sample, args.stat, args.method, args.alpha, args.b, key)[1]
    if args.out:
        write_csv(args.out, "statistic,method,alpha,q", [(args.stat, q.method, q.alpha, q.q)])
    else:
        print(csv_row([q.q]))
    return 0


def _cmd_gauss_test(args) -> int:
    sample = read_sample_csv(args.infile)
    result = gauss_test(
        sample,
        statistic=args.stat,
        alpha=args.alpha,
        quantile_method=args.method,
        se_mode=args.se_mode,
        b=args.b,
        key=StreamKey(args.seed, 0, METHOD_DRAW),
        bias_correction=args.bias,
    )
    row = (
        result.statistic, result.quantile.method, result.alpha,
        result.max_stat, result.threshold, result.reject,
    )
    if args.out:
        write_csv(args.out, "statistic,method,alpha,max_stat,threshold,reject", [row])
    else:
        print(csv_row(row))
    print(
        f"{'reject' if result.reject else 'retain'} Gaussianity at alpha={result.alpha:g} "
        f"(max={result.max_stat:.4f}, threshold={result.threshold:.4f})",
        file=sys.stderr,
    )
    return 0


def _cmd_coverage(args) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    if args.out:
        cfg = dataclasses.replace(cfg, output=args.out)
    if not cfg.output:
        raise ConfigError("no output path: set output= in the config or pass --out")
    _require_out_dir(cfg.output)
    run_coverage(cfg)
    print(f"wrote coverage report to {cfg.output}", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    names = [n.strip() for n in args.oracle.split(",") if n.strip()]
    if not names:
        raise ConfigError(f"no oracle selected; pass 'all' or some of {', '.join(ORACLES)}")
    if names == ["all"]:
        names = list(ORACLES)
    unknown = [n for n in names if n not in ORACLES]
    if unknown:
        raise ConfigError(f"unknown oracle(s) {unknown}; known: {', '.join(ORACLES)}")
    _require_out_dir(args.out)
    reports = run_oracles(names)
    write_oracle_csv(reports, args.out)
    failed = [r.name for r in reports if not r.passed]
    for r in reports:
        print(
            f"{'PASS' if r.passed else 'FAIL'} {r.name}: "
            f"{r.criterion} err {r.max_rel_err if r.criterion == 'rel' else r.max_abs_err:.3g} "
            f"(tol {r.tolerance:g})",
            file=sys.stderr,
        )
    if failed:
        print(f"{len(failed)} oracle(s) failed", file=sys.stderr)
        return 2
    return 0


_HANDLERS = {
    "simulate": _cmd_simulate,
    "band": _cmd_band,
    "quantile": _cmd_quantile,
    "gauss-test": _cmd_gauss_test,
    "coverage": _cmd_coverage,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad arguments; that is a configuration error here.
        return 0 if exc.code in (0, None) else 1
    try:
        return _HANDLERS[args.command](args)
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FdbandsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
