"""Monte Carlo coverage experiments.

run_coverage draws replicate samples from a model, builds a band for a
statistic with each requested quantile method, and checks whether the band
contains the model's analytic truth curve at every grid point.  Replicates
are independent tasks keyed by (master seed, replicate index); aggregation
only counts, so the output CSV is byte-identical for any worker count.

Replicate stream layout: draw 0 generates the sample, draw 1 the optional
observation noise, draw 2 + i the bootstrap multipliers of method i.

Config files are flat `key = value` lines with '#' comments; see
ExperimentConfig.from_text for the key set.
"""

from __future__ import annotations

import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .blas import set_blas_threads
from .errors import ConfigError, DomainGuardViolation, NotAvailable
from .fdata import Curve, FunctionalSample, Grid
from .quantile import (
    GKF_METHODS,
    QUANTILE_METHODS,
    check_gkf_alpha,
    estimate_quantile,
    import_deferred,
)
from .rng import StreamKey
from .scb import SE_MODES, construct_scb, covers
from .simmodels import (
    MODEL_A_BANDWIDTH,
    ModelSpec,
    add_observation_noise,
    model_amplitude,
    model_c_noise_variance,
    model_mean,
    sample_model,
)
from .transforms import (
    GAUSSIAN_NULL_STATISTICS,
    TRANSFORMATION_NAMES,
    bias_estimate,
    delta_residuals,
    gaussian_null,
    get_transformation,
    min_sample_size,
)

WORKERS_ENV_VAR = "FDBANDS_WORKERS"


# --------------------------------------------------------------------------
# experiment configuration
# --------------------------------------------------------------------------

_CONFIG_KEYS = {
    "model", "statistic", "methods", "se_mode", "bias_correction",
    "sample_sizes", "grid_size", "replicates", "bootstrap_b", "alpha",
    "seed", "noise_sigma", "output", "workers", "bandwidth", "jitter",
}


@dataclass(frozen=True)
class ExperimentConfig:
    model: str = "A"
    statistic: str = "cohens_d"
    methods: tuple[str, ...] = ("mult",)
    se_mode: str = "estimated"
    bias_correction: bool = False
    sample_sizes: tuple[int, ...] = (100,)
    grid_size: int = 100
    replicates: int = 2000
    bootstrap_b: int = 1000
    alpha: float = 0.05
    seed: int = 0
    noise_sigma: float = 0.0
    output: str | None = None
    workers: int = 0  # 0 = all cores; FDBANDS_WORKERS overrides either way
    bandwidth: float = MODEL_A_BANDWIDTH
    jitter: float = 0.0

    def __post_init__(self):
        if self.model not in ("A", "B", "C"):
            raise ConfigError(f"unknown model {self.model!r}")
        if self.statistic not in TRANSFORMATION_NAMES:
            raise ConfigError(f"unknown statistic {self.statistic!r}")
        for m in self.methods:
            if m not in QUANTILE_METHODS:
                raise ConfigError(f"unknown quantile method {m!r}")
        if not self.methods:
            raise ConfigError("need at least one quantile method")
        if self.se_mode not in SE_MODES:
            raise ConfigError(f"unknown se_mode {self.se_mode!r}")
        if self.se_mode == "gaussian_exact":
            if self.model == "C":
                raise ConfigError("gaussian_exact se is undefined for the non-Gaussian model C")
            if self.bias_correction:
                raise ConfigError("gaussian_exact already centers with the exact null mean")
        if self.replicates < 100:
            raise ConfigError(f"need at least 100 replicates, got {self.replicates}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must be in (0, 1), got {self.alpha}")
        if any(m in GKF_METHODS for m in self.methods):
            check_gkf_alpha(self.alpha)
        if self.grid_size < 3:
            raise ConfigError("grid_size must be >= 3")
        minimum = min_sample_size(self.statistic)
        for n in self.sample_sizes:
            if n < minimum:
                raise ConfigError(f"sample size {n} below the minimum {minimum} for {self.statistic}")
        if self.noise_sigma < 0.0:
            raise ConfigError("noise_sigma must be nonnegative")
        if self.workers < 0:
            raise ConfigError("workers must be >= 0")

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        values: dict = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"config line {lineno}: expected key = value, got {raw!r}")
            key, _, val = line.partition("=")
            key = key.strip().lower()
            val = val.strip()
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"config line {lineno}: unknown key {key!r}")
            values[key] = val
        return cls._from_strings(values)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path, "r") as fh:
            return cls.from_text(fh.read())

    @classmethod
    def _from_strings(cls, values: dict) -> "ExperimentConfig":
        def parse_bool(s):
            low = s.lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ConfigError(f"cannot parse boolean {s!r}")

        def parse_list(s, conv):
            return tuple(conv(part.strip()) for part in s.split(",") if part.strip())

        kwargs = {}
        try:
            if "model" in values:
                kwargs["model"] = values["model"].upper()
            if "statistic" in values:
                kwargs["statistic"] = values["statistic"].lower()
            if "methods" in values:
                kwargs["methods"] = parse_list(values["methods"], str.lower)
            if "se_mode" in values:
                kwargs["se_mode"] = values["se_mode"].lower()
            if "bias_correction" in values:
                kwargs["bias_correction"] = parse_bool(values["bias_correction"])
            if "sample_sizes" in values:
                kwargs["sample_sizes"] = parse_list(values["sample_sizes"], int)
            for key, conv in (
                ("grid_size", int), ("replicates", int), ("bootstrap_b", int),
                ("alpha", float), ("seed", int), ("noise_sigma", float),
                ("workers", int), ("bandwidth", float), ("jitter", float),
            ):
                if key in values:
                    kwargs[key] = conv(values[key])
            if "output" in values:
                kwargs["output"] = values["output"]
        except ValueError as exc:
            raise ConfigError(f"bad config value: {exc}") from None
        return cls(**kwargs)


# --------------------------------------------------------------------------
# analytic truth curves
# --------------------------------------------------------------------------

def truth_curve(model, statistic: str, grid: Grid) -> Curve:
    """Population value of the statistic curve under the model.

    Model C skewness/kurtosis come from the closed central moments of the
    chi-square(1) and exponential mixture components; the normalized
    statistics have no closed population value under model C.
    """
    kind = model.kind if isinstance(model, ModelSpec) else str(model)
    s = grid.points
    statistic = statistic.lower()
    mean = model_mean(kind, s)
    amp = model_amplitude(kind, s)
    if statistic == "mean":
        return Curve(grid, mean)
    if statistic == "variance":
        return Curve(grid, amp * amp)
    if statistic == "cohens_d":
        return Curve(grid, mean / amp)
    gaussian_model = kind in ("A", "B")
    if statistic in ("skewness", "kurtosis", "skewness_z", "kurtosis_z"):
        if gaussian_model:
            return Curve(grid, np.zeros(len(grid)))
        if statistic in ("skewness_z", "kurtosis_z"):
            raise NotAvailable(f"no closed-form {statistic} truth for model C")
        u = math.sqrt(2.0) / 6.0 * np.sin(np.pi * s)
        w = 2.0 / 3.0 * (s - 0.5)
        var = model_c_noise_variance(s)  # = 2 u^2 + w^2
        if statistic == "skewness":
            # third central moments: chi2(1) -> 8, Exp(1) -> 2
            return Curve(grid, (8.0 * u**3 + 2.0 * w**3) / var**1.5)
        # fourth central moments: chi2(1) -> 60, Exp(1) -> 9
        return Curve(grid, (60.0 * u**4 + 12.0 * u**2 * w**2 + 9.0 * w**4) / var**2 - 3.0)
    raise NotAvailable(f"no truth curve for statistic {statistic!r}")


def gaussian_exact_se(model, statistic: str, grid: Grid, n: int) -> Curve:
    """Exact null sd of the statistic curve for the Gaussian models."""
    kind = model.kind if isinstance(model, ModelSpec) else str(model)
    if kind not in ("A", "B"):
        raise NotAvailable("exact standard errors require a Gaussian model")
    s = grid.points
    amp = model_amplitude(kind, s)
    statistic = statistic.lower()
    if statistic == "mean":
        return Curve(grid, amp / math.sqrt(n))
    if statistic == "variance":
        return Curve(grid, amp * amp * math.sqrt(2.0 / n))
    if statistic == "cohens_d":
        d = model_mean(kind, s) / amp
        return Curve(grid, np.sqrt((1.0 + 0.5 * d * d) / n))
    if statistic in GAUSSIAN_NULL_STATISTICS:
        return Curve(grid, np.full(len(grid), gaussian_null(statistic, n)[0]))
    raise NotAvailable(f"no exact se for statistic {statistic!r}")


def gaussian_exact_bias(model, statistic: str, grid: Grid, n: int) -> Curve:
    """Exact null mean shift of the estimator (zero except kurtosis/variance)."""
    kind = model.kind if isinstance(model, ModelSpec) else str(model)
    if kind not in ("A", "B"):
        raise NotAvailable("exact bias requires a Gaussian model")
    statistic = statistic.lower()
    if statistic in GAUSSIAN_NULL_STATISTICS:
        return Curve(grid, np.full(len(grid), gaussian_null(statistic, n)[1]))
    if statistic == "variance":
        amp = model_amplitude(kind, grid.points)
        return Curve(grid, -(amp * amp) / n)
    return Curve(grid, np.zeros(len(grid)))


# --------------------------------------------------------------------------
# report containers
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CoverageRow:
    model: str
    statistic: str
    method: str
    se_mode: str
    bias_correction: bool
    n: int
    t: int
    replicates: int
    successes: int
    guard_violations: int
    coverage: float
    mc_se: float


@dataclass(frozen=True)
class CoverageReport:
    rows: tuple[CoverageRow, ...]
    wall_seconds: float

    CSV_HEADER = (
        "model,statistic,method,se_mode,bias_correction,"
        "n,t,replicates,successes,guard_violations,coverage,mc_se"
    )

    def to_csv_text(self) -> str:
        lines = [self.CSV_HEADER]
        for r in self.rows:
            lines.append(
                f"{r.model},{r.statistic},{r.method},{r.se_mode},"
                f"{str(r.bias_correction).lower()},{r.n},{r.t},{r.replicates},"
                f"{r.successes},{r.guard_violations},{r.coverage:.17g},{r.mc_se:.17g}"
            )
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write(self.to_csv_text())


# --------------------------------------------------------------------------
# replicate execution (worker side)
# --------------------------------------------------------------------------

_CTX: dict | None = None


def _build_context(payload: dict) -> dict:
    grid = Grid(payload["grid_points"])
    ctx = dict(payload)
    ctx["grid"] = grid
    ctx["spec"] = ModelSpec(payload["model"], bandwidth=payload["bandwidth"], jitter=payload["jitter"])
    ctx["transformation"] = get_transformation(payload["statistic"], payload["n"])
    ctx["truth"] = Curve(grid, payload["truth_values"])
    if payload["se_mode"] == "gaussian_exact":
        ctx["known_se"] = Curve(grid, payload["known_se_values"])
        ctx["known_bias"] = Curve(grid, payload["known_bias_values"])
    return ctx


def _init_worker(payload: dict) -> None:
    global _CTX
    _CTX = _build_context(payload)


def _init_pool_worker(payload: dict, blas_threads: int) -> None:
    set_blas_threads(blas_threads)
    _init_worker(payload)


def _replicate(rep: int):
    """Run one replicate; returns (covered per method) or None on a guard trip."""
    ctx = _CTX
    seed = ctx["seed"]
    sample = sample_model(ctx["spec"], ctx["n"], ctx["grid"], StreamKey(seed, rep, 0))
    if ctx["noise_sigma"] > 0.0:
        sample = add_observation_noise(sample, ctx["noise_sigma"], StreamKey(seed, rep, 1))
    try:
        drs = delta_residuals(ctx["transformation"], sample)
        if ctx["se_mode"] == "gaussian_exact":
            se = ctx["known_se"]
            bias = ctx["known_bias"]
        else:
            se = drs.se
            bias = bias_estimate(ctx["transformation"], sample) if ctx["bias_correction"] else None
        flags = []
        for i, method in enumerate(ctx["methods"]):
            q = estimate_quantile(
                drs, method, ctx["alpha"], b=ctx["bootstrap_b"], key=StreamKey(seed, rep, 2 + i)
            )
            if ctx["force_zero_q"]:  # debug hook: degenerate bands
                q = replace(q, q=0.0)
            band = construct_scb(drs.estimate, se, q, bias=bias, se_mode=ctx["se_mode"])
            flags.append(covers(band, ctx["truth"]))
        return tuple(flags)
    except DomainGuardViolation:
        return None


# --------------------------------------------------------------------------
# driver
# --------------------------------------------------------------------------

def resolve_workers(configured: int = 0) -> int:
    env = os.environ.get(WORKERS_ENV_VAR)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"{WORKERS_ENV_VAR}={env!r} is not an integer") from None
    if configured > 0:
        return configured
    return available_cores()


def available_cores() -> int:
    """Cores this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _coverage_pool(workers: int, payload: dict) -> ProcessPoolExecutor:
    """Worker pool that shares the cores: each worker gets cores // workers BLAS threads."""
    import_deferred(payload["methods"])
    return ProcessPoolExecutor(
        max_workers=workers,
        initializer=_init_pool_worker,
        initargs=(payload, max(1, available_cores() // workers)),
    )


def _cell_payload(cfg: ExperimentConfig, n: int, force_zero_q: bool) -> dict:
    grid = Grid.equispaced(cfg.grid_size)
    spec = ModelSpec(cfg.model, bandwidth=cfg.bandwidth, jitter=cfg.jitter)
    truth = truth_curve(spec, cfg.statistic, grid)
    payload = {
        "model": cfg.model,
        "bandwidth": cfg.bandwidth,
        "jitter": cfg.jitter,
        "statistic": cfg.statistic,
        "se_mode": cfg.se_mode,
        "bias_correction": cfg.bias_correction,
        "methods": cfg.methods,
        "alpha": cfg.alpha,
        "bootstrap_b": cfg.bootstrap_b,
        "seed": cfg.seed,
        "noise_sigma": cfg.noise_sigma,
        "n": n,
        "grid_points": grid.points,
        "truth_values": truth.values,
        "force_zero_q": force_zero_q,
    }
    if cfg.se_mode == "gaussian_exact":
        payload["known_se_values"] = gaussian_exact_se(spec, cfg.statistic, grid, n).values
        payload["known_bias_values"] = gaussian_exact_bias(spec, cfg.statistic, grid, n).values
    return payload


def run_coverage(cfg: ExperimentConfig, force_zero_q: bool = False) -> CoverageReport:
    """Run the full experiment; write the CSV if cfg.output is set.

    force_zero_q is a debug hook that collapses every band to its center
    curve (coverage must then be zero).
    """
    workers = resolve_workers(cfg.workers)
    started = time.monotonic()
    rows = []
    for n in cfg.sample_sizes:
        payload = _cell_payload(cfg, n, force_zero_q)
        reps = cfg.replicates
        if workers == 1:
            _init_worker(payload)
            results = [_replicate(r) for r in range(reps)]
        else:
            chunk = max(1, reps // (8 * workers))
            with _coverage_pool(workers, payload) as pool:
                results = list(pool.map(_replicate, range(reps), chunksize=chunk))
        violations = sum(1 for r in results if r is None)
        successes = reps - violations
        for i, method in enumerate(cfg.methods):
            hits = sum(1 for r in results if r is not None and r[i])
            coverage = hits / successes if successes else float("nan")
            mc_se = (
                math.sqrt(coverage * (1.0 - coverage) / successes) if successes else float("nan")
            )
            rows.append(
                CoverageRow(
                    model=cfg.model,
                    statistic=cfg.statistic,
                    method=method,
                    se_mode=cfg.se_mode,
                    bias_correction=cfg.bias_correction,
                    n=n,
                    t=cfg.grid_size,
                    replicates=reps,
                    successes=successes,
                    guard_violations=violations,
                    coverage=coverage,
                    mc_se=mc_se,
                )
            )
    report = CoverageReport(rows=tuple(rows), wall_seconds=time.monotonic() - started)
    if cfg.output:
        report.write_csv(cfg.output)
    print(
        f"coverage: {len(rows)} rows in {report.wall_seconds:.1f}s "
        f"({workers} worker{'s' if workers != 1 else ''})",
        file=sys.stderr,
    )
    return report


def band_curves(
    sample: FunctionalSample,
    statistic: str,
    method: str,
    alpha: float,
    b: int,
    key: StreamKey,
    se_mode: str = "estimated",
    bias_correction: bool = False,
):
    """Single-sample band assembly shared by the CLI band/quantile commands."""
    t = get_transformation(statistic, sample.n)
    drs = delta_residuals(t, sample)
    q = estimate_quantile(drs, method, alpha, b=b, key=key)
    if se_mode == "gaussian_exact":
        if statistic not in GAUSSIAN_NULL_STATISTICS:
            raise ConfigError(
                "gaussian_exact se from a bare sample is only defined for "
                "skewness/kurtosis statistics"
            )
        if bias_correction:
            raise ConfigError("gaussian_exact already centers with the exact null mean")
        grid = sample.grid
        sd, null_mean = gaussian_null(statistic, sample.n)
        se = Curve(grid, np.full(len(grid), sd))
        bias = Curve(grid, np.full(len(grid), null_mean))
    else:
        se = drs.se
        bias = bias_estimate(t, sample) if bias_correction else None
    return construct_scb(drs.estimate, se, q, bias=bias, se_mode=se_mode)
