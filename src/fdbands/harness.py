"""Monte Carlo coverage experiments.

run_coverage draws replicate samples from a model, builds a band for a
statistic with each requested quantile method, and checks whether the band
contains the model's analytic truth curve at every grid point.  Replicates
are independent tasks keyed by (master seed, replicate index); aggregation
only counts, so the output CSV is byte-identical for any worker count.

Replicate streams follow the draw-counter layout named in rng.py.

Config files are flat `key = value` lines with '#' comments; see
ExperimentConfig.from_text for the key set.
"""

from __future__ import annotations

import math
import os
import sys
import time
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import astuple, dataclass, fields

import numpy as np

from .blas import blas_thread_counts, set_blas_threads
from .errors import ConfigError, DomainGuardViolation, NotAvailable
from .fdata import Curve, Grid, write_csv
from .quantile import (
    BOOTSTRAP_METHODS,
    GKF_METHODS,
    QUANTILE_METHODS,
    check_alpha,
    check_bootstrap_b,
    check_gkf_alpha,
    estimate_quantile,
    import_deferred,
)
from .rng import METHOD_DRAW, NOISE_DRAW, SAMPLE_DRAW, StreamKey
from .scb import SE_MODES, construct_scb, covers, gaussian_exact_null, residual_parts
from .scb import band_curves  # noqa: F401  (importable from here too)
from .simmodels import (
    GAUSSIAN_MODELS,
    MODEL_A_BANDWIDTH,
    ModelSpec,
    add_observation_noise,
    check_noise_sigma,
    model_b_chol,
    population_moments,
    prime_model_b_chol,
    sample_model,
)
from .transforms import (
    GAUSSIAN_NULL_STATISTICS,
    TRANSFORMATION_NAMES,
    Transformation,
    get_transformation,
    min_sample_size,
)

WORKERS_ENV_VAR = "FDBANDS_WORKERS"


# --------------------------------------------------------------------------
# experiment configuration
# --------------------------------------------------------------------------

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
        if self.statistic not in TRANSFORMATION_NAMES:
            raise ConfigError(f"unknown statistic {self.statistic!r}")
        for m in self.methods:
            if m not in QUANTILE_METHODS:
                raise ConfigError(f"unknown quantile method {m!r}")
        if not self.methods:
            raise ConfigError("need at least one quantile method")
        if self.se_mode not in SE_MODES:
            raise ConfigError(f"unknown se_mode {self.se_mode!r}")
        if self.se_mode == "gaussian_exact" and self.model not in GAUSSIAN_MODELS:
            raise ConfigError(f"gaussian_exact se needs a Gaussian model ({' or '.join(GAUSSIAN_MODELS)}), got {self.model}")
        if self.replicates < 100:
            raise ConfigError(f"need at least 100 replicates, got {self.replicates}")
        check_alpha(self.alpha)
        if any(m in GKF_METHODS for m in self.methods):
            check_gkf_alpha(self.alpha)
        if any(m in BOOTSTRAP_METHODS for m in self.methods):
            check_bootstrap_b(self.bootstrap_b)
        if self.grid_size < 3:
            raise ConfigError("grid_size must be >= 3")
        if not self.sample_sizes:
            raise ConfigError("need at least one sample size")
        for what, values in (("quantile method", self.methods), ("sample size", self.sample_sizes)):
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise ConfigError(f"repeated {what} {value!r}")
        minimum = min_sample_size(self.statistic)
        for n in self.sample_sizes:
            if n < minimum:
                raise ConfigError(f"sample size {n} below the minimum {minimum} for {self.statistic}")
        check_noise_sigma(self.noise_sigma)
        if self.workers < 0:
            raise ConfigError("workers must be >= 0")
        _cells(self)  # what run_coverage and every worker build, so a config that exists can run

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
            if key in values:
                raise ConfigError(f"config line {lineno}: duplicate key {key!r}")
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

        def parse_list(conv):
            return lambda s: tuple(conv(part.strip()) for part in s.split(",") if part.strip())

        parsers = {f.name: type(f.default) for f in fields(cls)}  # int and float keys
        parsers.update(
            model=str.upper, statistic=str.lower, methods=parse_list(str.lower),
            se_mode=str.lower, bias_correction=parse_bool, sample_sizes=parse_list(int), output=str,
        )
        try:
            kwargs = {key: parsers[key](val) for key, val in values.items()}
        except ValueError as exc:
            raise ConfigError(f"bad config value: {exc}") from None
        return cls(**kwargs)


_CONFIG_KEYS = frozenset(f.name for f in fields(ExperimentConfig))


# --------------------------------------------------------------------------
# analytic truth curves
# --------------------------------------------------------------------------

def truth_curve(model, statistic: str, grid: Grid, noise_sigma: float = 0.0) -> Curve:
    """Population value of the statistic curve: its own formula at the
    population_moments of the model's curves plus N(0, noise_sigma^2) noise.
    The skewness/kurtosis family is exactly 0 on a Gaussian model (the z forms
    by their null target); the z forms have none on a non-Gaussian model."""
    kind = model.kind if isinstance(model, ModelSpec) else str(model)
    t = get_transformation(statistic)
    if kind in GAUSSIAN_MODELS and t.name in GAUSSIAN_NULL_STATISTICS:
        return Curve(grid, np.zeros(len(grid)))
    if t.n is not None:
        raise NotAvailable(f"no closed-form {t.name} truth for model {kind}")
    return Curve(grid, t.central(population_moments(kind, grid.points, len(t.orders), noise_sigma))[0])


def gaussian_exact_se(model, statistic: str, grid: Grid, n: int, noise_sigma: float = 0.0) -> Curve:
    """Exact null sd of the statistic curve for the Gaussian models."""
    return gaussian_exact_null(statistic, grid, n, model=model, noise_sigma=noise_sigma)[0]


def gaussian_exact_bias(model, statistic: str, grid: Grid, n: int, noise_sigma: float = 0.0) -> Curve:
    """Exact null mean shift of the estimator (zero except kurtosis/variance)."""
    return gaussian_exact_null(statistic, grid, n, model=model, noise_sigma=noise_sigma)[1]


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

    CSV_HEADER = ",".join(f.name for f in fields(CoverageRow))

    def write_csv(self, path) -> None:
        write_csv(path, self.CSV_HEADER, map(astuple, self.rows))


# --------------------------------------------------------------------------
# replicate execution (worker side)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class _Cell:
    """What every replicate of one sample size shares."""

    n: int
    grid: Grid
    spec: ModelSpec
    transformation: Transformation
    truth: Curve
    exact: tuple[Curve, Curve] | None  # the exact (se, bias), set only for se_mode gaussian_exact


def _cells(cfg: ExperimentConfig) -> tuple[_Cell, ...]:
    """One cell per sample size, in config order."""
    grid = Grid.equispaced(cfg.grid_size)
    spec = ModelSpec(cfg.model, bandwidth=cfg.bandwidth, jitter=cfg.jitter)
    stat, sigma = cfg.statistic, cfg.noise_sigma
    truth = truth_curve(spec, stat, grid, sigma)
    exact = cfg.se_mode == "gaussian_exact"
    return tuple(
        _Cell(
            n, grid, spec, get_transformation(stat, n), truth,
            gaussian_exact_null(stat, grid, n, cfg.bias_correction, spec, sigma) if exact else None,
        )
        for n in cfg.sample_sizes
    )


def _replicate(cfg: ExperimentConfig, cell: _Cell, rep: int):
    """Run one replicate; returns (covered per method) or None on a guard trip."""
    sample = sample_model(cell.spec, cell.n, cell.grid, StreamKey(cfg.seed, rep, SAMPLE_DRAW))
    sample = add_observation_noise(sample, cfg.noise_sigma, StreamKey(cfg.seed, rep, NOISE_DRAW))
    try:
        drs, se, bias = residual_parts(sample, cell.transformation, cell.exact, cfg.bias_correction)
        flags = []
        for i, method in enumerate(cfg.methods):
            key = StreamKey(cfg.seed, rep, METHOD_DRAW + i)
            q = estimate_quantile(drs, method, cfg.alpha, b=cfg.bootstrap_b, key=key)
            band = construct_scb(drs.estimate, se, q, bias=bias)
            flags.append(covers(band, cell.truth))
        return tuple(flags)
    except DomainGuardViolation:
        return None


# A pool worker's config and cells, set once by its initializer.
_CFG: ExperimentConfig | None = None
_CELLS: tuple[_Cell, ...] = ()


def _init_worker(cfg: ExperimentConfig, model_b_factor, blas_threads: int) -> None:
    global _CFG, _CELLS
    set_blas_threads(blas_threads)
    # cells hold closures, so each worker rebuilds them instead of unpickling
    _CFG, _CELLS = cfg, _cells(cfg)
    if model_b_factor is not None:
        prime_model_b_chol(_CELLS[0].grid, cfg.jitter, model_b_factor)


def _pool_replicate(task: tuple[int, int]):
    cell_index, rep = task
    return _replicate(_CFG, _CELLS[cell_index], rep)


# --------------------------------------------------------------------------
# driver
# --------------------------------------------------------------------------

def resolve_workers(configured: int = 0) -> int:
    """FDBANDS_WORKERS if set, else the configured count; 0 means all cores."""
    env = os.environ.get(WORKERS_ENV_VAR)
    if env:
        try:
            configured = int(env)
        except ValueError:
            raise ConfigError(f"{WORKERS_ENV_VAR}={env!r} is not an integer") from None
        if configured < 0:
            raise ConfigError(f"{WORKERS_ENV_VAR} must be >= 0, got {env!r}")
    return configured if configured > 0 else available_cores()


def available_cores() -> int:
    """Cores this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@contextmanager
def _coverage_pool(cfg: ExperimentConfig, workers: int) -> Iterator[ProcessPoolExecutor]:
    """Worker pool that shares the cores: each worker gets cores // workers BLAS threads.

    The calling process holds that count while the pool lives, so forked
    workers inherit it and never restart OpenBLAS's thread pool; under
    spawn each worker's initializer sets it.  The caller gets its own
    counts back on exit, and its OpenBLAS threads then spin for about
    0.1 s, as they do after any BLAS call.  The Model B factor is built
    here, once, and shipped to every worker.

    Before forking, the caller also loads what a replicate would import on
    first use (quantile.import_deferred: numpy.random, and scipy.special
    for tgkf), so a forked worker shares those pages and its private memory
    is its replicates' working set.  On the boot_a cell (Model A, N = 200,
    T = 100, B = 1000, 2 workers) a worker holds 6.5 MB of private dirty
    memory after 100 replicates, against 12.5 MB when each worker imported
    numpy.random itself and the bootstrap kept block-sized temporaries.
    """
    import_deferred(cfg.methods)
    factor = model_b_chol(Grid.equispaced(cfg.grid_size), cfg.jitter) if cfg.model == "B" else None
    threads = max(1, available_cores() // workers)
    saved = blas_thread_counts()
    set_blas_threads(threads)
    try:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(cfg, factor, threads)
        ) as pool:
            yield pool
    finally:
        set_blas_threads(saved)


def run_coverage(cfg: ExperimentConfig) -> CoverageReport:
    """Run the full experiment; write the CSV if cfg.output is set.

    All sample sizes share one worker pool; its tasks are (cell, replicate)
    pairs in order, so results come back grouped by cell.
    """
    workers = resolve_workers(cfg.workers)
    started = time.monotonic()
    cells = _cells(cfg)
    reps = cfg.replicates
    tasks = [(i, rep) for i in range(len(cells)) for rep in range(reps)]
    if workers == 1:
        results = [_replicate(cfg, cells[i], rep) for i, rep in tasks]
    else:
        chunk = max(1, reps // (8 * workers))
        with _coverage_pool(cfg, workers) as pool:
            results = list(pool.map(_pool_replicate, tasks, chunksize=chunk))
    rows = []
    for c, cell in enumerate(cells):
        cell_results = results[c * reps:(c + 1) * reps]
        violations = sum(1 for r in cell_results if r is None)
        successes = reps - violations
        for i, method in enumerate(cfg.methods):
            hits = sum(1 for r in cell_results if r is not None and r[i])
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
                    n=cell.n,
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

