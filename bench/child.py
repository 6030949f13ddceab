"""One benchmark phase, run in a fresh interpreter by bench/run.py.

Usage: python3 bench/child.py MODE JSON_ARGS

One-shot modes (setup, roundtrip) print one JSON object.  Server
modes (band, coverage) stay alive for the whole run: they print a ready
line, then answer one JSON command per stdin line with one JSON line, so
their work can be interleaved with the other phases.  fdbands is imported
inside each mode, so `setup` can time the import itself.  The child only
calls public functions of fdbands; spans are recorded here, around those
calls.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import sys
import time

from spans import Tracer
from workloads import ALL_METHODS

# Replicate indices used outside the measured loop, far from the loop's 0, 1, 2, ...
WARMUP_REP = 10**9
PROBE_REP = 2 * 10**9
# Warm-up until both hold.  The first replicates of a process run up to 4x
# slower (allocator and BLAS start-up), so a fixed small count is not enough.
WARMUP_OPS = 3
WARMUP_S = 1.5
PROBE_CALLS = 5

_LAYERS = {
    "simmodels.sample_model": "simmodels.sample",
    "transforms.delta_residuals": "transforms.delta_residuals",
    "scb.construct_scb": "scb.band",
    "scb.covers": "scb.band",
}


def _layer_of(name: str):
    if name.startswith("quantile."):
        return name
    return _LAYERS.get(name)


class Cell:
    """The fixed inputs of one workload cell: model, grid, statistic, truth."""

    def __init__(self, fd, cell: dict):
        self.methods = tuple(cell["methods"])
        self.n = cell["n"]
        self.b = cell["b"]
        self.alpha = cell["alpha"]
        self.spec = fd.ModelSpec(cell["model"])
        self.grid = fd.Grid.equispaced(cell["t"])
        self.transformation = fd.get_transformation(cell["statistic"], self.n)
        self.truth = fd.truth_curve(self.spec, cell["statistic"], self.grid)


def band_op(fd, cell: Cell, tracer: Tracer, seed: int, rep: int):
    """One coverage replicate: sample, residuals, then a band per method.

    Streams follow the harness layout: draw 0 for the sample, 2 + i for
    method i.  Returns the residual set and the quantile of each method.
    """
    with tracer.span("simmodels.sample_model"):
        sample = fd.sample_model(cell.spec, cell.n, cell.grid, fd.StreamKey(seed, rep, 0))
    with tracer.span("transforms.delta_residuals"):
        drs = fd.delta_residuals(cell.transformation, sample)
    qs = []
    for i, method in enumerate(cell.methods):
        with tracer.span("quantile." + method):
            q = fd.estimate_quantile(
                drs, method, cell.alpha, b=cell.b, key=fd.StreamKey(seed, rep, 2 + i)
            )
        with tracer.span("scb.construct_scb"):
            band = fd.construct_scb(drs.estimate, drs.se, q)
        with tracer.span("scb.covers"):
            fd.covers(band, cell.truth)
        qs.append(q.q)
    return drs, qs


def mode_setup(args: dict) -> dict:
    t0 = time.perf_counter()
    import fdbands as fd

    import_s = time.perf_counter() - t0
    setup_s = None
    if args["cold"] == "import_cli":
        import fdbands.cli  # noqa: F401

        setup_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.enabled = True
    with tracer.span("replicate", 0):
        band_op(fd, Cell(fd, args["cell"]), tracer, args["seed"], 0)
    if setup_s is None:
        setup_s = time.perf_counter() - t0
    cold_sample_s = next(s[4] - s[3] for s in tracer.spans if s[0] == "simmodels.sample_model")
    return {"setup_s": setup_s, "import_s": import_s, "cold_sample_s": cold_sample_s}


class BandLoop:
    """Warm single-process replicates of one cell, run in chunks on request.

    In a traced run even replicates are traced and odd ones are not, so the
    two latency sets share the machine's state and their medians differ by
    the tracing overhead alone.
    """

    def __init__(self, fd, args: dict):
        self.fd = fd
        self.cell = Cell(fd, args["cell"])
        self.seed = args["seed"]
        self.trace = args["trace"]
        self.spans_path = args["spans_path"]
        self.tracer = Tracer()
        self.rep = 0
        self.drs = None
        started = time.perf_counter()
        k = 0
        while k < WARMUP_OPS or time.perf_counter() - started < WARMUP_S:
            self._op(WARMUP_REP + k)
            k += 1

    def _op(self, rep: int):
        with self.tracer.span("replicate", rep):
            self.drs, qs = band_op(self.fd, self.cell, self.tracer, self.seed, rep)
        return qs

    def chunk(self, seconds: float, min_ops: int) -> dict:
        # The loop sat idle while other phases ran; one untimed replicate
        # wakes the BLAS threads again.
        self.tracer.enabled = False
        self._op(WARMUP_REP - 1)
        lat_plain, lat_traced, problems = [], [], []
        guard_trips = failed = attempted = 0
        started = time.perf_counter()
        # Time first, then enough latencies; the attempt cap ends a chunk in
        # which (almost) every replicate fails.
        while time.perf_counter() - started < seconds or (
            len(lat_plain) < min_ops and attempted < 4 * min_ops
        ):
            rep = self.rep
            self.rep += 1
            attempted += 1
            self.tracer.enabled = self.trace and rep % 2 == 0
            a = time.perf_counter()
            try:
                qs = self._op(rep)
            except self.fd.DomainGuardViolation:
                guard_trips += 1
                continue
            except Exception as exc:  # any other error is a failed operation
                failed += 1
                problems.append(f"replicate {rep}: {type(exc).__name__}: {exc}")
                continue
            elapsed_ms = (time.perf_counter() - a) * 1e3
            if not all(math.isfinite(q) and q > 0.0 for q in qs):
                failed += 1
                problems.append(f"replicate {rep}: quantiles {qs} not all finite and positive")
            (lat_traced if self.tracer.enabled else lat_plain).append(elapsed_ms)
        self.tracer.enabled = False
        return {
            "attempted": attempted,
            "failed": failed,
            "problems": problems[:5],
            "guard_trips": guard_trips,
            "lat_ms": lat_plain,
            "lat_traced_ms": lat_traced,
        }

    def finish(self) -> dict:
        """Per-layer self times of the traced replicates; writes the spans."""
        if not self.trace:
            return {}
        tracer = self.tracer
        per_rep = tracer.per_trace(lambda name: None if name == "replicate" else "all")
        layers = tracer.per_trace(_layer_of)
        # Methods outside this cell are timed on its last residual set, so
        # every quantile layer has a figure on every workload.
        tracer.enabled = True
        for method in ALL_METHODS:
            if method in self.cell.methods:
                continue
            for k in range(PROBE_CALLS):
                with tracer.span("probe", f"probe-{method}-{k}"):
                    with tracer.span("quantile." + method):
                        self.fd.estimate_quantile(
                            self.drs, method, self.cell.alpha, b=self.cell.b,
                            key=self.fd.StreamKey(self.seed, PROBE_REP + k, 2),
                        )
            probe = tracer.per_trace(lambda name, m=method: name if name == "quantile." + m else None)
            layers["quantile." + method] = probe["quantile." + method]
        tracer.dump(self.spans_path)
        return {
            "rep_layer_s_mean": statistics.fmean(per_rep["all"]),
            "layers_ms": {layer: statistics.median(v) * 1e3 for layer, v in layers.items()},
        }


class CoverageLoop:
    """run_coverage on one cell, one call per request."""

    def __init__(self, fd, args: dict):
        from fdbands.harness import resolve_workers

        self.fd = fd
        self.cell = args["cell"]
        self.workers = resolve_workers(0)

    def facts(self) -> dict:
        """Machine facts recorded with every result."""
        import multiprocessing

        import numpy as np
        import scipy

        import fdbands.cli  # noqa: F401  (also compiles the package once, untimed)

        blas = {}
        try:
            blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError):
            pass
        return {
            "cpu_count": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "default_workers": self.workers,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
            "start_method": multiprocessing.get_start_method(),
            "machine": platform.machine(),
        }

    def call(self, seed: int, replicates: int) -> dict:
        import dataclasses

        cell = self.cell
        cfg = self.fd.ExperimentConfig(
            model=cell["model"],
            statistic=cell["statistic"],
            methods=tuple(cell["methods"]),
            se_mode="estimated",
            sample_sizes=(cell["n"],),
            grid_size=cell["t"],
            replicates=replicates,
            bootstrap_b=cell["b"],
            alpha=cell["alpha"],
            seed=seed,
        )
        a = time.perf_counter()
        report = self.fd.run_coverage(cfg)
        wall = time.perf_counter() - a
        return {
            "wall_s": wall,
            "replicates": cfg.replicates,
            "workers": self.workers,
            "rows": [dataclasses.asdict(r) for r in report.rows],
        }


def mode_roundtrip(args: dict) -> dict:
    """Check a `simulate` CSV against sample_model for the same key; time fdata."""
    import filecmp

    import fdbands as fd

    path = args["csv"]
    a = time.perf_counter()
    got = fd.read_sample_csv(path)
    read_ms = (time.perf_counter() - a) * 1e3
    want = fd.sample_model(
        fd.ModelSpec(args["model"]), args["n"], fd.Grid.equispaced(args["t"]),
        fd.StreamKey(args["seed"], 0, 0),
    )
    problems = []
    if got.grid != want.grid:
        problems.append("grid differs from sample_model's")
    elif got.values.shape != want.values.shape or got.values.tobytes() != want.values.tobytes():
        problems.append("values are not bit-identical to sample_model's")
    a = time.perf_counter()
    fd.write_sample_csv(want, args["rewrite"])
    write_ms = (time.perf_counter() - a) * 1e3
    if not filecmp.cmp(path, args["rewrite"], shallow=False):
        problems.append("write_sample_csv output differs from the simulate CSV")
    return {
        "problems": problems,
        "read_ms": read_ms,
        "write_ms": write_ms,
        "csv_bytes": os.path.getsize(path),
    }


def _reply(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def serve(loop_class, args: dict) -> None:
    """Build the loop, reply {"ready": true}, then answer one JSON request
    per stdin line: {"method": name, "args": {...}} -> the method's result.

    An exception is replied as {"error": ...} and ends the child; the
    orchestrator counts the failure.
    """
    import fdbands as fd

    try:
        loop = loop_class(fd, args)
        _reply({"ready": True})
        for line in sys.stdin:
            request = json.loads(line)
            _reply(getattr(loop, request["method"])(**request["args"]))
    except Exception as exc:  # reported to the orchestrator, which counts it
        _reply({"error": f"{type(exc).__name__}: {exc}"})
        raise


ONE_SHOT = {"setup": mode_setup, "roundtrip": mode_roundtrip}
SERVERS = {"band": BandLoop, "coverage": CoverageLoop}

if __name__ == "__main__":
    mode, args = sys.argv[1], json.loads(sys.argv[2])
    if mode in SERVERS:
        serve(SERVERS[mode], args)
    else:
        _reply(ONE_SHOT[mode](args))
