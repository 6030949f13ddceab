"""Benchmark workloads.

Each workload has one cell and one CLI sequence.  A cell is what a single
coverage replicate computes: a sample from a model, the delta residuals of
one statistic and a band per quantile method.  The same cell drives the
set-up probe, the warm band loop and run_coverage, so those three measure
the same work.  The CLI sequence runs `simulate` and then `band`,
`gauss-test` and `quantile` on the simulated CSV, each in a fresh
interpreter.  Why each workload exists is written in NOTES.md.

This module imports nothing outside the standard library: the orchestrator
reads it without loading numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

ALL_METHODS = ("mult", "rmult", "tmult", "rtmult", "gkf", "tgkf")
CLI_COMMANDS = ("simulate", "band", "gauss-test", "quantile")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    model: str
    statistic: str
    methods: tuple[str, ...]
    n: int
    t: int
    b: int
    # (command, statistic, method) run on the simulated CSV, in this order.
    cli: tuple[tuple[str, str, str], ...]
    # Cold path timed by setup_s after `import fdbands`: "replicate" runs the
    # first replicate of the cell, "import_cli" imports fdbands.cli.
    cold: str = "replicate"
    alpha: float = 0.05

    def cell(self) -> dict:
        """The cell as plain JSON-able values, for a measuring child."""
        return {
            "model": self.model,
            "statistic": self.statistic,
            "methods": list(self.methods),
            "n": self.n,
            "t": self.t,
            "b": self.b,
            "alpha": self.alpha,
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="boot_a",
            why="multiplier bootstrap cell (Model A, cohens_d, N=200, T=100, B=1000): RNG, GEMM and pool/BLAS cost",
            model="A",
            statistic="cohens_d",
            methods=("mult", "rmult", "tmult", "rtmult"),
            n=200,
            t=100,
            b=1000,
            cli=(
                ("band", "cohens_d", "mult"),
                ("gauss-test", "skewness_z", "mult"),
                ("quantile", "cohens_d", "rtmult"),
            ),
        ),
        Workload(
            name="gkf_b",
            why="GKF cell without bootstrap (Model B, kurtosis_z, N=400, T=200): Bessel factor, moments, GKF root",
            model="B",
            statistic="kurtosis_z",
            methods=("gkf", "tgkf"),
            n=400,
            t=200,
            b=1000,
            cli=(
                ("band", "kurtosis_z", "gkf"),
                ("gauss-test", "kurtosis_z", "gkf"),
                ("quantile", "kurtosis_z", "tgkf"),
            ),
        ),
        Workload(
            name="cli_io",
            why="fresh-process CLI sequence on a 1000x400 Model A CSV (8 MB): import time and CSV write/parse",
            model="A",
            statistic="skewness_z",
            methods=("gkf",),
            n=1000,
            t=400,
            b=1000,
            cli=(
                ("band", "cohens_d", "mult"),
                ("gauss-test", "skewness_z", "gkf"),
                ("quantile", "mean", "rtmult"),
            ),
            cold="import_cli",
        ),
    )
}


def smoke(w: Workload) -> Workload:
    """The same workload at tiny sizes, for the benchmark's own tests.

    N stays at 300: below that the normalized skewness/kurtosis bands
    under-cover (0.72 for skewness_z gkf at N=60), which the coverage check
    rightly rejects.  At N=300, T=16 every cell covers about 0.91.
    """
    return replace(w, n=300, t=16, b=100)
