"""fdbands benchmark: end-to-end metrics, or per-layer metrics when traced.

Run from a checkout of the repository (the package is loaded from src/):

    python3 bench/run.py --workload boot_a --seed 1 --seconds 30 --trace 0

A run starts two long-lived children, the band loop and run_coverage, and
records the machine facts.  Then it runs ROUNDS rounds of these phases:

  setup     a fresh interpreter times `import fdbands` plus the workload's
            cold path to its first result;
  coverage  one run_coverage call on the cell, at the default worker count;
  cli       the workload's CLI sequence (`simulate`, then three commands
            on its CSV), each call in a fresh interpreter.

After every phase the band loop runs warm single-process coverage
replicates of the workload's cell, timed one by one, until its slot's
share of --seconds is used.

Every child starts with the thread-count variables unset, so the
program decides its own threading.  Outputs are checked as they arrive; a
failed check, an exception or a nonzero exit counts as one failed
operation.  The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  Raw figures, machine facts and (traced)
spans go to .bench_out/.  NOTES.md says why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import checks
from workloads import ALL_METHODS, CLI_COMMANDS, WORKLOADS, smoke

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT_DIR = os.path.join(ROOT, ".bench_out")
# Unset in every child: the program, not the benchmark, picks thread counts.
THREAD_ENV = ("FDBANDS_WORKERS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

CHILD = os.path.join(BENCH, "child.py")

# Every round runs the whole CLI sequence, so each command is timed ROUNDS
# times.  The band loop gets at least MIN_LATENCIES latencies, so that ten
# lie beyond the printed p90.
ROUNDS = 3
MIN_LATENCIES = 100
SMOKE_MIN_LATENCIES = 10
COVERAGE_REPLICATES = 100  # the smallest run ExperimentConfig accepts
RUN_LIMIT_S = 170.0  # every child is killed by then
RSS_PERIOD_S = 0.1

END_TO_END_UNITS = {
    "setup_s": "s",
    "reps_per_s": "1/s",
    "band_ms_p50": "ms",
    "cli_s_p50": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "import_s": "s",
    "simmodels.cold_setup_s": "s",
    "simmodels.sample_ms": "ms",
    "transforms.delta_residuals_ms": "ms",
    "transforms.guard_trips": "count",
    "quantile.mult_ms": "ms",
    "quantile.rmult_ms": "ms",
    "quantile.tmult_ms": "ms",
    "quantile.rtmult_ms": "ms",
    "quantile.gkf_ms": "ms",
    "quantile.tgkf_ms": "ms",
    "scb.band_ms": "ms",
    "harness.overhead_s": "s",
    "harness.parallel_eff": "ratio",
    "fdata.write_ms": "ms",
    "fdata.read_ms": "ms",
    "fdata.csv_bytes": "bytes",
    "cli.simulate_s": "s",
    "cli.band_s": "s",
    "cli.gauss_test_s": "s",
    "cli.quantile_s": "s",
    "trace.overhead_ms": "ms",
}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_ENV}
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# --------------------------------------------------------------------------
# peak memory of the process tree under measurement
# --------------------------------------------------------------------------

def _descendants(pid: int) -> list[int]:
    found, todo = [], [pid]
    while todo:
        p = todo.pop()
        try:
            tasks = os.listdir(f"/proc/{p}/task")
        except OSError:
            continue
        for tid in tasks:
            try:
                with open(f"/proc/{p}/task/{tid}/children") as fh:
                    kids = [int(c) for c in fh.read().split()]
            except OSError:
                continue
            found.extend(kids)
            todo.extend(kids)
    return found


def _pss_kb(pid: int) -> int:
    """Proportional set size (shared pages split among their users), else RSS."""
    for path, key in ((f"/proc/{pid}/smaps_rollup", "Pss:"), (f"/proc/{pid}/status", "VmRSS:")):
        try:
            with open(path) as fh:
                for line in fh:
                    if line.startswith(key):
                        return int(line.split()[1])
        except OSError:
            continue
    return 0


class PeakMemory(threading.Thread):
    """Samples the summed PSS of the tree under `root` (a pid or None)."""

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self.root = None
        self.peak_kb = 0
        self._done = threading.Event()

    def run(self) -> None:
        while not self._done.wait(RSS_PERIOD_S):
            root = self.root
            if root is not None:
                total = sum(_pss_kb(p) for p in [root] + _descendants(root))
                self.peak_kb = max(self.peak_kb, total)

    def stop(self) -> None:
        self._done.set()
        self.join()


# --------------------------------------------------------------------------
# child processes and failure accounting
# --------------------------------------------------------------------------

class Run:
    """Children, their failures, and the time limit of one benchmark run."""

    def __init__(self) -> None:
        self.env = child_env()
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.memory = PeakMemory()
        self.procs: list[subprocess.Popen] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._watchdog = threading.Timer(RUN_LIMIT_S, self.kill_all)
        self._watchdog.daemon = True

    def __enter__(self) -> "Run":
        self.memory.start()
        self._watchdog.start()
        return self

    def __exit__(self, *exc) -> None:
        self._watchdog.cancel()
        self.kill_all()
        self.memory.stop()

    def kill_all(self) -> None:
        """SIGKILL every child's process group (pool workers included); reap."""
        for proc in self.procs:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()

    def record(self, what: str, problems: list[str]) -> None:
        """Count one operation; it failed if it has problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems[:3])

    def popen(self, argv: list[str], **kwargs) -> subprocess.Popen:
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=self.env, text=True, start_new_session=True, **kwargs
        )
        self.procs.append(proc)
        return proc

    def spawn(self, argv: list[str], measured: bool = True) -> tuple[int, str, str, float]:
        """Run argv to completion; returns exit code, stdout, stderr, wall seconds.

        A measured child is the workload itself, so its memory is sampled.
        """
        started = time.perf_counter()
        proc = self.popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        if measured:
            self.memory.root = proc.pid
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            out, err = "", "killed at the run's time limit"
        finally:
            self.memory.root = None
            # Also ends pool workers a killed child may have left behind.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        return proc.returncode, out, err, time.perf_counter() - started

    def child(self, mode: str, args: dict, measured: bool = True) -> dict | None:
        """Run a one-shot bench/child.py mode; None (and one failure) if it broke."""
        argv = [sys.executable, CHILD, mode, json.dumps(args)]
        rc, out, err, _ = self.spawn(argv, measured)
        try:
            if rc == 0:
                return json.loads(out.strip().splitlines()[-1])
        except (ValueError, IndexError):
            pass
        self.record(f"child {mode}", [f"exit {rc}: {err.strip()[-300:]}"])
        return None


class Server:
    """A long-lived bench/child.py loop (band or coverage), one request per call.

    The child starts at construction; ready() waits for it, so that several
    servers can start at once.
    """

    def __init__(self, run: Run, mode: str, args: dict, tag: str):
        self.run = run
        self.mode = mode
        self.stderr_path = os.path.join(OUT_DIR, f"{tag}-{mode}.stderr")
        with open(self.stderr_path, "w") as err:
            self.proc = run.popen(
                [sys.executable, CHILD, mode, json.dumps(args)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
            )
        self.alive = True

    def ready(self) -> None:
        self.alive = self._reply() is not None

    def _reply(self) -> dict | None:
        line = self.proc.stdout.readline()
        try:
            reply = json.loads(line)
        except ValueError:
            reply = {"error": f"child exited or wrote {line[:80]!r}"}
        if "error" in reply:
            with open(self.stderr_path) as fh:
                tail = fh.read().strip()[-300:]
            self.run.record(f"{self.mode} loop", [f"{reply['error']}: {tail}"])
            self.alive = False
            return None
        return reply

    def call(self, method: str, **kwargs) -> dict | None:
        if not self.alive:
            return None
        self.run.memory.root = self.proc.pid
        try:
            self.proc.stdin.write(json.dumps({"method": method, "args": kwargs}) + "\n")
            self.proc.stdin.flush()
            return self._reply()
        except BrokenPipeError:
            return self._reply()
        finally:
            self.run.memory.root = None

    def close(self) -> None:
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=max(1.0, self.run.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            pass


# --------------------------------------------------------------------------
# the rounds
# --------------------------------------------------------------------------

def _cli_check(command: str, text: str, w, method: str) -> list[str]:
    if command == "band":
        return checks.check_band_csv(text, w.t, method)
    if command == "quantile":
        return checks.check_quantile_csv(text, method)
    return checks.check_gauss_test_csv(text, method)


class CliSequence:
    """`simulate`, then the workload's three commands on its CSV, in rotation."""

    def __init__(self, run: Run, w, seed: int, work: str):
        self.run = run
        self.w = w
        self.seed = seed
        self.work = work
        self.steps = (("simulate", None, None),) + w.cli
        self.step = 0
        self.csv = os.path.join(work, "sample.csv")
        self.walls = {c: [] for c in CLI_COMMANDS}
        self.roundtrip = None

    def next(self) -> None:
        command, stat, method = self.steps[self.step % len(self.steps)]
        sim_seed = self.seed * 1000 + self.step // len(self.steps)
        self.step += 1
        cli = [sys.executable, "-m", "fdbands.cli", command]
        if command == "simulate":
            argv = cli + ["--model", self.w.model, "--n", str(self.w.n), "--t", str(self.w.t),
                          "--seed", str(sim_seed), "--out", self.csv]
        else:
            out = os.path.join(self.work, f"{command}.csv")
            argv = cli + ["--in", self.csv, "--stat", stat, "--method", method,
                          "--b", str(self.w.b), "--seed", str(sim_seed), "--out", out]
        rc, _, err, wall = self.run.spawn(argv)
        if rc != 0:
            self.run.record(f"cli {command}", [f"exit {rc}: {err.strip()[-200:]}"])
            return
        self.walls[command].append(wall)
        if command != "simulate":
            with open(out) as fh:
                self.run.record(f"cli {command}", _cli_check(command, fh.read(), self.w, method))
            return
        self.run.record("cli simulate", [])
        if self.roundtrip is None:
            self.roundtrip = self.run.child("roundtrip", {
                "csv": self.csv, "rewrite": os.path.join(self.work, "rewrite.csv"),
                "model": self.w.model, "n": self.w.n, "t": self.w.t, "seed": sim_seed,
            }, measured=False)
            if self.roundtrip is not None:
                self.run.record("roundtrip", self.roundtrip["problems"])


def run_rounds(run: Run, w, seed: int, seconds: float, trace: bool, tag: str,
               min_latencies: int) -> dict:
    """ROUNDS rounds of phases, with a band chunk after every phase.

    On a shared host a core's speed can flip between a fast and a slow
    state every few seconds (on a 2-vCPU cloud VM, 7 ms against 10 ms for
    one gkf_b replicate).  So the band loop runs in many short chunks
    spread over the whole run, each filling its slot to an equal share of
    `seconds`, and every metric samples every part of the run.
    """
    band = Server(run, "band", {
        "cell": w.cell(), "seed": seed, "trace": trace,
        "spans_path": os.path.join(OUT_DIR, f"{tag}-spans.json"),
    }, tag)
    coverage = Server(run, "coverage", {"cell": w.cell()}, tag)
    work = os.path.join(OUT_DIR, f"cli-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    cli = CliSequence(run, w, seed, work)
    setup, lat, lat_traced, calls = [], [], [], []
    guard_trips = 0
    layers = {}

    def do_setup(i: int) -> None:
        r = run.child("setup", {"cell": w.cell(), "cold": w.cold, "seed": seed})
        if r is not None:
            run.record("setup", [])
            setup.append(r)

    def do_coverage(i: int) -> None:
        call = coverage.call("call", seed=seed * 1000 + i, replicates=COVERAGE_REPLICATES)
        if call is not None:
            run.record("coverage", checks.check_coverage_rows(
                call["rows"], w.methods, w.n, w.t, call["replicates"]))
            calls.append(call)

    def do_cli(i: int) -> None:
        cli.next()

    phases = (do_setup, do_coverage) + (do_cli,) * len(cli.steps)
    slots = ROUNDS * len(phases)
    min_ops = -(-min_latencies // slots)
    try:
        band.ready()
        coverage.ready()
        # Imports fdbands.cli once, untimed: the first set-up of a fresh
        # checkout then finds the bytecode compiled and the files cached.
        facts = coverage.call("facts") or {}
        started = time.perf_counter()
        slot = 0
        for i in range(ROUNDS):
            for phase in phases:
                if time.monotonic() >= run.deadline:
                    break
                phase(i)
                slot += 1
                slot_end = started + seconds * slot / slots
                chunk = band.call("chunk", seconds=max(0.0, slot_end - time.perf_counter()),
                                  min_ops=min_ops)
                if chunk is not None:
                    run.attempted += chunk["attempted"]
                    run.failed += chunk["failed"]
                    run.problems.extend(f"band: {p}" for p in chunk["problems"])
                    guard_trips += chunk["guard_trips"]
                    lat += chunk["lat_ms"]
                    lat_traced += chunk["lat_traced_ms"]
        if trace:
            layers = band.call("finish") or {}
    finally:
        band.close()
        coverage.close()
        shutil.rmtree(work, ignore_errors=True)
    return {
        "facts": facts, "setup": setup, "lat_ms": lat, "lat_traced_ms": lat_traced,
        "guard_trips": guard_trips, "calls": calls, "layers": layers,
        "cli_walls_s": cli.walls, "roundtrip": cli.roundtrip,
    }


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------

def _median(values):
    return statistics.median(values) if values else None


def end_to_end(res: dict, peak_kb: int) -> dict:
    calls = res["calls"]
    return {
        "setup_s": _median([r["setup_s"] for r in res["setup"]]),
        "reps_per_s": (
            sum(c["replicates"] for c in calls) / sum(c["wall_s"] for c in calls)
            if calls else None
        ),
        "band_ms_p50": _median(res["lat_ms"]),
        "cli_s_p50": _median([s for v in res["cli_walls_s"].values() for s in v]),
        "peak_rss_mb": peak_kb / 1024.0 if peak_kb else None,
    }


def per_layer(res: dict, e2e: dict) -> dict:
    setup, calls, layers = res["setup"], res["calls"], res["layers"].get("layers_ms", {})
    out = {
        "import_s": _median([r["import_s"] for r in setup]),
        "simmodels.cold_setup_s": _median([r["cold_sample_s"] for r in setup]),
        "simmodels.sample_ms": layers.get("simmodels.sample"),
        "transforms.delta_residuals_ms": layers.get("transforms.delta_residuals"),
        # Guard trips are statistical outcomes, not failures.  Every method
        # row of a coverage call carries the call's trip count.
        "transforms.guard_trips": res["guard_trips"] + sum(
            c["rows"][0]["guard_violations"] for c in calls if c["rows"]
        ),
    }
    for m in ALL_METHODS:
        out[f"quantile.{m}_ms"] = layers.get(f"quantile.{m}")
    out["scb.band_ms"] = layers.get("scb.band")

    out["harness.overhead_s"] = out["harness.parallel_eff"] = None
    if calls and res["lat_ms"] and "rep_layer_s_mean" in res["layers"]:
        workers = calls[0]["workers"]
        rep_layer_s = res["layers"]["rep_layer_s_mean"]
        out["harness.overhead_s"] = statistics.median(
            c["wall_s"] - c["replicates"] * rep_layer_s / workers for c in calls
        )
        rep_s = statistics.fmean(res["lat_ms"]) / 1e3
        out["harness.parallel_eff"] = e2e["reps_per_s"] * rep_s / workers

    roundtrip = res["roundtrip"]
    for key in ("write_ms", "read_ms", "csv_bytes"):
        out[f"fdata.{key}"] = roundtrip[key] if roundtrip else None
    for command in CLI_COMMANDS:
        out["cli." + command.replace("-", "_") + "_s"] = _median(res["cli_walls_s"][command])
    out["trace.overhead_ms"] = (
        statistics.median(res["lat_traced_ms"]) - statistics.median(res["lat_ms"])
        if res["lat_traced_ms"] and res["lat_ms"] else None
    )
    return out


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float, help="measured time of one run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes and counts, for tests")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "fdbands", "__init__.py")):
        print("error: src/fdbands not found next to bench/; run from a full checkout",
              file=sys.stderr)
        return 2

    w = smoke(WORKLOADS[args.workload]) if args.smoke else WORKLOADS[args.workload]
    trace = bool(args.trace)
    tag = f"{w.name}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    os.makedirs(OUT_DIR, exist_ok=True)

    with Run() as run:
        res = run_rounds(run, w, args.seed, args.seconds, trace, tag,
                         SMOKE_MIN_LATENCIES if args.smoke else MIN_LATENCIES)
    facts = res["facts"]

    e2e = end_to_end(res, run.memory.peak_kb)
    layer = per_layer(res, e2e) if trace else {}
    metrics, units = (layer, PER_LAYER_UNITS) if trace else (e2e, END_TO_END_UNITS)

    lat = res["lat_ms"]
    print(f"workload {w.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for key, value in facts.items():
        print(f"  fact {key}: {value}")
    for name, value in {**e2e, **layer}.items():
        unit = END_TO_END_UNITS.get(name) or PER_LAYER_UNITS[name]
        print(f"  {name:32s} {value if value is None else f'{value:.6g}'} {unit}")
    print(f"  {len(lat)} band latencies, "
          f"{len(res['calls'])} run_coverage calls, {len(res['setup'])} set-ups")
    # The highest tail percentile with at least ten latencies beyond it.
    # It is printed, not gated: its run-to-run spread is near the bound.
    for pct in (99, 90):
        if len(lat) * (100 - pct) >= 1000:
            print(f"  band_ms_p{pct} {statistics.quantiles(lat, n=100)[pct - 1]:.6g} ms")
            break
    print(f"  failed_frac {run.failed / max(1, run.attempted):.6g} ({run.failed}/{run.attempted})")
    for problem in run.problems[:20]:
        print(f"  FAILED {problem}")

    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w") as fh:
        json.dump({
            "args": vars(args), "metrics": {**e2e, **layer},
            "attempted": run.attempted, "failed": run.failed, "problems": run.problems,
            **res,
        }, fh, indent=1)

    missing = [name for name, value in metrics.items() if value is None]
    if missing:
        print(f"error: no measurement for {', '.join(missing)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
