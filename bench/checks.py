"""Output checks.  Each returns a list of problems; an empty list passes.

Coverage is checked against a binomial window.  Its lower edge sits five
binomial sds below 0.90, the loosest coverage the repository promises
(acceptance criterion 4), so a method whose true coverage is at least 0.90
fails it with probability below 1e-5 per 100-replicate row, whatever its
random stream.  Broken bands (zero width,
a wrong quantile) land far outside it.  The upper edge sits five sds above
the nominal 0.95 and is 1 at 100 replicates: over-coverage is a documented
outcome (criterion 6), not an error.
"""

from __future__ import annotations

import math

NOMINAL = 0.95
FLOOR = 0.90
WINDOW_SDS = 5.0


def coverage_window(successes: int) -> tuple[float, float]:
    lo = FLOOR - WINDOW_SDS * math.sqrt(FLOOR * (1.0 - FLOOR) / successes)
    hi = NOMINAL + WINDOW_SDS * math.sqrt(NOMINAL * (1.0 - NOMINAL) / successes)
    return lo, min(1.0, hi)


def check_coverage_rows(rows: list[dict], methods, n: int, t: int, replicates: int) -> list[str]:
    """Every method has its row, the counts add up, coverage is in the window."""
    problems = []
    got = [r["method"] for r in rows]
    if got != list(methods):
        problems.append(f"coverage rows {got} != methods {list(methods)}")
    for r in rows:
        tag = f"coverage row {r['method']}"
        if (r["n"], r["t"], r["replicates"]) != (n, t, replicates):
            problems.append(f"{tag}: n, t, replicates = {r['n']}, {r['t']}, {r['replicates']}")
        if r["successes"] + r["guard_violations"] != r["replicates"]:
            problems.append(f"{tag}: successes + guard trips != replicates")
        if r["successes"] <= 0:
            problems.append(f"{tag}: no replicate succeeded")
            continue
        lo, hi = coverage_window(r["successes"])
        if not lo <= r["coverage"] <= hi:
            problems.append(f"{tag}: coverage {r['coverage']} outside [{lo:.3f}, {hi:.3f}]")
    return problems


def _floats(cells: list[str]) -> list[float] | None:
    try:
        values = [float(c) for c in cells]
    except ValueError:
        return None
    return values if all(math.isfinite(v) for v in values) else None


def check_band_csv(text: str, t: int, method: str) -> list[str]:
    """T rows with lower <= center <= upper and one finite q > 0."""
    lines = text.splitlines()
    if not lines or lines[0] != "s,center,lower,upper,q,method":
        return ["band CSV header is missing or wrong"]
    rows = lines[1:]
    if len(rows) != t:
        return [f"band CSV has {len(rows)} rows, expected {t}"]
    qs = set()
    for i, line in enumerate(rows, start=2):
        cells = line.split(",")
        values = _floats(cells[:5]) if len(cells) == 6 else None
        if values is None:
            return [f"band CSV line {i}: not five finite numbers and a method"]
        _, center, lower, upper, q = values
        if not lower <= center <= upper:
            return [f"band CSV line {i}: lower <= center <= upper fails"]
        if cells[5] != method:
            return [f"band CSV line {i}: method {cells[5]!r}, expected {method!r}"]
        qs.add(q)
    if len(qs) != 1 or not min(qs) > 0.0:
        return [f"band CSV q values {sorted(qs)[:3]} are not one positive number"]
    return []


def check_quantile_csv(text: str, method: str) -> list[str]:
    lines = text.splitlines()
    if len(lines) != 2 or lines[0] != "statistic,method,alpha,q":
        return ["quantile CSV is not a header and one row"]
    cells = lines[1].split(",")
    values = _floats(cells[2:]) if len(cells) == 4 else None
    if values is None or cells[1] != method or not values[1] > 0.0:
        return [f"quantile CSV row {lines[1]!r}: want method {method} and a finite q > 0"]
    return []


def check_gauss_test_csv(text: str, method: str) -> list[str]:
    lines = text.splitlines()
    if len(lines) != 2 or lines[0] != "statistic,method,alpha,max_stat,threshold,reject":
        return ["gauss-test CSV is not a header and one row"]
    cells = lines[1].split(",")
    values = _floats(cells[2:5]) if len(cells) == 6 else None
    if values is None or cells[1] != method or cells[5] not in ("true", "false"):
        return [f"gauss-test CSV row {lines[1]!r} does not parse"]
    _, max_stat, threshold = values
    if not (max_stat >= 0.0 and threshold > 0.0):
        return [f"gauss-test CSV row {lines[1]!r}: want max_stat >= 0 and threshold > 0"]
    if (cells[5] == "true") != (max_stat > threshold):
        return [f"gauss-test CSV row {lines[1]!r}: decision disagrees with max_stat > threshold"]
    return []

