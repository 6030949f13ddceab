"""`import fdbands` must not load SciPy; only the Student-t tail, the Model B
correlation and the quadrature oracle import parts of it, on first use.

Each case runs in a fresh interpreter and counts modules, so nothing here
depends on timing.  The package's own modules import each other without a
cycle, counting the imports inside functions.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import fdbands

_SRC = str(Path(fdbands.__file__).resolve().parents[1])

_GKF_QUANTILE = """
from fdbands import (
    Grid, ModelSpec, StreamKey, delta_residuals, estimate_quantile, get_transformation, sample_model,
)
sample = sample_model(ModelSpec("A"), 30, Grid.equispaced(20), StreamKey(1))
drs = delta_residuals(get_transformation("cohens_d"), sample)
estimate_quantile(drs, "{method}", 0.05)
"""


_SAMPLE = """
from fdbands import Grid, ModelSpec, StreamKey, sample_model
sample_model(ModelSpec("{kind}"), 5, Grid.equispaced(20), StreamKey(1))
"""


def _public_subpackages(loaded: set[str]) -> set[str]:
    subpackages = {m.split(".")[1] for m in loaded if "." in m}
    return {name for name in subpackages if not name.startswith("_")} - {"version"}


def _scipy_modules_after(code: str) -> set[str]:
    script = code + (
        "\nimport json, sys\n"
        "print(json.dumps([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([_SRC, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_import_loads_no_scipy():
    assert _scipy_modules_after("import fdbands") == set()
    assert _scipy_modules_after("import fdbands.cli") == set()
    assert _scipy_modules_after("from fdbands.bessel import bessel_k") == set()


def test_gkf_quantile_loads_no_scipy():
    assert _scipy_modules_after(_GKF_QUANTILE.format(method="gkf")) == set()


def test_tgkf_quantile_loads_only_scipy_special():
    loaded = _scipy_modules_after(_GKF_QUANTILE.format(method="tgkf"))
    assert _public_subpackages(loaded) == {"special"}, sorted(loaded)


def test_model_b_sampling_loads_only_scipy_special():
    loaded = _scipy_modules_after(_SAMPLE.format(kind="B"))
    assert _public_subpackages(loaded) == {"special"}, sorted(loaded)


def test_model_a_sampling_loads_no_scipy():
    assert _scipy_modules_after(_SAMPLE.format(kind="A")) == set()


def _package_import_graph() -> dict[str, set[str]]:
    """Module -> the package modules its code imports, at any depth (the
    package's modules are one level deep, so relative imports have level 1)."""
    package = Path(fdbands.__file__).parent
    modules = {path.stem for path in package.glob("*.py")}
    graph = {}
    for name in modules:
        imported = []
        for node in ast.walk(ast.parse((package / f"{name}.py").read_text())):
            if isinstance(node, ast.Import):
                imported += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = ".".join(filter(None, ["fdbands" if node.level else "", node.module]))
                imported += [f"{base}.{alias.name}" for alias in node.names]
        parts = [f"{q}.".split(".") for q in imported]
        graph[name] = {p[1] if p[1] in modules else "__init__" for p in parts if p[0] == "fdbands"}
    return graph


def test_package_import_graph_has_no_cycle():
    graph = _package_import_graph()
    assert graph["transforms"] >= {"fdata", "moments"}  # the scan sees imports
    done, path = set(), []

    def visit(name):
        assert name not in path, "import cycle: " + " -> ".join(path[path.index(name):] + [name])
        if name not in done:
            path.append(name)
            for target in sorted(graph[name]):
                visit(target)
            path.pop()
            done.add(name)

    for name in sorted(graph):
        visit(name)


def test_import_deferred_loads_scipy_special_for_tgkf_only():
    prelude = "from fdbands.quantile import import_deferred\n"
    assert _scipy_modules_after(prelude + "import_deferred(('gkf', 'mult'))") == set()
    assert "scipy.special" in _scipy_modules_after(prelude + "import_deferred(('gkf', 'tgkf'))")
