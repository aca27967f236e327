"""The package's public names, and no module of the package or of the
tests imports a name it never uses.

No linter runs on this repository, so the check is made here with ast: a
name bound by an import statement must be read somewhere in its module.
Exempt are `from __future__` imports, the package's re-exports (names
listed in `__all__`) and imports marked `# noqa: F401`, which keep names
that the benchmark's trace table patches by name.
"""

import ast
from pathlib import Path

import pytest

import mirrorpair

#: `mirrorpair.__all__`, sorted: a name added to or deleted from the public
#: API is an edit of this list.
PUBLIC_API = [
    "GaussianState", "LinearSystem", "NoiseModel", "OracleSpectra",
    "PhysicalParams", "SdeRun", "SteadyState", "build_linear_system",
    "classical_sde_psd", "combine_currents", "degree_sweep", "errors",
    "fig2_params", "gain_condition", "hybrid_grid", "is_stable",
    "optimize_separability", "output_spectrum",
    "output_spectrum_via_transfer", "power_to_amplitude",
    "separability_product", "stability_margin", "steady_state",
    "tmsv_state", "transfer_matrix", "two_channel_spectra",
]

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*(ROOT / "src" / "mirrorpair").glob("*.py"),
                  *(ROOT / "tests").glob("*.py")])


def _read_names(tree):
    """Every name the module reads (a dotted one by its first part), and
    the entries of __all__."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            names.update(ast.literal_eval(node.value))
    return names


def unused_imports(path):
    """(line, name) of each imported name that path never reads."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    read = _read_names(tree)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name != "*" and bound not in read:
                unused.append((node.lineno, bound))
    return unused


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_import(path):
    assert unused_imports(path) == []


def test_the_check_finds_an_unused_import(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os, sys as system\n"
        "from json import dumps, loads  # noqa: F401\n"
        "from math import pi, tau\n"
        "__all__ = ['tau']\n"
        "def f(x) -> None:\n"
        "    return os.sep\n",
        encoding="utf-8")
    assert unused_imports(module) == [(2, "system"), (4, "pi")]


def test_public_api_is_pinned():
    assert sorted(mirrorpair.__all__) == PUBLIC_API
    assert all(hasattr(mirrorpair, name) for name in PUBLIC_API)
