"""The benchmark harness calls the library by name; these tests fail when a
library name it uses is gone, or when a query process imports more than it needs."""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_traced_probe_runs_against_the_library(tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "traced_query.py"), "q", "probe", "A2", "1,1",
         str(tmp_path)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["count"] == 42
    assert any(span["name"] == "orbits.enumerate_X" and "X_size" in span["counts"]
               for span in result["spans"])


# stdlib modules whose import costs a query process milliseconds and that no route needs;
# `dataclasses` alone pulls in the other four
HEAVY_MODULES = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def _modules_imported(*argv):
    """The names of the modules a fresh interpreter imports, by -X importtime's report."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-X", "importtime", *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


COUNT = ["-m", "alcoves.cli", "count", "--type", "B", "--rank", "3", "--lambda", "1,0,2",
         "--method"]


@pytest.mark.parametrize("argv", [["-c", "import alcoves.cli"],
                                  ["-m", "alcoves.cli", "--version"],
                                  COUNT + ["lattice"], COUNT + ["bruhat"]])
def test_a_query_process_imports_no_heavy_stdlib_module(argv):
    # against a bare interpreter, so a module that site hooks load counts for neither
    baseline = _modules_imported("-c", "pass")
    imported = _modules_imported(*argv)
    assert {"alcoves.rootdata", "argparse"} <= imported - baseline
    assert (imported - baseline) & HEAVY_MODULES == set()


def _pin_references():
    spec = importlib.util.spec_from_file_location("pin_references",
                                                  ROOT / "benchmarks" / "pin_references.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pin_references_imports():
    assert callable(_pin_references().main)


def test_bruhat_route_reproduces_every_pinned_sweep_count():
    # the harness's bruhat route is theta plus lower_interval, as the library names them
    pins = _pin_references()
    refs = json.loads((ROOT / "benchmarks" / "references.json").read_text())["bruhat-sweep"]
    assert len(refs) == 7
    for ref in refs:
        assert pins.count("bruhat", ref["system"], tuple(ref["lambda"])) == ref["count"], ref


def test_public_names():
    # the library's public surface: a name leaves it only on purpose
    import alcoves
    assert alcoves.__all__ == [
        "AlcovesError", "BudgetExceededError", "FaceDescriptor",
        "FitVerificationError", "FormulaConsistencyError", "GeometricCoefficients",
        "MPoly", "QVector", "RadScalar", "RootSystemData", "RootSystemId",
        "VolumePolynomial", "WallPointError",
        "build_root_system", "contains", "descents", "dominant_representative",
        "enumerate_X", "evaluate_formula", "face", "fit_mu",
        "hypersimplex_dilation_count", "hypersimplex_ehrhart",
        "interval_size_bruhat", "interval_size_lattice", "lattice_count",
        "lattice_count_by_membership", "lower_interval", "relative_volumes",
        "sigma_reflection", "theta", "volume_polynomial", "weyl_order",
    ]
    for name in alcoves.__all__:
        assert getattr(alcoves, name) is not None, name


def _names_used(path: Path) -> set[str]:
    """The names a module's code reads, as a name or an attribute, each outside
    the top-level function or class that defines it; imports do not count."""
    used = set()
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        own = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if isinstance(node, (ast.Name, ast.Attribute)) and name != own:
                used.add(name)
    return used


def test_every_public_name_is_used_by_the_library_or_the_benchmarks():
    # a public name that only tests call belongs in tests/oracles.py; the package's
    # own __init__ imports and lists every name, so it does not count
    import alcoves
    files = [p for p in sorted((ROOT / "src" / "alcoves").glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "benchmarks").glob("*.py"))
    used = set().union(*map(_names_used, files))
    assert [name for name in alcoves.__all__ if name not in used] == []
