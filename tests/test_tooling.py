"""The benchmark harness calls the library by name; these tests fail when a
library name it uses is gone, or when a query process imports more than it needs."""

import ast
import fnmatch
import functools
import importlib.util
import json
import os
import re
import shutil
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
# `dataclasses` alone pulls in the other four, and `typing` costs about 4 ms.  Reading
# the shipped coefficients through importlib.resources would bring tempfile and zipfile
HEAVY_MODULES = {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing", "tempfile",
                 "zipfile"}
# what a count does not run: argparse (with gettext and locale), as the CLI reads argv
# itself, and rationals (fractions, with decimal and numbers) and polynomials, as mu' is
# summed in integers.  `rootdata` prints rationals, so it may load fractions
NOT_RUN = {"argparse", "gettext", "locale", "fractions", "decimal", "numbers", "alcoves.mpoly"}
RATIONALS = {"fractions", "decimal", "numbers"}
# the route modules; a process may load only those of the route it runs
ROUTES = {"alcoves.affine", "alcoves.orbits", "alcoves.volumes", "alcoves.coefficients"}


def _modules_imported(*argv):
    """The names of the modules a fresh interpreter imports, by -X importtime's report.
    It runs with -S, so a module that a site hook imports first cannot hide one that
    the package pulls in."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-S", "-X", "importtime", *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


COUNT = ["-m", "alcoves.cli", "count", "--type", "B", "--rank", "3", "--lambda", "1,0,2",
         "--method"]
# a count from A9.json under --cache-dir, as A9 ships no file: the test first writes it
# from the Berline-Vergne mu', which the count derives again to check the file
GEOMETRIC = ["-m", "alcoves.cli", "count", "--type", "A", "--rank", "9", "--lambda",
             "1,0,0,1,0,0,0,0,1", "--method", "geometric", "--cache-dir"]
# a count from the file the package ships for B3, with an empty cache directory
SHIPPED = COUNT + ["geometric", "--cache-dir"]
# the command the benchmark's set-up runs once per system
ROOTDATA = ["-m", "alcoves.cli", "rootdata", "--type", "B", "--rank", "3"]


@functools.cache
def _a9_text() -> str:
    """What `fit --out` would write for A9, from the Berline-Vergne mu' alone."""
    from alcoves import GeometricCoefficients, build_root_system
    from alcoves.coefficients import _berline_vergne
    data = build_root_system("A9")
    coeffs = GeometricCoefficients(data.id, _berline_vergne(data, (1,) * 9))
    return json.dumps(coeffs.to_json(), sort_keys=True) + "\n"


def _a9_cache(folder: Path) -> Path:
    folder.mkdir()
    (folder / "A9.json").write_text(_a9_text())
    return folder


@pytest.mark.parametrize("argv", [["-c", "import alcoves.cli"],
                                  ["-m", "alcoves.cli", "--version"],
                                  COUNT + ["lattice"], COUNT + ["bruhat"], GEOMETRIC, SHIPPED,
                                  ROOTDATA])
def test_a_query_process_imports_no_heavy_stdlib_module(argv, tmp_path):
    method = argv[argv.index("--method") + 1] if "--method" in argv else None
    routes = {"lattice": {"alcoves.orbits"}, "bruhat": {"alcoves.affine"},
              "geometric": {"alcoves.volumes", "alcoves.coefficients"}}.get(method, set())
    # `rootdata` prints rationals, and Berline-Vergne checks a --cache-dir file in them
    not_run = NOT_RUN - (RATIONALS if argv is ROOTDATA or argv is GEOMETRIC else set())
    if argv is GEOMETRIC:
        argv = argv + [str(_a9_cache(tmp_path / "a9"))]
    elif argv is SHIPPED:
        argv = argv + [str(tmp_path / "cache")]
    # against a bare interpreter, so a module that site hooks load counts for neither
    baseline = _modules_imported("-c", "pass")
    imported = _modules_imported(*argv)
    assert {"alcoves.rootdata", "json"} <= imported - baseline
    assert (imported - baseline) & HEAVY_MODULES == set()
    assert (imported - baseline) & not_run == set()
    assert imported & ROUTES == routes
    assert not (tmp_path / "cache").exists()
    a9 = tmp_path / "a9"
    if a9.exists():  # the count read its file and left it as it was
        assert list(a9.iterdir()) == [a9 / "A9.json"] and (a9 / "A9.json").read_text() == _a9_text()


# the package modules that each count method loads, beside alcoves.cli, which runs as
# __main__: the package, its errors, the root data (with the bordering step) and the route's
# modules.  A count loads neither fractions nor alcoves.mpoly, as mu' is summed in integers
CORE = {"alcoves", "alcoves.errors", "alcoves.rootdata"}
COUNT_LOADS = {"geometric": CORE | {"alcoves.volumes", "alcoves.coefficients"},
               "lattice": CORE | {"alcoves.orbits"}, "bruhat": CORE | {"alcoves.affine"}}


@pytest.mark.parametrize("method", sorted(COUNT_LOADS))
def test_each_count_method_loads_its_route_and_no_rationals(method):
    imported = _modules_imported(*COUNT, method)
    assert {name for name in imported if name.split(".")[0] == "alcoves"} == COUNT_LOADS[method]
    assert imported & {"fractions", "alcoves.mpoly"} == set()


# what each interpreter runs: every count route, a shipped file read from the package, an
# A9 file read from --cache-dir and checked by Berline-Vergne, and verify's cross-check of
# all three
ACROSS_VERSIONS = [COUNT[:-2] + ["1,1,1", "--method", method, "--cache-dir"]
                   for method in ("bruhat", "lattice", "geometric")]
ACROSS_VERSIONS += [GEOMETRIC, ["-m", "alcoves.cli", "verify", "--type", "A", "--rank", "2",
                                "--max-coord", "1", "--cache-dir"]]
# and the usage errors, which the CLI's own argv reader words the same on each
USAGE_ERRORS = [COUNT[:-2] + ["1,1,1", "--method", "lattice", "--bogus", "1", "--cache-dir"],
                COUNT[:-3] + ["--cache-dir"],  # --lambda and --method left out
                COUNT[:-2] + ["1,1,1", "--method", "Lattice", "--cache-dir"],
                COUNT[:6] + ["3x"] + COUNT[7:-2] + ["1,1,1", "--method", "lattice", "--cache-dir"],
                COUNT[:-2] + ["1,1,1", "--method", "lattice", "--c", "--cache-dir"]]
# and the other ways a process ends: --version and -h, which raise SystemExit(0) after
# their text, and a budget refusal, exit 2
BUDGET_REFUSALS = [COUNT[:-2] + ["1,1,1", "--method", "lattice", "--box-cap", "1", "--cache-dir"]]
ACROSS_VERSIONS += USAGE_ERRORS + BUDGET_REFUSALS + [["-m", "alcoves.cli", "--version"],
                                                     ["-m", "alcoves.cli", "-h"]]


def _runs(exe) -> bool:
    try:
        return subprocess.run([exe, "-c", "pass"], capture_output=True, timeout=60).returncode == 0
    except (OSError, subprocess.TimeoutExpired):
        return False


def _interpreter(python):
    """A `python` (`python3.10`, say) that runs: the one on PATH, else one that pyenv
    installed, as its shim refuses a version that is not selected; else None."""
    if _runs(python):
        return python
    try:
        root = subprocess.run(["pyenv", "root"], capture_output=True, text=True,
                              timeout=60).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return None
    version = python[len("python"):]
    found = sorted(Path(root, "versions").glob("%s.*/bin/%s" % (version, python))) if root else []
    return next((str(exe) for exe in reversed(found) if _runs(exe)), None)


@pytest.mark.parametrize("python", ["python3.10", "python3.13"])
def test_the_cli_prints_the_same_on_each_declared_python(python, tmp_path):
    # pyproject.toml declares requires-python >= 3.10: the oldest and the newest
    # interpreter, when installed, must print what this one prints, elapsed_ms aside
    exe = _interpreter(python)
    if exe is None:
        pytest.skip("no %s runs -c pass" % python)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    cache, a9 = tmp_path / "cache", _a9_cache(tmp_path / "a9")
    cache.mkdir()
    for argv in ACROSS_VERSIONS:
        last = [str(a9 if argv is GEOMETRIC else cache)] if argv[-1] == "--cache-dir" else []
        outputs = []
        for run in (sys.executable, exe):
            proc = subprocess.run([run, "-S", *argv, *last], capture_output=True, text=True,
                                  env=dict(os.environ, PYTHONPATH=path), timeout=300)
            code = 1 if argv in USAGE_ERRORS else 2 if argv in BUDGET_REFUSALS else 0
            assert proc.returncode == code, (run, argv, proc.stdout + proc.stderr)
            outputs.append(re.sub(r'"elapsed_ms": [0-9]+, ', "", proc.stdout))
        assert outputs[0] == outputs[1], argv
    assert list(cache.iterdir()) == []  # every other count read a shipped file
    assert list(a9.iterdir()) == [a9 / "A9.json"] and (a9 / "A9.json").read_text() == _a9_text()


def test_every_shipped_file_is_declared_package_data():
    # a wheel or sdist carries only the files that pyproject.toml declares
    tomllib = pytest.importorskip("tomllib")
    from alcoves.cli import DATA_DIR
    with open(ROOT / "pyproject.toml", "rb") as fh:
        patterns = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["alcoves"]
    package = Path(DATA_DIR).parent
    files = [p.relative_to(package).as_posix() for p in Path(DATA_DIR).iterdir()]
    assert [f for f in files if not any(fnmatch.fnmatchcase(f, g) for g in patterns)] == []


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


def test_benchmark_selftest_passes(tmp_path):
    # the harness's self-test on a copy, so its work directory lands under tmp_path; a
    # library change that breaks a workload's set-up fails here
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    proc = subprocess.run([sys.executable, "benchmarks/selftest.py"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_public_names():
    # the library's public surface: a name leaves it only on purpose
    import alcoves
    assert alcoves.__all__ == [
        "AlcovesError", "BudgetExceededError", "FaceDescriptor",
        "FitVerificationError", "FormulaConsistencyError", "GeometricCoefficients",
        "MPoly", "RootSystemData", "RootSystemId",
        "VolumePolynomial", "WallPointError",
        "build_root_system", "contains", "descents", "dominant_representative",
        "enumerate_X", "evaluate_formula", "face", "fit_mu",
        "hypersimplex_dilation_count", "hypersimplex_ehrhart",
        "interval_size_bruhat", "interval_size_lattice", "lattice_count",
        "lattice_count_by_membership", "lower_interval",
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


# what would let the environment or the home directory steer the library: os.environ and
# os.getenv (with their bytes forms), Path.home and expanduser
OUTSIDE_INPUTS = {"environ", "environb", "getenv", "getenvb", "home", "expanduser"}


def test_the_library_reads_no_environment_variable_and_no_home_directory():
    # every input of the library is an argument; a new environment knob changes this on purpose
    found = []
    for path in sorted((ROOT / "src" / "alcoves").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            found += ["%s:%d %s" % (path.name, node.lineno, name) for name in names
                      if name in OUTSIDE_INPUTS]
    assert found == []


def test_only_fit_fits_or_writes_coefficients():
    # count and verify read coefficient files; fit alone derives them and writes them
    tree = ast.parse((ROOT / "src" / "alcoves" / "cli.py").read_text(encoding="utf-8"))
    found = set()
    for stmt in tree.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            found |= {(name, getattr(stmt, "name", None)) for name in names
                      if name in ("fit_mu", "_write_coefficients")}
    assert found == {("fit_mu", "cmd_fit"), ("_write_coefficients", "cmd_fit")}


# the flags README.md may name that no command's table lists: the reader's own and pip's
README_OTHER_FLAGS = {"--help", "--version", "--no-build-isolation"}


def test_the_readme_names_only_flags_the_cli_reads():
    # a README that still teaches a removed option fails here
    from alcoves.cli import _COMMANDS
    flags = {option[0] for _, _, options in _COMMANDS.values() for option in options}
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", text))
    assert "--type" in named and sorted(named - flags - README_OTHER_FLAGS) == []


def test_each_mutant_changes_one_place_in_the_library():
    # tests/mutants.py lists one-line faults by their text; a refactor that moves or
    # rewords a line fails here instead of leaving a mutant that applies nowhere
    from mutants import MUTANTS
    sources = {path: path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src" / "alcoves").glob("*.py"))}
    assert len({name for name, *_ in MUTANTS}) == len(MUTANTS)
    for name, file, old, new in MUTANTS:
        assert "\n" not in old + new and old != new, name
        assert [path for path, text in sources.items()
                for _ in range(text.count(old))] == [ROOT / file], name
