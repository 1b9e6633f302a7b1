import contextlib
import io
import json
import math
import os
import re
import select
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from alcoves import __version__, build_root_system
from alcoves.cli import DATA_DIR, main
from alcoves.orbits import interval_size_lattice
from alcoves.volumes import _pyramid
from test_golden import SHIPPED

A2_MU_PRIME = {"": "6", "1": "9", "2": "9", "1,2": "6"}
REFERENCES = json.loads(
    (Path(__file__).resolve().parents[1] / "benchmarks" / "references.json").read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.fixture
def unshipped(tmp_path, monkeypatch):
    """An empty shipped-data directory, so that every system looks past the shipped files."""
    import alcoves.cli as climod
    empty = tmp_path / "shipped"
    empty.mkdir()
    monkeypatch.setattr(climod, "DATA_DIR", str(empty))


@pytest.fixture
def no_fit(monkeypatch):
    import alcoves.coefficients as coefmod

    def never(*args, **kwargs):
        raise AssertionError("fit_mu called")

    monkeypatch.setattr(coefmod, "fit_mu", never)


def test_count_lattice(capsys):
    code, payload = run_cli(capsys, "count", "--type", "A", "--rank", "2",
                            "--lambda", "1,1", "--method", "lattice")
    assert code == 0
    assert payload["count"] == 42
    assert payload["system"] == "A2"
    assert payload["schema"] == 1


def test_count_methods_agree(capsys):
    results = {}
    for method in ["bruhat", "lattice", "geometric"]:
        code, payload = run_cli(capsys, "count", "--type", "B", "--rank", "2",
                                "--lambda", "2,1", "--method", method)
        assert code == 0
        results[method] = payload["count"]
    assert len(set(results.values())) == 1


def test_count_deterministic_modulo_elapsed(capsys):
    payloads = []
    for _ in range(2):
        _, payload = run_cli(capsys, "count", "--type", "A", "--rank", "2",
                             "--lambda", "2,2", "--method", "lattice")
        payload.pop("elapsed_ms")
        payloads.append(json.dumps(payload, sort_keys=True))
    assert payloads[0] == payloads[1]


def test_count_geometric_with_a_cache_file(capsys, tmp_path, unshipped):
    coeff_file = tmp_path / "cache" / "A2.json"
    code, _ = run_cli(capsys, "fit", "--type", "A", "--rank", "2",
                      "--out", str(coeff_file))
    assert code == 0 and coeff_file.exists()
    obj = json.loads(coeff_file.read_text())
    assert obj["mu_prime"] == {"": "6", "1": "9", "2": "9", "1,2": "6"}
    code, payload = run_cli(capsys, "count", "--type", "A", "--rank", "2",
                            "--lambda", "1,0", "--method", "geometric",
                            "--cache-dir", str(coeff_file.parent))
    assert code == 0 and payload["count"] == 18


def test_count_zero_coweight_all_methods(capsys):
    for method in ["bruhat", "lattice", "geometric"]:
        code, payload = run_cli(capsys, "count", "--type", "A", "--rank", "2",
                                "--lambda", "0,0", "--method", method)
        assert code == 0 and payload["count"] == 6


def test_fit_g2_values(capsys, tmp_path):
    out = tmp_path / "g2.json"
    code, payload = run_cli(capsys, "fit", "--type", "G", "--rank", "2",
                            "--out", str(out))
    assert code == 0
    obj = json.loads(out.read_text())
    assert obj["mu_prime"][""] == "12"
    assert obj["mu_prime"]["1,2"] == "12"
    # mu_{1,2} = mu' / sqrt(gram) = 12 / sqrt(1/3) = 12*sqrt(3); square check 432
    from fractions import Fraction
    from oracles import RadScalar, reciprocal, square
    mu = RadScalar(Fraction(obj["mu_prime"]["1,2"])) * \
        reciprocal(RadScalar.sqrt(Fraction(obj["gram"]["1,2"])))
    assert square(mu) == 432


def test_fit_b2_mu_empty(capsys, tmp_path):
    out = tmp_path / "b2.json"
    code, _ = run_cli(capsys, "fit", "--type", "B", "--rank", "2", "--out", str(out))
    assert code == 0
    assert json.loads(out.read_text())["mu_prime"][""] == "8"


def test_fit_refuses_overwrite(capsys, tmp_path):
    out = tmp_path / "x.json"
    code, _ = run_cli(capsys, "fit", "--type", "A", "--rank", "1", "--out", str(out))
    assert code == 0
    code, payload = run_cli(capsys, "fit", "--type", "A", "--rank", "1", "--out", str(out))
    assert code == 1 and payload["error"]["type"] == "usage"
    code, _ = run_cli(capsys, "fit", "--type", "A", "--rank", "1",
                      "--out", str(out), "--force")
    assert code == 0


@pytest.mark.parametrize("force", [[], ["--force"]])
@pytest.mark.parametrize("kind", ["directory", "fifo"])
def test_fit_refuses_a_directory_or_another_non_regular_file_before_it_fits(
        capsys, tmp_path, monkeypatch, force, kind):
    # os.replace would put a regular file in place of a FIFO or a device node
    import stat
    import alcoves.coefficients as coefmod

    def no_fit(*args, **kwargs):
        raise AssertionError("fit_mu ran before --out was checked")

    monkeypatch.setattr(coefmod, "fit_mu", no_fit)
    out = tmp_path / "out"
    out.mkdir() if kind == "directory" else os.mkfifo(out)
    mode = out.stat().st_mode
    code, payload = run_cli(capsys, "fit", "--type", "E", "--rank", "6", "--out", str(out), *force)
    message = "is a directory" if kind == "directory" else "is not a regular file"
    assert code == 1 and payload["error"] == {"type": "usage",
                                              "message": "--out %s %s" % (out, message)}
    assert list(tmp_path.rglob("*")) == [out] and out.stat().st_mode == mode
    assert stat.S_ISDIR(mode) if kind == "directory" else stat.S_ISFIFO(mode)


def test_verify_a2(capsys):
    code, payload = run_cli(capsys, "verify", "--type", "A", "--rank", "2",
                            "--max-coord", "2")
    assert code == 0
    assert payload["ok"] is True
    assert len(payload["rows"]) == 9
    assert payload["hypersimplex_ok"] is True
    counts = {tuple(r["lambda"]): r["lattice"] for r in payload["rows"]}
    assert counts[(1, 1)] == 42 and counts[(0, 0)] == 6


def test_verify_g2(capsys):
    code, payload = run_cli(capsys, "verify", "--type", "G", "--rank", "2",
                            "--max-coord", "1")
    assert code == 0 and payload["ok"] is True
    assert len(payload["rows"]) == 4


def test_ehrhart(capsys):
    code, payload = run_cli(capsys, "ehrhart", "--k", "1", "--d", "3")
    assert code == 0
    assert payload["coefficients"] == {"0": "1", "1": "3/2", "2": "1/2"}
    code, payload = run_cli(capsys, "ehrhart", "--k", "4", "--d", "3")
    assert code == 1


def test_volumes(capsys):
    code, payload = run_cli(capsys, "volumes", "--type", "A", "--rank", "2",
                            "--J", "1,2")
    assert code == 0
    assert payload["gram"] == "3"
    assert payload["rel_poly"] == {"0,2": "1/2", "1,1": "2", "2,0": "1/2"}
    code, payload = run_cli(capsys, "volumes", "--type", "A", "--rank", "2",
                            "--J", "empty")
    assert code == 0
    assert payload["rel_poly"] == {"0,0": "1"}


def test_faces(capsys):
    code, payload = run_cli(capsys, "faces", "--type", "A", "--rank", "2",
                            "--lambda", "1,1", "--J", "1")
    assert code == 0
    assert payload["dim"] == 1 and len(payload["vertices"]) == 2


def test_rootdata(capsys):
    code, payload = run_cli(capsys, "rootdata", "--type", "G", "--rank", "2")
    assert code == 0
    assert payload["weyl_order"] == 12
    assert payload["det_coweight_lattice"] == {"coeff": "1/3", "radicand": "3"}


def test_usage_errors(capsys):
    code, payload = run_cli(capsys, "count", "--type", "Z", "--rank", "2",
                            "--lambda", "1,1", "--method", "lattice")
    assert code == 1
    code, payload = run_cli(capsys, "count", "--type", "A", "--rank", "2",
                            "--lambda", "1", "--method", "lattice")
    assert code == 1
    code, payload = run_cli(capsys, "count", "--type", "A", "--rank", "2",
                            "--lambda", "1,x", "--method", "lattice")
    assert code == 1
    code, payload = run_cli(capsys, "volumes", "--type", "A", "--rank", "2",
                            "--J", "7")
    assert code == 1


@pytest.mark.parametrize("argv,message", [
    (["--interval-cap", "0"], "budgets must be positive"),
    (["--box-cap", "-1"], "budgets must be positive"),
    (["--interval-cap", "-1"], "budgets must be positive"),
    (["--lambda", "1,-1"], "lambda coordinates must be non-negative integers"),
])
def test_negative_inputs_are_usage_errors(capsys, argv, message):
    code, payload = run_cli(capsys, "count", "--type", "A", "--rank", "2", "--lambda", "1,1",
                            "--method", "lattice", *argv)
    assert code == 1 and payload["error"] == {"type": "usage", "message": message}


COUNT_A2 = ["count", "--type", "A", "--rank", "2", "--lambda", "1,1", "--method", "lattice"]
INTEGER_ARGS = [  # X marks the integer under test; %r in the message is its repr
    pytest.param(["count", "--type", "A", "--rank", "X", "--lambda", "1,1", "--method", "lattice"],
                 "argument --rank: invalid integer value: %r", id="count--rank"),
    pytest.param(["count", "--type", "A", "--rank", "2", "--lambda", "1,X", "--method", "lattice"],
                 "lambda must be a comma-separated integer list", id="count--lambda"),
    pytest.param(["faces", "--type", "A", "--rank", "2", "--lambda", "X,1", "--J", "1"],
                 "lambda must be a comma-separated integer list", id="faces--lambda"),
    pytest.param(["volumes", "--type", "A", "--rank", "2", "--J", "X"],
                 "J must be a comma-separated integer list or 'empty'", id="volumes--J"),
    pytest.param(COUNT_A2 + ["--interval-cap", "X"],
                 "argument --interval-cap: invalid budget value: %r", id="count--interval-cap"),
    pytest.param(COUNT_A2 + ["--box-cap", "X"],
                 "argument --box-cap: invalid budget value: %r", id="count--box-cap"),
    pytest.param(["fit", "--type", "A", "--rank", "2", "--out", "a2.json", "--box-cap", "X"],
                 "argument --box-cap: invalid budget value: %r", id="fit--box-cap"),
    pytest.param(["verify", "--type", "A", "--rank", "1", "--cache-dir", "c", "--max-coord", "X"],
                 "argument --max-coord: invalid integer value: %r", id="verify--max-coord"),
    pytest.param(["ehrhart", "--k", "X", "--d", "3"],
                 "argument --k: invalid integer value: %r", id="ehrhart--k"),
    pytest.param(["ehrhart", "--k", "1", "--d", "X"],
                 "argument --d: invalid integer value: %r", id="ehrhart--d"),
]


@pytest.mark.parametrize("text", ["1_0", " 1", "+1", "\u0661", "1.0"])
@pytest.mark.parametrize("argv,message", INTEGER_ARGS)
def test_integers_are_ascii_digits_only(capsys, tmp_path, monkeypatch, argv, message, text):
    # int() alone reads each text but "1.0" as the integer 1 or 10
    monkeypatch.chdir(tmp_path)
    code, payload = run_cli(capsys, *[arg.replace("X", text) for arg in argv])
    assert code == 1 and payload["error"] == {
        "type": "usage", "message": message % text if "%r" in message else message}
    assert list(tmp_path.iterdir()) == []


def test_budget_exit_code(capsys):
    code, payload = run_cli(capsys, "count", "--type", "A", "--rank", "2",
                            "--lambda", "1,1", "--method", "bruhat",
                            "--interval-cap", "10")
    assert code == 2
    assert payload["error"]["type"] == "budget"


def test_cache_roundtrip(capsys, tmp_path, request, unshipped):
    # --cache-dir reads the file that `fit --out DIR/<system>.json` writes, and only reads it
    cache = tmp_path / "cache"
    out = cache / "A2.json"
    assert run_cli(capsys, "fit", "--type", "A", "--rank", "2", "--out", str(out))[0] == 0
    stamp = out.read_bytes()
    request.getfixturevalue("no_fit")
    for argv in (["count", "--lambda", "1,1", "--method", "geometric"], ["verify"]):
        code, payload = run_cli(capsys, *argv, "--type", "A", "--rank", "2",
                                "--cache-dir", str(cache))
        assert code == 0, argv
        assert payload["count"] == 42 if argv[0] == "count" else payload["ok"]
    assert [p.name for p in cache.iterdir()] == ["A2.json"] and out.read_bytes() == stamp


def test_console_script_entry_point():
    # a subprocess does not inherit pytest's pythonpath, so src goes on PYTHONPATH
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "alcoves.cli", "count", "--type", "A", "--rank", "1",
         "--lambda", "3", "--method", "bruhat"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 8


def test_box_cap_bounds_the_fit(capsys, tmp_path, unshipped):
    out = tmp_path / "a2.json"
    code, payload = run_cli(capsys, "fit", "--type", "A", "--rank", "2",
                            "--out", str(out), "--box-cap", "1")
    assert code == 2 and payload["error"]["type"] == "budget"
    assert not out.exists()
    code, payload = run_cli(capsys, "count", "--type", "A", "--rank", "2",
                            "--lambda", "1,1", "--method", "lattice", "--box-cap", "1")
    assert code == 2 and payload["error"]["type"] == "budget"


def test_count_lattice_e6(capsys):
    # also the size of a coset closure of theta(1,...,1) on the Bruhat side
    code, payload = run_cli(capsys, "count", "--type", "E", "--rank", "6",
                            "--lambda", "1,1,1,1,1,1", "--method", "lattice")
    assert code == 0 and payload["count"] == 64641006720


@pytest.mark.parametrize("system,lam", [("A2", "100000,100000"), ("E8", "3,3,3,3,3,3,3,3")])
def test_lattice_refusal_is_cheap(capsys, system, lam):
    build_root_system(system)  # time the refusal, not the root-system build
    start = time.perf_counter()
    code, payload = run_cli(capsys, "count", "--type", system[0], "--rank", system[1:],
                            "--lambda", lam, "--method", "lattice")
    assert time.perf_counter() - start < 1
    assert code == 2 and payload["error"]["type"] == "budget"


@pytest.mark.parametrize("system,lam", [("F4", [1, 1, 1, 1]), ("E6", [0, 1, 0, 0, 0, 1])])
def test_count_bruhat_beyond_the_element_closure(capsys, system, lam):
    expected = {r["count"] for rows in REFERENCES.values() for r in rows
                if r["system"] == system and r["lambda"] == lam}
    argv = ["count", "--type", system[0], "--rank", system[1:],
            "--lambda", ",".join(map(str, lam)), "--method", "bruhat"]
    code, payload = run_cli(capsys, *argv, "--interval-cap", "100000000")
    assert code == 0 and {payload["count"]} == expected
    code, payload = run_cli(capsys, *argv)
    assert code == 2 and payload["error"] == {
        "type": "budget", "message": "lower interval exceeds cap of 1000000 elements"}


# the refusal of a geometric count on a system with no coefficient file
UNSHIPPED = ("%s ships no coefficient file: write one with `alcoves fit --type %s --rank %d "
             "--out DIR/%s.json` and pass --cache-dir DIR")


@pytest.mark.parametrize("argv,message", [
    (["count", "--type", "E", "--rank", "8", "--lambda", "1,1,1,1,1,1,1,1",
      "--method", "bruhat", "--cache-dir", "cache"],
     "lower interval exceeds cap of 1000000 elements"),
    # no file ships, and the cache holds none: exit 1 before any count
    (["count", "--type", "E", "--rank", "8", "--lambda", "1,1,1,1,1,1,1,1",
      "--method", "geometric", "--cache-dir", "cache"], UNSHIPPED % ("E8", "E", 8, "E8")),
    # the fit's budget, checked at the top of T_n (8 w_4^v on E8, 8 w_2^v on D8)
    (["fit", "--type", "E", "--rank", "8", "--out", "e8.json"],
     "level simplex has 2747306250 cells, exceeding cap 100000000"),
    (["fit", "--type", "D", "--rank", "8", "--out", "d8.json"],
     "level simplex has 290107737 cells, exceeding cap 100000000"),
    (["count", "--type", "D", "--rank", "8", "--lambda", "2,1,0,1,0,1,0,1",
      "--method", "geometric", "--cache-dir", "cache"], UNSHIPPED % ("D8", "D", 8, "D8")),
    (["verify", "--type", "E", "--rank", "7", "--cache-dir", "cache"],
     "lower interval exceeds cap of 1000000 elements"),
    (["volumes", "--type", "A", "--rank", "13", "--J", ",".join(map(str, range(1, 14)))],
     "the pyramid table of A13 over 13 indices needs 8192 subsets, exceeding cap 4096"),
    (["faces", "--type", "E", "--rank", "7", "--lambda", "1,1,1,1,1,1,1",
      "--J", "1,2,3,4,5,6,7"],
     "the face has 2903040 vertices, exceeding cap 100000"),
    # l(theta(lambda)) + 1 exceeds the cap: refused before the fold builds the word
    (["count", "--type", "A", "--rank", "1", "--lambda", "4000000", "--method", "bruhat"],
     "lower interval exceeds cap of 1000000 elements"),
    (["count", "--type", "A", "--rank", "2", "--lambda", "1000000,1000000",
      "--method", "bruhat"],
     "lower interval exceeds cap of 1000000 elements"),
], ids=["E8-bruhat", "E8-geometric", "E8-fit", "D8-fit", "D8-geometric", "E7-verify",
        "A13-volumes", "E7-faces",
        "A1-bruhat-length", "A2-bruhat-length"])
def test_refusal_before_the_first_count_is_cheap(capsys, tmp_path, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)  # the relative cache and out paths land here
    build_root_system("%s%s" % (argv[2], argv[4]))  # time the refusal, not the build
    start = time.perf_counter()
    code, payload = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    unshipped = "ships no coefficient file" in message
    assert code == (1 if unshipped else 2) and payload["error"] == {
        "type": "usage" if unshipped else "budget", "message": message}
    assert list(tmp_path.iterdir()) == []


def test_the_e7_geometric_count_reads_its_shipped_file(capsys, tmp_path, monkeypatch, no_fit):
    # E7 is admitted at the top of T_n, so its file ships: no fit and no cache write
    monkeypatch.chdir(tmp_path)
    code, payload = run_cli(capsys, "count", "--type", "E", "--rank", "7", "--lambda",
                            "1,1,1,1,1,1,1", "--method", "geometric", "--cache-dir", "cache")
    assert code == 0 and payload["count"] == interval_size_lattice(build_root_system("E7"),
                                                                   (1,) * 7)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["rootdata"],
    ["faces", "--lambda", "1", "--J", "1"],
    ["volumes", "--J", "1"],
    ["count", "--lambda", "1", "--method", "lattice"],
])
def test_rank_refusal_is_cheap(capsys, argv):
    # refused on the rank before any argument is read against it or any build
    start = time.perf_counter()
    code, payload = run_cli(capsys, argv[0], "--type", "A", "--rank", "100000", *argv[1:])
    assert time.perf_counter() - start < 1
    assert code == 2 and payload["error"] == {
        "type": "budget", "message": "A100000 has rank 100000, exceeding cap 24"}


def test_fit_at_the_rank_cap_refuses_on_subsets_first(capsys, tmp_path):
    code, payload = run_cli(capsys, "fit", "--type", "A", "--rank", "24",
                            "--out", str(tmp_path / "a24.json"))
    assert code == 2 and payload["error"] == {
        "type": "budget", "message": "the pyramid table of A24 over 24 indices needs 16777216 "
                                     "subsets, exceeding cap 4096"}
    assert list(tmp_path.iterdir()) == []


def test_geometric_rejects_coefficients_of_another_system(capsys, tmp_path, unshipped):
    # the G2 fit, under A2's name
    g2 = tmp_path / "cache" / "A2.json"
    code, _ = run_cli(capsys, "fit", "--type", "G", "--rank", "2", "--out", str(g2))
    assert code == 0
    code, payload = run_cli(capsys, "count", "--type", "A", "--rank", "2", "--lambda", "1,1",
                            "--method", "geometric", "--cache-dir", str(g2.parent))
    assert code == 1 and payload["error"] == {
        "type": "invalid-input", "message": "%s holds coefficients for G2, not A2" % g2}


def test_geometric_rejects_incomplete_cache(capsys, tmp_path, unshipped, no_fit):
    # a defective cache file is refused: neither refitted nor summed
    cache = tmp_path / "cache"
    cache.mkdir()
    path = cache / "A2.json"
    path.write_text(json.dumps(
        {"schema": 1, "version": __version__, "system": "A2", "mu_prime": {"": "6"}}))
    text = path.read_text()
    code, payload = run_cli(capsys, "count", "--type", "A", "--rank", "2",
                            "--lambda", "3,3", "--method", "geometric",
                            "--cache-dir", str(cache))
    assert code == 1 and "subsets" in payload["error"]["message"]
    assert [p.name for p in cache.iterdir()] == ["A2.json"] and path.read_text() == text


def _with(**changes):
    """An edit of a coefficient file's text that sets the given top-level fields."""
    return lambda text: json.dumps(dict(json.loads(text), **changes))


@pytest.mark.parametrize("defect", [
    _with(mu_prime=dict(A2_MU_PRIME, **{"": "7"})),      # mu'_empty != |W_f|
    _with(mu_prime=dict(A2_MU_PRIME, **{"1,2": "5"})),   # mu'_top != 1/vol(A_id)
    _with(mu_prime={"": "6", "1": "9", "1,2": "6"}),     # a subset missing
    _with(version="0.0.0"),
    _with(system="G2"),
    lambda text: text[:40],                              # truncated JSON
    lambda text: "[" * 200_000,                          # deeper than the recursion limit
    _with(mu_prime=dict(A2_MU_PRIME, **{"1": "1/0"})),   # a zero denominator
    _with(mu_prime=dict(A2_MU_PRIME, **{"1": "1e100000000"})),  # an exponent
    _with(mu_prime=dict(A2_MU_PRIME, **{" 1": "100"})),  # subset 1 named twice
    _with(schema=2),
    _with(gram={"": "999", "1": "999", "2": "999", "1,2": "999"}),
    _with(extra=None),
    _with(mu_prime=dict(A2_MU_PRIME, **{"1": "18/2"})),  # 9, but not as to_json writes it
    lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "provenance"}),
    _with(system="A2000000"),
    _with(mu_prime=dict(A2_MU_PRIME, **{"2": "10"})),    # mu'_{I-i} != |W_f|^2 / (2 |W_{I-i}|)
], ids=["mu-empty", "mu-top", "subset-missing", "version", "system", "truncated", "deep",
        "zero-denominator", "exponent", "key-twice", "schema", "gram", "extra-field",
        "unreduced", "provenance-missing", "large-rank", "mu-codim-1"])
def test_a_defective_cache_file_is_refused_and_left_as_it_is(
        capsys, tmp_path, request, unshipped, defect):
    fresh = tmp_path / "fresh.json"
    code, _ = run_cli(capsys, "fit", "--type", "A", "--rank", "2", "--out", str(fresh))
    assert code == 0
    request.getfixturevalue("no_fit")
    text = defect(fresh.read_text())
    cache = tmp_path / "cache"
    cache.mkdir()
    path = cache / "A2.json"
    path.write_text(text)
    code, payload = run_cli(capsys, "count", "--type", "A", "--rank", "2", "--lambda", "0,0",
                            "--method", "geometric", "--cache-dir", str(cache))
    assert code == 1 and payload["error"]["type"] == "invalid-input"
    assert [p.name for p in cache.iterdir()] == [path.name] and path.read_text() == text


def _cache_file(tmp_path, name, edit):
    """DIR/<name>.json holding the shipped file of name with edit applied to its mu_prime
    map: the path, and its text."""
    obj = json.loads(Path(DATA_DIR, "%s.json" % name).read_text())
    edit(obj["mu_prime"])
    path = tmp_path / "cache" / ("%s.json" % name)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(obj, sort_keys=True))
    return path, path.read_text()


def _plus_one(key):
    return lambda mu: mu.update({key: str(Fraction(mu[key]) + 1)})


@pytest.mark.parametrize("name", ["B3", "E6", "C8"])
def test_a_shipped_file_with_mu_empty_or_top_moved_exits_1(capsys, tmp_path, unshipped, name):
    # from rank 3 up no other pin reads mu'_empty: at rank 2 it is of codimension 2 too
    n = int(name[1:])
    for key, message in (("", "mu'_empty != |W_f|"),
                         (",".join(map(str, range(1, n + 1))), "mu'_top != 1/vol(A_id)")):
        path, _ = _cache_file(tmp_path, name, _plus_one(key))
        code, payload = run_cli(capsys, "count", "--type", name[0], "--rank", str(n), "--lambda",
                                ",".join(["1"] * n), "--method", "geometric",
                                "--cache-dir", str(path.parent))
        assert code == 1 and payload["error"] == {"type": "invalid-input", "message": message}


@pytest.mark.parametrize("name", ["B3", "E6", "C8"])
def test_a_shipped_file_with_one_codim_1_entry_moved_exits_1(capsys, tmp_path, unshipped, name):
    # mu'_{1..n-1} plus one, the rest of the shipped file as it is, read from --cache-dir
    n = int(name[1:])
    path, _ = _cache_file(tmp_path, name, _plus_one(",".join(map(str, range(1, n)))))
    code, payload = run_cli(capsys, "count", "--type", name[0], "--rank", str(n), "--lambda",
                            ",".join(["1"] * n), "--method", "geometric",
                            "--cache-dir", str(path.parent))
    assert code == 1 and payload["error"] == {
        "type": "invalid-input", "message": "mu'_{I-i} != |W_f|^2 / (2 |W_{I-i}|) at i=%d" % n}


@pytest.mark.parametrize("name", ["B3", "E6", "C8"])
def test_a_shipped_file_with_one_codim_2_entry_moved_exits_1(capsys, tmp_path, unshipped, name):
    # mu'_{I-k-l} plus one for three pairs k < l in turn, the rest of the shipped file as
    # it is, read from --cache-dir
    n = int(name[1:])
    for k, l in [(1, 2), (1, n), (n - 1, n)]:
        key = ",".join(str(j) for j in range(1, n + 1) if j not in (k, l))
        path, _ = _cache_file(tmp_path, name, _plus_one(key))
        code, payload = run_cli(capsys, "count", "--type", name[0], "--rank", str(n),
                                "--lambda", ",".join(["1"] * n), "--method", "geometric",
                                "--cache-dir", str(path.parent))
        assert code == 1 and payload["error"] == {
            "type": "invalid-input", "message": "mu'_{I-k-l} != |W_f|^2 (1/4 + (g_kl/g_kk + "
            "g_kl/g_ll)/12) / |W_{I-k-l}| at k=%d l=%d" % (k, l)}, key


def _unpinned(n):
    """The first J of each codimension 3 to n-1 in `subsets` order: each J != () that no
    closed form pins."""
    return [tuple(range(1, size + 1)) for size in range(1, n - 2)]


@pytest.mark.parametrize("name", ["A4", "B4", "E6"])
def test_a_cache_file_with_one_unpinned_entry_moved_exits_1(capsys, tmp_path, monkeypatch,
                                                            unshipped, no_fit, name):
    # mu'_J plus |J|! Delta_J / |W_J|, which adds R_J(lambda), an integer, to every count:
    # the pins pass, and only the comparison with Berline-Vergne refuses the file
    data, n = build_root_system(name), int(name[1:])
    monkeypatch.chdir(tmp_path)
    assert len(_unpinned(n)) == n - 3
    for J in _unpinned(n):
        order, *_, scale = _pyramid(data, J)
        key = ",".join(map(str, J))
        was = Fraction(json.loads(Path(DATA_DIR, "%s.json" % name).read_text())["mu_prime"][key])
        moved = was + Fraction(math.factorial(len(J)) * scale, order)
        path, text = _cache_file(tmp_path, name, lambda mu: mu.update({key: str(moved)}))
        system = ["--type", name[0], "--rank", str(n), "--cache-dir", "cache"]
        for argv in (["count", "--lambda", ",".join(["1"] * n), "--method", "geometric"],
                     ["verify", "--max-coord", "0"]):
            code, payload = run_cli(capsys, *argv, *system)
            assert code == 1 and payload["error"] == {
                "type": "invalid-input", "message": "cache/%s.json: mu'_{%s} is %s, not %s by "
                                                    "Berline-Vergne" % (name, key, moved, was)}
        assert sorted(tmp_path.rglob("*")) == sorted([tmp_path / "shipped", path.parent, path])
        assert path.read_text() == text


@pytest.mark.parametrize("name", ["A2", "B3", "E6"])
def test_a_cache_file_equal_to_berline_vergne_prints_what_the_shipped_file_prints(
        capsys, tmp_path, request, name):
    # the shipped file is what `fit --out` writes of the Berline-Vergne mu'
    n = int(name[1:])
    argv = ["count", "--type", name[0], "--rank", str(n), "--lambda",
            ",".join(map(str, range(n))), "--method", "geometric"]
    path, _ = _cache_file(tmp_path, name, lambda mu: None)
    outputs = []
    for source in ([], ["--cache-dir", str(path.parent)]):
        if source:
            request.getfixturevalue("unshipped")
        assert main(argv + source) == 0
        outputs.append(re.sub(r'"elapsed_ms": [0-9]+, ', "", capsys.readouterr().out))
    assert outputs[0] == outputs[1]


def _padded_a2_file(path, size):
    """The shipped A2 file, padded with trailing spaces to size bytes: valid JSON of the
    right coefficients, were it parsed."""
    text = Path(DATA_DIR, "A2.json").read_bytes()
    path.write_bytes(text + b" " * (size - len(text)))


@pytest.mark.parametrize("case", ["cache-no-system", "cache-list", "cache-dir-is-file",
                                  "out-is-directory", "cache-over-budget", "cache-dev-zero",
                                  "cache-directory", "cache-invalid-utf8"])
def test_file_errors_exit_1_with_json(capsys, tmp_path, unshipped, case):
    from alcoves.coefficients import MAX_FILE_BYTES
    count = ["count", "--type", "A", "--rank", "2", "--lambda", "1,1",
             "--method", "geometric", "--cache-dir", str(tmp_path / "cache")]
    bad = tmp_path / "cache" / "A2.json"
    bad.parent.mkdir()
    argv, kind = count, "invalid-input"
    if case == "cache-no-system":
        bad.write_text(json.dumps({"schema": 1, "version": __version__,
                                   "mu_prime": A2_MU_PRIME}))
    elif case == "cache-list":
        bad.write_text("[1]")
    elif case == "cache-dir-is-file":
        argv, kind = count[:-1] + [str(tmp_path / "bad.json")], "io"
        Path(argv[-1]).write_text("{}")
    elif case == "out-is-directory":
        (tmp_path / "out").mkdir()
        argv = ["fit", "--type", "A", "--rank", "2", "--out", str(tmp_path / "out"), "--force"]
        kind = "usage"
    elif case == "cache-over-budget":  # refused unparsed: parsed, it would be summed
        _padded_a2_file(bad, MAX_FILE_BYTES + 1)
    elif case == "cache-dev-zero":  # endless: read whole, it fills the memory
        bad.symlink_to("/dev/zero")
    elif case == "cache-directory":
        bad.mkdir()
        kind = "io"
    else:
        bad.write_bytes(b'{"system": "A2\xff"}')
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 1 and err == "" and out.count("\n") == 1
    error = json.loads(out)["error"]
    assert error["type"] == kind and error["message"]
    if case in ("cache-over-budget", "cache-dev-zero"):
        assert error["message"].endswith("exceeds %d bytes, the most a coefficient file may have"
                                         % MAX_FILE_BYTES)
    assert not list(tmp_path.rglob("*.tmp"))


def _count_a2_from(cache):
    """A subprocess: count --method geometric on A2 (1, 1), its coefficients from
    cache/A2.json, with an empty directory in place of the shipped files."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    empty = cache.parent / "shipped"
    empty.mkdir()
    code = "import alcoves.cli as cli\ncli.DATA_DIR = %r\ncli.run()" % str(empty)
    return subprocess.Popen(
        [sys.executable, "-c", code, "count", "--type", "A", "--rank", "2", "--lambda", "1,1",
         "--method", "geometric", "--cache-dir", str(cache)], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, env=dict(os.environ, PYTHONPATH=path))


def test_a_cache_fifo_that_no_process_writes_exits_1_at_once(tmp_path):
    # open() of a FIFO waits for a writer: the count, run alone, would never end.  Opened
    # without blocking, the FIFO reads as empty input
    fifo = tmp_path / "cache" / "A2.json"
    fifo.parent.mkdir()
    os.mkfifo(fifo)
    proc = _count_a2_from(fifo.parent)
    try:
        out, err = proc.communicate(timeout=20)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 1 and err == ""
    assert json.loads(out)["error"]["type"] == "invalid-input"


def test_a_cache_pipe_whose_writer_is_slow_is_read_whole(tmp_path):
    # once open, the file is read blocking: data that comes after the read began is waited
    # for, as from a shell's <(...) whose writer is slow
    fifo = tmp_path / "cache" / "A2.json"
    fifo.parent.mkdir()
    os.mkfifo(fifo)
    fd = os.open(fifo, os.O_RDWR)  # a writer before the count opens it, so it waits for data
    proc = _count_a2_from(fifo.parent)
    try:
        time.sleep(0.5)  # by then the count, started idle, waits in its read
        os.write(fd, Path(DATA_DIR, "A2.json").read_bytes())
        while select.select([fd], [], [], 0)[0] and proc.poll() is None:
            time.sleep(0.01)  # fd reads as ready until the count has read every byte
        os.close(fd)  # the last writer: the count reads EOF
        fd = None
        out, err = proc.communicate(timeout=20)
    finally:
        if fd is not None:
            os.close(fd)
        proc.kill()
        proc.wait()
    assert proc.returncode == 0 and err == "" and json.loads(out)["count"] == 42


def test_a_cache_file_of_the_byte_budget_is_read(capsys, tmp_path, unshipped):
    from alcoves.coefficients import MAX_FILE_BYTES
    coeffs = tmp_path / "cache" / "A2.json"
    coeffs.parent.mkdir()
    _padded_a2_file(coeffs, MAX_FILE_BYTES)
    code, payload = run_cli(capsys, "count", "--type", "A", "--rank", "2", "--lambda", "1,1",
                            "--method", "geometric", "--cache-dir", str(coeffs.parent))
    assert code == 0 and payload["count"] == 42


@pytest.mark.parametrize("name", SHIPPED)
def test_a_geometric_count_on_a_shipped_system_neither_fits_nor_writes(capsys, tmp_path,
                                                                       monkeypatch, no_fit, name):
    # nor does it derive mu' by Berline-Vergne: the tests do that for each shipped file
    import alcoves.coefficients as coefmod

    def never(*args, **kwargs):
        raise AssertionError("_berline_vergne called on a shipped system")

    monkeypatch.setattr(coefmod, "_berline_vergne", never)
    data = build_root_system(name)
    lam = tuple(2 if i == 0 else i % 2 for i in range(data.rank))
    cache = tmp_path / "cache"
    cache.mkdir()
    code, payload = run_cli(capsys, "count", "--type", name[0], "--rank", name[1:], "--lambda",
                            ",".join(map(str, lam)), "--method", "geometric",
                            "--cache-dir", str(cache))
    assert code == 0 and payload["count"] == interval_size_lattice(data, lam)
    assert list(cache.iterdir()) == []


@pytest.mark.parametrize("name", ["A2", "B3", "E7", "unshipped", "D8", "E8"])
def test_count_and_verify_never_fit_nor_write(capsys, tmp_path, monkeypatch, request, no_fit,
                                              name):
    # a shipped file is read; with none, the command exits 1 at once, also at a box cap
    # that admits the fit of D8 and E8.  verify of E7, D8 and E8 stops at |W_f|
    import alcoves.cli as climod
    if name == "unshipped":
        request.getfixturevalue("unshipped")
        name = "A2"
    shipped = Path(climod.DATA_DIR, "%s.json" % name).exists()
    n = int(name[1:])
    cache, cwd = tmp_path / "cache", tmp_path / "cwd"
    cache.mkdir()
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    system = ["--type", name[0], "--rank", str(n), "--box-cap", str(10 ** 12),
              "--cache-dir", str(cache)]
    data = build_root_system(name)
    code, payload = run_cli(capsys, "count", *system, "--lambda", ",".join(["1"] * n),
                            "--method", "geometric")
    assert code == (0 if shipped else 1), payload
    assert not shipped or payload["count"] == interval_size_lattice(data, (1,) * n)
    code, payload = run_cli(capsys, "verify", *system, "--max-coord", "1")
    assert code == (2 if data.wf_order > 10 ** 6 else 0 if shipped else 1), payload
    assert code or payload["ok"] and len(payload["rows"]) == 2 ** n
    assert list(cache.iterdir()) == [] and list(cwd.iterdir()) == []


@pytest.mark.parametrize("defect", [
    _with(mu_prime=dict(A2_MU_PRIME, **{"": "7"})),      # mu'_empty != |W_f|
    _with(mu_prime={"": "6", "1": "9", "1,2": "6"}),     # a subset missing
    _with(version="0.0.0"),
    _with(gram={"": "999", "1": "999", "2": "999", "1,2": "999"}),
], ids=["mu-empty", "subset-missing", "version", "gram"])
def test_a_defective_shipped_file_is_an_error_not_a_refit(capsys, tmp_path, monkeypatch, no_fit,
                                                         defect):
    import alcoves.cli as climod
    shipped = tmp_path / "shipped"
    shipped.mkdir()
    path = shipped / "A2.json"
    path.write_text(defect(Path(climod.DATA_DIR, "A2.json").read_text()))
    text = path.read_text()
    monkeypatch.setattr(climod, "DATA_DIR", str(shipped))
    cache = tmp_path / "cache"
    cache.mkdir()
    for argv in (["count", "--lambda", "1,1", "--method", "geometric"], ["verify"]):
        code, payload = run_cli(capsys, *argv, "--type", "A", "--rank", "2",
                                "--cache-dir", str(cache))
        assert code == 1 and payload["error"]["type"] == "invalid-input", argv
        assert "count" not in payload
    assert list(cache.iterdir()) == []
    assert [p.name for p in shipped.iterdir()] == ["A2.json"] and path.read_text() == text


def test_an_unshipped_system_is_refused_at_once_and_nothing_written(capsys, tmp_path,
                                                                    monkeypatch, unshipped):
    # neither the environment nor the home directory is read, though each holds the file
    for name in ("home", "home/.cache/alcoves", "env-cache", "cwd"):
        (tmp_path / name).mkdir(parents=True, exist_ok=True)
        (tmp_path / name / "A2.json").write_bytes(Path(DATA_DIR, "A2.json").read_bytes())
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    monkeypatch.setenv("ALCOVES_CACHE_DIR", str(tmp_path / "env-cache"))
    monkeypatch.chdir(tmp_path / "cwd")
    before = sorted(tmp_path.rglob("*"))
    for argv in (["count", "--lambda", "2,1", "--method", "geometric"], ["verify"]):
        start = time.perf_counter()
        code, payload = run_cli(capsys, *argv, "--type", "A", "--rank", "2")
        assert time.perf_counter() - start < 1
        assert code == 1 and payload["error"] == {
            "type": "usage", "message": UNSHIPPED % ("A2", "A", 2, "A2")}
    assert sorted(tmp_path.rglob("*")) == before


def test_failed_write_keeps_the_old_file(capsys, tmp_path, monkeypatch):
    import alcoves.cli as climod
    out = tmp_path / "a2.json"
    out.write_text("old\n")

    def broken_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(climod.os, "replace", broken_replace)
    code, payload = run_cli(capsys, "fit", "--type", "A", "--rank", "2",
                            "--out", str(out), "--force")
    assert code == 1 and payload["error"] == {"type": "io", "message": "disk full"}
    assert out.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["a2.json"]


def test_ehrhart_budget(capsys):
    code, payload = run_cli(capsys, "ehrhart", "--k", "1", "--d", "1200")
    assert code == 0 and payload["coefficients"]["1199"] == "1/%d" % math.factorial(1199)
    code, payload = run_cli(capsys, "ehrhart", "--k", "200", "--d", "400")
    assert code == 2 and payload["error"]["type"] == "budget"


@pytest.mark.parametrize("argv", [
    ["fit", "--out", "never-written.json"],
    ["verify", "--cache-dir", "."],
    ["count", "--method", "geometric", "--lambda", ",".join(["0"] * 24), "--cache-dir", "."],
    ["volumes", "--J", ",".join(map(str, range(1, 25)))],
])
def test_subset_cap_refuses_before_building_the_system(capsys, tmp_path, monkeypatch, argv):
    import alcoves.cli as climod

    def no_build(*args, **kwargs):
        raise AssertionError("build_root_system called before the subset cap")

    monkeypatch.setattr(climod, "build_root_system", no_build)
    monkeypatch.chdir(tmp_path)
    code, payload = run_cli(capsys, *argv, "--type", "A", "--rank", "24")
    assert code == 2 and payload["error"]["type"] == "budget"
    assert "16777216 subsets" in payload["error"]["message"]


def test_volumes_builds_only_the_subsets_of_J(capsys):
    entries = _pyramid.cache_info().currsize
    start = time.perf_counter()
    code, payload = run_cli(capsys, "volumes", "--type", "A", "--rank", "24", "--J", "1")
    assert time.perf_counter() - start < 2
    assert code == 0 and (payload["J"], payload["gram"]) == ([1], "2")
    assert _pyramid.cache_info().currsize - entries <= 2  # at most () and (1,) of A24


@pytest.mark.parametrize("rank", [11, 12])
def test_volumes_refuses_a_full_J_above_ten_indices_before_building(capsys, monkeypatch, rank):
    import alcoves.cli as climod

    def no_build(*args, **kwargs):
        raise AssertionError("build_root_system called before the volume cap")

    monkeypatch.setattr(climod, "build_root_system", no_build)
    start = time.perf_counter()
    code, payload = run_cli(capsys, "volumes", "--type", "A", "--rank", str(rank),
                            "--J", ",".join(map(str, range(1, rank + 1))))
    assert time.perf_counter() - start < 1
    assert code == 2 and payload["error"]["type"] == "budget"
    assert payload["error"]["message"].startswith("J has %d indices, exceeding cap 10" % rank)


def test_geometric_count_with_a_cache_file_refuses_on_subsets_first(capsys, tmp_path,
                                                                    monkeypatch):
    # the file is neither read nor checked: A13's 8192 subsets refuse before the build
    import alcoves.cli as climod

    def never(*args, **kwargs):
        raise AssertionError("called before the subset cap")

    monkeypatch.setattr(climod, "build_root_system", never)
    monkeypatch.setattr(climod, "_read_coefficients", never)
    (tmp_path / "A13.json").write_text('{"system": "A13", "mu_prime": {"": "1"}}')
    code, payload = run_cli(capsys, "count", "--type", "A", "--rank", "13", "--lambda",
                            ",".join(["1"] * 13), "--method", "geometric",
                            "--cache-dir", str(tmp_path))
    assert code == 2 and payload["error"] == {
        "type": "budget", "message": "the pyramid table of A13 over 13 indices needs 8192 "
                                     "subsets, exceeding cap 4096"}


def test_verify_refuses_before_the_fit_and_the_first_row(capsys, tmp_path, monkeypatch):
    # interval sizes grow with lambda, so the row (40, 40, 40), whose interval has
    # 25 157 784 elements, refuses the whole run before any row is counted
    import alcoves.affine as affinemod
    import alcoves.coefficients as coefmod

    def never(*args, **kwargs):
        raise AssertionError("called before the interval cap was checked")

    monkeypatch.setattr(affinemod, "interval_size_bruhat", never)
    monkeypatch.setattr(coefmod, "fit_mu", never)
    code, payload = run_cli(capsys, "verify", "--type", "A", "--rank", "3", "--max-coord", "40",
                            "--cache-dir", str(tmp_path))
    assert code == 2 and payload["error"] == {
        "type": "budget", "message": "lower interval exceeds cap of 1000000 elements"}
    assert list(tmp_path.iterdir()) == []
    code, payload = run_cli(capsys, "verify", "--type", "A", "--rank", "3", "--max-coord", "40",
                            "--interval-cap", "25157783", "--box-cap", "10", "--cache-dir",
                            str(tmp_path))
    assert code == 2 and payload["error"] == {
        "type": "budget", "message": "level simplex has 1771561 cells, exceeding cap 10"}


class _FirstRow(Exception):
    pass


@pytest.mark.parametrize("max_coord", [999, 1000, 4000])
def test_verify_run_budget_is_exact_and_refuses_before_the_lookup(capsys, monkeypatch,
                                                                  max_coord):
    # A1 at --max-coord m makes m+1 rows, the last of 2m+2 elements, m+1 coset points of
    # |W_f| = 2: (m+1)^2 is 1 000 000, the budget, at m = 999, which reaches the first row,
    # and m = 1000 refuses at once
    import alcoves.affine as affinemod
    import alcoves.cli as climod
    from alcoves.cli import VERIFY_BUDGET

    def first_row(*args, **kwargs):
        raise _FirstRow

    def never(*args, **kwargs):
        raise AssertionError("the coefficients looked up before the run budget was checked")

    monkeypatch.setattr(affinemod, "interval_size_bruhat", first_row)
    argv = ["verify", "--type", "A", "--rank", "1", "--max-coord", str(max_coord)]
    assert VERIFY_BUDGET == 1000 ** 2
    if max_coord == 999:
        with pytest.raises(_FirstRow):
            main(argv)
        return
    monkeypatch.setattr(climod, "_coefficients", never)
    start = time.perf_counter()
    code, payload = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and payload["error"] == {
        "type": "budget", "message": "verify of %d rows, the last of %d coset points, needs %d, "
                                     "exceeding 1000000" % (max_coord + 1, max_coord + 1,
                                                            (max_coord + 1) ** 2)}


@pytest.mark.parametrize("name,max_coord", [("B4", 1), ("A4", 2), ("B3", 3)])
def test_verify_budget_admits_what_costs_few_coset_points(capsys, name, max_coord):
    # refused when the budget counted elements: B4 at 1 has 16 rows, the last of 869 760
    # elements but 2265 coset points
    n = int(name[1:])
    code, payload = run_cli(capsys, "verify", "--type", name[0], "--rank", str(n),
                            "--max-coord", str(max_coord))
    assert code == 0 and payload["ok"] and len(payload["rows"]) == (max_coord + 1) ** n


def test_verify_interval_cap_is_exact(capsys, tmp_path):
    # |<= theta(2, 2)| = 114 in A2, the largest row of --max-coord 2: a cap of 114 runs
    # every row, and 113 refuses before the first
    argv = ["verify", "--type", "A", "--rank", "2", "--cache-dir", str(tmp_path)]
    code, payload = run_cli(capsys, *argv, "--interval-cap", "114")
    assert code == 0 and payload["rows"][-1]["bruhat"] == 114 and payload["ok"]
    code, payload = run_cli(capsys, *argv, "--interval-cap", "113")
    assert code == 2 and payload["error"] == {
        "type": "budget", "message": "lower interval exceeds cap of 113 elements"}


@pytest.mark.parametrize("argv,value,message", [
    (["count", "--type", "A", "--rank", "2", "--method", "lattice"], ["--lambda", "-1,1"],
     "lambda coordinates must be non-negative integers"),
    (["faces", "--type", "A", "--rank", "2", "--J", "1"], ["--lambda", "-1,1"],
     "lambda coordinates must be non-negative integers"),
    (["faces", "--type", "A", "--rank", "2", "--lambda", "1,1"], ["--J", "-1,2"],
     "J must be a subset of 1..2"),
    (["volumes", "--type", "A", "--rank", "2"], ["--J", "-1,2"], "J must be a subset of 1..2"),
    (["volumes", "--type", "A", "--rank", "2"], ["--J", "-1"], "J must be a subset of 1..2"),
], ids=["count--lambda", "faces--lambda", "faces--J", "volumes--J", "volumes--J-one"])
def test_a_negative_first_coordinate_reaches_the_cli_check(capsys, argv, value, message):
    # as a separate argument and after "=", the value gets the CLI's own message
    for form in (value, ["%s=%s" % tuple(value)]):
        code, payload = run_cli(capsys, *argv, *form)
        assert code == 1 and payload["error"] == {"type": "usage", "message": message}, form


def test_the_count_path_builds_no_ambient_view(capsys, tmp_path, monkeypatch):
    # count by each method, fit, a count from a coefficient file and verify, on fresh
    # root data
    from functools import lru_cache
    import alcoves.cli as climod
    from alcoves import rootdata
    real = rootdata.RootSystemData._build_ambient
    built = []

    def record(data):
        built.append(str(data.id))
        real(data)

    monkeypatch.setattr(rootdata.RootSystemData, "_build_ambient", record)
    monkeypatch.setattr(rootdata, "_build_cached", lru_cache(maxsize=None)(rootdata.RootSystemData))
    count = ["count", "--type", "B", "--rank", "3", "--lambda", "1,0,2", "--cache-dir",
             str(tmp_path / "cache"), "--method"]
    for method in ["bruhat", "lattice", "geometric", "geometric"]:  # the shipped file, twice
        code, payload = run_cli(capsys, *count, method)
        assert code == 0 and payload["count"] == 6720, method
    # and from a --cache-dir file, checked against Berline-Vergne, with no file shipped
    out = tmp_path / "cache" / "B3.json"
    assert run_cli(capsys, "fit", "--type", "B", "--rank", "3", "--out", str(out))[0] == 0
    monkeypatch.setattr(climod, "DATA_DIR", str(tmp_path))
    code, payload = run_cli(capsys, *count, "geometric")
    assert code == 0 and payload["count"] == 6720
    assert built == []
    # verify tests coroot-lattice membership by the integer dual matrix, not the view
    code, payload = run_cli(capsys, "verify", "--type", "B", "--rank", "3", "--max-coord", "1",
                            "--cache-dir", str(tmp_path / "cache"))
    assert code == 0 and payload["ok"] and len(payload["rows"]) == 8
    assert built == []
    # rootdata reads the view, and builds it once
    assert run_cli(capsys, "rootdata", "--type", "B", "--rank", "3")[0] == 0
    assert built == ["B3"]


def test_no_new_options():
    # every command also reads -h and --help, which the reader adds to each table
    from alcoves.cli import _COMMANDS
    options = {name: sorted([flag for flag, *_ in table] + ["-h", "--help"])
               for name, (_, _, table) in _COMMANDS.items()}
    system = ["--rank", "--type", "-h", "--help"]
    caps = ["--box-cap", "--cache-dir", "--interval-cap"]
    assert options == {
        "count": sorted(system + caps + ["--lambda", "--method"]),
        "fit": sorted(system + ["--box-cap", "--out", "--force"]),
        "verify": sorted(system + caps + ["--max-coord"]),
        "ehrhart": sorted(["-h", "--help", "--k", "--d"]),
        "volumes": sorted(system + ["--J"]),
        "faces": sorted(system + ["--lambda", "--J"]),
        "rootdata": sorted(system),
    }


REMOVED_FLAGS = [(command, flag) for command in ("rootdata", "volumes", "faces")
                 for flag in ("--interval-cap", "--box-cap", "--subset-cap", "--cache-dir")]
REMOVED_FLAGS += [("fit", "--interval-cap"), ("fit", "--subset-cap"), ("fit", "--cache-dir"),
                  ("count", "--subset-cap"), ("verify", "--subset-cap"), ("count", "--coeffs")]


@pytest.mark.parametrize("command,flag", REMOVED_FLAGS, ids=["%s%s" % c for c in REMOVED_FLAGS])
def test_flags_a_command_does_not_read_are_usage_errors(capsys, tmp_path, monkeypatch,
                                                        command, flag):
    monkeypatch.chdir(tmp_path)
    rest = {"count": ["--lambda", "1,1", "--method", "lattice"], "fit": ["--out", "a2.json"],
            "volumes": ["--J", "1"], "faces": ["--lambda", "1,1", "--J", "1"]}.get(command, [])
    code, payload = run_cli(capsys, command, "--type", "A", "--rank", "2", *rest, flag, "4096")
    assert code == 1 and payload["error"] == {
        "type": "usage", "message": "unrecognized arguments: %s 4096" % flag}
    assert list(tmp_path.iterdir()) == []


def test_verify_rejects_negative_max_coord(capsys, tmp_path):
    code, payload = run_cli(capsys, "verify", "--type", "A", "--rank", "2",
                            "--max-coord", "-1", "--cache-dir", str(tmp_path))
    assert code == 1 and payload["error"]["type"] == "usage"


def test_verify_lists_a_lambda_once(capsys, tmp_path, monkeypatch):
    # both checks of every row fail: each lambda is still listed once
    import alcoves.affine as affinemod
    import alcoves.coefficients as coefmod
    monkeypatch.setattr(coefmod, "evaluate_formula", lambda data, coeffs, lam: -1)
    monkeypatch.setattr(affinemod, "descents", lambda data, w: (set(), set()))
    code, payload = run_cli(capsys, "verify", "--type", "A", "--rank", "1",
                            "--max-coord", "2", "--cache-dir", str(tmp_path))
    assert code == 4
    assert payload["mismatches"] == [[0], [1], [2]]


@pytest.mark.parametrize("name", ["A3", "B3"])
def test_verify_counts_each_row_once_by_the_lattice(capsys, tmp_path, monkeypatch, name):
    # the cap check counts the last row, which reuses it, and the type-A identity reads
    # its rows: (m+1)^n counts in all, each of one row
    import alcoves.orbits as orbitsmod
    seen = []

    def count(data, lam, box_cap):
        seen.append(lam)
        return interval_size_lattice(data, lam, box_cap)

    monkeypatch.setattr(orbitsmod, "interval_size_lattice", count)
    code, payload = run_cli(capsys, "verify", "--type", name[0], "--rank", name[1:],
                            "--max-coord", "2", "--cache-dir", str(tmp_path))
    assert code == 0 and payload["ok"] and payload["hypersimplex_ok"]
    assert seen[0] == (2, 2, 2) and len(seen) == 27
    assert sorted(seen) == sorted(tuple(row["lambda"]) for row in payload["rows"])


# -- the argv reader against the argparse parser it replaced --------------------------

# a valid value of each option, and another for a repeat
VALUES = {"--type": ("A", "B"), "--rank": ("2", "3"), "--lambda": ("1,1", "2,0"),
          "--method": ("lattice", "bruhat"), "--interval-cap": ("100", "7"),
          "--box-cap": ("100", "7"), "--cache-dir": ("c", "d"),
          "--out": ("o.json", "p"), "--max-coord": ("1", "0"), "--k": ("1", "2"),
          "--d": ("3", "4"), "--J": ("1", "empty")}
BAD_VALUES = ["x", "0", "-1", "", "-1,1", "-x", "1_0", " 1", "١", "1.0", "--", "-1 1"]
UNKNOWN = [["--bogus"], ["--bogus", "1"], ["--bogus=1"], ["-x"], ["-x", "1"], ["--"],
           ["--", "extra"], ["--", "--type", "A"], ["extra"], ["-"], ["-1"], ["-1 x"],
           ["--=x"], ["---x"], ["-=x"], ["-h"], ["-hh"], ["-hx"], ["-h="], ["--help=1"],
           ["--version"], ["--force=1"], ["--force="]]


def _args(options, repeat=False):
    """flag value ... for each option of a command's table; a flag alone for a bool."""
    return [word for flag, _, kind, _ in options
            for word in ([flag] if kind is bool else [flag, VALUES[flag][repeat]])]


def _corpus(command, options):
    from alcoves.cli import _REQUIRED
    full = [command] + _args(options)
    required = [command] + _args([o for o in options if o[3] is _REQUIRED])
    yield full
    yield required
    yield [command]
    for i, (flag, _, kind, default) in enumerate(options):
        rest = options[:i] + options[i + 1:]
        if default is _REQUIRED:
            yield [command] + _args(rest)  # left out
        yield full + _args([options[i]], repeat=True)  # repeated, the last one read
        for end in range(1, len(flag) + 1):  # every prefix, in place and at the end
            prefix = flag[:end]
            yield [command] + _args(rest) + ([prefix] if kind is bool else
                                             [prefix, VALUES[flag][0]])
            yield required + [prefix]
            if kind is not bool:
                yield required + ["%s=%s" % (prefix, VALUES[flag][1])]
        if kind is bool:
            continue
        yield [command] + _args(rest) + ["%s=%s" % (flag, VALUES[flag][0])]
        for bad in BAD_VALUES + (["Lattice", "lat", "geometric "] if flag == "--method" else []):
            yield [command] + _args(rest) + [flag, bad]
            if bad != "--":  # --X=--: argparse stores [], the reader "--" (see below)
                yield [command] + _args(rest) + ["%s=%s" % (flag, bad)]
    for extra in UNKNOWN:
        yield full + extra
        yield required + extra
        yield extra + full
    for flag in ("-h", "--help"):
        for end in range(1, len(flag) + 1):
            yield [command, flag[:end]]


TOP = [[], ["bogus"], ["count "], [""], ["-x"], ["--bogus"], ["--"], ["--version"], ["--v"],
       ["--vers"], ["--version=1"], ["--version="], ["-h"], ["--h"], ["--help"], ["-hv"],
       ["--=x"], ["--version", "bogus"], ["bogus", "--version"], ["--", "--version"],
       ["-1,1"]]


def _outcome(parse, argv):
    """('ns', the namespace), ('usage', the message) or ('exit', the code, the text
    printed) of one parse.  Help texts differ by design: only their first word counts."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            ns = vars(parse(argv)).copy()
    except Exception as exc:
        if type(exc).__name__ != "UsageError":
            raise
        return "usage", str(exc)
    except SystemExit as exc:
        text = out.getvalue()
        return "exit", exc.code, "usage:" if text.startswith("usage: alcoves") else text
    return "ns", ns


def test_the_reader_gives_the_namespace_or_message_of_the_argparse_parser():
    import alcoves.cli as climod
    from oracles import _build_parser

    def oracle(argv):
        ns = _build_parser(argv[0] if argv else None).parse_args(argv)
        assert ns.func is climod._COMMANDS[ns.command][0]
        del ns.func
        return ns

    corpus = list(TOP)
    for command, (_, _, options) in climod._COMMANDS.items():
        corpus += _corpus(command, options)
    kinds = set()
    for argv in corpus:
        expected = _outcome(oracle, argv)
        assert _outcome(climod._read, argv) == expected, argv
        kinds.add(expected[0] if expected[0] != "usage" else expected[1].split(":")[0])
    assert len(corpus) > 1900
    # the corpus reaches every kind of outcome the reader reproduces
    assert {"ns", "exit", "the following arguments are required", "argument command",
            "ambiguous option", "unrecognized arguments", "budgets must be positive",
            "argument --rank", "argument --method", "argument --force",
            "argument -h/--help", "argument --version"} <= kinds


@pytest.mark.parametrize("flag,message", [
    ("--type", "invalid root system --2"),
    ("--rank", "argument --rank: invalid integer value: '--'"),
    ("--lambda", "lambda must be a comma-separated integer list"),
    ("--method", "argument --method: invalid choice: '--' (choose from 'bruhat', 'lattice', "
                 "'geometric')"),
    ("--box-cap", "argument --box-cap: invalid budget value: '--'"),
])
def test_an_equals_separator_value_is_the_text_itself(capsys, flag, message):
    # argparse dropped the "--" of --X=--, stored [] and so crashed or printed
    # "method": []; the reader passes "--" to the option's own check
    argv = dict(zip(COUNT_A2[1::2], COUNT_A2[2::2]))
    argv[flag] = "--"
    words = ["count"] + ["%s=%s" % item if item[0] == flag else item[0] + "\0" + item[1]
                         for item in argv.items()]
    code, payload = run_cli(capsys, *[w for word in words for w in word.split("\0")])
    kind = "invalid-input" if flag == "--type" else "usage"
    assert code == 1 and payload["error"] == {"type": kind, "message": message}


def test_help_and_version_exit_0_with_their_text(capsys):
    from alcoves.cli import _COMMANDS
    for argv in [["--version"], ["--vers"]]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0 and capsys.readouterr().out == "alcoves %s\n" % __version__
    with pytest.raises(SystemExit) as exc:
        main(["--he"])
    out = capsys.readouterr().out
    assert exc.value.code == 0 and all("\n  %s " % command in out for command in _COMMANDS)
    for command, (_, text, options) in _COMMANDS.items():
        with pytest.raises(SystemExit) as exc:
            main([command, "-h"])
        usage, _, rest = capsys.readouterr().out.partition("\n")
        assert exc.value.code == 0 and usage.startswith("usage: alcoves %s [-h] " % command)
        assert [flag for flag, *_ in options if flag in usage] == [o[0] for o in options]
        assert rest.startswith("\n%s\n" % text)


def test_top_level_help_prints_usage_output_and_commands_only(capsys, monkeypatch):
    # the module docstring's notes on the implementation stay out of -h, and so does any
    # later edit of them
    import alcoves.cli as climod

    def top_help():
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        assert exc.value.code == 0
        return capsys.readouterr().out

    text = top_help()
    assert text.startswith("usage: alcoves [-h] [--version] {count,")
    assert "Exit codes: 0 success" in text and "\ncommands:\n  count " in text
    assert re.findall(r"\b_\w+|\w+\._\w+|from_json|to_json", text) == []
    assert [name for name in vars(climod) if "_" in name.strip("_") and name in text] == []
    first, _, rest = climod.__doc__.partition("\n\n")
    monkeypatch.setattr(climod, "__doc__", first + "\n\nA new paragraph.\n\n" + rest.upper())
    assert top_help() == text
