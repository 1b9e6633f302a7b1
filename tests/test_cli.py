import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from alcoves import __version__, build_root_system
from alcoves.cli import main
from alcoves.volumes import _table

A2_MU_PRIME = {"": "6", "1": "9", "2": "9", "1,2": "6"}
REFERENCES = json.loads(
    (Path(__file__).resolve().parents[1] / "benchmarks" / "references.json").read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_count_lattice(capsys):
    code, payload = run_cli(capsys, "count", "--type", "A", "--rank", "2",
                            "--lambda", "1,1", "--method", "lattice")
    assert code == 0
    assert payload["count"] == 42
    assert payload["system"] == "A2"
    assert payload["schema"] == 1


def test_count_methods_agree(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("ALCOVES_CACHE_DIR", str(tmp_path))
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


def test_count_geometric_with_coeff_file(capsys, tmp_path):
    coeff_file = tmp_path / "a2.json"
    code, _ = run_cli(capsys, "fit", "--type", "A", "--rank", "2",
                      "--out", str(coeff_file))
    assert code == 0 and coeff_file.exists()
    obj = json.loads(coeff_file.read_text())
    assert obj["mu_prime"] == {"": "6", "1": "9", "2": "9", "1,2": "6"}
    code, payload = run_cli(capsys, "count", "--type", "A", "--rank", "2",
                            "--lambda", "1,0", "--method", "geometric",
                            "--coeffs", str(coeff_file))
    assert code == 0 and payload["count"] == 18


def test_count_zero_coweight_all_methods(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("ALCOVES_CACHE_DIR", str(tmp_path))
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
    from alcoves.radicals import RadScalar
    from oracles import reciprocal, square
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


def test_verify_a2(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("ALCOVES_CACHE_DIR", str(tmp_path))
    code, payload = run_cli(capsys, "verify", "--type", "A", "--rank", "2",
                            "--max-coord", "2")
    assert code == 0
    assert payload["ok"] is True
    assert len(payload["rows"]) == 9
    assert payload["hypersimplex_ok"] is True
    counts = {tuple(r["lambda"]): r["lattice"] for r in payload["rows"]}
    assert counts[(1, 1)] == 42 and counts[(0, 0)] == 6


def test_verify_g2(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("ALCOVES_CACHE_DIR", str(tmp_path))
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


def test_cache_roundtrip(capsys, tmp_path):
    cache = tmp_path / "cache"
    args = ["count", "--type", "A", "--rank", "2", "--lambda", "1,1",
            "--method", "geometric", "--cache-dir", str(cache)]
    code, payload = run_cli(capsys, *args)
    assert code == 0 and payload["count"] == 42
    files = list(cache.glob("coeffs-A2-*.json"))
    assert len(files) == 1
    stamp = files[0].read_bytes()
    code, payload = run_cli(capsys, *args)
    assert code == 0 and payload["count"] == 42
    assert files[0].read_bytes() == stamp  # reused, not rewritten


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


def test_box_cap_bounds_the_fit(capsys, tmp_path):
    out = tmp_path / "a2.json"
    code, payload = run_cli(capsys, "fit", "--type", "A", "--rank", "2",
                            "--out", str(out), "--box-cap", "1")
    assert code == 2 and payload["error"]["type"] == "budget"
    assert not out.exists()
    for method in ["lattice", "geometric"]:
        code, payload = run_cli(capsys, "count", "--type", "A", "--rank", "2",
                                "--lambda", "1,1", "--method", method, "--box-cap", "1",
                                "--cache-dir", str(tmp_path / "cache"))
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


@pytest.mark.parametrize("argv,message", [
    (["count", "--type", "E", "--rank", "8", "--lambda", "1,1,1,1,1,1,1,1",
      "--method", "bruhat", "--cache-dir", "cache"],
     "lower interval exceeds cap of 1000000 elements"),
    (["count", "--type", "E", "--rank", "7", "--lambda", "1,1,1,1,1,1,1",
      "--method", "geometric", "--cache-dir", "cache"],
     "level simplex has 3849565824 cells, exceeding cap 100000000"),
    (["fit", "--type", "E", "--rank", "7", "--out", "e7.json"],
     "level simplex has 3849565824 cells, exceeding cap 100000000"),
    (["verify", "--type", "E", "--rank", "7", "--cache-dir", "cache"],
     "lower interval exceeds cap of 1000000 elements"),
    (["volumes", "--type", "A", "--rank", "13", "--J", ",".join(map(str, range(1, 14)))],
     "the pyramid table of A13 over 13 indices needs 8192 subsets, exceeding cap 4096"),
    (["faces", "--type", "E", "--rank", "7", "--lambda", "1,1,1,1,1,1,1",
      "--J", "1,2,3,4,5,6,7"],
     "the face has 2903040 vertices, exceeding cap 100000"),
], ids=["E8-bruhat", "E7-geometric", "E7-fit", "E7-verify", "A13-volumes", "E7-faces"])
def test_refusal_before_the_first_count_is_cheap(capsys, tmp_path, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)  # the relative cache and out paths land here
    build_root_system("%s%s" % (argv[2], argv[4]))  # time the refusal, not the build
    start = time.perf_counter()
    code, payload = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and payload["error"] == {"type": "budget", "message": message}
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


def test_geometric_rejects_coefficients_of_another_system(capsys, tmp_path):
    g2 = tmp_path / "g2.json"
    code, _ = run_cli(capsys, "fit", "--type", "G", "--rank", "2", "--out", str(g2))
    assert code == 0
    code, payload = run_cli(capsys, "count", "--type", "A", "--rank", "2",
                            "--lambda", "1,1", "--method", "geometric", "--coeffs", str(g2))
    assert code == 1 and "G2" in payload["error"]["message"]


def test_geometric_rejects_incomplete_cache(capsys, tmp_path):
    # a defective cache is refitted and rewritten, not summed or refused
    cache = tmp_path / "cache"
    cache.mkdir()
    path = cache / ("coeffs-A2-v%s.json" % __version__)
    path.write_text(json.dumps(
        {"schema": 1, "version": __version__, "system": "A2", "mu_prime": {"": "6"}}))
    code, payload = run_cli(capsys, "count", "--type", "A", "--rank", "2",
                            "--lambda", "3,3", "--method", "geometric",
                            "--cache-dir", str(cache))
    assert code == 0 and payload["count"] == 222
    assert json.loads(path.read_text())["mu_prime"] == A2_MU_PRIME


def test_geometric_rejects_incomplete_coeffs_file(capsys, tmp_path):
    coeffs = tmp_path / "a2.json"
    coeffs.write_text(json.dumps(
        {"schema": 1, "version": __version__, "system": "A2", "mu_prime": {"": "6"}}))
    code, payload = run_cli(capsys, "count", "--type", "A", "--rank", "2",
                            "--lambda", "3,3", "--method", "geometric",
                            "--coeffs", str(coeffs))
    assert code == 1 and "subsets" in payload["error"]["message"]


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
], ids=["mu-empty", "mu-top", "subset-missing", "version", "system", "truncated", "deep",
        "zero-denominator", "exponent", "key-twice"])
def test_defective_cache_is_refitted_and_defective_coeffs_file_refused(
        capsys, tmp_path, defect):
    fresh = tmp_path / "fresh.json"
    code, _ = run_cli(capsys, "fit", "--type", "A", "--rank", "2", "--out", str(fresh))
    assert code == 0
    text = defect(fresh.read_text())
    cache = tmp_path / "cache"
    cache.mkdir()
    path = cache / ("coeffs-A2-v%s.json" % __version__)
    path.write_text(text)
    code, payload = run_cli(capsys, "count", "--type", "A", "--rank", "2",
                            "--lambda", "0,0", "--method", "geometric",
                            "--cache-dir", str(cache))
    assert code == 0 and payload["count"] == 6
    assert path.read_bytes() == fresh.read_bytes()
    assert [p.name for p in cache.iterdir()] == [path.name]  # no temp file left
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, payload = run_cli(capsys, "count", "--type", "A", "--rank", "2",
                            "--lambda", "0,0", "--method", "geometric", "--coeffs", str(bad))
    assert code == 1 and payload["error"]["type"] == "invalid-input"


@pytest.mark.parametrize("case", ["coeffs-missing", "coeffs-no-system", "coeffs-list",
                                  "cache-dir-is-file", "out-is-directory"])
def test_file_errors_exit_1_with_json(capsys, tmp_path, case):
    count = ["count", "--type", "A", "--rank", "2", "--lambda", "1,1",
             "--method", "geometric", "--cache-dir", str(tmp_path / "cache")]
    bad = tmp_path / "bad.json"
    if case == "coeffs-missing":
        argv = count + ["--coeffs", str(bad)]
    elif case == "coeffs-no-system":
        bad.write_text(json.dumps({"schema": 1, "version": __version__,
                                   "mu_prime": A2_MU_PRIME}))
        argv = count + ["--coeffs", str(bad)]
    elif case == "coeffs-list":
        bad.write_text("[1]")
        argv = count + ["--coeffs", str(bad)]
    elif case == "cache-dir-is-file":
        bad.write_text("{}")
        argv = count[:-1] + [str(bad)]
    else:
        (tmp_path / "out").mkdir()
        argv = ["fit", "--type", "A", "--rank", "2", "--out", str(tmp_path / "out"), "--force"]
    code, payload = run_cli(capsys, *argv)
    assert code == 1 and payload["error"]["message"]
    assert not list(tmp_path.rglob("*.tmp"))


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
    start = time.perf_counter()
    code, payload = run_cli(capsys, "volumes", "--type", "A", "--rank", "24", "--J", "1")
    assert time.perf_counter() - start < 2
    assert code == 0 and (payload["J"], payload["gram"]) == ([1], "2")
    assert set(_table(build_root_system("A24"))) <= {(), (1,)}


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


def test_geometric_count_with_a_coeffs_file_refuses_on_subsets_first(capsys, tmp_path,
                                                                    monkeypatch):
    # the file is neither read nor checked: A13's 8192 subsets refuse before the build
    import alcoves.cli as climod

    def never(*args, **kwargs):
        raise AssertionError("called before the subset cap")

    monkeypatch.setattr(climod, "build_root_system", never)
    monkeypatch.setattr(climod, "_read_coefficients", never)
    coeffs = tmp_path / "a13.json"
    coeffs.write_text('{"system": "A13", "mu_prime": {"": "1"}}')
    code, payload = run_cli(capsys, "count", "--type", "A", "--rank", "13", "--lambda",
                            ",".join(["1"] * 13), "--method", "geometric", "--coeffs", str(coeffs))
    assert code == 2 and payload["error"] == {
        "type": "budget", "message": "the pyramid table of A13 over 13 indices needs 8192 "
                                     "subsets, exceeding cap 4096"}


def test_verify_refuses_before_the_fit_and_the_first_row(capsys, tmp_path, monkeypatch):
    # interval sizes grow with lambda, so the row (40, 40, 40), whose interval has
    # 25 157 784 elements, refuses the whole run before any row is counted
    import alcoves.cli as climod

    def never(*args, **kwargs):
        raise AssertionError("called before the interval cap was checked")

    monkeypatch.setattr(climod, "interval_size_bruhat", never)
    monkeypatch.setattr(climod, "fit_mu", never)
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
    for method in ["bruhat", "lattice", "geometric", "geometric"]:  # fit and store, then load
        code, payload = run_cli(capsys, *count, method)
        assert code == 0 and payload["count"] == 6720, method
    out = tmp_path / "b3.json"
    assert run_cli(capsys, "fit", "--type", "B", "--rank", "3", "--out", str(out))[0] == 0
    code, payload = run_cli(capsys, *count, "geometric", "--coeffs", str(out))
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
    import argparse
    from alcoves.cli import _build_parser
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {name: sorted(o for a in p._actions for o in a.option_strings)
               for name, p in sub.choices.items()}
    system = ["--rank", "--type", "-h", "--help"]
    caps = ["--box-cap", "--cache-dir", "--interval-cap"]
    assert options == {
        "count": sorted(system + caps + ["--lambda", "--method", "--coeffs"]),
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
                  ("count", "--subset-cap"), ("verify", "--subset-cap")]


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
    import alcoves.cli as climod
    monkeypatch.setattr(climod, "evaluate_formula", lambda data, coeffs, lam: -1)
    monkeypatch.setattr(climod, "descents", lambda data, w: (set(), set()))
    code, payload = run_cli(capsys, "verify", "--type", "A", "--rank", "1",
                            "--max-coord", "2", "--cache-dir", str(tmp_path))
    assert code == 4
    assert payload["mismatches"] == [[0], [1], [2]]
