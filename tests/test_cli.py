import json
import subprocess
import sys

import pytest

from alcoves.cli import main


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
    mu = RadScalar(Fraction(obj["mu_prime"]["1,2"])) * \
        RadScalar.sqrt(Fraction(obj["gram"]["1,2"])).reciprocal()
    assert mu.square() == 432


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
    proc = subprocess.run(
        [sys.executable, "-m", "alcoves.cli", "count", "--type", "A", "--rank", "1",
         "--lambda", "3", "--method", "bruhat"],
        capture_output=True, text=True)
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


def test_geometric_rejects_coefficients_of_another_system(capsys, tmp_path):
    g2 = tmp_path / "g2.json"
    code, _ = run_cli(capsys, "fit", "--type", "G", "--rank", "2", "--out", str(g2))
    assert code == 0
    code, payload = run_cli(capsys, "count", "--type", "A", "--rank", "2",
                            "--lambda", "1,1", "--method", "geometric", "--coeffs", str(g2))
    assert code == 1 and "G2" in payload["error"]["message"]


def test_geometric_rejects_incomplete_cache(capsys, tmp_path):
    from alcoves import __version__
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / ("coeffs-A2-v%s.json" % __version__)).write_text(json.dumps(
        {"schema": 1, "version": __version__, "system": "A2", "mu_prime": {"": "6"}}))
    code, payload = run_cli(capsys, "count", "--type", "A", "--rank", "2",
                            "--lambda", "3,3", "--method", "geometric",
                            "--cache-dir", str(cache))
    assert code == 1 and "subsets" in payload["error"]["message"]


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
