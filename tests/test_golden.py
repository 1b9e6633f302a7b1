"""Byte-identity guard for the CLI's deterministic outputs.

`golden_digests.json` holds the sha256 of
  * the stdout of `alcoves rootdata` on every supported system of rank <= 8,
  * the stdout of `alcoves volumes` for every J on a set of small systems,
  * the file `alcoves fit --out` writes, on each of the 23 systems of rank <= 6,
    which is also the file the package ships,
  * the file the package ships for each of the 8 systems of rank 7 and 8 that the
    default box cap admits, as the triangular solve alone derives it from the
    lattice counts at the 0/1 coweights; `fit --out` wrote those files, its check
    on all of T_n included, once, when they were shipped,
  * the file the package ships for D8 and E8, as `_write_coefficients` writes the
    Berline-Vergne mu' alone; `fit --out` wrote those files at `--box-cap
    1000000000000`, its check on all of T_8 included, once, when they were shipped,
  * `weyl_order(data, J)` for every J on every system of `rootdata`,
  * the stdout of `alcoves faces` for every J and four lambda, some with zero
    coordinates, on a set of small systems,
  * the stdout of `alcoves ehrhart` for every 1 <= k <= d, one digest per d <= 40.
The digests were taken from the ambient reflection-closure root data, with
QVector and RadScalar arithmetic in the library, the `MPoly` pyramid
recursion, the Dynkin-classification table of `|W_J|` and, for `faces`,
dimensions by a Gauss-Jordan rank.  The fit digests of F4, D5 and E6 were
taken from a fit that walked each coweight's X_lambda afresh and ran the
volume recursion in Fractions, before either was shared or scaled.  The fit
digests of A5, A6, B5, B6, C2, C4, C5, C6, D3 and D6 were taken from the code
that fitted every geometric query on demand, before the package shipped
the fitted files in `alcoves/data`.  All 23 were taken while `fit`
checked its fit on a sample of 2^(n+1) + n coweights, before the check on
all of T_n replaced it; the solve is the same.  They stayed the same when
the Berline-Vergne recursion, which makes no count, replaced the solve in
`fit`, which moved to `tests/oracles.py` (`solve_from_counts`).  The
`volumes` digests of A5, B5, C5, D5, E6 and E7 were taken from the code that
bordered C_J^-1 in Fractions and scaled the recursion by the common
denominator e_J of C_J^-1, before the integer step that carries adj C_J and
det C_J replaced it; they guard that rescaling of M_J.
The library now builds the `rootdata` and `faces` vectors as integer
combinations of the doubled simple roots and the volumes as (coeff, radicand)
pairs; beyond rank 8, `test_rootdata.py` checks that view against the Fraction
derivation in `tests/oracles.py` up to rank 12.
The `ehrhart` digests were taken from the code that summed Ferroni's formula
over Stirling numbers of the first kind, before the inclusion-exclusion over
the coordinates above m replaced it; they guard every coefficient it prints.
The tests regenerate every output and compare, so any later change to these
bytes has to be deliberate.  To print the digests of the code on the path:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from itertools import combinations, product
from pathlib import Path

import pytest

from alcoves.cli import DATA_DIR, _write_coefficients, main
from alcoves.coefficients import GeometricCoefficients, _berline_vergne
from alcoves.orbits import interval_size_lattice
from alcoves.rootdata import build_root_system, weyl_order
from oracles import solve_from_counts

FIXTURE = Path(__file__).resolve().parent / "golden_digests.json"

ROOTDATA = (["A%d" % n for n in range(1, 9)] + ["B%d" % n for n in range(2, 9)]
            + ["C%d" % n for n in range(2, 9)] + ["D%d" % n for n in range(3, 9)]
            + ["E6", "E7", "E8", "F4", "G2"])
VOLUMES = ["A2", "A3", "A4", "B2", "B3", "B4", "C3", "D4", "G2", "F4",
           "A5", "B5", "C5", "D5", "E6", "E7"]
# every system up to rank 8: FITS, of rank <= 6, are fitted here in seconds, SOLVED, of
# rank 7 and 8, only solved (their T_n check takes minutes), and DERIVED, whose fit and
# 0/1 counts need a raised box cap, derived by Berline-Vergne alone
FITS = (["A%d" % n for n in range(1, 7)] + ["B%d" % n for n in range(2, 7)]
        + ["C%d" % n for n in range(2, 7)] + ["D%d" % n for n in range(3, 7)]
        + ["E6", "F4", "G2"])
SOLVED = ["A7", "B7", "C7", "D7", "E7", "A8", "B8", "C8"]
DERIVED = ["D8", "E8"]
SHIPPED = FITS + SOLVED + DERIVED
FACES = ["A2", "A3", "B2", "B3", "C3", "D4", "F4", "G2"]
EHRHART_MAX_D = 40
KINDS = ("rootdata", "weyl_order", "volumes", "fit", "solve", "berline_vergne", "faces",
         "ehrhart")


def _stdout(*argv) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    assert code == 0, buf.getvalue()
    return buf.getvalue().encode()


def _system(name):
    return ("--type", name[0], "--rank", name[1:])


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(kind: str) -> dict[str, str]:
    out = {}
    if kind == "rootdata":
        for name in ROOTDATA:
            out[name] = _sha(_stdout("rootdata", *_system(name)))
    elif kind == "weyl_order":
        for name in ROOTDATA:
            d = build_root_system(name)
            orders = [weyl_order(d, J) for size in range(d.rank + 1)
                      for J in combinations(range(1, d.rank + 1), size)]
            out[name] = _sha(" ".join(map(str, orders)).encode())
    elif kind == "volumes":
        for name in VOLUMES:
            n = int(name[1:])
            for size in range(n + 1):
                for J in combinations(range(1, n + 1), size):
                    key = ",".join(map(str, J)) or "empty"
                    out["%s J=%s" % (name, key)] = _sha(
                        _stdout("volumes", *_system(name), "--J", key))
    elif kind == "faces":
        for name in FACES:
            n = int(name[1:])
            # (1,...,1), w_1^v, 2 w_n^v and (0,1,0,1,...)
            for lam in [(1,) * n, (1,) + (0,) * (n - 1), (0,) * (n - 1) + (2,),
                        tuple(i % 2 for i in range(n))]:
                text = ",".join(map(str, lam))
                for size in range(n + 1):
                    for J in combinations(range(1, n + 1), size):
                        key = ",".join(map(str, J)) or "empty"
                        out["%s lambda=%s J=%s" % (name, text, key)] = _sha(
                            _stdout("faces", *_system(name), "--lambda", text, "--J", key))
    elif kind == "ehrhart":
        for d in range(1, EHRHART_MAX_D + 1):
            out["d=%d" % d] = _sha(b"".join(_stdout("ehrhart", "--k", str(k), "--d", str(d))
                                            for k in range(1, d + 1)))
    elif kind == "solve":
        with tempfile.TemporaryDirectory() as tmp:
            for name in SOLVED:
                data = build_root_system(name)
                counts = {lam: interval_size_lattice(data, lam)
                          for lam in product((0, 1), repeat=data.rank)}
                path = Path(tmp) / ("%s.json" % name)
                _write_coefficients(path, solve_from_counts(data, counts))
                out[name] = _sha(path.read_bytes())
    elif kind == "berline_vergne":
        with tempfile.TemporaryDirectory() as tmp:
            for name in DERIVED:
                data = build_root_system(name)
                path = Path(tmp) / ("%s.json" % name)
                mu = _berline_vergne(data, (1,) * data.rank)
                _write_coefficients(path, GeometricCoefficients(data.id, mu))
                out[name] = _sha(path.read_bytes())
    else:
        with tempfile.TemporaryDirectory() as tmp:
            for name in FITS:
                path = Path(tmp) / ("%s.json" % name)
                _stdout("fit", *_system(name), "--out", str(path))
                out[name] = _sha(path.read_bytes())
    return out


@pytest.mark.parametrize("kind", KINDS)
def test_outputs_match_golden_digests(kind):
    expected = json.loads(FIXTURE.read_text())[kind]
    got = digests(kind)
    assert got.keys() == expected.keys()
    assert [k for k in got if got[k] != expected[k]] == []


def test_each_shipped_file_is_the_golden_fit_of_its_system():
    # the fit and solve tests above re-derive these bytes, so a shipped file is the one
    # the code on the path writes; a version bump fails here until the files are regenerated
    golden = json.loads(FIXTURE.read_text())
    expected = {**golden["fit"], **golden["solve"], **golden["berline_vergne"]}
    shipped = Path(DATA_DIR)
    assert sorted(p.name for p in shipped.iterdir()) == sorted("%s.json" % n for n in SHIPPED)
    for name in SHIPPED:
        path = shipped / ("%s.json" % name)
        assert _sha(path.read_bytes()) == expected[name], name
        assert json.loads(path.read_text())["system"] == name


if __name__ == "__main__":
    json.dump({kind: digests(kind) for kind in KINDS},
              sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
