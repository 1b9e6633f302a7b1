"""Command-line interface.

All output is JSON on stdout with sorted keys, so identical inputs yield
identical bytes (the `elapsed_ms` field of `count` is the one run-dependent
value).  Exit codes: 0 success, 1 usage or invalid input, 2 budget
exceeded, 3 fit verification failure, 4 verification mismatch.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time
from itertools import product
from pathlib import Path

from . import __version__
from .errors import AlcovesError, BudgetExceededError, FitVerificationError
from .affine import (DEFAULT_INTERVAL_CAP, descents, interval_size_bruhat, sigma_reflection,
                     theta)
from .coefficients import (GeometricCoefficients, check_coefficients, evaluate_formula, fit_mu,
                           hypersimplex_ehrhart)
from .orbits import DEFAULT_BOX_CAP, face_to_json, interval_size_lattice
from .rootdata import (RootSystemId, build_root_system, check_rank, dominant_coweight,
                       simple_subset)
from .volumes import check_subset_cap, volume_polynomial

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_FIT = 3
EXIT_MISMATCH = 4


# hypersimplex_ehrhart(k, d) takes about k*d^2 big-integer steps: seconds at this cap
EHRHART_BUDGET = 2_000_000
# r_J has up to C(2|J|-1, |J|) monomials, 92 378 at |J| = 10 and 352 716 at |J| = 11:
# on a 2-core machine a full J took 8.6 s on D9 and 32 s on A10, but 238 s and 519 MB on A11
MAX_VOLUME_INDICES = 10


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads '-1,1' as an option flag, as it matches only '-1' or '-1.5' as a
        # negative number; no option here starts '-<digit>', so such an argument is a
        # value, and --lambda -1,1 or --J -1,2 reaches this CLI's own check
        self._negative_number_matcher = re.compile(r"-[0-9]")

    def error(self, message):
        raise UsageError(message)


class UsageError(Exception):
    pass


_INTEGER = re.compile(r"-?[0-9]+")


def integer(text: str) -> int:
    """The CLI's one integer grammar, ASCII -?[0-9]+: int() alone also reads
    '1_0', ' 1', '+1' and digits of other scripts such as '\u0661'."""
    if not _INTEGER.fullmatch(text):
        raise ValueError("not an integer: %r" % text)
    return int(text)


def budget(text: str) -> int:
    """argparse type of the caps.  It raises UsageError, which argparse does not
    catch, so the message reaches the JSON error without an argparse prefix."""
    value = integer(text)
    if value <= 0:
        raise UsageError("budgets must be positive")
    return value


def _emit(payload) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")


def _fail(code: int, kind: str, message: str) -> int:
    _emit({"schema": 1, "error": {"type": kind, "message": message}})
    return code


def _validated(check, rank: int, values):
    """check(rank, values), its ValueError turned into a UsageError with the same message."""
    try:
        return check(rank, values)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _parse_lambda(text: str, rank: int) -> tuple[int, ...]:
    try:
        coords = [integer(x) for x in text.split(",")]
    except ValueError:
        raise UsageError("lambda must be a comma-separated integer list") from None
    return _validated(dominant_coweight, rank, coords)


def _parse_J(text: str, rank: int) -> tuple[int, ...]:
    if text in ("empty", ""):
        return ()
    try:
        J = [integer(x) for x in text.split(",")]
    except ValueError:
        raise UsageError("J must be a comma-separated integer list or 'empty'") from None
    return _validated(simple_subset, rank, J)


def _cache_path(ns, system) -> Path:
    root = ns.cache_dir or os.environ.get("ALCOVES_CACHE_DIR")
    root = Path(root) if root else Path.home() / ".cache" / "alcoves"
    return root / ("coeffs-%s-v%s.json" % (system, __version__))


def _read_coefficients(path: Path, data) -> GeometricCoefficients:
    """Load a coefficient file; ValueError unless it is of this version and passes
    check_coefficients for data's system."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except RecursionError:
            raise ValueError("%s is nested too deeply to be a coefficient file" % path) from None
    coeffs = GeometricCoefficients.from_json(obj)
    if obj.get("version") != __version__:
        raise ValueError("%s holds coefficients of version %r, not %s"
                         % (path, obj.get("version"), __version__))
    check_coefficients(data, coeffs)
    return coeffs


def _write_coefficients(path: Path, coeffs: GeometricCoefficients) -> dict:
    """Write coeffs to path atomically: a temp file beside it, then os.replace."""
    payload = coeffs.to_json()
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(".%s.%d.tmp" % (path.name, os.getpid()))
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return payload


def _cached_coefficients(ns, data) -> GeometricCoefficients:
    """The cached coefficients of data's system; a missing or defective cache is refitted."""
    path = _cache_path(ns, data.id)
    try:
        return _read_coefficients(path, data)
    except (FileNotFoundError, ValueError):
        pass
    coeffs = fit_mu(data, box_cap=ns.box_cap)
    _write_coefficients(path, coeffs)
    return coeffs


def cmd_count(ns) -> int:
    lam = _parse_lambda(ns.lam, ns.rank)
    if ns.method == "geometric":  # a --coeffs file too needs the 2^n-subset pyramid table
        check_subset_cap(ns.system, ns.rank)
    data = build_root_system(ns.system)
    start = time.perf_counter()
    if ns.method == "bruhat":
        count = interval_size_bruhat(data, lam, cap=ns.interval_cap)
    elif ns.method == "lattice":
        count = interval_size_lattice(data, lam, box_cap=ns.box_cap)
    else:
        coeffs = (_read_coefficients(Path(ns.coeffs), data) if ns.coeffs
                  else _cached_coefficients(ns, data))
        count = evaluate_formula(data, coeffs, lam)
    elapsed = int((time.perf_counter() - start) * 1000)
    _emit({
        "schema": 1,
        "system": str(data.id),
        "lambda": list(lam),
        "method": ns.method,
        "count": count,
        "elapsed_ms": elapsed,
    })
    return EXIT_OK


def cmd_fit(ns) -> int:
    out = Path(ns.out)
    if out.exists() and not ns.force:
        raise UsageError("refusing to overwrite %s (use --force)" % out)
    check_subset_cap(ns.system, ns.rank)
    data = build_root_system(ns.system)
    coeffs = fit_mu(data, box_cap=ns.box_cap)
    payload = _write_coefficients(out, coeffs)
    _emit({"schema": 1, "system": str(data.id), "written": str(out),
           "mu_prime": payload["mu_prime"]})
    return EXIT_OK


def cmd_verify(ns) -> int:
    if ns.max_coord < 0:
        raise UsageError("--max-coord must be non-negative")
    check_subset_cap(ns.system, ns.rank)
    data = build_root_system(ns.system)
    # interval sizes grow with lambda in each coordinate, and each cap refuses exactly
    # when the size it bounds exceeds it: the last row decides every refusal up front.
    # |W_f|, the size at 0, refuses E7 and E8 before any count
    top = (ns.max_coord,) * data.rank
    if (data.wf_order > ns.interval_cap
            or interval_size_lattice(data, top, box_cap=ns.box_cap) > ns.interval_cap):
        raise BudgetExceededError("lower interval exceeds cap of %d elements" % ns.interval_cap)
    coeffs = _cached_coefficients(ns, data)
    n = data.rank
    rows = []
    mismatches = []

    def mismatch(lam):
        if list(lam) not in mismatches:
            mismatches.append(list(lam))

    for lam in product(range(ns.max_coord + 1), repeat=n):
        bruhat = interval_size_bruhat(data, lam, cap=ns.interval_cap)
        lattice = interval_size_lattice(data, lam, box_cap=ns.box_cap)
        geometric = evaluate_formula(data, coeffs, lam)
        ok = bruhat == lattice == geometric
        # descent structure of theta(lambda)
        left, right = descents(data, theta(data, lam)[0])
        sigma = sigma_reflection(data, lam)
        expected_right = set(range(n + 1)) - {sigma}
        descent_ok = set(range(1, n + 1)) <= left and expected_right <= right
        if not (ok and descent_ok):
            mismatch(lam)
        rows.append({
            "lambda": list(lam),
            "bruhat": bruhat,
            "lattice": lattice,
            "geometric": geometric,
            "descents_ok": descent_ok,
            "ok": ok and descent_ok,
        })

    hypersimplex_ok = True
    if data.family == "A":
        for k in range(1, n + 1):
            poly = hypersimplex_ehrhart(k, n + 1)
            for m in range(ns.max_coord + 1):
                lam = tuple(m if i + 1 == k else 0 for i in range(n))
                expected = math.factorial(n + 1) * poly.eval((m,))
                if interval_size_lattice(data, lam, box_cap=ns.box_cap) != expected:
                    hypersimplex_ok = False
                    mismatch(lam)

    _emit({
        "schema": 1,
        "system": str(data.id),
        "max_coord": ns.max_coord,
        "rows": rows,
        "hypersimplex_ok": hypersimplex_ok,
        "mismatches": mismatches,
        "ok": not mismatches,
    })
    return EXIT_OK if not mismatches else EXIT_MISMATCH


def cmd_ehrhart(ns) -> int:
    k, d = ns.k, ns.d
    if not 1 <= k <= d:
        raise UsageError("need 1 <= k <= d")
    if k * d * d > EHRHART_BUDGET:
        raise BudgetExceededError("ehrhart k=%d d=%d needs k*d^2 = %d steps, exceeding %d"
                                  % (k, d, k * d * d, EHRHART_BUDGET))
    poly = hypersimplex_ehrhart(k, d)
    _emit({
        "schema": 1,
        "k": k,
        "d": d,
        "coefficients": poly.to_json(),
    })
    return EXIT_OK


def cmd_volumes(ns) -> int:
    J = _parse_J(ns.J, ns.rank)
    check_subset_cap(ns.system, len(J))
    if len(J) > MAX_VOLUME_INDICES:
        raise BudgetExceededError("J has %d indices, exceeding cap %d: its volume polynomial "
                                  "has up to %d monomials" % (len(J), MAX_VOLUME_INDICES,
                                                              math.comb(2 * len(J) - 1, len(J))))
    data = build_root_system(ns.system)
    vp = volume_polynomial(data, J)
    payload = vp.to_json()
    payload.update({"schema": 1, "system": str(data.id)})
    _emit(payload)
    return EXIT_OK


def cmd_faces(ns) -> int:
    lam = _parse_lambda(ns.lam, ns.rank)
    J = _parse_J(ns.J, ns.rank)
    data = build_root_system(ns.system)
    _emit(face_to_json(data, lam, J))
    return EXIT_OK


def cmd_rootdata(ns) -> int:
    data = build_root_system(ns.system)
    _emit(data.to_json())
    return EXIT_OK


_COMMANDS = ("count", "fit", "verify", "ehrhart", "volumes", "faces", "rootdata")


def _build_parser(command: str | None = None) -> _Parser:
    """The parser, with only the subparser of `command` when that is one of _COMMANDS
    (all seven took 3-4 ms to build); help, --version and usage errors see them all."""
    parser = _Parser(prog="alcoves", description=__doc__)
    parser.add_argument("--version", action="version", version="alcoves " + __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, text, func):  # the subparser of name, or None when it is not built
        if command in _COMMANDS and command != name:
            return None
        p = sub.add_parser(name, help=text)
        p.set_defaults(func=func)
        return p

    def add_system_args(p, need_lambda=False):
        p.add_argument("--type", required=True, dest="family",
                       help="root system family letter (A/B/C/D/E/F/G)")
        p.add_argument("--rank", required=True, type=integer)
        if need_lambda:
            p.add_argument("--lambda", required=True, dest="lam",
                           help="comma-separated coweight coordinates")

    def add_caps(p):  # count and verify; fit reads --box-cap alone, the rest no cap
        p.add_argument("--interval-cap", type=budget, default=DEFAULT_INTERVAL_CAP)
        p.add_argument("--box-cap", type=budget, default=DEFAULT_BOX_CAP)
        p.add_argument("--cache-dir", default=None)

    if p := add("count", "count |<= theta(lambda)| one way", cmd_count):
        add_system_args(p, need_lambda=True)
        add_caps(p)
        p.add_argument("--method", required=True, choices=["bruhat", "lattice", "geometric"])
        p.add_argument("--coeffs", help="coefficient JSON for --method geometric")

    if p := add("fit", "fit geometric coefficients and write them to a file", cmd_fit):
        add_system_args(p)
        p.add_argument("--box-cap", type=budget, default=DEFAULT_BOX_CAP)
        p.add_argument("--out", required=True)
        p.add_argument("--force", action="store_true")

    if p := add("verify", "cross-check all three counting methods", cmd_verify):
        add_system_args(p)
        add_caps(p)
        p.add_argument("--max-coord", type=integer, default=2)

    if p := add("ehrhart", "hypersimplex Ehrhart polynomial", cmd_ehrhart):
        p.add_argument("--k", required=True, type=integer)
        p.add_argument("--d", required=True, type=integer)

    if p := add("volumes", "face volume polynomial", cmd_volumes):
        add_system_args(p)
        p.add_argument("--J", required=True, help="comma-separated indices, or 'empty'")

    if p := add("faces", "vertex data of one face (JSON for external tools)", cmd_faces):
        add_system_args(p, need_lambda=True)
        p.add_argument("--J", required=True, help="comma-separated indices, or 'empty'")

    if p := add("rootdata", "dump derived root system data", cmd_rootdata):
        add_system_args(p)
    return parser


def main(argv=None) -> int:
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        ns = _build_parser(argv[0] if argv else None).parse_args(argv)
        if "family" in ns:
            ns.system = RootSystemId(ns.family, ns.rank)  # refuses a bad family or rank
            check_rank(ns.system)  # before any argument is read against the rank
        return ns.func(ns)
    except UsageError as exc:
        return _fail(EXIT_USAGE, "usage", str(exc))
    except (ValueError,) as exc:
        return _fail(EXIT_USAGE, "invalid-input", str(exc))
    except BudgetExceededError as exc:
        return _fail(EXIT_BUDGET, "budget", str(exc))
    except FitVerificationError as exc:
        return _fail(EXIT_FIT, "fit", str(exc))
    except AlcovesError as exc:
        return _fail(EXIT_USAGE, "error", str(exc))
    except OSError as exc:
        return _fail(EXIT_USAGE, "io", str(exc))


if __name__ == "__main__":
    sys.exit(main())
