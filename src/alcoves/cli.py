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
import sys
import time
from dataclasses import dataclass
from itertools import product
from pathlib import Path

from . import __version__
from .errors import AlcovesError, BudgetExceededError, FitVerificationError
from .affine import DEFAULT_INTERVAL_CAP, descents, lower_interval, sigma_reflection, theta
from .coefficients import (DEFAULT_SUBSET_CAP, GeometricCoefficients, evaluate_formula,
                           fit_mu, hypersimplex_ehrhart)
from .linalg import rational_to_str
from .orbits import DEFAULT_BOX_CAP, face_to_json, interval_size_lattice
from .rootdata import build_root_system
from .volumes import volume_polynomial

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_FIT = 3
EXIT_MISMATCH = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    command: str
    family: str | None = None
    rank: int | None = None
    lam: tuple[int, ...] | None = None
    method: str | None = None
    interval_cap: int = DEFAULT_INTERVAL_CAP
    box_cap: int = DEFAULT_BOX_CAP
    subset_cap: int = DEFAULT_SUBSET_CAP
    out: str | None = None
    coeffs: str | None = None
    cache_dir: str | None = None
    force: bool = False
    max_coord: int = 2

    def __post_init__(self):
        if min(self.interval_cap, self.box_cap, self.subset_cap) <= 0:
            raise UsageError("budgets must be positive")
        if self.lam is not None and any(c < 0 for c in self.lam):
            raise UsageError("lambda coordinates must be non-negative integers")
        if self.max_coord < 0:
            raise UsageError("--max-coord must be non-negative")


def _emit(payload) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")


def _fail(code: int, kind: str, message: str) -> int:
    _emit({"schema": 1, "error": {"type": kind, "message": message}})
    return code


def _parse_lambda(text: str, rank: int) -> tuple[int, ...]:
    try:
        coords = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError("lambda must be a comma-separated integer list") from None
    if len(coords) != rank:
        raise UsageError("lambda needs exactly %d coordinates" % rank)
    return coords


def _cache_dir(cfg: RunConfig) -> Path:
    if cfg.cache_dir:
        return Path(cfg.cache_dir)
    env = os.environ.get("ALCOVES_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "alcoves"


def _cache_path(cfg: RunConfig, system: str) -> Path:
    return _cache_dir(cfg) / ("coeffs-%s-v%s.json" % (system, __version__))


def _load_or_fit_coefficients(cfg: RunConfig, data) -> GeometricCoefficients:
    if cfg.coeffs:
        with open(cfg.coeffs, "r", encoding="utf-8") as fh:
            return GeometricCoefficients.from_json(json.load(fh))
    path = _cache_path(cfg, str(data.id))
    if path.exists():
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        if obj.get("version") == __version__:
            return GeometricCoefficients.from_json(obj)
    coeffs = fit_mu(data, max_subsets=cfg.subset_cap, box_cap=cfg.box_cap)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(coeffs.to_json(), fh, sort_keys=True)
        fh.write("\n")
    return coeffs


def _count_one(cfg: RunConfig, data, lam, method: str,
               coeffs: GeometricCoefficients | None = None) -> int:
    if method == "bruhat":
        w, word = theta(data, lam)
        return len(lower_interval(data, w, word, cap=cfg.interval_cap))
    if method == "lattice":
        return interval_size_lattice(data, lam, box_cap=cfg.box_cap)
    if method == "geometric":
        if coeffs is None:
            coeffs = _load_or_fit_coefficients(cfg, data)
        return evaluate_formula(data, coeffs, lam)
    raise UsageError("unknown method %r" % method)


def cmd_count(cfg: RunConfig) -> int:
    data = build_root_system(cfg.family, cfg.rank)
    start = time.perf_counter()
    count = _count_one(cfg, data, cfg.lam, cfg.method)
    elapsed = int((time.perf_counter() - start) * 1000)
    _emit({
        "schema": 1,
        "system": str(data.id),
        "lambda": list(cfg.lam),
        "method": cfg.method,
        "count": count,
        "elapsed_ms": elapsed,
    })
    return EXIT_OK


def cmd_fit(cfg: RunConfig) -> int:
    data = build_root_system(cfg.family, cfg.rank)
    out = Path(cfg.out)
    if out.exists() and not cfg.force:
        raise UsageError("refusing to overwrite %s (use --force)" % out)
    coeffs = fit_mu(data, max_subsets=cfg.subset_cap, box_cap=cfg.box_cap)
    payload = coeffs.to_json()
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")
    _emit({"schema": 1, "system": str(data.id), "written": str(out),
           "mu_prime": payload["mu_prime"]})
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    data = build_root_system(cfg.family, cfg.rank)
    coeffs = _load_or_fit_coefficients(cfg, data)
    n = data.rank
    rows = []
    mismatches = []

    def mismatch(lam):
        if list(lam) not in mismatches:
            mismatches.append(list(lam))

    for lam in product(range(cfg.max_coord + 1), repeat=n):
        w, word = theta(data, lam)
        bruhat = len(lower_interval(data, w, word, cap=cfg.interval_cap))
        lattice = interval_size_lattice(data, lam, box_cap=cfg.box_cap)
        geometric = evaluate_formula(data, coeffs, lam)
        ok = bruhat == lattice == geometric
        # descent structure of theta(lambda)
        left, right = descents(data, w)
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
            for m in range(cfg.max_coord + 1):
                lam = tuple(m if i + 1 == k else 0 for i in range(n))
                expected = math.factorial(n + 1) * poly.eval((m,))
                if interval_size_lattice(data, lam, box_cap=cfg.box_cap) != expected:
                    hypersimplex_ok = False
                    mismatch(lam)

    _emit({
        "schema": 1,
        "system": str(data.id),
        "max_coord": cfg.max_coord,
        "rows": rows,
        "hypersimplex_ok": hypersimplex_ok,
        "mismatches": mismatches,
        "ok": not mismatches,
    })
    return EXIT_OK if not mismatches else EXIT_MISMATCH


def cmd_ehrhart(cfg: RunConfig, k: int, d: int) -> int:
    if not 1 <= k <= d:
        raise UsageError("need 1 <= k <= d")
    poly = hypersimplex_ehrhart(k, d)
    _emit({
        "schema": 1,
        "k": k,
        "d": d,
        "coefficients": {key: val for key, val in poly.to_json().items()},
    })
    return EXIT_OK


def cmd_volumes(cfg: RunConfig, J: tuple[int, ...]) -> int:
    data = build_root_system(cfg.family, cfg.rank)
    if any(j < 1 or j > data.rank for j in J):
        raise UsageError("J must be a subset of 1..%d" % data.rank)
    vp = volume_polynomial(data, J)
    payload = vp.to_json()
    payload.update({"schema": 1, "system": str(data.id)})
    _emit(payload)
    return EXIT_OK


def cmd_faces(cfg: RunConfig, J: tuple[int, ...]) -> int:
    data = build_root_system(cfg.family, cfg.rank)
    if any(j < 1 or j > data.rank for j in J):
        raise UsageError("J must be a subset of 1..%d" % data.rank)
    _emit(face_to_json(data, cfg.lam, J))
    return EXIT_OK


def cmd_rootdata(cfg: RunConfig) -> int:
    data = build_root_system(cfg.family, cfg.rank)
    _emit(data.to_json())
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="alcoves", description=__doc__)
    parser.add_argument("--version", action="version", version="alcoves " + __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_system_args(p, need_lambda=False):
        p.add_argument("--type", required=True, dest="family",
                       help="root system family letter (A/B/C/D/E/F/G)")
        p.add_argument("--rank", required=True, type=int)
        if need_lambda:
            p.add_argument("--lambda", required=True, dest="lam",
                           help="comma-separated coweight coordinates")
        p.add_argument("--interval-cap", type=int, default=DEFAULT_INTERVAL_CAP)
        p.add_argument("--box-cap", type=int, default=DEFAULT_BOX_CAP)
        p.add_argument("--subset-cap", type=int, default=DEFAULT_SUBSET_CAP)
        p.add_argument("--cache-dir", default=None)

    p = sub.add_parser("count", help="count |<= theta(lambda)| one way")
    add_system_args(p, need_lambda=True)
    p.add_argument("--method", required=True, choices=["bruhat", "lattice", "geometric"])
    p.add_argument("--coeffs", help="coefficient JSON for --method geometric")

    p = sub.add_parser("fit", help="fit geometric coefficients and write them to a file")
    add_system_args(p)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("verify", help="cross-check all three counting methods")
    add_system_args(p)
    p.add_argument("--max-coord", type=int, default=2)

    p = sub.add_parser("ehrhart", help="hypersimplex Ehrhart polynomial")
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--d", required=True, type=int)

    p = sub.add_parser("volumes", help="face volume polynomial")
    add_system_args(p)
    p.add_argument("--J", required=True, help="comma-separated indices, or 'empty'")

    p = sub.add_parser("faces", help="vertex data of one face (JSON for external tools)")
    add_system_args(p, need_lambda=True)
    p.add_argument("--J", required=True, help="comma-separated indices, or 'empty'")

    p = sub.add_parser("rootdata", help="dump derived root system data")
    add_system_args(p)
    return parser


def _parse_J(text: str) -> tuple[int, ...]:
    if text in ("empty", ""):
        return ()
    try:
        return tuple(sorted(set(int(x) for x in text.split(","))))
    except ValueError:
        raise UsageError("J must be a comma-separated integer list or 'empty'") from None


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        cfg = RunConfig(
            command=ns.command,
            family=getattr(ns, "family", None),
            rank=getattr(ns, "rank", None),
            method=getattr(ns, "method", None),
            interval_cap=getattr(ns, "interval_cap", DEFAULT_INTERVAL_CAP),
            box_cap=getattr(ns, "box_cap", DEFAULT_BOX_CAP),
            subset_cap=getattr(ns, "subset_cap", DEFAULT_SUBSET_CAP),
            out=getattr(ns, "out", None),
            coeffs=getattr(ns, "coeffs", None),
            cache_dir=getattr(ns, "cache_dir", None),
            force=getattr(ns, "force", False),
            max_coord=getattr(ns, "max_coord", 2),
        )
        if cfg.family is not None:
            # validates family/rank eagerly for a clean usage error
            build_root_system(cfg.family, cfg.rank)
        if getattr(ns, "lam", None) is not None:
            cfg.lam = _parse_lambda(ns.lam, cfg.rank)
            cfg.__post_init__()
        if ns.command == "count":
            return cmd_count(cfg)
        if ns.command == "fit":
            return cmd_fit(cfg)
        if ns.command == "verify":
            return cmd_verify(cfg)
        if ns.command == "ehrhart":
            return cmd_ehrhart(cfg, ns.k, ns.d)
        if ns.command == "volumes":
            return cmd_volumes(cfg, _parse_J(ns.J))
        if ns.command == "faces":
            return cmd_faces(cfg, _parse_J(ns.J))
        if ns.command == "rootdata":
            return cmd_rootdata(cfg)
        raise UsageError("unknown command %r" % ns.command)
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


if __name__ == "__main__":
    sys.exit(main())
