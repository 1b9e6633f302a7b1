"""Command-line interface: the `alcoves` command.  `_ABOUT`, which top-level -h
prints, gives its output format and exit codes.

`count --method geometric` and `verify` take the coefficients mu'_J from
`--coeffs` (count only), else from `<system>.json` in `alcoves/data`, shipped for
each of the 31 systems that `fit` admits at the default `--box-cap`, else from
`<system>.json` under `--cache-dir`, else from a fit, stored there if `--cache-dir`
is given.  Each file is read only as `fit --out` writes it: `from_json` checks every
field.  A shipped file that fails is an error, never refitted, so a shipped system
neither fits nor writes; a defective cache file is refitted.  `fit` always fits.  A
FIFO that no process writes reads as empty.

A process loads only what its command runs.  The argv reader is one pass over
the table `_COMMANDS`, which gives argparse's namespaces and messages without
importing argparse, gettext and locale (`-h` prints its own usage text).  This
module imports `rootdata` alone of the library; each command imports its route's
modules when it runs, so a lattice count loads `orbits`, a bruhat count `affine`,
and a geometric count `volumes` and `coefficients`.

A process ends at its last write.  `run()`, the entry of `python -m alcoves.cli` and
of the `alcoves` script, calls `main()`, flushes stdout and stderr and ends with
`os._exit`, which skips the interpreter's teardown: about 6 ms of freeing modules,
most of them loaded by site hooks.  Nothing is left for teardown to do, as the
library registers no atexit handler, starts no thread and closes every file it
writes before `main` returns.  `main()` itself returns its exit code, so library
callers are unaffected, and an uncaught exception still prints its traceback.  A
stdout that is closed or cannot be written or flushed ends with exit 1 and one JSON
error of type "io" on stderr.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import re
import sys
import time
from itertools import product
from pathlib import Path
from types import SimpleNamespace

from . import __version__
from .errors import (DEFAULT_BOX_CAP, DEFAULT_INTERVAL_CAP, AlcovesError, BudgetExceededError,
                     FitVerificationError)
from .rootdata import (RootSystemId, build_root_system, check_rank, dominant_coweight,
                       simple_subset)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_FIT = 3
EXIT_MISMATCH = 4
# what top-level -h prints between its usage line and the command list
_ABOUT = """\
All output is JSON on stdout with sorted keys, so identical inputs yield
identical bytes (the `elapsed_ms` field of `count` is the one run-dependent
value).  Exit codes: 0 success, 1 usage or invalid input, 2 budget
exceeded, 3 fit verification failure, 4 verification mismatch.
"""

# `fit --out` of each system that fit_mu admits at the default box cap, as
# "<system>.json"; found beside this module, since importlib.resources would
# import typing, tempfile and zipfile into every query
DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


# hypersimplex_ehrhart(k, d) multiplies out k products of d-1 linear factors, about
# k*d^2 big-integer steps: on a 2-core machine 2.2 s for k=1, d=1414 at this cap
EHRHART_BUDGET = 2_000_000
# r_J has up to C(2|J|-1, |J|) monomials, 92 378 at |J| = 10 and 352 716 at |J| = 11:
# on a 2-core machine a full J took 8.6 s on D9 and 32 s on A10, but 238 s and 519 MB on A11
MAX_VOLUME_INDICES = 10


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
    """The type of the caps.  A non-positive value raises UsageError, whose message
    reaches the JSON error without the "argument --X:" prefix of a bad integer."""
    value = integer(text)
    if value <= 0:
        raise UsageError("budgets must be positive")
    return value


class _StdoutError(Exception):
    """stdout is closed, or a write to it or its flush failed.  It is no OSError, so that
    main's handlers, which print to stdout, let it pass to run()."""


def _write(text: str, flush: bool = False) -> None:
    if sys.stdout is None:  # the process started with fd 1 closed
        raise _StdoutError("stdout is closed")
    try:
        sys.stdout.write(text)
        if flush:
            sys.stdout.flush()
    except OSError as exc:
        raise _StdoutError("stdout: %s" % exc) from None


def _emit(payload) -> None:
    _write(json.dumps(payload, sort_keys=True) + "\n")


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


def _read_coefficients(path: Path, data) -> GeometricCoefficients:
    """The coefficients in a file as `fit --out` writes it for data's system, else ValueError."""
    from .coefficients import MAX_FILE_BYTES, GeometricCoefficients
    # opened without blocking, so a FIFO that no process writes reads as empty, not
    # forever; then read blocking, so a pipe whose writer is slow is read whole
    with open(path, "rb", opener=lambda name, flags: os.open(name, flags | os.O_NONBLOCK)) as fh:
        os.set_blocking(fh.fileno(), True)
        raw = fh.read(MAX_FILE_BYTES + 1)
    if len(raw) > MAX_FILE_BYTES:
        raise ValueError("%s exceeds %d bytes, the most a coefficient file may have"
                         % (path, MAX_FILE_BYTES))
    try:
        obj = json.loads(raw.decode("utf-8"))
    except RecursionError:
        raise ValueError("%s is nested too deeply to be a coefficient file" % path) from None
    coeffs = GeometricCoefficients.from_json(obj)
    if coeffs.system != data.id:
        raise ValueError("%s holds coefficients for %s, not %s" % (path, coeffs.system, data.id))
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


def _coefficients(ns, data) -> GeometricCoefficients:
    """The shipped coefficients of data's system, else those under --cache-dir, else a fit,
    stored there if --cache-dir is given.  A shipped file that fails a check raises
    ValueError: it is neither refitted nor summed.  A defective cache file is refitted."""
    from .coefficients import fit_mu
    shipped = Path(DATA_DIR, "%s.json" % data.id)
    with contextlib.suppress(FileNotFoundError):
        return _read_coefficients(shipped, data)
    if not ns.cache_dir:
        return fit_mu(data, box_cap=ns.box_cap)
    path = Path(ns.cache_dir, shipped.name)
    with contextlib.suppress(FileNotFoundError, ValueError):
        return _read_coefficients(path, data)
    coeffs = fit_mu(data, box_cap=ns.box_cap)
    _write_coefficients(path, coeffs)
    return coeffs


def cmd_count(ns) -> int:
    lam = _parse_lambda(ns.lam, ns.rank)
    if ns.method == "bruhat":
        from .affine import interval_size_bruhat

        def route(data):
            return interval_size_bruhat(data, lam, cap=ns.interval_cap)
    elif ns.method == "lattice":
        from .orbits import interval_size_lattice

        def route(data):
            return interval_size_lattice(data, lam, box_cap=ns.box_cap)
    else:
        from .coefficients import evaluate_formula
        from .volumes import check_subset_cap
        check_subset_cap(ns.system, ns.rank)  # a --coeffs file too needs the 2^n-subset table

        def route(data):
            coeffs = (_read_coefficients(Path(ns.coeffs), data) if ns.coeffs
                      else _coefficients(ns, data))
            return evaluate_formula(data, coeffs, lam)
    data = build_root_system(ns.system)
    start = time.perf_counter()  # after the imports, so that it times the count alone
    count = route(data)
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
    from .coefficients import fit_mu
    from .volumes import check_subset_cap
    out = Path(ns.out)
    if out.is_dir():
        raise UsageError("--out %s is a directory" % out)
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
    from .affine import descents, interval_size_bruhat, sigma_reflection, theta
    from .coefficients import evaluate_formula, hypersimplex_ehrhart
    from .orbits import interval_size_lattice
    from .volumes import check_subset_cap
    if ns.max_coord < 0:
        raise UsageError("--max-coord must be non-negative")
    check_subset_cap(ns.system, ns.rank)
    data = build_root_system(ns.system)
    # interval sizes grow with lambda in each coordinate, and each cap refuses exactly
    # when the size it bounds exceeds it: the last row decides every refusal up front.
    # |W_f|, the size at 0, refuses E7 and E8 before any count
    top = (ns.max_coord,) * data.rank
    if (data.wf_order > ns.interval_cap
            or (size := interval_size_lattice(data, top, box_cap=ns.box_cap)) > ns.interval_cap):
        raise BudgetExceededError("lower interval exceeds cap of %d elements" % ns.interval_cap)
    coeffs = _coefficients(ns, data)
    n = data.rank
    rows = []
    lattice = {top: size}  # each row counted once, the last row by the cap check
    mismatches = {}  # the lambdas of failed checks, each once, in order

    for lam in product(range(ns.max_coord + 1), repeat=n):
        bruhat = interval_size_bruhat(data, lam, cap=ns.interval_cap)
        if lam not in lattice:
            lattice[lam] = interval_size_lattice(data, lam, box_cap=ns.box_cap)
        geometric = evaluate_formula(data, coeffs, lam)
        ok = bruhat == lattice[lam] == geometric
        # descent structure of theta(lambda)
        left, right = descents(data, theta(data, lam)[0])
        sigma = sigma_reflection(data, lam)
        expected_right = set(range(n + 1)) - {sigma}
        descent_ok = set(range(1, n + 1)) <= left and expected_right <= right
        if not (ok and descent_ok):
            mismatches[lam] = None
        rows.append({
            "lambda": list(lam),
            "bruhat": bruhat,
            "lattice": lattice[lam],
            "geometric": geometric,
            "descents_ok": descent_ok,
            "ok": ok and descent_ok,
        })

    hypersimplex_ok = True
    if data.family == "A":  # each m w_k^v, m <= max_coord, is a row
        for k in range(1, n + 1):
            poly = hypersimplex_ehrhart(k, n + 1)
            for m in range(ns.max_coord + 1):
                lam = tuple(m if i + 1 == k else 0 for i in range(n))
                if lattice[lam] != math.factorial(n + 1) * poly.eval((m,)):
                    hypersimplex_ok = False
                    mismatches[lam] = None

    _emit({
        "schema": 1,
        "system": str(data.id),
        "max_coord": ns.max_coord,
        "rows": rows,
        "hypersimplex_ok": hypersimplex_ok,
        "mismatches": [list(lam) for lam in mismatches],
        "ok": not mismatches,
    })
    return EXIT_OK if not mismatches else EXIT_MISMATCH


def cmd_ehrhart(ns) -> int:
    from .coefficients import hypersimplex_ehrhart
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
    from .volumes import check_subset_cap, volume_polynomial
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
    from .orbits import face_to_json
    lam = _parse_lambda(ns.lam, ns.rank)
    J = _parse_J(ns.J, ns.rank)
    data = build_root_system(ns.system)
    _emit(face_to_json(data, lam, J))
    return EXIT_OK


def cmd_rootdata(ns) -> int:
    data = build_root_system(ns.system)
    _emit(data.to_json())
    return EXIT_OK


_REQUIRED = object()  # the default of an option that must be given
_SYSTEM = (("--type", "family", str, _REQUIRED), ("--rank", "rank", integer, _REQUIRED))
_LAMBDA = (("--lambda", "lam", str, _REQUIRED),)
_J = (("--J", "J", str, _REQUIRED),)
_BOX_CAP = (("--box-cap", "box_cap", budget, DEFAULT_BOX_CAP),)
_CAPS = ((("--interval-cap", "interval_cap", budget, DEFAULT_INTERVAL_CAP),) + _BOX_CAP
         + (("--cache-dir", "cache_dir", str, None),))  # count and verify; fit reads --box-cap

# each command's function, help and options in the order their usage lists them.  An
# option is (flag, dest, type, default): type str, integer or budget reads one value, a
# tuple of choices one of them, and bool makes a flag that stores True
_COMMANDS = {
    "count": (cmd_count, "count |<= theta(lambda)| one way", _SYSTEM + _LAMBDA + _CAPS + (
        ("--method", "method", ("bruhat", "lattice", "geometric"), _REQUIRED),
        ("--coeffs", "coeffs", str, None))),
    "fit": (cmd_fit, "fit geometric coefficients and write them to a file", _SYSTEM + _BOX_CAP
            + (("--out", "out", str, _REQUIRED), ("--force", "force", bool, False))),
    "verify": (cmd_verify, "cross-check all three counting methods",
               _SYSTEM + _CAPS + (("--max-coord", "max_coord", integer, 2),)),
    "ehrhart": (cmd_ehrhart, "hypersimplex Ehrhart polynomial",
                (("--k", "k", integer, _REQUIRED), ("--d", "d", integer, _REQUIRED))),
    "volumes": (cmd_volumes, "face volume polynomial", _SYSTEM + _J),
    "faces": (cmd_faces, "vertex data of one face (JSON for external tools)",
              _SYSTEM + _LAMBDA + _J),
    "rootdata": (cmd_rootdata, "dump derived root system data", _SYSTEM),
}
_HELP = ("-h/--help", "help", bool, False)  # named in messages as argparse names it
_VERSION = ("--version", "version", bool, False)


def _usage(command: str | None) -> str:
    """The text -h prints: of the top level, or of one command."""
    if command is None:
        return "usage: alcoves [-h] [--version] {%s} ...\n\n%s\ncommands:\n%s" % (
            ",".join(_COMMANDS), _ABOUT, "".join("  %-9s %s\n" % (name, text)
                                                 for name, (_, text, _) in _COMMANDS.items()))
    _, text, options = _COMMANDS[command]
    words = []
    for flag, dest, kind, default in options:
        word = flag if kind is bool else "%s %s" % (
            flag, "{%s}" % ",".join(kind) if isinstance(kind, tuple) else dest.upper())
        words.append(word if default is _REQUIRED else "[%s]" % word)
    return "usage: alcoves %s [-h] %s\n\n%s\n" % (command, " ".join(words), text)


def _option(arg: str, flags: dict):
    """What argparse makes of arg among flags: None for a value, else (flag, the text after
    "=" or None), flag "" for an unknown option.  A flag may be abbreviated to a unique
    prefix; an arg that starts '-<digit>' or holds a space is a value, so --lambda -1,1
    reaches the CLI's own check."""
    if arg[:1] != "-" or arg == "-":
        return None
    if arg in flags:
        return arg, None
    head, eq, value = arg.partition("=")
    if eq and head in flags:
        return head, value
    if arg[1] == "-":
        found = [(flag, value if eq else None) for flag in flags if flag.startswith(head)]
    else:  # a one-letter flag takes the rest of arg as its value
        found = [(flag, arg[2:]) for flag in flags if flag == arg[:2]]
    if len(found) > 1:
        raise UsageError("ambiguous option: %s could match %s"
                         % (arg, ", ".join(flag for flag, _ in found)))
    if found:
        return found[0]
    return None if "0" <= arg[1] <= "9" or " " in arg else ("", None)


def _walk(args: list[str], command: str | None):
    """argparse's pass over args for one command, or for the top level (command None),
    which stops at the command name: (the values read by dest, the args no option
    read, where the walk stopped).  Every arg is classified first, up to a "--" after
    which each is a value.  Unlike argparse, --X=-- gives X the value "--"."""
    options = _COMMANDS[command][2] if command else (_VERSION,)
    flags = {"-h": _HELP, "--help": _HELP, **{option[0]: option for option in options}}
    kinds = []
    for i, arg in enumerate(args):
        if arg == "--":
            kinds += ["--"] + [None] * (len(args) - i - 1)
            break
        kinds.append(_option(arg, flags))
    values, extras, i = {}, [], 0
    while i < len(args):
        kind = kinds[i]
        if command is None and (kind is None or kind == "--" and i + 1 < len(args)):
            break  # the command name, or "--" taken as one
        i += 1
        if not isinstance(kind, tuple) or not kind[0]:
            extras.append(args[i - 1])
            continue
        (name, dest, convert, _), given = flags[kind[0]], kind[1]
        if convert is bool:
            if kind[0] == "-h" and given:  # -hh is -h twice
                given = given.lstrip("h") or None
            if given is not None:
                raise UsageError("argument %s: ignored explicit argument %r" % (name, given))
            if dest in ("help", "version"):
                _write(_usage(command) if dest == "help" else "alcoves %s\n" % __version__)
                raise SystemExit(0)
            values[dest] = True
            continue
        if given is None:
            if i == len(args) or kinds[i] is not None:
                raise UsageError("argument %s: expected one argument" % name)
            given, i = args[i], i + 1
        if isinstance(convert, tuple) and given not in convert:
            raise UsageError("argument %s: invalid choice: %r (choose from %s)"
                             % (name, given, ", ".join(map(repr, convert))))
        try:
            values[dest] = given if isinstance(convert, tuple) else convert(given)
        except ValueError:
            raise UsageError("argument %s: invalid %s value: %r"
                             % (name, convert.__name__, given)) from None
    return values, extras, i


def _read(argv: list[str]) -> SimpleNamespace:
    """The namespace argparse gave for argv, with its usage messages as UsageError."""
    _, extras, at = _walk(argv, None)
    if at == len(argv):
        raise UsageError("the following arguments are required: command")
    command = argv[at]
    if command not in _COMMANDS:
        raise UsageError("argument command: invalid choice: %r (choose from %s)"
                         % (command, ", ".join(map(repr, _COMMANDS))))
    options = _COMMANDS[command][2]
    values, more, _ = _walk(argv[at + 1:], command)
    missing = [flag for flag, dest, _, default in options
               if default is _REQUIRED and dest not in values]
    if missing:
        raise UsageError("the following arguments are required: %s" % ", ".join(missing))
    if extras + more:
        raise UsageError("unrecognized arguments: %s" % " ".join(extras + more))
    return SimpleNamespace(command=command, **{dest: values.get(dest, default)
                                               for _, dest, _, default in options})


def main(argv=None) -> int:
    """Run one command: its exit code, or SystemExit(0) after -h or --version.  An
    unwritable stdout raises _StdoutError."""
    try:
        ns = _read(sys.argv[1:] if argv is None else list(argv))
        if hasattr(ns, "family"):
            ns.system = RootSystemId(ns.family, ns.rank)  # refuses a bad family or rank
            check_rank(ns.system)  # before any argument is read against the rank
        return _COMMANDS[ns.command][0](ns)
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


def run() -> None:
    """The process entry: main(), then flush and os._exit(code), skipping teardown."""
    error = None
    try:
        try:
            code = main()
        except SystemExit as exc:  # -h and --version, after their text
            code = exc.code
        _write("", flush=True)
    except _StdoutError as exc:
        code, error = EXIT_USAGE, {"schema": 1, "error": {"type": "io", "message": str(exc)}}
    if sys.stderr is not None:  # fd 2 may be closed, or unwritable too
        with contextlib.suppress(OSError):
            if error:
                sys.stderr.write(json.dumps(error, sort_keys=True) + "\n")
            sys.stderr.flush()
    os._exit(code)

if __name__ == "__main__":
    run()
