"""One-line faults in the coefficient loader, and whether the tests find them.

Each mutant is (name, file, old, new): `old` is the text of one line or of a part of
one, found exactly once in src/alcoves (tests/test_tooling.py checks that), and the
mutant puts `new` in its place in `file`, a path from the repository root.  For each
mutant the script copies the repository, without .git, to a temporary directory,
applies the mutant there and runs

    python -m pytest -x -q tests/test_cli.py tests/test_coefficients.py

in the copy.  A run that fails kills the mutant; one that passes lets it survive.  An
unmutated run goes first and must pass.  One line is printed per mutant, with its time
and the test that killed it, and the exit status is 1 if any mutant survives.  Run from anywhere:

    python tests/mutants.py [NAME ...]

Standard library only; pytest does not collect this file, as its name does not start
with test_.
"""

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TESTS = ["tests/test_cli.py", "tests/test_coefficients.py"]
CLI, COEFFICIENTS = "src/alcoves/cli.py", "src/alcoves/coefficients.py"

MUTANTS = [
    # the constructor's closed-form pins
    ("pin-empty", COEFFICIENTS, "if pairs[()] != (data.wf_order, 1):", "if False:"),
    ("pin-top", COEFFICIENTS, "if pairs[top] != (data.wf_order, 1):", "if False:"),
    ("pin-codim-1", COEFFICIENTS, "if 2 * weyl_order(data, J) * pairs[J][0] !=",
     "if False and 2 * weyl_order(data, J) * pairs[J][0] !="),
    ("pin-codim-2", COEFFICIENTS, "if (12 * p * weyl_order(data, J) * kk * ll * nl",
     "if False and (12 * p * weyl_order(data, J) * kk * ll * nl"),
    # from_json reads an object only if to_json writes it back
    ("from-json-fields", COEFFICIENTS, "if differ:", "if False:"),
    # the loader checks that the file is of the queried system
    ("system-check", CLI,
     'raise ValueError("%s holds coefficients for %s, not %s" % (path, coeffs.system, data.id))',
     "pass"),
]


def run(mutant=None) -> tuple[bool, float, str]:
    """(whether the tests pass, seconds, the failed test or else pytest's last line) on a
    copy with mutant applied."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp, "repo")
        shutil.copytree(ROOT, copy, symlinks=True, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", "*.egg-info"))
        if mutant:
            name, file, old, new = mutant
            text = (copy / file).read_text(encoding="utf-8")
            if text.count(old) != 1:
                raise SystemExit("%s: %r is not found exactly once in %s" % (name, old, file))
            (copy / file).write_text(text.replace(old, new), encoding="utf-8")
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                               *TESTS], cwd=copy, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines() or [proc.stderr.strip()]
        failed = [line.split(" - ")[0] for line in lines if line.startswith("FAILED ")]
        return proc.returncode == 0, time.perf_counter() - start, (failed or lines)[-1]


def main(names) -> int:
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        raise SystemExit("unknown mutants: %s" % ", ".join(sorted(unknown)))
    passed, seconds, last = run()
    print("%-20s %-8s %6.1f s  %s" % ("(none)", "pass" if passed else "FAIL", seconds, last),
          flush=True)
    if not passed:
        return 2
    survivors = []
    for mutant in MUTANTS:
        if names and mutant[0] not in names:
            continue
        passed, seconds, last = run(mutant)
        print("%-20s %-8s %6.1f s  %s" % (mutant[0], "SURVIVED" if passed else "killed",
                                          seconds, last), flush=True)
        if passed:
            survivors.append(mutant[0])
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
