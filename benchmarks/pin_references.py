#!/usr/bin/env python3
"""Re-derive the pinned reference counts in references.json.

Each sweep query is counted by the route its workload times and by a
second, independent route; the script refuses to write a count the two
routes disagree on.  The second route is recorded per entry:

  bruhat      subword closure of theta(lambda)
  lattice     orbit-size sum over X_lambda
  geometric   fit_mu, then the face-volume formula
  membership  lattice_count_by_membership: every cell of the dominance box
              tested with `contains`, no dominance shortcut

The membership scans take about 0.5 ms a cell, so the full lattice sweep
runs for roughly 45 minutes on one core.  Run from the repository root:

    PYTHONPATH=src python3 benchmarks/pin_references.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from alcoves import (build_root_system, evaluate_formula, fit_mu, interval_size_lattice,
                     lattice_count_by_membership, lower_interval, theta)

OUT = Path(__file__).resolve().parent / "references.json"

# workload -> (timed route, [(system, lambda, second route)])
SWEEPS = {
    "bruhat-sweep": ("bruhat", [
        ("A3", (2, 1, 1), "lattice"),
        ("B3", (1, 1, 1), "lattice"),
        ("B3", (2, 1, 1), "lattice"),
        ("C3", (1, 1, 2), "lattice"),
        ("G2", (3, 2), "lattice"),
        ("A4", (1, 1, 1, 1), "lattice"),
        ("D4", (1, 1, 1, 1), "lattice"),
    ]),
    "geometric-cold": ("geometric", [
        ("A3", (2, 1, 1), "bruhat"),
        ("B3", (2, 1, 1), "bruhat"),
        ("C3", (1, 1, 2), "bruhat"),
        ("A4", (1, 1, 1, 1), "bruhat"),
        ("D4", (1, 1, 1, 1), "bruhat"),
        ("B4", (3, 3, 3, 3), "lattice"),
    ]),
    "lattice-sweep": ("lattice", [
        ("B4", (3, 3, 3, 3), "geometric"),
        ("C4", (3, 3, 3, 3), "geometric"),
        ("E6", (0, 1, 0, 0, 0, 1), "membership"),
        ("D5", (1, 1, 1, 1, 1), "membership"),
        ("F4", (1, 1, 1, 1), "membership"),
        ("A5", (2, 2, 2, 2, 2), "membership"),
        ("A6", (1, 1, 1, 1, 1, 1), "membership"),
        ("B5", (1, 1, 1, 1, 1), "membership"),
    ]),
}
# The calibration query of traced runs; all three routes must agree on it.
PROBE = ("A2", (1, 1))


def count(route: str, system: str, lam: tuple[int, ...]) -> int:
    data = build_root_system(system)
    if route == "bruhat":
        w, word = theta(data, lam)
        return len(lower_interval(data, w, word))
    if route == "lattice":
        return interval_size_lattice(data, lam)
    if route == "geometric":
        return evaluate_formula(data, fit_mu(data), lam)
    if route == "membership":
        return data.wf_order * lattice_count_by_membership(data, lam)
    raise ValueError("unknown route %r" % route)


def main() -> int:
    out = {}
    for name, (route, grid) in SWEEPS.items():
        rows = []
        for system, lam, second in grid:
            t0 = time.perf_counter()
            a, b = count(route, system, lam), count(second, system, lam)
            print("%s %s %s: %s %d, %s %d (%.1f s)" % (name, system, lam, route, a, second, b,
                                                      time.perf_counter() - t0), flush=True)
            if a != b:
                print("routes disagree; nothing written", file=sys.stderr)
                return 1
            rows.append({"system": system, "lambda": list(lam), "count": a,
                         "confirmed_by": second})
        out[name] = rows
    system, lam = PROBE
    counts = {route: count(route, system, lam) for route in ("bruhat", "lattice", "geometric")}
    if len(set(counts.values())) != 1:
        print("probe routes disagree: %r" % counts, file=sys.stderr)
        return 1
    out["probe"] = [{"system": system, "lambda": list(lam), "count": counts["bruhat"],
                     "confirmed_by": "bruhat,lattice,geometric"}]
    blocks = [' "%s": [\n%s\n ]' % (name, ",\n".join("  " + json.dumps(r) for r in rows))
              for name, rows in out.items()]
    OUT.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
    print("wrote", OUT)
    return 0


if __name__ == "__main__":
    sys.exit(main())
