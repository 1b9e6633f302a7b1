#!/usr/bin/env python3
"""Fast self-test of the benchmark harness (a few seconds on 2 cores).

    python3 benchmarks/selftest.py

Runs every workload on a tiny A2 grid, untraced and traced, and checks that
each metric appears by name with its unit, that the metrics BENCHMARK.json
names are the ones the last stdout line would carry, and that a deliberately
wrong reference is counted as failed.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def entry(system, lam, count):
    return {"system": system, "lambda": list(lam), "count": count}


TINY = {
    "bruhat-sweep": [entry("A2", (1, 1), 42), entry("A2", (0, 0), 6)],
    "lattice-sweep": [entry("A2", (1, 1), 42), entry("A2", (0, 0), 6)],
    "geometric-cold": [entry("A2", (1, 1), 42)],
    "probe": [entry("A2", (1, 1), 42)],
}


def tiny(wl: run.Workload) -> run.Workload:
    if wl.draw:
        return dataclasses.replace(wl, draw=("A2",), per_system=3)
    return wl


def go(wl: run.Workload, trace: bool, refs: dict) -> dict:
    return run.run_benchmark(ROOT, wl, seed=7, seconds=0.1, trace=trace, refs=refs,
                             setup_reps=1)["final"]


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit("selftest FAILED: " + what)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expect(gated == {k: u for k, u in run.END_TO_END.items() if k not in run.NOT_GATED},
           "BENCHMARK.json end_to_end differs from the gated END_TO_END metrics")
    expect(layers == run.PER_LAYER, "BENCHMARK.json per_layer differs from PER_LAYER")
    expect({w["name"] for w in bench["workloads"]} == set(run.WORKLOADS),
           "BENCHMARK.json workloads differ from WORKLOADS")

    for name, wl in run.WORKLOADS.items():
        for trace, units in ((False, run.END_TO_END), (True, run.PER_LAYER)):
            final = go(tiny(wl), trace, TINY)
            expect(final["correct"] and final["failed"] == 0 and final["attempted"] > 0,
                   "%s trace %d: %r" % (name, trace, final))
            wanted = {k: u for k, u in units.items() if k != "query_p90_ms"}
            got = {k: m["unit"] for k, m in final["metrics"].items()}
            expect(got == wanted, "%s trace %d metrics %r" % (name, trace, got))
            print("ok %-16s trace %d: %d metrics, %d attempted"
                  % (name, trace, len(got), final["attempted"]))

    wrong = dict(TINY, **{"bruhat-sweep": [entry("A2", (1, 1), 43), entry("A2", (0, 0), 6)]})
    final = go(run.WORKLOADS["bruhat-sweep"], False, wrong)
    share = final["metrics"]["failed_share"]["value"]
    expect(not final["correct"] and final["failed"] >= 1
           and share == final["failed"] / final["attempted"] > 0,
           "a wrong reference was not counted: %r" % final)
    print("ok wrong reference: failed_share %g (%d of %d)"
          % (share, final["failed"], final["attempted"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
