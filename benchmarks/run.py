#!/usr/bin/env python3
"""End-to-end benchmark of the `alcoves` command line.

    python3 benchmarks/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the program is `src/alcoves`,
started as `python3 -m alcoves.cli` with `src` first on PYTHONPATH.  Each
query is one fresh `alcoves count` process.  The loop is closed, with one
client and one query process at a time, and each printed count is checked
against a reference.  A run measures whole passes over the workload's query
list for about S seconds, always at least one pass.

--trace 0 reports the end-to-end metrics.  --trace 1 makes one untraced
pass and one traced pass.  In the traced pass, benchmarks/traced_query.py
replaces the CLI process and records a span around each layer call.  The
traced run reports the per-layer metrics and writes the spans to a file.
The last line of stdout is one JSON object {correct, attempted, failed,
metrics}.  `--workload all` runs each workload in turn and prints a summary
and such a line for each.  Full results go to .bench_work/<run>/results.json.
See benchmarks/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCES = BENCH_DIR / "references.json"
TRACED_QUERY = BENCH_DIR / "traced_query.py"

SETUP_REPS = 3          # setup_s is the median of this many set-ups
STARTUP_REPS = 5        # `alcoves --version` processes behind cli.startup_ms
QUERY_TIMEOUT_S = 100   # a query process is killed after this long
DEADLINE_S = 150        # no query starts later than this into a run
P90_MIN_QUERIES = 100   # query_p90_ms needs at least ten samples above it
MAX_COORD = 3           # largest coordinate of a drawn lambda

END_TO_END = {          # name -> unit
    "wall_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "failed_share": "ratio",
    "setup_s": "s",
}
# Printed, but left out of the last line: failed_share is 0 whenever the program
# is right (`failed` and `attempted` carry it there), and query_p90_ms exists
# only on workloads of at least P90_MIN_QUERIES queries.
NOT_GATED = ("failed_share", "query_p90_ms")
PER_LAYER = {
    "rootdata.build_ms": "ms",
    "affine.theta_ms": "ms",
    "affine.word_len": "count",
    "affine.closure_s": "s",
    "affine.interval_elems": "count",
    "orbits.enumerate_X_s": "s",
    "orbits.box_cells": "count",
    "orbits.X_size": "count",
    "orbits.hit_ratio": "ratio",
    "orbits.orbit_sum_ms": "ms",
    "volumes.poly_ms": "ms",
    "volumes.poly_terms": "count",
    "coefficients.fit_s": "s",
    "coefficients.subsets": "count",
    "coefficients.load_ms": "ms",
    "coefficients.eval_ms": "ms",
    "cli.startup_ms": "ms",
    "cli.overhead_ms": "ms",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Workload:
    name: str
    method: str
    why: str
    cache: str = ""                   # geometric only: "fresh" gives each query an
                                      # empty cache dir, "prefit" one filled in set-up
    draw: tuple[str, ...] = ()        # systems whose lambdas the seed draws,
    per_system: int = 0               # each coordinate from 0..MAX_COORD


WORKLOADS = {wl.name: wl for wl in (
    Workload("bruhat-sweep", "bruhat",
             "subword closure on A3-D4: the affine layer does the work, orbits none"),
    Workload("lattice-sweep", "lattice",
             "dominance-box scans of 1.2e5-2.4e6 cells on ranks 4-6: orbits does the work"),
    Workload("geometric-cold", "geometric",
             "an empty cache per query, so each query fits, stores and evaluates",
             cache="fresh"),
    Workload("geometric-warm", "geometric",
             "200 cache reads on eight systems: startup, rootdata, load and evaluation",
             cache="prefit", draw=("A2", "B2", "G2", "A3", "B3", "C3", "A4", "D4"),
             per_system=25),
)}


@dataclass(frozen=True)
class Query:
    system: str
    lam: tuple[int, ...]
    method: str
    ref: int

    def cli_args(self, cache_dir: Path | None) -> list[str]:
        args = ["count", "--type", self.system[0], "--rank", self.system[1:],
                "--lambda", ",".join(map(str, self.lam)), "--method", self.method]
        if cache_dir is not None:
            args += ["--cache-dir", str(cache_dir)]
        return args


@dataclass
class Outcome:
    query: Query
    wall_s: float
    rss_mb: float
    count: int | None = None
    error: str | None = None          # None when the count matched the reference


class SetupError(Exception):
    pass


@dataclass
class Context:
    """Where one run works, and how it starts the program."""

    root: Path                        # the checkout the program is built from
    work: Path                        # this run's directory under .bench_work
    env: dict[str, str]
    started: float = field(default_factory=time.perf_counter)

    def python(self, *args: str) -> list[str]:
        return [sys.executable, *args]

    def cli(self, *args: str) -> list[str]:
        return self.python("-m", "alcoves.cli", *args)

    def late(self) -> bool:
        return time.perf_counter() - self.started > DEADLINE_S


# -- processes ---------------------------------------------------------------------

def run_process(ctx: Context, argv: list[str]) -> tuple[float, float, int, str]:
    """Run one process to completion: (wall s, max RSS MB, exit code, output)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            env=ctx.env, cwd=ctx.root)
    timer = threading.Timer(QUERY_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - start
    return wall, usage.ru_maxrss / 1024, proc.returncode, out.decode(errors="replace")


def last_json(text: str):
    lines = text.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check(query: Query, code: int, text: str, echo: bool) -> tuple[int | None, str | None]:
    """The printed count, and why it fails (None if it matches the reference)."""
    obj = last_json(text)
    if code != 0:
        return None, "exit %d: %s" % (code, text.strip()[-300:])
    if not isinstance(obj, dict):
        return None, "no JSON object on the last line"
    if "error" in obj:
        return None, "JSON error: %s" % json.dumps(obj["error"])
    count = obj.get("count")
    if echo and (obj.get("system") != query.system or obj.get("lambda") != list(query.lam)):
        return count, "echoed %s %s" % (obj.get("system"), obj.get("lambda"))
    if count != query.ref:
        return count, "count %r != reference %d" % (count, query.ref)
    return count, None


def run_query(ctx: Context, query: Query, cache_dir: Path | None) -> Outcome:
    if ctx.late():
        return Outcome(query, 0.0, 0.0, error="not run: past the %d s deadline" % DEADLINE_S)
    wall, rss, code, text = run_process(ctx, ctx.cli(*query.cli_args(cache_dir)))
    count, error = check(query, code, text, echo=True)
    return Outcome(query, wall, rss, count, error)


# -- workloads, references and set-up ----------------------------------------------

def load_references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def make_queries(wl: Workload, seed: int, refs: dict, reference) -> list[Query]:
    """The seed permutes the pinned sweeps and draws the warm lambdas."""
    rng = random.Random(seed)
    if wl.draw:
        picks = [(s, tuple(rng.randint(0, MAX_COORD) for _ in range(int(s[1:]))))
                 for s in wl.draw for _ in range(wl.per_system)]
        queries = [Query(s, lam, wl.method, reference(s, lam)) for s, lam in picks]
    else:
        queries = [Query(r["system"], tuple(r["lambda"]), wl.method, r["count"])
                   for r in refs[wl.name]]
    rng.shuffle(queries)
    return queries


def systems_of(queries: list[Query]) -> list[str]:
    return sorted({q.system for q in queries})


def prefit_queries(wl: Workload, queries: list[Query], build) -> list[Query]:
    """The queries that fill a warm cache: lambda = 0, whose count is |W_f|."""
    if wl.cache != "prefit":
        return []
    return [Query(s, (0,) * int(s[1:]), wl.method, build(s).wf_order) for s in systems_of(queries)]


def setup(ctx: Context, queries: list[Query], prefits: list[Query], where: Path) -> float:
    """Set-up before the first query, returning its wall time: `alcoves rootdata`
    once per system, then the warm pre-fit."""
    start = time.perf_counter()
    for system in systems_of(queries):
        code, text = run_process(
            ctx, ctx.cli("rootdata", "--type", system[0], "--rank", system[1:]))[-2:]
        if code != 0:
            raise SetupError("rootdata %s failed: %s" % (system, text.strip()[-300:]))
    for q in prefits:
        code, text = run_process(ctx, ctx.cli(*q.cli_args(where / q.system)))[-2:]
        _, error = check(q, code, text, echo=True)
        if error:
            raise SetupError("pre-fit %s failed: %s" % (q.system, error))
    return time.perf_counter() - start


def cache_dir_for(ctx: Context, wl: Workload, prefit: Path, label: str, q: Query) -> Path | None:
    if wl.cache == "prefit":
        return prefit / q.system
    if wl.cache == "fresh":
        return ctx.work / "tmp" / "fresh" / label
    return None


def cli_pass(ctx: Context, wl: Workload, queries: list[Query], prefit: Path,
             tag: str) -> tuple[float, list[Outcome]]:
    start = time.perf_counter()
    outs = [run_query(ctx, q, cache_dir_for(ctx, wl, prefit, "%s-%d" % (tag, i), q))
            for i, q in enumerate(queries)]
    return time.perf_counter() - start, outs


def measure(ctx: Context, wl: Workload, queries: list[Query], prefit: Path,
            seconds: float) -> list[tuple[float, list[Outcome]]]:
    """Whole passes while the next one should still end within `seconds`."""
    start = time.perf_counter()
    passes = []
    while True:
        passes.append(cli_pass(ctx, wl, queries, prefit, "p%d" % len(passes)))
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds or ctx.late():
            return passes


# -- metrics -------------------------------------------------------------------------

def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, as statistics.quantiles(n=100) cuts it."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(passes, setups: list[float], outcomes: list[Outcome]) -> dict[str, float]:
    walls = [o.wall_s for o in outcomes if o.wall_s > 0]
    failed = sum(o.error is not None for o in outcomes)
    metrics = {
        "wall_s": statistics.median(p[0] for p in passes),
        "query_p50_ms": 1e3 * statistics.median(walls) if walls else 0.0,
        "query_p90_ms": 1e3 * percentile(walls, 90) if len(walls) >= P90_MIN_QUERIES else None,
        "peak_rss_mb": max((o.rss_mb for o in outcomes), default=0.0),
        "failed_share": failed / len(outcomes),
        "setup_s": statistics.median(setups),
    }
    return {k: v for k, v in metrics.items() if v is not None}


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Totals over every span of the traced pass, its pre-fit and the probe."""
    by_name: dict[str, list[dict]] = {}
    child_time: dict[str, float] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
        child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]

    def busy(name):
        return sum(s["end"] - s["start"] for s in by_name.get(name, ()))

    def self_time(name):
        return sum(s["end"] - s["start"] - child_time.get(s["id"], 0.0)
                   for s in by_name.get(name, ()))

    def total(name, key):
        return sum(s["counts"].get(key, 0) for s in by_name.get(name, ()))

    cells = total("orbits.enumerate_X", "box_cells")
    x_size = total("orbits.enumerate_X", "X_size")
    return {
        "rootdata.build_ms": 1e3 * busy("rootdata.build_root_system"),
        "affine.theta_ms": 1e3 * busy("affine.theta"),
        "affine.word_len": total("affine.theta", "word_len"),
        "affine.closure_s": busy("affine.lower_interval"),
        "affine.interval_elems": total("affine.lower_interval", "interval_elems"),
        "orbits.enumerate_X_s": busy("orbits.enumerate_X"),
        "orbits.box_cells": cells,
        "orbits.X_size": x_size,
        "orbits.hit_ratio": x_size / cells if cells else 0.0,
        "orbits.orbit_sum_ms": 1e3 * self_time("orbits.lattice_count"),
        "volumes.poly_ms": 1e3 * busy("volumes.volume_polynomial"),
        "volumes.poly_terms": total("volumes.volume_polynomial", "poly_terms"),
        "coefficients.fit_s": busy("coefficients.fit_mu"),
        "coefficients.subsets": total("coefficients.fit_mu", "subsets"),
        "coefficients.load_ms": 1e3 * busy("coefficients.from_json"),
        "coefficients.eval_ms": 1e3 * busy("coefficients.evaluate_formula"),
    }


# -- the traced run ---------------------------------------------------------------------

def traced_query(ctx: Context, qid: str, query: Query, cache_dir: Path,
                 spans: list[dict]) -> Outcome:
    """One traced_query.py process; its spans hang under a `query` span."""
    if ctx.late():
        return Outcome(query, 0.0, 0.0, error="not run: past the %d s deadline" % DEADLINE_S)
    argv = ctx.python(str(TRACED_QUERY), qid, query.method, query.system,
                      ",".join(map(str, query.lam)), str(cache_dir))
    start = time.perf_counter()
    wall, rss, code, text = run_process(ctx, argv)
    count, error = check(query, code, text, echo=False)
    spans.append({"id": qid, "name": "query", "start": start, "end": start + wall,
                  "parent": None, "query": qid, "counts": {},
                  "args": {"system": query.system, "lambda": list(query.lam),
                           "method": query.method}})
    if error is None:
        spans.extend(last_json(text)["spans"])
    return Outcome(query, wall, rss, count, error)


def traced_run(ctx: Context, wl: Workload, queries: list[Query], prefits: list[Query],
               prefit: Path, probe: Query) -> tuple[dict, list[Outcome], list[dict]]:
    untraced_wall, untraced = cli_pass(ctx, wl, queries, prefit, "u")
    spans: list[dict] = []
    tmp = ctx.work / "tmp"
    outcomes = list(untraced)
    for q in prefits:                    # the set-up fit, traced into empty dirs
        outcomes.append(traced_query(ctx, "prefit-" + q.system, q,
                                     tmp / "traced-prefit" / q.system, spans))
    start = time.perf_counter()
    for i, q in enumerate(queries):
        where = cache_dir_for(ctx, wl, prefit, "t-%d" % i, q) or tmp / "cache"
        outcomes.append(traced_query(ctx, "t-%d" % i, q, where, spans))
    traced_wall = time.perf_counter() - start
    outcomes.append(traced_query(ctx, "probe", probe, tmp / "probe", spans))
    startups = [run_process(ctx, ctx.cli("--version")) for _ in range(STARTUP_REPS)]
    if any(code != 0 for _, _, code, _ in startups):
        raise SetupError("alcoves --version failed")

    in_process: dict[str, float] = {}
    for s in spans:
        if s["parent"] == s["query"]:
            in_process[s["query"]] = in_process.get(s["query"], 0.0) + s["end"] - s["start"]
    overheads = [u.wall_s - in_process["t-%d" % i]
                 for i, u in enumerate(untraced) if u.error is None and "t-%d" % i in in_process]
    metrics = layer_metrics(spans)
    metrics["cli.startup_ms"] = 1e3 * statistics.median(w for w, _, _, _ in startups)
    metrics["cli.overhead_ms"] = 1e3 * statistics.median(overheads) if overheads else 0.0
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    return metrics, outcomes, spans


# -- environment and output -----------------------------------------------------------

def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(root: Path, version: str) -> dict:
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "commit": git_commit(root), "alcoves": version}


def fmt(value: float) -> str:
    return "%d" % value if float(value).is_integer() else "%.6g" % value


# -- one benchmark run ---------------------------------------------------------------------

def run_benchmark(root: Path, wl: Workload, seed: int, seconds: float, trace: bool,
                  refs: dict, setup_reps: int = SETUP_REPS) -> dict:
    """Run one workload; returns the results, `final` being the last stdout line."""
    src = root / "src"
    if not (src / "alcoves" / "cli.py").is_file():
        raise SetupError("no program at %s: run from the root of an alcoves checkout" % src)
    sys.path.insert(0, str(src))
    import alcoves
    from alcoves import build_root_system, interval_size_lattice
    if Path(alcoves.__file__).resolve().parent != (src / "alcoves").resolve():
        raise SetupError("imported alcoves from %s, not from %s" % (alcoves.__file__, src))

    work = root / ".bench_work" / ("%s-seed%d-trace%d-%d" % (wl.name, seed, trace, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    # Bytecode is cached, as for an installed package, even where the caller's
    # environment sets PYTHONDONTWRITEBYTECODE; otherwise every query process
    # would recompile the whole package before its first line runs.
    env = dict(os.environ, ALCOVES_CACHE_DIR=str(work / "tmp" / "cache"),
               PYTHONPYCACHEPREFIX=str(root / ".bench_work" / "pycache"),
               PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    ctx = Context(root, work, env)
    try:
        # references are computed before set-up, so setup_s excludes them
        queries = make_queries(wl, seed, refs,
                               lambda s, lam: interval_size_lattice(build_root_system(s), lam))
        prefits = prefit_queries(wl, queries, build_root_system)
        setups = []
        for rep in range(setup_reps):
            prefit = work / "tmp" / ("setup%d" % rep)
            setups.append(setup(ctx, queries, prefits, prefit))
        spans: list[dict] = []
        passes: list = []
        if trace:
            p = refs["probe"][0]
            probe = Query(p["system"], tuple(p["lambda"]), "probe", p["count"])
            metrics, outcomes, spans = traced_run(ctx, wl, queries, prefits, prefit, probe)
            units = PER_LAYER
        else:
            passes = measure(ctx, wl, queries, prefit, seconds)
            outcomes = [o for _, pass_outs in passes for o in pass_outs]
            metrics = end_to_end(passes, setups, outcomes)
            units = END_TO_END
    finally:
        shutil.rmtree(work / "tmp", ignore_errors=True)

    failed = [o for o in outcomes if o.error is not None]
    final = {"correct": not failed, "attempted": len(outcomes), "failed": len(failed),
             "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    results = {
        "workload": wl.name, "why": wl.why, "seed": seed, "seconds": seconds,
        "trace": int(trace), "environment": environment(root, alcoves.__version__),
        "queries_per_pass": len(queries), "passes": len(passes),
        "outcomes": [{"system": o.query.system, "lambda": list(o.query.lam),
                      "method": o.query.method, "count": o.count, "reference": o.query.ref,
                      "wall_ms": 1e3 * o.wall_s, "rss_mb": o.rss_mb, "error": o.error}
                     for o in outcomes],
        "setup_s_each": setups, "final": final,
    }
    (work / "results.json").write_text(json.dumps(results, indent=1) + "\n")
    if trace:
        with open(work / "spans.jsonl", "w", encoding="utf-8") as fh:
            for s in spans:
                fh.write(json.dumps(s) + "\n")
        results["spans_file"] = str((work / "spans.jsonl").relative_to(root))
    results["results_file"] = str((work / "results.json").relative_to(root))
    return results


def summary(results: dict) -> list[str]:
    final, env = results["final"], results["environment"]
    lines = ["# workload %s, seed %d, trace %d, %d queries a pass: %s" % (
                 results["workload"], results["seed"], results["trace"],
                 results["queries_per_pass"], results["why"]),
             "# python %s, nproc %d, commit %s, alcoves %s" % (
                 env["python"], env["nproc"], env["commit"], env["alcoves"])]
    for name, m in final["metrics"].items():
        lines.append("%-24s %14s %s" % (name, fmt(m["value"]), m["unit"]))
    passes = ("one untraced and one traced pass" if results["trace"]
              else "%d timed passes" % results["passes"])
    lines.append("# %d attempted, %d failed, %s; set-ups %s s" % (
        final["attempted"], final["failed"], passes,
        ", ".join("%.3f" % s for s in results["setup_s_each"])))
    failures = [o for o in results["outcomes"] if o["error"] is not None]
    for o in failures[:10]:
        lines.append("# FAILED %s %s %s: %s" % (o["method"], o["system"], o["lambda"], o["error"]))
    for key in ("results_file", "spans_file"):
        if key in results:
            lines.append("# %s: %s" % (key.replace("_", " "), results[key]))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or `all` to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            results = run_benchmark(Path.cwd(), WORKLOADS[name], args.seed,
                                    args.seconds, bool(args.trace), load_references())
        except (SetupError, OSError) as exc:
            print("benchmark set-up failed: %s" % exc, file=sys.stderr)
            return 2
        print("\n".join(summary(results)))
        final = dict(results["final"])
        final["metrics"] = {k: v for k, v in final["metrics"].items() if k not in NOT_GATED}
        print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
