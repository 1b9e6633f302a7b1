#!/usr/bin/env python3
"""One traced query: the work of one `alcoves count` process, with spans.

    python3 benchmarks/traced_query.py QUERY_ID METHOD SYSTEM LAMBDA CACHE_DIR

METHOD is `bruhat`, `lattice` or `geometric`, as in `alcoves count`, or
`probe`, which runs all three routes on one coweight plus a coefficient fit,
store and load, so that every layer has a span.  The script calls the public
function of each layer itself and records a span around each call.  It also
wraps `orbits.lattice_count` and `orbits.enumerate_X`, so that the calls
`fit_mu` makes into the orbits layer get spans too.  The geometric route
builds all 2^n volume polynomials first, so their time is not hidden inside
the fit or the evaluation.  A geometric query loads the one coefficient
file in CACHE_DIR if there is one, and otherwise fits and stores one there.

The last line of stdout is one JSON object: the count and the spans.  A span
is {id, name, start, end, parent, query, counts}, with start and end on the
system-wide monotonic clock that `time.perf_counter` reads, so they line up
with the spans of the process that started this one.
"""

from __future__ import annotations

import json
import math
import sys
import time
from contextlib import contextmanager
from itertools import combinations
from pathlib import Path

from alcoves import (GeometricCoefficients, build_root_system, dominant_representative,
                     evaluate_formula, fit_mu, interval_size_lattice, lower_interval, theta,
                     volume_polynomial)
from alcoves import orbits


class Tracer:
    """Spans of one query, kept in memory and printed when the query ends."""

    def __init__(self, query: str):
        self.query = query
        self.spans: list[dict] = []
        self._stack = [query]

    @contextmanager
    def span(self, name: str):
        rec = {"id": "%s.%d" % (self.query, len(self.spans) + 1), "name": name,
               "parent": self._stack[-1], "query": self.query, "counts": {}}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str, record=None) -> None:
        """Replace module.attr by a function that records a span per call."""
        fn = getattr(module, attr, None)
        if fn is None:
            return

        def traced(*args, **kwargs):
            with self.span(name) as counts:
                out = fn(*args, **kwargs)
            if record is not None:
                record(counts, args, out)
            return out

        setattr(module, attr, traced)


def box_cells(data, lam) -> int:
    """Cells of the exponent box over lambda - w0.lambda in simple coroots."""
    neg, _ = dominant_representative(data, data.ambient_from_coweight([-c for c in lam]))
    low = [-c for c in data.coweight_coords(neg)]
    diff = [a - b for a, b in zip(lam, low)]
    return math.prod(int(b) + 1 for b in data.coroot_coords_from_coweight(diff))


def all_subsets(n: int):
    for size in range(n + 1):
        yield from combinations(range(1, n + 1), size)


def route_bruhat(tr: Tracer, data, lam) -> int:
    with tr.span("affine.theta") as counts:
        w, word = theta(data, lam)
    counts["word_len"] = len(word)
    with tr.span("affine.lower_interval") as counts:
        size = len(lower_interval(data, w, word))
    counts["interval_elems"] = size
    return size


def route_lattice(tr: Tracer, data, lam) -> int:
    with tr.span("orbits.interval_size_lattice"):
        return interval_size_lattice(data, lam)


def build_volumes(tr: Tracer, data) -> None:
    with tr.span("volumes.volume_polynomial") as counts:
        polys = [volume_polynomial(data, J) for J in all_subsets(data.rank)]
    counts["poly_terms"] = sum(len(vp.rel_poly.terms) for vp in polys)


def fit_and_store(tr: Tracer, data, cache_dir: Path) -> GeometricCoefficients:
    with tr.span("coefficients.fit_mu") as counts:
        coeffs = fit_mu(data)
    counts["subsets"] = len(coeffs.mu_prime)
    with tr.span("coefficients.store"):
        cache_dir.mkdir(parents=True, exist_ok=True)
        text = json.dumps(coeffs.to_json(), sort_keys=True) + "\n"
        (cache_dir / ("traced-%s.json" % data.id)).write_text(text, encoding="utf-8")
    return coeffs


def load(tr: Tracer, path: Path) -> GeometricCoefficients:
    with tr.span("coefficients.from_json"):
        return GeometricCoefficients.from_json(json.loads(path.read_text(encoding="utf-8")))


def evaluate(tr: Tracer, data, coeffs, lam) -> int:
    with tr.span("coefficients.evaluate_formula"):
        return evaluate_formula(data, coeffs, lam)


def route_geometric(tr: Tracer, data, lam, cache_dir: Path) -> int:
    build_volumes(tr, data)
    stored = sorted(cache_dir.glob("*.json")) if cache_dir.is_dir() else []
    if len(stored) == 1:
        coeffs = load(tr, stored[0])
    else:
        coeffs = fit_and_store(tr, data, cache_dir)
    return evaluate(tr, data, coeffs, lam)


def route_probe(tr: Tracer, data, lam, cache_dir: Path) -> int:
    counts = {route_bruhat(tr, data, lam), route_lattice(tr, data, lam)}
    build_volumes(tr, data)
    fitted = fit_and_store(tr, data, cache_dir)
    counts.add(evaluate(tr, data, fitted, lam))
    loaded = load(tr, cache_dir / ("traced-%s.json" % data.id))
    counts.add(evaluate(tr, data, loaded, lam))
    if len(counts) != 1:
        raise SystemExit("probe routes disagree: %r" % sorted(counts))
    return counts.pop()


def main(argv: list[str]) -> int:
    query, method, system, lam_text, cache_dir = argv
    lam = tuple(int(c) for c in lam_text.split(","))
    tr = Tracer(query)
    enumerated = []

    def record_X(counts, args, out):
        counts["X_size"] = len(out)
        enumerated.append((counts, args[0], args[1]))

    tr.wrap(orbits, "lattice_count", "orbits.lattice_count")
    tr.wrap(orbits, "enumerate_X", "orbits.enumerate_X", record_X)

    with tr.span("rootdata.build_root_system"):
        data = build_root_system(system)
    if method == "bruhat":
        count = route_bruhat(tr, data, lam)
    elif method == "lattice":
        count = route_lattice(tr, data, lam)
    elif method == "geometric":
        count = route_geometric(tr, data, lam, Path(cache_dir))
    elif method == "probe":
        count = route_probe(tr, data, lam, Path(cache_dir))
    else:
        raise SystemExit("unknown method %r" % method)
    # counted after the last span, so the box arithmetic is timed nowhere
    for counts, sys_data, mu in enumerated:
        counts["box_cells"] = box_cells(sys_data, tuple(int(c) for c in mu))
    sys.stdout.write(json.dumps({"count": count, "spans": tr.spans}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
