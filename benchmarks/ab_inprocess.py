#!/usr/bin/env python3
"""In-process A/B of two braidforge trees on perfbench's datum_reports round.

    python benchmarks/ab_inprocess.py A_TREE [B_TREE] [--seed 7 11] [--best-of 9]
    python benchmarks/ab_inprocess.py A_TREE --aa

A tree is a checkout (or a ``git archive`` of one) holding ``src/braidforge``.
B defaults to this checkout; ``--aa`` imports A twice instead, an A/A run
that shows the method's own spread.  Both trees are imported into this one
process as two packages (``braidforge_a`` and ``braidforge_b``, each with
its own module memos), so the host's drift falls on both alike.

For each seed the round is perfbench's (``perfbench/inputs.py``'s
``datum_requests``, imported from this checkout with ``workloads``;
neither imports braidforge at load), in its order.  Each request runs
perfbench's ``workloads.datum_report`` with each tree's package bound to
the name ``braidforge`` for the call: ``io.datum_from_json``,
``gauss_and_charge``, ``is_nondegenerate``, ``gfp_invariants`` and
``centralizer`` of every subring.  A first pass runs every request on
both sides and checks that their outputs are byte-identical as JSON;
then each request is timed K times per side, alternately, the side that
goes first swapping every repetition, and each side's best time is
kept.  So every timed request meets a warm process: its ring interned,
its lattice and components kept, and what each tree keeps per ring
(dimension documents and kits, where a tree has them) in place, as for
most requests of a perfbench round.  p50 and p90 are taken over the
per-request best times with perfbench's quantile rules.

A 106-request round at K = 9 takes about 3 s per seed on a 2-core host.
"""

import argparse
import importlib
import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import inputs  # noqa: E402
import workloads  # noqa: E402


def load(tree: Path, name: str):
    """``braidforge`` of ``tree`` as the package ``name``, with the
    modules a report reads imported."""
    pkg = tree / "src" / "braidforge"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py",
                                                  submodule_search_locations=[str(pkg)])
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    for m in ("io", "fusion", "premodular"):
        importlib.import_module(f"{name}.{m}")
    return mod


def reporter(pkg):
    """perfbench's ``workloads.datum_report`` on one tree: it imports
    ``braidforge`` when called, so ``braidforge`` is that tree's package
    for the call."""
    def report(obj) -> dict:
        sys.modules["braidforge"] = pkg
        return workloads.datum_report(obj)

    return report


def quantiles(times):
    """(p50, p90) with perfbench's rules."""
    return statistics.median(times), statistics.quantiles(times, n=10, method="inclusive")[-1]


def compare(report_a, report_b, seed: int, k: int):
    """(best times of A, best times of B) per request of the seed's round."""
    reqs = inputs.datum_requests(seed)
    for i, obj in enumerate(reqs):
        out_a = json.dumps(report_a(obj), sort_keys=True)
        out_b = json.dumps(report_b(obj), sort_keys=True)
        if out_a != out_b:
            sys.exit(f"seed {seed}, request {i}: the trees' outputs differ")
    best_a, best_b = [], []
    for obj in reqs:
        best = {report_a: float("inf"), report_b: float("inf")}
        for rep in range(k):
            for fn in ((report_a, report_b) if rep % 2 == 0 else (report_b, report_a)):
                t0 = time.perf_counter()
                fn(obj)
                best[fn] = min(best[fn], time.perf_counter() - t0)
        best_a.append(best[report_a] * 1e3)
        best_b.append(best[report_b] * 1e3)
    return best_a, best_b


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", type=Path, help="tree A (the parent)")
    ap.add_argument("b", type=Path, nargs="?", default=ROOT, help="tree B (default: this checkout)")
    ap.add_argument("--aa", action="store_true", help="time tree A against a second import of itself")
    ap.add_argument("--seed", nargs="+", type=int, default=[7])
    ap.add_argument("--best-of", type=int, default=9)
    args = ap.parse_args(argv)
    b_tree = args.a if args.aa else args.b
    report_a = reporter(load(args.a.resolve(), "braidforge_a"))
    report_b = reporter(load(b_tree.resolve(), "braidforge_b"))
    print(f"A = {args.a}, B = {b_tree}{' (A/A)' if args.aa else ''}, best of {args.best_of}")
    print(f"{'seed':>5} {'requests':>9} {'p50 A':>8} {'p50 B':>8} {'p50':>8} "
          f"{'p90 A':>8} {'p90 B':>8} {'p90':>8} {'B faster':>9}")
    for seed in args.seed:
        a, b = compare(report_a, report_b, seed, args.best_of)
        (p50a, p90a), (p50b, p90b) = quantiles(a), quantiles(b)
        faster = sum(y < x for x, y in zip(a, b))
        print(f"{seed:>5} {len(a):>9} {p50a:>8.3f} {p50b:>8.3f} {p50b / p50a - 1:>+8.1%} "
              f"{p90a:>8.3f} {p90b:>8.3f} {p90b / p90a - 1:>+8.1%} {faster:>5}/{len(a)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
