#!/usr/bin/env python3
"""In-process A/B of two braidforge trees on a perfbench round.

    python benchmarks/ab_inprocess.py A_TREE [B_TREE] [--workload datum_reports|form_stream]
                                      [--seed 7 11] [--best-of 9]
    python benchmarks/ab_inprocess.py A_TREE --aa

A tree is a checkout (or a ``git archive`` of one) holding ``src/braidforge``.
B defaults to this checkout; ``--aa`` imports A twice instead, an A/A run
that shows the method's own spread.  Both trees are imported into this one
process as two packages (``braidforge_a`` and ``braidforge_b``, each with
its own module memos), so the host's drift falls on both alike.

For each seed the round is perfbench's (``perfbench/inputs.py``, imported
from this checkout with ``workloads``; neither imports braidforge at
load), in its order, and each of its items runs perfbench's own code
with the tree's package bound to the name ``braidforge`` for the call:

- ``datum_reports`` (the default): each request (``datum_requests``)
  runs ``workloads.datum_report``: ``io.datum_from_json``,
  ``gauss_and_charge``, ``is_nondegenerate``, ``gfp_invariants`` and
  ``centralizer`` of every subring.  Every timed request meets a warm
  process: its ring interned, its lattice and components kept, and what
  each tree keeps per ring (dimension documents and kits, where a tree
  has them) in place, as for most requests of a perfbench round.
- ``form_stream``: each visit of a pass (``stream_pass``, one per
  shape) is ``workloads.stream_visit``, its requests sent as perfbench's
  worker sends them, a guard's refusal ending the visit.  The visit is
  built anew before each run, off the clock, so its forms are a fresh
  parse that keeps nothing (no radical, isotropic lattice or Aut(G, q)):
  every repetition recomputes what a form keeps, while each group's
  tables and subgroup memo stay warm.

A first pass runs every item on both sides and checks that their outputs
are byte-identical as JSON; then each item is timed K times per side,
alternately, the side that goes first swapping every repetition, and
each side's best time is kept.  p50 and p90 are taken over the per-item
best times with perfbench's quantile rules.

At K = 9 a 106-request datum_reports round takes about 3 s per seed on
a 2-core host.
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
    modules a round reads imported."""
    pkg = tree / "src" / "braidforge"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py",
                                                  submodule_search_locations=[str(pkg)])
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    for m in ("errors", "io", "fusion", "premodular", "qform", "witt"):
        importlib.import_module(f"{name}.{m}")
    return mod


def datum_runner(pkg):
    """A datum_reports request on one tree: perfbench's
    ``workloads.datum_report``, which imports ``braidforge`` when called,
    so ``braidforge`` is that tree's package for the call."""
    def prepare(obj):
        def run():
            sys.modules["braidforge"] = pkg
            return workloads.datum_report(obj)

        return run

    return prepare


def form_runner(pkg):
    """A form_stream visit on one tree: perfbench's ``workloads.stream_visit``
    of the forms, built (parsed) when prepared; running it sends its
    requests in order and returns their outputs, "refused" for a guard's
    refusal, which ends the visit as in perfbench's worker."""
    def prepare(forms):
        sys.modules["braidforge"] = pkg
        visit = workloads.stream_visit(forms)

        def run():
            sys.modules["braidforge"] = pkg
            gen, out, outs = visit(), None, []
            while True:
                try:
                    req = gen.send(out)
                except StopIteration:
                    return outs
                try:
                    out = req.run()
                except pkg.errors.EnumerationLimit:
                    gen.close()
                    return outs + ["refused"]
                outs.append(out)

        return run

    return prepare


ROUNDS = {
    "datum_reports": (inputs.datum_requests, datum_runner),
    "form_stream": (lambda seed: [forms for _, forms in inputs.stream_pass(seed)], form_runner),
}


def quantiles(times):
    """(p50, p90) with perfbench's rules."""
    return statistics.median(times), statistics.quantiles(times, n=10, method="inclusive")[-1]


def compare(prep_a, prep_b, items, seed: int, k: int):
    """(best times of A, best times of B) per item of the seed's round.
    ``prep_*(item)`` readies one run of the item, off the clock."""
    for i, obj in enumerate(items):
        out_a = json.dumps(prep_a(obj)(), sort_keys=True)
        out_b = json.dumps(prep_b(obj)(), sort_keys=True)
        if out_a != out_b:
            sys.exit(f"seed {seed}, item {i}: the trees' outputs differ")
    best_a, best_b = [], []
    for obj in items:
        best = {prep_a: float("inf"), prep_b: float("inf")}
        for rep in range(k):
            for prep in ((prep_a, prep_b) if rep % 2 == 0 else (prep_b, prep_a)):
                run = prep(obj)
                t0 = time.perf_counter()
                run()
                best[prep] = min(best[prep], time.perf_counter() - t0)
        best_a.append(best[prep_a] * 1e3)
        best_b.append(best[prep_b] * 1e3)
    return best_a, best_b


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", type=Path, help="tree A (the parent)")
    ap.add_argument("b", type=Path, nargs="?", default=ROOT, help="tree B (default: this checkout)")
    ap.add_argument("--aa", action="store_true", help="time tree A against a second import of itself")
    ap.add_argument("--workload", choices=sorted(ROUNDS), default="datum_reports")
    ap.add_argument("--seed", nargs="+", type=int, default=[7])
    ap.add_argument("--best-of", type=int, default=9)
    args = ap.parse_args(argv)
    b_tree = args.a if args.aa else args.b
    round_of, runner = ROUNDS[args.workload]
    prep_a = runner(load(args.a.resolve(), "braidforge_a"))
    prep_b = runner(load(b_tree.resolve(), "braidforge_b"))
    print(f"{args.workload}: A = {args.a}, B = {b_tree}{' (A/A)' if args.aa else ''}, "
          f"best of {args.best_of}")
    print(f"{'seed':>5} {'items':>9} {'p50 A':>8} {'p50 B':>8} {'p50':>8} "
          f"{'p90 A':>8} {'p90 B':>8} {'p90':>8} {'B faster':>9}")
    for seed in args.seed:
        a, b = compare(prep_a, prep_b, round_of(seed), seed, args.best_of)
        (p50a, p90a), (p50b, p90b) = quantiles(a), quantiles(b)
        faster = sum(y < x for x, y in zip(a, b))
        print(f"{seed:>5} {len(a):>9} {p50a:>8.3f} {p50b:>8.3f} {p50b / p50a - 1:>+8.1%} "
              f"{p90a:>8.3f} {p90b:>8.3f} {p90b / p90a - 1:>+8.1%} {faster:>5}/{len(a)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
