#!/usr/bin/env python3
"""Python opcodes executed per request of one perfbench round.

    python benchmarks/opcount.py [--workload form_stream|datum_reports ...] [--seed 7 ...]

Builds the round of each workload and seed exactly as perfbench's worker
does (``perfbench/worker.py`` and ``perfbench/workloads.py``, imported
read-only, with braidforge from ``src/`` beside them), then sends its
requests in order, each under ``sys.settrace`` with opcode events on in
every frame it opens.  A request's count is the number of opcode events:
bytecode instructions run in Python frames, not time spent in C.  As in
perfbench, a visit ends at its first refused request, and p50 and p90
are taken over the completed requests with perfbench's quantile rules;
the total also counts the refused ones.

The count depends only on the code and the seed, so two runs print the
same numbers on any host: a measure of work that does not drift with the
machine's speed, as perfbench's reference seconds do.  Set-up (parsing
the seeded inputs) is not counted.  A ``form_stream`` round takes about
5 s traced and a ``datum_reports`` round about 8 s on a 2-core host.
``cli_cold`` runs its requests in fresh processes, which this cannot
trace.
"""

import argparse
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import worker  # noqa: E402

WORKLOADS = ("form_stream", "datum_reports")


class OpcodeCounter:
    """A ``sys.settrace`` function that counts the opcode events of every
    frame opened while it is installed."""

    def __init__(self):
        self.count = 0

    def on_call(self, frame, event, arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return self.on_event

    def on_event(self, frame, event, arg):
        if event == "opcode":
            self.count += 1
        return self.on_event


def round_counts(workload: str, seed: int):
    """(opcodes per completed request, opcodes of the refused ones)."""
    from braidforge.errors import EnumerationLimit

    visits = worker.setup(workload, seed, "", None)
    counter = OpcodeCounter()
    completed, refused = [], []
    for visit in visits:
        gen = visit()
        out = None
        while True:
            try:
                req = gen.send(out)
            except StopIteration:
                break
            counter.count = 0
            sys.settrace(counter.on_call)
            try:
                out = req.run()
            except EnumerationLimit:
                out = None
            finally:
                sys.settrace(None)
            if out is None:
                refused.append(counter.count)
                gen.close()
                break
            completed.append(counter.count)
    return completed, refused


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", nargs="+", choices=WORKLOADS, default=["form_stream"])
    ap.add_argument("--seed", nargs="+", type=int, default=[7])
    args = ap.parse_args(argv)
    print(f"{'workload':<14} {'seed':>5} {'requests':>9} {'refused':>8} "
          f"{'total':>12} {'p50':>9} {'p90':>9}")
    for workload in args.workload:
        for seed in args.seed:
            completed, refused = round_counts(workload, seed)
            total = sum(completed) + sum(refused)
            p50 = statistics.median(completed)
            p90 = statistics.quantiles(completed, n=10, method="inclusive")[-1]
            print(f"{workload:<14} {seed:>5} {len(completed):>9} {len(refused):>8} "
                  f"{total:>12,} {p50:>9,.0f} {p90:>9,.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
