"""One round of one workload, in a fresh process.

    python perfbench/worker.py --workload NAME --seed N [--trace-dir DIR] [--setup-only]

Set-up (importing braidforge, making the seeded inputs, loading the
golden outputs) runs first; the ``ready_at`` it reports is the
``time.monotonic()`` reading just before the first timed request, which
``run.py`` subtracts from its own reading at launch.  Then one client
sends the round's requests in a closed loop, one in flight, checks
every output against its golden digest, and prints one JSON line.
With ``--trace-dir`` the span tracer is on for the requests and the
spans are written to DIR at exit.

Untraced, a ``SpeedProbe`` also times a fixed pure-Python reference
slice every half second of the round, from a timer signal, so inside
long requests too; its time is taken out of the round's times, and
``run.py`` uses the median slice time to correct them for the speed of
the machine at the time (see ``run.py``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-out")
WORKLOADS = ("form_stream", "datum_reports", "cli_cold")

sys.path.insert(0, HERE)

import inputs  # noqa: E402


def golden_path(workload: str) -> str:
    return os.path.join(HERE, "golden", f"{workload}.json")


def load_golden(workload: str) -> dict:
    with open(golden_path(workload), encoding="utf-8") as fh:
        return json.load(fh)


class Stats:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.refused = 0
        self.incorrect = 0
        self.unverified = 0
        self.bytes_out = 0
        self.latencies_ms = []
        self.problems = []      # first few failures, for stderr


class SpeedProbe:
    """Samples the machine's speed during a round by timing the
    reference slice every SPACING_S seconds from a SIGALRM timer.

    ``spent`` is the time its samples took, which the round subtracts
    from its wall time and from the latency of the request a sample
    interrupted.  The slice runs with the garbage collector off, so the
    size of the program's heap does not lengthen it.  Never started, it
    takes no samples and ``spent`` stays 0.
    """

    SPACING_S = 0.5

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        was_on = gc.isenabled()
        gc.disable()
        try:
            reference_slice()
        finally:
            if was_on:
                gc.enable()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += t1 - t0

    def start(self) -> None:
        self.sample()       # a sample even if the round is short
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.SPACING_S, self.SPACING_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def reference_slice() -> int:
    """Fixed work of the kinds braidforge does: Fraction arithmetic,
    tuples and dict lookups; about 30 ms on the reference machine."""
    acc = Fraction(0)
    seen = {}
    for i in range(1, 6000):
        acc += Fraction(i % 7, 1 + i % 11)
        seen[(i % 97, i % 13)] = acc.denominator
    return len(seen)


def _digest(out):
    data = out if isinstance(out, bytes) else inputs.canonical(out).encode()
    return inputs.digest(data), len(data)


def _check(want, outcome, out, digest):
    """What is wrong with one request, if anything, and whether it is
    incorrect.  Every failure is incorrect except a refusal that the
    golden output expects."""
    if want is None:
        return outcome or "no golden output for this request", True
    if outcome == "refused":
        return outcome, want != "refused"
    if outcome is not None:
        return outcome, True
    if isinstance(out, dict) and out.get("identity") is False:
        return "built-in identity does not hold", True
    if want not in ("refused", digest):
        return "output differs from the golden output", True
    return None, False


def run_visits(visits, golden: dict, stats: Stats, record: dict = None,
               probe: SpeedProbe = None) -> None:
    """Send every visit's requests; a visit ends at its first failure.

    ``golden`` maps a request key to the output digest recorded at the
    seed commit, or to "refused" where the seed commit's guard refused
    it.  A request fails if it raises, if a guard refuses it, if a
    built-in identity does not hold, if its output differs from the
    golden one, or if it has no golden output; every failure is also
    incorrect, except a refusal where the golden output is "refused".
    A completed request whose golden output is "refused" cannot be
    compared and is counted as unverified.  With ``record`` given, each
    outcome is stored there and checked against itself instead.  The
    time ``probe`` spends inside a request is not counted in its latency.
    """
    from braidforge.errors import EnumerationLimit

    probe = probe or SpeedProbe()

    if record is not None:
        golden = record
    for visit in visits:
        gen = visit()
        out = None
        while True:
            try:
                req = gen.send(out)
            except StopIteration:
                break
            t0, spent0 = time.perf_counter(), probe.spent
            try:
                out = req.run()
                outcome = None
            except EnumerationLimit:
                outcome = "refused"
            except Exception as exc:  # a request that raises has failed
                outcome = f"error: {type(exc).__name__}: {exc}"
            # spent is read before the clock, so a sample that lands between
            # the two readings can lengthen elapsed but never make it negative
            spent = probe.spent - spent0
            elapsed = time.perf_counter() - t0 - spent
            stats.attempted += 1
            digest = None
            if outcome is None:
                digest, size = _digest(out)
                stats.bytes_out += size
            if record is not None and outcome in (None, "refused"):
                record[req.key] = digest or outcome
            want = golden.get(req.key)
            problem, incorrect = _check(want, outcome, out, digest)
            if problem is not None:
                stats.failed += 1
                stats.refused += outcome == "refused"
                stats.incorrect += incorrect
                if len(stats.problems) < 5:
                    stats.problems.append(f"{req.key}: {problem}")
                gen.close()
                break
            stats.unverified += want == "refused"
            stats.latencies_ms.append(elapsed * 1000.0)


def setup(workload: str, seed: int, workdir: str, trace_dir):
    import workloads

    if workload == "form_stream":
        return workloads.stream_setup(seed)
    if workload == "datum_reports":
        return workloads.datum_setup(seed)
    return workloads.cli_setup(seed, workdir, SRC, trace_dir)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace-dir")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    tr = None
    if args.trace_dir:
        import tracer

        tr = tracer.Tracer()
        tracer.install(tr)
    workdir = os.path.join(WORK, f"cli-{os.getpid()}")
    try:
        return _round(args, workdir, tr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _round(args, workdir: str, tr) -> int:
    visits = setup(args.workload, args.seed, workdir, args.trace_dir)
    golden = load_golden(args.workload)
    ready_at = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at}))
        return 0

    stats = Stats()
    probe = SpeedProbe()
    if tr is not None:
        tr.on = True
    else:
        probe.start()
    t0, spent0 = time.perf_counter(), probe.spent
    run_visits(visits, golden, stats, probe=probe)
    spent = probe.spent - spent0
    wall = time.perf_counter() - t0 - spent
    probe.stop()
    if tr is not None:
        tr.on = False
        tr.dump(os.path.join(args.trace_dir, "main.spans"))
    who = resource.RUSAGE_CHILDREN if args.workload == "cli_cold" else resource.RUSAGE_SELF
    for p in stats.problems:
        print(f"[{args.workload}] failed request {p}", file=sys.stderr)
    print(json.dumps({
        "ready_at": ready_at,
        "wall_s": wall,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "refused": stats.refused,
        "incorrect": stats.incorrect,
        "unverified": stats.unverified,
        "bytes_out": stats.bytes_out,
        "latencies_ms": stats.latencies_ms,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "slice_s": probe.samples,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
