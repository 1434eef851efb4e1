#!/usr/bin/env python3
"""The braidforge benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see README.md here):
form_stream, datum_reports, cli_cold.  A run measures one round: the
workload's fixed request set, sent by one client, one request at a time,
in a fresh worker process (``worker.py``), so braidforge's module-level
caches start empty.  Every round is longer than the 10 s that
BENCHMARK.json asks for, so --seconds does not shorten it.

--trace 0 prints the end-to-end metrics; --trace 1 runs one untraced
and one traced round and prints the per-layer metrics.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.

End-to-end times are in reference seconds.  The machine this runs on
shares its cores, and its speed drifts by 10-50% over minutes, so the
worker times a fixed pure-Python reference slice every half second of
the round (``worker.SpeedProbe``) and leaves that time out of its
times.  The run's times are multiplied by REF_SLICE_S / (median slice
time): the time they would have taken with the slice at REF_SLICE_S.
The raw times and the factor are printed on the run's first line.
Per-layer times are raw.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer  # noqa: E402
import worker  # noqa: E402
from worker import ROOT, SRC, WORKLOADS  # noqa: E402

DEADLINE_S = 170.0      # a run must end within 180 s
REF_SLICE_S = 0.030     # reference slice time, about its median on 2 cores of a Xeon at 2 GHz
SETUPS = 5              # set-up time is the median of this many launches
PROBES = 5              # interpreter and import probes per traced run

# No process writes bytecode, so no run leaves a __pycache__ behind that
# would make the set-up and CLI times of later runs shorter.
CHILD_ENV = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")

END_TO_END = [
    ("wall_s", "s", "lower"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("completed_frac", "frac", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# Functions reported with calls and self time, or with calls only.
CALLS_SELF = [
    "kernels.automorphisms", "kernels.stabilizer", "kernels.find_isomorphism",
    "qform.is_weakly_anisotropic", "qform.isomorphic",
    "abelian.subgroups", "abelian.quotient",
    "kernels.closure", "kernels.all_subgroups",
    "qform.isotropic_subgroups", "qform.quotient_form", "qform.core",
    "witt.gauss_sum", "witt.witt_class", "cyclotomic.root_sum",
    "cyclotomic.matrix_rank",
    "premodular.build", "premodular.gauss_and_charge", "premodular.centralizer",
    "premodular.gfp_invariants",
    "fusion.all_subrings", "fusion.fp_dims",
]
CALLS_ONLY = [
    "abelian.automorphism_perms", "qform.classify_anisotropic", "qform.wap_decompose",
    "cyclotomic.mul", "cyclotomic.add", "cyclotomic.eq", "cyclotomic.inverse",
    "fusion.subring_generated", "io.datum_from_json",
]


def per_layer_spec() -> list:
    spec = [(f"{layer}.self_s", "s", "lower") for layer in tracer.LAYERS]
    for fn in CALLS_SELF:
        spec += [(f"{fn}.calls", "count", "lower"), (f"{fn}.self_s", "s", "lower")]
    spec += [(f"{fn}.calls", "count", "lower") for fn in CALLS_ONLY]
    spec += [
        ("kernels.automorphisms.perms", "count", "lower"),
        ("abelian.automorphism_perms.distinct", "count", "lower"),
        ("abelian.automorphism_perms.repeat_ratio", "ratio", "lower"),
        ("cyclotomic.arith.calls", "count", "lower"),
        ("cyclotomic.max_conductor", "conductor", "lower"),
        ("io.bytes_out", "bytes", "lower"),
        ("interp_s", "s", "lower"),
        ("import_s", "s", "lower"),
        ("trace.overhead_frac", "frac", "lower"),
    ]
    return spec


class RunFailed(Exception):
    pass


def _remaining(started: float) -> float:
    return DEADLINE_S - (time.monotonic() - started)


def _launch(cmd, started: float, env=CHILD_ENV) -> bytes:
    """Run a process in its own session; kill the whole session on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, _remaining(started)))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunFailed(f"{cmd[1:3]} did not finish within {DEADLINE_S} s")
    if proc.returncode != 0:
        raise RunFailed(f"{cmd[1:]} exited with {proc.returncode}")
    return out


def launch_round(workload: str, seed: int, started: float, *extra) -> dict:
    """One worker process; its result, with its set-up time."""
    t0 = time.monotonic()
    out = _launch([sys.executable, worker.__file__, "--workload", workload,
                   "--seed", str(seed), *extra], started)
    res = json.loads(out.splitlines()[-1])
    res["setup_s"] = res["ready_at"] - t0
    return res


def _p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def correct(rounds) -> bool:
    return all(r["incorrect"] == 0 for r in rounds)


def end_to_end(workload: str, seed: int, started: float):
    rnd = launch_round(workload, seed, started)
    setups = [rnd["setup_s"]]
    while len(setups) < SETUPS:
        setups.append(launch_round(workload, seed, started, "--setup-only")["setup_s"])
    lat = rnd["latencies_ms"]
    if len(lat) < 2:
        raise RunFailed("fewer than two completed requests")
    speed = REF_SLICE_S / statistics.median(rnd["slice_s"])
    raw = {
        "wall_s": rnd["wall_s"],
        "latency_p50_ms": statistics.median(lat),
        "latency_p90_ms": _p90(lat),
        "setup_s": statistics.median(setups),
    }
    metrics = {name: value * speed for name, value in raw.items()}
    metrics["completed_frac"] = 1.0 - rnd["failed"] / rnd["attempted"]
    metrics["peak_rss_mb"] = rnd["peak_rss_mb"]
    info = (f"{len(lat)} completed requests, {rnd['refused']} refused by a guard, "
            f"{rnd['unverified']} with a refusal as golden output; speed factor "
            f"{speed:.4f}; raw " + json.dumps(raw))
    return [rnd], metrics, END_TO_END, info


def _probe(code: str, started: float) -> float:
    out = _launch([sys.executable, "-c", code], started, dict(CHILD_ENV, PYTHONPATH=SRC))
    return float(out.decode().split()[-1])


def _probe_wall(started: float) -> float:
    t0 = time.monotonic()
    _launch([sys.executable, "-c", "pass"], started)
    return time.monotonic() - t0


def merge_traces(trace_dir: str):
    """Per span name [calls, self s], and the counters, over every process."""
    calls = {}
    perms, groups, cond, methods = 0, set(), 0, set()
    for fname in sorted(os.listdir(trace_dir)):
        header, arrays = tracer.load(os.path.join(trace_dir, fname))
        for name, (n, self_s) in tracer.summarize(header, arrays).items():
            rec = calls.setdefault(name, [0, 0.0])
            rec[0] += n
            rec[1] += self_s
        c = header["counters"]
        perms += c["perms"]
        groups.update(tuple(g) for g in c["aut_groups"])
        cond = max(cond, c["max_conductor"])
        methods.update(c["method_names"])
    return calls, {"perms": perms, "distinct": len(groups), "max_conductor": cond,
                   "method_names": methods}


def per_layer(workload: str, seed: int, started: float):
    ref = launch_round(workload, seed, started)
    trace_dir = os.path.join(worker.WORK, "trace", workload)
    shutil.rmtree(trace_dir, ignore_errors=True)
    os.makedirs(trace_dir)
    traced = launch_round(workload, seed, started, "--trace-dir", trace_dir)
    calls, counters = merge_traces(trace_dir)

    def n(name):
        return calls.get(name, [0, 0.0])[0]

    def self_s(name):
        return calls.get(name, [0, 0.0])[1]

    m = {}
    for layer in tracer.LAYERS:
        m[f"{layer}.self_s"] = sum(v[1] for k, v in calls.items()
                                   if k.split(".")[0] == layer)
    for fn in CALLS_SELF:
        m[f"{fn}.calls"] = n(fn)
        m[f"{fn}.self_s"] = self_s(fn)
    for fn in CALLS_ONLY:
        m[f"{fn}.calls"] = n(fn)
    aut_calls = n("abelian.automorphism_perms")
    m["kernels.automorphisms.perms"] = counters["perms"]
    m["abelian.automorphism_perms.distinct"] = counters["distinct"]
    m["abelian.automorphism_perms.repeat_ratio"] = (
        1.0 - counters["distinct"] / aut_calls if aut_calls else 0.0)
    m["cyclotomic.arith.calls"] = sum(n(k) for k in counters["method_names"])
    m["cyclotomic.max_conductor"] = counters["max_conductor"]
    m["io.bytes_out"] = traced["bytes_out"]
    timer = "import time; t = time.perf_counter(); {}; print(time.perf_counter() - t)"
    m["interp_s"] = statistics.median(
        _probe_wall(started) for _ in range(PROBES))
    m["import_s"] = statistics.median(
        _probe(timer.format("import braidforge.cli"), started) for _ in range(PROBES))
    m["trace.overhead_frac"] = traced["wall_s"] / ref["wall_s"] - 1.0
    layer_total = sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS)
    info = (f"traced wall {traced['wall_s']:.3f} s, untraced {ref['wall_s']:.3f} s; "
            f"layer self time {layer_total:.3f} s")
    return [ref, traced], m, per_layer_spec(), info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()

    golden = worker.golden_path(args.workload)
    if not os.path.isfile(os.path.join(SRC, "braidforge", "__init__.py")):
        print(f"no braidforge sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if not os.path.isfile(golden):
        print(f"missing golden outputs {golden}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            rounds, metrics, spec, info = per_layer(args.workload, args.seed, started)
        else:
            rounds, metrics, spec, info = end_to_end(args.workload, args.seed, started)
    except RunFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    print(f"{args.workload} seed {args.seed}: {info}")
    for name, unit, _ in spec:
        print(f"  {name:<44} {metrics[name]:>14.6g} {unit}")
    print(json.dumps({
        "correct": correct(rounds),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
