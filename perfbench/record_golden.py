"""Record the golden outputs of every pooled input, at the current commit.

    python perfbench/record_golden.py form_stream|datum_reports|cli_cold

Writes ``perfbench/golden/<workload>.json``: request key -> digest of
the canonical output (CLI stdout bytes for cli_cold), or "refused" where
an enumeration guard refused the request.  The files in the repository
were recorded at the commit that introduced the benchmark; re-record
only when an output is meant to change.  form_stream takes about
three minutes, because (Z/2)^5 is refused only after the automorphism cap
is reached.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import worker

sys.path.insert(0, worker.SRC)

import inputs  # noqa: E402
import workloads  # noqa: E402


def stream_visits() -> list:
    # a visit per shape and copy number, taking the classes in run order
    return [workloads.stream_visit([inputs.stream_form(orders, j, c)
                                    for j in range(inputs.STREAM_CLASSES)])
            for orders in inputs.STREAM_SHAPES for c in range(inputs.COPIES)]


def datum_visits() -> list:
    objs = [inputs.ising_json(k, e) for k, e in inputs.ising_params()]
    objs += [inputs.ising_product_json(a, b)
             for a in inputs.PRODUCT_FACTORS for b in inputs.PRODUCT_FACTORS]
    objs += [inputs.pointed_json(inputs.pointed_form(orders, j, c))
             for orders in inputs.POINTED_SHAPES
             for j in range(inputs.pointed_classes(orders)) for c in range(inputs.COPIES)]
    return [workloads.datum_visit(obj) for obj in objs]


def cli_visits(workdir: str) -> list:
    """Every (ising, form) pair, rings in rotation; one visit per key."""
    forms = [inputs.cli_form(orders, j) for orders in inputs.CLI_FORM_SHAPES
             for j in range(inputs.CLI_FORMS_PER_SHAPE)]
    rings = inputs.CLI_RING_POOL
    rounds = [(inputs.cli_round_files(k, eps, form, rings[(i + j) % len(rings)]),
               inputs.cli_commands(k, eps))
              for i, (k, eps) in enumerate(inputs.ising_params())
              for j, form in enumerate(forms)]
    visits = workloads.cli_visits(rounds, workdir, worker.SRC)
    seen, out = set(), []
    for key, visit in visits:
        if key not in seen:
            seen.add(key)
            out.append(visit)
    return out


def main() -> int:
    workload = sys.argv[1]
    workdir = os.path.join(worker.WORK, "record")
    visits = {
        "form_stream": stream_visits,
        "datum_reports": datum_visits,
        "cli_cold": lambda: cli_visits(workdir),
    }[workload]()
    record = {}
    stats = worker.Stats()
    worker.run_visits(visits, {}, stats, record)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(os.path.dirname(worker.golden_path(workload)), exist_ok=True)
    with open(worker.golden_path(workload), "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(record.items())), fh, indent=0)
        fh.write("\n")
    print(f"{workload}: {len(record)} outputs, {stats.attempted} requests, "
          f"{stats.refused} refused, {stats.incorrect} other failures")
    for p in stats.problems:
        print("  ", p)
    return 0 if stats.incorrect == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
