"""The committed CLI corpus: every record in ``golden/records.json`` replays
byte for byte.

Each record is one command, run in-process through ``cli.main`` from
``golden/`` exactly as ``golden/record.py`` ran it when it was recorded:
the exit code and the sha256 of stdout, stderr and each file written must
all match.  See ``golden/record.py`` for how to re-record a record whose
output changes on purpose.
"""

import contextlib
import functools
import importlib.util
import io
import json
import os
import re

from braidforge.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


@functools.cache
def _recorder():
    spec = importlib.util.spec_from_file_location("golden_record",
                                                  os.path.join(GOLDEN, "record.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _records():
    with open(os.path.join(GOLDEN, "records.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _conductors(doc):
    """Every cyclotomic conductor written in a JSON input."""
    if isinstance(doc, dict):
        if "conductor" in doc:
            yield doc["conductor"]
        for value in doc.values():
            yield from _conductors(value)
    elif isinstance(doc, list):
        for value in doc:
            yield from _conductors(value)


def _inputs(argv):
    """The JSON document of each input an argv reads, derived ones made first."""
    for arg in argv:
        if arg in _recorder().DERIVED:
            _recorder().derive(arg, main)
        path = os.path.join(GOLDEN, arg)
        if arg.startswith(("inputs/", "generated/")) and os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                try:
                    yield json.load(fh)
                except RecursionError:  # the deep input: no document to read
                    pass


def _max_conductor(argv) -> int:
    return max([1, *(c for doc in _inputs(argv) for c in _conductors(doc))])


def _max_rank(argv) -> int:
    """The largest rank of a datum an argv reads, or 0."""
    return max([0, *(len(doc["ring"]["labels"]) for doc in _inputs(argv)
                     if isinstance(doc, dict) and isinstance(doc.get("ring"), dict))])


GUARDS = ("enum_guard", "aut_guard", "aut_count_cap", "rank_guard", "conductor_guard")


def _guard_refused(argv) -> str:
    """The guard named by the refusal an argv ends in, run from ``golden/``."""
    for arg in argv:
        if arg in _recorder().DERIVED:
            _recorder().derive(arg, main)
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert main(argv) == 3
    finally:
        os.chdir(cwd)
    return re.fullmatch(r"guard exceeded: .* exceeds (\w+) = \d+\n", err.getvalue()).group(1)


def test_corpus_covers_every_action_and_exit_code(monkeypatch):
    records = _records()
    seen = {tuple(r["argv"][:2]) for r in records}
    for action in ("analyze", "classify", "gauss", "witt", "core", "wap"):
        assert ("qform", action) in seen
    for action in ("check", "dims", "grading", "subrings"):
        assert ("fusion", action) in seen
    for action in ("report", "centralizer", "gfp"):
        assert ("premodular", action) in seen
    assert {("catalog", w) for w in ("ising", "pointed", "product")} <= seen
    assert {r["exit"] for r in records} == {0, 1, 2, 3}
    assert any("--out" in r["argv"] for r in records)
    assert any("text" in r["argv"] for r in records)
    assert len({r["id"] for r in records}) == len(records)
    # descent near the conductor guard, on an input no guard refuses
    assert any(r["exit"] != 3 and _max_conductor(r["argv"]) >= 1000 for r in records)
    # a datum far past the default rank_guard, with the guard raised to it
    assert any(r["exit"] == 0 and _max_rank(r["argv"]) >= 64 for r in records)
    # every guard refuses some record at its default limit
    for key in [k for k in os.environ if k.startswith("BRAIDFORGE_")]:
        monkeypatch.delenv(key)
    at_default = [r["argv"] for r in records
                  if r["exit"] == 3 and not any(a.endswith("-guard") for a in r["argv"])]
    assert {_guard_refused(argv) for argv in at_default} == set(GUARDS)


def test_every_record_replays_byte_for_byte(monkeypatch):
    for key in [k for k in os.environ if k.startswith("BRAIDFORGE_")]:
        monkeypatch.delenv(key)
    run = _recorder().run
    moved = [r["id"] for r in _records() if run(r["argv"], main) != r]
    assert not moved, f"{len(moved)} records changed: {moved[:20]}"
