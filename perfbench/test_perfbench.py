"""Tests of the benchmark itself.

    python -m pytest perfbench/test_perfbench.py -q
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

from braidforge import abelian, cyclotomic, premodular, qform  # noqa: E402
from braidforge import io as bio  # noqa: E402
from braidforge.errors import EnumerationLimit  # noqa: E402


def _installed():
    tr = tracer.Tracer()
    undo = tracer.install(tr)
    tr.on = True
    return tr, undo


def _calls(tr, tmp_path):
    path = str(tmp_path / "t.spans")
    tr.dump(path)
    return tracer.summarize(*tracer.load(path))


def test_a_call_through_either_binding_is_counted(tmp_path):
    G = abelian.FinAbGroup((2, 2))
    tr, undo = _installed()
    try:
        abelian.automorphism_perms(G)
        qform.automorphism_perms(G)
        cyclotomic.matrix_rank([[cyclotomic.ONE]])
        premodular.matrix_rank([[cyclotomic.ONE]])
        datum = bio.datum_from_json(inputs.ising_json(1, 1))
        premodular.build(datum.ring, datum.theta, datum.dim)
    finally:
        tr.on = False
        undo()
    calls = _calls(tr, tmp_path)
    assert calls["abelian.automorphism_perms"][0] == 2
    assert calls["kernels.automorphisms"][0] == 2
    assert calls["cyclotomic.matrix_rank"][0] == 2
    assert calls["premodular.build"][0] == 2       # io.build and premodular.build
    assert calls["cyclotomic.mul"][0] > 0          # CycloNum operators, class level
    assert tr.perms == 2 * 6 and tr.aut_groups == {(2, 2)}
    # undone: the original functions are back at every binding
    assert qform.automorphism_perms is abelian.automorphism_perms
    assert not hasattr(abelian.automorphism_perms, "__wrapped__")


def _datum_golden(obj):
    record, stats = {}, worker.Stats()
    worker.run_visits([workloads.datum_visit(obj)], {}, stats, record)
    return record


def test_a_tampered_golden_output_is_counted_as_failed():
    obj = inputs.ising_json(3, -1)
    golden = _datum_golden(obj)
    stats = worker.Stats()
    worker.run_visits([workloads.datum_visit(obj)], golden, stats)
    assert (stats.attempted, stats.failed, stats.incorrect) == (1, 0, 0)

    key = workloads.datum_key(obj)
    tampered = {key: "0" * len(golden[key])}
    stats = worker.Stats()
    worker.run_visits([workloads.datum_visit(obj)], tampered, stats)
    assert (stats.attempted, stats.failed, stats.incorrect) == (1, 1, 1)
    assert not stats.latencies_ms


def test_shipped_goldens_cover_this_datum():
    obj = inputs.ising_json(5, 1)
    golden = worker.load_golden("datum_reports")
    assert golden[workloads.datum_key(obj)] == _datum_golden(obj)[workloads.datum_key(obj)]


def _ok(out):
    return worker._digest(out)[0]


def test_a_visit_ends_at_its_first_failed_request():
    def visit():
        yield workloads.Request("a", lambda: {"x": 1})
        yield workloads.Request("b", lambda: 1 / 0)
        yield workloads.Request("c", lambda: {"x": 2})

    golden = {"a": _ok({"x": 1}), "b": _ok(None), "c": _ok({"x": 2})}
    stats = worker.Stats()
    worker.run_visits([visit], golden, stats)
    assert (stats.attempted, stats.failed, stats.incorrect) == (2, 1, 1)


def _refuse():
    raise EnumerationLimit("cap reached")


def iter_one(request):
    yield request


def _result(requests, golden):
    """The worker's counts for one visit per request, as run.py reads them."""
    stats = worker.Stats()
    visits = [lambda r=r: iter_one(r) for r in requests]
    worker.run_visits(visits, golden, stats)
    return vars(stats)


def test_a_raising_or_unrecorded_request_makes_the_run_incorrect():
    ok = workloads.Request("ok", lambda: {"x": 1})
    golden = {"ok": _ok({"x": 1}), "boom": _ok({"x": 1}), "new": "refused"}
    assert run.correct([_result([ok], golden)])
    for bad in (workloads.Request("boom", lambda: 1 / 0),          # raises
                workloads.Request("unknown", lambda: {"x": 1}),    # no golden key
                workloads.Request("boom", _refuse)):               # newly refused
        res = _result([ok, bad], golden)
        assert (res["attempted"], res["failed"], res["incorrect"]) == (2, 1, 1)
        assert not run.correct([res])


def test_only_an_expected_refusal_is_a_correct_failure():
    golden = {"old": "refused"}
    res = _result([workloads.Request("old", _refuse)], golden)
    assert (res["failed"], res["refused"], res["incorrect"]) == (1, 1, 0)
    assert run.correct([res])
    # answered now, where the golden run was refused: completed, unverified
    res = _result([workloads.Request("old", lambda: {"x": 1})], golden)
    assert (res["failed"], res["unverified"], len(res["latencies_ms"])) == (0, 1, 1)
    assert run.correct([res])


def test_inputs_are_identical_for_one_seed_and_differ_for_another():
    for make in (inputs.stream_pass, inputs.datum_requests, inputs.cli_rounds):
        a, b, c = make(7), make(7), make(8)
        assert inputs.digest(a) == inputs.digest(b)
        assert inputs.digest(a) != inputs.digest(c)


def test_every_stream_pass_visits_each_shape_once():
    shapes = [orders for orders, _ in inputs.stream_pass(3)]
    assert sorted(shapes) == sorted(inputs.STREAM_SHAPES) and len(shapes) == 61


def test_self_times_sum_to_no_more_than_wall(tmp_path):
    visits = [workloads.datum_visit(inputs.ising_json(7, 1))]
    visits += [workloads.stream_visit([inputs.stream_form(o, 0, 1)])
               for o in ((2,), (2, 2), (3, 3), (2, 4))]
    golden = {**worker.load_golden("datum_reports"), **worker.load_golden("form_stream")}
    tr, undo = _installed()
    stats = worker.Stats()
    try:
        t0 = time.perf_counter()
        worker.run_visits(visits, golden, stats)
        wall = time.perf_counter() - t0
    finally:
        tr.on = False
        undo()
    calls = _calls(tr, tmp_path)
    layer_self = sum(s for name, (_, s) in calls.items()
                     if name.split(".")[0] in tracer.LAYERS)
    assert stats.failed == 0
    assert 0 < layer_self <= wall
    assert all(s >= -1e-9 for _, s in calls.values())


def test_the_speed_probe_samples_inside_a_request_and_is_not_timed():
    def busy():
        end = time.perf_counter() + 1.2
        while time.perf_counter() < end:
            pass
        return {"x": 1}

    probe, stats = worker.SpeedProbe(), worker.Stats()
    probe.start()
    try:
        spent0 = probe.spent
        worker.run_visits([lambda: iter_one(workloads.Request("b", busy))],
                          {"b": _ok({"x": 1})}, stats, probe=probe)
    finally:
        probe.stop()
    inside = probe.spent - spent0
    assert len(probe.samples) >= 3 and inside > 0
    assert abs(stats.latencies_ms[0] / 1000.0 + inside - 1.2) < 0.05


def test_benchmark_json_matches_the_code():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == run.per_layer_spec()
