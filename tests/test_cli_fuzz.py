"""Fuzzed CLI contract: mutated ring, datum and character JSON end with
an exit code.

Each case writes one mutated document and runs ``cli.main`` on it
in-process.  Whatever the mutation (a field of the wrong type, a list
of the wrong length, an index out of range, a huge twist denominator
or cyclotomic conductor), the command must return 0, 1, 2 or 3 within
a few seconds, and no exception may escape.
"""

import contextlib
import copy
import io
import json
import os
import tempfile
import time
from fractions import Fraction as F

from hypothesis import example, given, settings, strategies as st

from braidforge import io as bio
from braidforge.abelian import FinAbGroup
from braidforge.cli import main
from braidforge.config import DEFAULT
from braidforge.fusion import group_ring, ising_ring
from braidforge.premodular import ising_datum, pointed_datum
from braidforge.qform import a_form

GUARD = DEFAULT.conductor_guard
CASE_SECONDS = 5.0

RINGS = [bio.ring_to_json(ising_ring()), bio.ring_to_json(group_ring(FinAbGroup((2, 2))))]
DATA = [bio.datum_to_json(ising_datum(F(1, 16), 1)),
        bio.datum_to_json(ising_datum(F(3, 16), -1)),
        bio.datum_to_json(pointed_datum(a_form()))]
FORM = bio.qform_to_json(a_form())  # on Z/2
CHARACTERS = [{"chi": [1, 1]}, {"chi": [1, -1]}]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10) | st.floats(allow_nan=True)
    | st.text(max_size=4) | st.sampled_from(["1/0", "x", "3/4", "-1", "1e3"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=2),
    max_leaves=6,
)
huge = st.integers(GUARD + 1, 10 ** 30)


def paths(obj, prefix=()):
    """Every (path, value) below ``obj``, containers included."""
    out = [(prefix, obj)] if prefix else []
    if isinstance(obj, dict):
        for k, v in obj.items():
            out += paths(v, prefix + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            out += paths(v, prefix + (i,))
    return out


def put(obj, path, value):
    for k in path[:-1]:
        obj = obj[k]
    obj[path[-1]] = value


@st.composite
def mutated(draw, doc):
    """A copy of ``doc`` with one to three mutations."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        path, value = draw(st.sampled_from(paths(doc)))
        kind = draw(st.sampled_from(["type", "length", "index", "huge"]))
        if kind == "type":
            put(doc, path, draw(json_values))
        elif kind == "length" and isinstance(value, list):
            if value and draw(st.booleans()):
                del value[draw(st.integers(0, len(value) - 1)):]
            else:
                value.extend(draw(st.lists(st.sampled_from(value or [0]), min_size=1,
                                           max_size=3)))
        elif kind == "index" and isinstance(value, int):
            put(doc, path, draw(st.integers(-4, 12)))
        elif kind == "huge" and isinstance(value, str):
            put(doc, path, f"{draw(st.integers(1, 5))}/{draw(huge)}")
        elif kind == "huge" and isinstance(value, dict) and "conductor" in value:
            value["conductor"] = draw(huge)
    return doc


def run_case(argv, doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + [path])
        elapsed = time.perf_counter() - start
    assert code in (0, 1, 2, 3), (code, err.getvalue())
    assert elapsed < CASE_SECONDS, (elapsed, doc)
    return code, err.getvalue()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["check", "dims", "grading", "subrings"]),
       st.sampled_from(RINGS).flatmap(mutated))
@example("check", dict(RINGS[0], unit=float("inf")))  # was an OverflowError traceback
def test_fusion_cli_survives_mutated_rings(action, doc):
    run_case(["fusion", action], doc)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([["report"], ["gfp"], ["centralizer", "--subring", "1"]]),
       st.sampled_from(DATA).flatmap(mutated))
@example(["report"], dict(DATA[0], twists=None))  # was a TypeError traceback
@example(["report"], dict(DATA[0], twists=["0/1", "1e-1000000", "1/16"]))  # expanded 10^1000000
def test_premodular_cli_survives_mutated_data(action, doc):
    run_case(["premodular"] + action, doc)


def test_hostile_conductors_exit_3_quickly():
    # a twist of prime order 1000003, twists joining to L = 15015, and a
    # dimension at conductor 10^18, on the (Z/2)^3 group ring
    ring = bio.ring_to_json(group_ring(FinAbGroup((2, 2, 2))))
    one = {"conductor": 1, "coeffs": ["1/1"]}
    for twists, dims, n in (
        (["0/1", "1/1000003"] + ["0/1"] * 6, [one] * 8, 1000003),
        (["0/1", "1/3", "1/5", "1/7", "1/11", "1/13", "0/1", "0/1"], [one] * 8, 15015),
        (["0/1"] * 8, [one] + [{"conductor": 10 ** 18, "coeffs": ["1/1"]}] * 7, 10 ** 18),
    ):
        start = time.perf_counter()
        code, err = run_case(["premodular", "report"],
                             {"ring": ring, "twists": twists, "dims": dims})
        assert code == 3 and f"conductor {n} exceeds conductor_guard = {GUARD}" in err
        assert time.perf_counter() - start < 1.0


def run_pointed(doc):
    """``catalog pointed`` on the form FORM, with ``doc`` as its --chi."""
    with tempfile.TemporaryDirectory() as tmp:
        form = os.path.join(tmp, "form.json")
        with open(form, "w") as fh:
            json.dump(FORM, fh)
        return run_case(["catalog", "pointed", "--form", form, "--chi"], doc)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(CHARACTERS).flatmap(mutated))
def test_catalog_pointed_survives_mutated_characters(doc):
    run_pointed(doc)


def test_non_integer_character_entries_exit_2():
    # "x" and null were tracebacks, and [1.0, -1.5] passed as [1, -1]
    for chi in (["x", 1], [None, 1], [1.0, -1.5], [1, True]):
        code, err = run_pointed({"chi": chi})
        assert code == 2 and "must be an integer" in err, (chi, err)


def test_integer_past_the_digit_limit_exits_2():
    # json.load raises a plain ValueError past int's string-conversion limit
    text = json.dumps(dict(RINGS[0], unit=0)).replace('"unit": 0', '"unit": ' + "9" * 5000)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ring.json")
        with open(path, "w") as fh:
            fh.write(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["fusion", "check", path])
    assert code == 2 and err.getvalue().startswith("SchemaError: invalid JSON")
