"""Command-line surface: schemas, exit codes, determinism."""

import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest

from braidforge import io as bio
from braidforge.abelian import FinAbGroup
from braidforge.cli import main
from braidforge.config import DEFAULT
from braidforge.cyclotomic import CycloNum
from braidforge.errors import SchemaError
from braidforge.premodular import ising_datum
from braidforge.qform import a_form, hyperbolic_plane


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def test_roundtrip_serialization():
    D = ising_datum(F(1, 16), 1)
    back = bio.datum_from_json(bio.datum_to_json(D))
    assert back.theta == D.theta and back.dim == D.dim and back.S == D.S
    M = hyperbolic_plane(3)
    assert bio.qform_from_json(bio.qform_to_json(M)).values == M.values
    c = CycloNum.from_root(F(5, 16)) + CycloNum.from_rational(F(2, 3))
    assert bio.cyclo_from_json(bio.cyclo_to_json(c)) == c
    R = D.ring
    assert bio.ring_from_json(bio.ring_to_json(R)).N == R.N


def test_unreduced_fractions_normalize():
    assert bio.parse_fraction("2/8") == F(1, 4)
    G = FinAbGroup((2,))
    M = bio.qform_from_json({"group": {"orders": [2]}, "values": ["0/2", "2/8"]})
    assert M.values == (F(0), F(1, 4))


def test_exponent_notation_is_refused_before_it_expands():
    start = time.perf_counter()
    for text in ("1e-1000000", "1E5", "2.5e-3", " 1e2 "):
        with pytest.raises(SchemaError, match="bad fraction"):
            bio.parse_fraction(text)
    assert time.perf_counter() - start < 1.0
    kept = [bio.parse_fraction(s) for s in ("3/4", " 3/4 ", "0.25", "1_000", 2.5e-05, 7)]
    assert kept == [F(3, 4), F(3, 4), F(1, 4), 1000, F(1, 40000), 7]


@pytest.mark.parametrize("conductor, coeffs", [
    (0, []), (-4, ["1/1"]), (2.7, ["1/1"]), (True, ["1/1"]), ("1", ["1/1"]), (None, ["1/1"]),
])
def test_conductor_must_be_a_json_integer_at_least_1(tmp_path, capsys, conductor, coeffs):
    message = f"conductor {json.dumps(conductor)} must be an integer >= 1"
    with pytest.raises(SchemaError, match=re.escape(message)):
        bio.cyclo_from_json({"conductor": conductor, "coeffs": coeffs})
    doc = bio.datum_to_json(ising_datum(F(1, 16), 1))
    doc["dims"][0] = {"conductor": conductor, "coeffs": coeffs}
    assert main(["premodular", "report", write(tmp_path, "d.json", doc)]) == 2
    assert capsys.readouterr().err == f"SchemaError: {message}\n"


_ONE = {"conductor": 1, "coeffs": ["1"]}


@pytest.mark.parametrize("dims", [
    [_ONE, _ONE, {"conductor": 8, "coeffs": ["0", "1", "0", "-1"]}, _ONE, _ONE],
    [_ONE, {"conductor": True, "coeffs": ["1"]}],          # true equals 1 but is refused
    [{"conductor": True, "coeffs": ["1"]}, _ONE],
    [_ONE, {"conductor": 1.0, "coeffs": ["1"]}],
    [{"conductor": 1, "coeffs": [1.0]}, _ONE, {"conductor": 1, "coeffs": [1.0]}],
    [{"conductor": 1, "coeffs": [1]}, {"conductor": 1, "coeffs": [True]}],
    [{"conductor": 1, "coeffs": [10 ** 16]}, {"conductor": 1, "coeffs": [1e16]}],
    [_ONE, {"conductor": 1, "coeffs": ["1"], "extra": 0}],
    [_ONE, {"conductor": 1, "coeffs": ("1",)}, {"conductor": 1, "coeffs": "1"}],
    [_ONE, {"conductor": 3000, "coeffs": ["1"]}, {"conductor": 3000, "coeffs": ["1"]}],
    [{"conductor": 4, "coeffs": ["1/2", "x"]}, {"conductor": 4, "coeffs": ["1/2", "x"]}],
])
def test_dimensions_parsed_once_match_a_parse_of_each(dims):
    # each document parsed on its own is the oracle: the same CycloNums,
    # or the same first error class and message
    def each():
        return tuple(bio.cyclo_from_json(d) for d in dims)

    def once():
        return tuple(bio._dims_from_json(dims, DEFAULT, {}, {}))

    def outcome(fn):
        try:
            return fn()
        except Exception as exc:   # noqa: BLE001 - the class and message are compared
            return type(exc), str(exc)

    assert outcome(once) == outcome(each)


def test_equal_dimension_documents_share_one_parse():
    from braidforge.premodular import deligne_product

    D = deligne_product(ising_datum(F(1, 16), 1), ising_datum(F(3, 16), -1))
    doc = bio.datum_to_json(D)
    dims = bio.datum_from_json(doc).dim
    assert dims == D.dim and len(dims) == 9 and len({id(d) for d in dims}) == 3


@pytest.mark.parametrize("field, path, value", [
    ("N", (2, 2, 0), 1.9), ("N", (2, 2, 0), True), ("N", (2, 2, 0), "1"), ("N", (2, 2, 0), None),
    ("N", (1, 1, 0), 1.0), ("dual", (1,), True), ("dual", (2,), "2"), ("dual", (2,), 2.0),
    ("unit", (), "0"), ("unit", (), False), ("unit", (), 0.0), ("unit", (), float("inf")),
])
def test_ring_entries_must_be_json_integers(tmp_path, capsys, field, path, value):
    # each value equals (or truncates to) the integer it replaces, so a
    # parser that converted with int() would accept Ising unchanged
    from braidforge.fusion import ising_ring, validate_ring

    R = ising_ring()
    good = bio.ring_to_json(R)
    assert bio.ring_from_json(good) == R   # Ising is now interned
    doc = json.loads(json.dumps(good))
    if path:
        target = doc[field]
        for k in path[:-1]:
            target = target[k]
        target[path[-1]] = value
    else:
        doc[field] = value
    message = f"malformed ring table: ring entry {json.dumps(value)} is not an integer"
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
        bio.ring_from_json(doc)
    with pytest.raises(TypeError):
        validate_ring(doc["labels"], doc["unit"], doc["dual"], doc["N"])
    assert main(["fusion", "dims", write(tmp_path, "r.json", doc)]) == 2
    assert capsys.readouterr().err == f"SchemaError: {message}\n"


@pytest.mark.parametrize("labels, shown", [
    ([None, "delta", "X"], "null"), (["1", 1.5, "X"], "1.5"), (["1", "delta", ["X"]], '["X"]'),
    ([1, "delta", "X"], "1"), (["1", True, "X"], "true"), (["1", "delta", {"X": 0}], '{"X": 0}'),
    ("1dX", None),
])
def test_ring_labels_must_be_json_strings(tmp_path, capsys, labels, shown):
    # str() of each would give a ring whose labels the file never held,
    # and a string in place of the list would give one label per character
    from braidforge.fusion import validate_ring

    doc = bio.ring_to_json(ising_datum(F(1, 16), 1).ring)
    doc["labels"] = labels
    message = (f"malformed ring table: ring label {shown} is not a string" if shown else
               'malformed ring table: ring labels "1dX" are not a list')
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
        bio.ring_from_json(doc)
    with pytest.raises(TypeError):
        validate_ring(doc["labels"], doc["unit"], doc["dual"], doc["N"])
    assert main(["fusion", "check", write(tmp_path, "r.json", doc)]) == 2
    assert capsys.readouterr().err == f"SchemaError: {message}\n"


@pytest.mark.parametrize("unit, message", [
    (-1, "unit -1 is not a basis index 0..2"),
    (3, "unit 3 is not a basis index 0..2"),
    (5, "unit 5 is not a basis index 0..2"),
    (0, "unit 0 is not a basis index (the basis is empty)"),
])
def test_a_unit_outside_the_basis_is_refused(tmp_path, capsys, unit, message):
    # -1 was read from the end and 5 ended in an IndexError; the empty
    # ring passed its check, and its subrings, grading and data ended in
    # a traceback
    from braidforge.errors import UnitFail
    from braidforge.fusion import validate_ring

    doc = bio.ring_to_json(ising_datum(F(1, 16), 1).ring)
    if message.endswith("empty)"):
        doc = {"labels": [], "dual": [], "N": []}
    doc["unit"] = unit
    with pytest.raises(UnitFail, match=f"^{re.escape(message)}$"):
        validate_ring(doc["labels"], doc["unit"], doc["dual"], doc["N"])
    r = len(doc["labels"])
    ring = write(tmp_path, "r.json", doc)
    datum = write(tmp_path, "d.json", {"ring": doc, "twists": ["0/1"] * r,
                                       "dims": [{"conductor": 1, "coeffs": ["1/1"]}] * r})
    for argv in (["fusion", action, ring] for action in ("check", "dims", "subrings", "grading")):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"UnitFail: {message}\n"
    for argv in (["premodular", action, datum] for action in ("report", "gfp")):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"UnitFail: {message}\n"


@pytest.mark.parametrize("chi, shown", [([1, True], "true"), ([1, "1"], '"1"'), ([1, None], "null"),
                                        ([1, 1.0], "1.0")])
def test_json_values_are_quoted_as_json_in_messages(chi, shown):
    G = FinAbGroup((2,))
    message = f"chi entry {shown} must be an integer"
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
        bio.character_from_json({"chi": chi}, G)


def test_catalog_then_report(tmp_path, capsys):
    out_path = str(tmp_path / "ising.json")
    code, _ = run(["catalog", "ising", "--zeta", "1/16", "--eps", "+1", "--out", out_path], capsys)
    assert code == 0
    code, out = run(["premodular", "report", out_path], capsys)
    assert code == 0
    rep = json.loads(out)
    assert all(c["status"] != "fail" for c in rep["checks"])
    # tau+ = 2 zeta^-1 with zeta = e^(2 pi i/16)
    want = 2 * CycloNum.from_root(F(-1, 16))
    assert rep["data"]["tau_plus"] == bio.cyclo_to_json(want)


def test_qform_gauss_a_i(tmp_path, capsys):
    path = write(tmp_path, "ai.json", {"group": {"orders": [2]}, "values": ["0/1", "1/4"]})
    code, out = run(["qform", "gauss", path], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["data"]["tau_plus"] == {"conductor": 4, "coeffs": ["1/1", "1/1"]}


def test_not_even_exits_2(tmp_path, capsys):
    path = write(tmp_path, "bad.json",
                 {"group": {"orders": [4]}, "values": ["0/1", "1/4", "0/1", "3/4"]})
    code, _ = run(["qform", "analyze", path], capsys)
    assert code == 2


def test_truncated_values_exit_2(tmp_path, capsys):
    path = write(tmp_path, "short.json", {"group": {"orders": [4]}, "values": ["0/1", "1/4"]})
    code, _ = run(["qform", "analyze", path], capsys)
    assert code == 2


def test_guard_exit_3(tmp_path, capsys):
    G = FinAbGroup((2,) * 5)
    M = {"group": {"orders": [2] * 5}, "values": ["0/1"] * 32}
    path = write(tmp_path, "big.json", M)
    code, _ = run(["qform", "analyze", path, "--enum-guard", "8"], capsys)
    assert code == 3


def test_conductor_guard_by_flag_and_env(tmp_path, capsys, monkeypatch):
    # Ising's joined conductor is 16: lcm of twist orders 16, 2 and dim conductor 8
    path = write(tmp_path, "ising.json", bio.datum_to_json(ising_datum(F(1, 16), 1)))
    assert main(["premodular", "report", path, "--conductor-guard", "15"]) == 3
    assert "conductor 16 exceeds conductor_guard = 15" in capsys.readouterr().err
    assert main(["premodular", "report", path, "--conductor-guard", "16"]) == 0
    capsys.readouterr()
    monkeypatch.setenv("BRAIDFORGE_CONDUCTOR_GUARD", "4")
    # the dimension sqrt(2) at conductor 8 is refused as it is read
    assert main(["premodular", "gfp", path]) == 3
    assert "conductor 8 exceeds conductor_guard = 4" in capsys.readouterr().err
    monkeypatch.setenv("BRAIDFORGE_CONDUCTOR_GUARD", "0")
    assert main(["premodular", "gfp", path]) == 2
    assert "conductor_guard must be positive" in capsys.readouterr().err


def test_aut_count_cap_refuses_quickly(tmp_path):
    # H + H + A on (Z/2)^5: metric, with nonzero isotropic subgroups, so
    # analyze needs Aut(G, q); |Aut((Z/2)^5)| = 9999360 exceeds the cap
    G = FinAbGroup((2,) * 5)
    values = [(F(x[0] * x[1] + x[2] * x[3], 2) + F(x[4], 4)) % 1 for x in G.elements()]
    path = write(tmp_path, "z2_5.json", {"group": {"orders": [2] * 5},
                                         "values": [bio.fraction_str(v) for v in values]})
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "braidforge.cli", "qform", "analyze", path],
                          capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert "|Aut(G)| = 9999360 exceeds aut_count_cap = 2000000" in proc.stderr
    assert elapsed < 2.0


def test_json_nested_past_the_recursion_limit_exits_2(tmp_path):
    # 200,000 nested lists: the decoder raises RecursionError near depth 1,000
    path = str(tmp_path / "deep.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("[" * 200_000 + "]" * 200_000)
    proc = subprocess.run([sys.executable, "-m", "braidforge.cli", "qform", "analyze", path],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr == f"SchemaError: invalid JSON in {path}: nested too deeply\n"


def test_memory_exhaustion_exits_3(tmp_path):
    # the pointed datum of x^2/256 on Z/128 holds a 128 x 128 S matrix at
    # conductor 256.  On CPython 3.11 on Linux x86-64 the CLI gets past
    # import at 20 MB of address space, exits 3 with this message from 20
    # to at least 200 MB, and completes at 400 MB; the test sets 64 MB on
    # the child alone, and skips where the child cannot import under that
    # limit or the limit is not enforced
    resource = pytest.importorskip("resource")
    limit = 64 * 2 ** 20

    def child(args):
        return subprocess.run(
            [sys.executable, *args], capture_output=True, text=True,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))

    probe = child(["-c", "import braidforge.cli\ntry:\n    bytearray(2 * %d)\n"
                         "except MemoryError:\n    raise SystemExit(7)" % limit])
    if probe.returncode != 7:
        pytest.skip("RLIMIT_AS not enforced, or braidforge.cli does not import under it: "
                    + (probe.stderr.strip().splitlines() or ["no error"])[-1])
    values = [bio.fraction_str(F(k * k, 256)) for k in range(128)]
    form = write(tmp_path, "z128.json", {"group": {"orders": [128]}, "values": values})
    out_path = tmp_path / "pointed.json"
    proc = child(["-m", "braidforge.cli", "catalog", "pointed", "--form", form,
                  "--out", str(out_path)])
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", "guard exceeded: memory\n")
    assert os.listdir(tmp_path) == ["z128.json"]


def test_out_replaces_the_file_and_leaves_no_temp_file(tmp_path, capsys):
    out_path = tmp_path / "ising.json"
    out_path.write_text("stale")
    code, _ = run(["catalog", "ising", "--zeta", "1/16", "--eps", "+1",
                   "--out", str(out_path)], capsys)
    assert code == 0
    json.loads(out_path.read_text())
    form = write(tmp_path, "ai.json", bio.qform_to_json(a_form()))
    rep_path = tmp_path / "rep.json"
    code, _ = run(["qform", "gauss", form, "--out", str(rep_path)], capsys)
    assert code == 0
    json.loads(rep_path.read_text())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ai.json", "ising.json", "rep.json"]
    umask = os.umask(0)
    os.umask(umask)
    assert rep_path.stat().st_mode & 0o777 == 0o666 & ~umask  # as open() would create it


def test_failed_out_write_leaves_no_temp_file(tmp_path, monkeypatch):
    def broken(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("braidforge.cli.os.replace", broken)
    with pytest.raises(OSError):
        main(["catalog", "ising", "--zeta", "1/16", "--eps", "+1",
              "--out", str(tmp_path / "ising.json")])
    assert list(tmp_path.iterdir()) == []


def test_reports_deterministic(tmp_path, capsys):
    path = write(tmp_path, "h2.json", bio.qform_to_json(hyperbolic_plane(2)))
    _, out1 = run(["qform", "analyze", path], capsys)
    _, out2 = run(["qform", "analyze", path], capsys)
    assert out1 == out2


def test_fusion_commands(tmp_path, capsys):
    from braidforge.fusion import ising_ring

    path = write(tmp_path, "ising_ring.json", bio.ring_to_json(ising_ring()))
    code, out = run(["fusion", "dims", path], capsys)
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["data"]["total"] - 4) < 1e-9
    code, out = run(["fusion", "grading", path], capsys)
    assert json.loads(out)["data"]["group"] == {"orders": [2]}
    code, out = run(["fusion", "subrings", path], capsys)
    assert json.loads(out)["data"]["subrings"] == [[0], [0, 1], [0, 1, 2]]


def test_catalog_pointed_and_product(tmp_path, capsys):
    form_path = write(tmp_path, "ai.json", bio.qform_to_json(a_form()))
    chi_path = write(tmp_path, "chi.json", {"chi": [1, -1]})
    code, out = run(["catalog", "pointed", "--form", form_path, "--chi", chi_path], capsys)
    assert code == 0
    datum = json.loads(out)
    assert datum["dims"][1] == {"conductor": 1, "coeffs": ["-1/1"]}
    d_path = write(tmp_path, "ai_datum.json", datum)
    i_path = str(tmp_path / "i.json")
    run(["catalog", "ising", "--zeta", "3/16", "--eps", "-1", "--out", i_path], capsys)
    code, out = run(["catalog", "product", d_path, i_path], capsys)
    assert code == 0
    prod = json.loads(out)
    assert len(prod["twists"]) == 6
    p_path = write(tmp_path, "prod.json", prod)
    code, out = run(["premodular", "report", p_path], capsys)
    assert code == 0
    assert all(c["status"] != "fail" for c in json.loads(out)["checks"])


def test_premodular_centralizer_flag(tmp_path, capsys):
    i_path = str(tmp_path / "i.json")
    run(["catalog", "ising", "--zeta", "1/16", "--eps", "+1", "--out", i_path], capsys)
    code, out = run(["premodular", "centralizer", i_path, "--subring", "1"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["data"]["centralizer"] == [0, 1]
    assert rep["data"]["rank"] == len(rep["data"]["components"]) == 2


@pytest.mark.parametrize("entry, message", [
    ("-1", "--subring entry -1 is outside 0..2"),
    ("3", "--subring entry 3 is outside 0..2"),
    ("99", "--subring entry 99 is outside 0..2"),
    ("a", "--subring entry 'a' is not an integer"),
    ("1,,2", "--subring entry '' is not an integer"),
])
def test_premodular_centralizer_rejects_bad_subring(tmp_path, capsys, entry, message):
    i_path = str(tmp_path / "i.json")
    run(["catalog", "ising", "--zeta", "1/16", "--eps", "+1", "--out", i_path], capsys)
    code = main(["premodular", "centralizer", i_path, "--subring", entry])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"SchemaError: {message}\n"


def test_premodular_gfp_command(tmp_path, capsys):
    i_path = str(tmp_path / "i.json")
    run(["catalog", "ising", "--zeta", "1/16", "--eps", "+1", "--out", i_path], capsys)
    code, out = run(["premodular", "gfp", i_path], capsys)
    assert code == 0
    assert json.loads(out)["data"]["x_class"] == 2


def test_env_config(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BRAIDFORGE_ENUM_GUARD", "8")
    path = write(tmp_path, "big.json", {"group": {"orders": [4, 4]}, "values": ["0/1"] * 16})
    code, _ = run(["qform", "analyze", path], capsys)
    assert code == 3
    monkeypatch.delenv("BRAIDFORGE_ENUM_GUARD")


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "braidforge.cli", "catalog", "ising", "--zeta", "1/16", "--eps", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    json.loads(proc.stdout)


def test_unsupported_computation_exits_1(tmp_path, capsys):
    # noncommutative table: universal grading is refused, exit code 1
    import itertools

    perms = list(itertools.permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    n = 6
    N = [[[0] * n for _ in range(n)] for _ in range(n)]
    for p in perms:
        for q in perms:
            comp = tuple(p[q[i]] for i in range(3))
            N[idx[p]][idx[q]][idx[comp]] = 1
    dual = [0] * n
    for p in perms:
        inv = tuple(sorted(range(3), key=lambda i: p[i]))
        dual[idx[p]] = idx[inv]
    ring = {"labels": [str(i) for i in range(n)], "unit": idx[(0, 1, 2)],
            "dual": dual, "N": N}
    path = write(tmp_path, "s3.json", ring)
    code, _ = run(["fusion", "grading", path], capsys)
    assert code == 1


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


SLOW_STDLIB = {"dataclasses", "inspect"}  # dataclasses alone costs ~10 ms of each launch


def loaded_modules(code, cwd):
    """The braidforge layers, and which of ``SLOW_STDLIB``, a fresh
    interpreter holds after ``code``."""
    probe = code + ("\nimport sys\nprint(*(m for m in sys.modules"
                    f" if m.startswith('braidforge.') or m in {SLOW_STDLIB!r}))")
    proc = subprocess.run([sys.executable, "-c", probe], cwd=cwd, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    return {m.split(".")[1] if "." in m else m for m in proc.stdout.splitlines()[-1].split()}


@pytest.mark.parametrize("argv, loads, skips", [
    (["qform", "analyze", "ai.json"], {"qform"}, {"premodular", "fusion", "cyclotomic", "witt"}),
    (["qform", "gauss", "ai.json"], {"witt"}, {"premodular", "fusion"}),
    (["fusion", "dims", "ring.json"], {"fusion"}, {"qform", "witt", "premodular"}),
    (["premodular", "report", "ising.json"], {"premodular"}, {"qform", "witt"}),
], ids=["qform-analyze", "qform-gauss", "fusion-dims", "premodular-report"])
def test_each_command_imports_only_its_layers(tmp_path, argv, loads, skips):
    from braidforge.fusion import ising_ring

    write(tmp_path, "ai.json", bio.qform_to_json(a_form()))
    write(tmp_path, "ring.json", bio.ring_to_json(ising_ring()))
    write(tmp_path, "ising.json", bio.datum_to_json(ising_datum(F(1, 16), 1)))
    code = f"from braidforge.cli import main\nassert main({argv!r}) == 0"
    mods = loaded_modules(code, str(tmp_path))
    assert loads <= mods and not (skips | SLOW_STDLIB) & mods, mods


def test_io_imports_no_layer(tmp_path):
    mods = loaded_modules("import braidforge.io", str(tmp_path))
    assert not {"qform", "fusion", "premodular", "cyclotomic"} & mods, mods


def test_cli_import_loads_neither_dataclasses_nor_inspect(tmp_path):
    mods = loaded_modules("import braidforge.cli", str(tmp_path))
    assert {"cli", "io", "config", "errors"} <= mods and not SLOW_STDLIB & mods, mods
