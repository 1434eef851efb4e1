#!/usr/bin/env python3
"""Record the committed CLI corpus: inputs and one record per command.

    python tests/golden/record.py            # write inputs/ and every record
    python tests/golden/record.py ID [ID...]  # re-record only these records
    python tests/golden/record.py --add       # record only commands with no record

Run from anywhere; ``src`` is put on the path.  Inputs are written as JSON
under ``inputs/`` beside this file; ``records.json`` holds, per command,
its argv, exit code and the sha256 of its stdout, its stderr and each file
it wrote.  Commands run in-process through ``braidforge.cli.main`` with
this directory as the working directory (report subjects hold the input
path as given), no ``BRAIDFORGE_*`` variable set, and ``{out}`` in an
argv standing for a fresh directory that ``--out`` writes into.

An input too large to commit is derived: ``DERIVED`` names its path under
``generated/`` (not in git) and the command whose stdout it is.  That
command has a record of its own, and ``run`` writes the file each time it
runs that command; a record that reads the file makes it first, unless
this process has already written it.

``tests/test_golden.py`` replays every record.  A change that alters an
output on purpose re-records only the records it alters, by id, and says
which and why; nothing else re-records.  A change that adds inputs or
commands runs ``--add``: it writes only the inputs not yet on disk and
records only the commands that have no record, in corpus order, and
keeps every other record as it is.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from fractions import Fraction as F

HERE = os.path.dirname(os.path.abspath(__file__))
INPUTS = os.path.join(HERE, "inputs")
RECORDS = os.path.join(HERE, "records.json")
OUT = "{out}"
# derived input -> the command whose stdout it is: the pointed datum of
# q(x) = x^2/128 on Z/64, 3.5 MB of JSON
DERIVED = {"generated/datum_pointed_z64.json":
           ["catalog", "pointed", "--form", "inputs/big_form_z64.json"]}
_written = set()   # derived inputs this process has written


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def derive(path, main) -> None:
    """Write the derived input ``path`` unless this process already has."""
    if path not in _written:
        run(DERIVED[path], main)


def run(argv, main) -> dict:
    """One command through ``main``, from this directory: its record."""
    for arg in argv:
        if arg in DERIVED:
            derive(arg, main)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(HERE)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([a.replace(OUT, tmp) for a in argv])
        finally:
            os.chdir(cwd)
        files = {}
        for name in sorted(os.listdir(tmp)):
            with open(os.path.join(tmp, name), "rb") as fh:
                files[name] = sha(fh.read())
    for path, recipe in DERIVED.items():
        if list(argv) == recipe:
            os.makedirs(os.path.dirname(os.path.join(HERE, path)), exist_ok=True)
            with open(os.path.join(HERE, path), "w", encoding="utf-8", newline="") as fh:
                fh.write(out.getvalue())
            _written.add(path)
    return {
        "id": " ".join(argv),
        "argv": list(argv),
        "exit": code,
        "stdout": sha(out.getvalue().encode()),
        "stderr": sha(err.getvalue().encode()),
        "files": files,
    }


# -- inputs --------------------------------------------------------------------

def shapes(limit: int) -> list:
    """Invariant-factor tuples (n1 | n2 | ...) of every order 2..limit."""
    out = []

    def rec(prefix, prod):
        if prefix:
            out.append(tuple(prefix))
        for m in range(prefix[-1] if prefix else 2, limit // prod + 1):
            if not prefix or m % prefix[-1] == 0:
                rec(prefix + [m], prod * m)

    rec([], 1)
    return sorted(out, key=lambda s: (_prod(s), s))


def _prod(s) -> int:
    n = 1
    for m in s:
        n *= m
    return n


def _name(orders) -> str:
    return "x".join(map(str, orders)) or "1"


def inputs() -> dict:
    """File name (under inputs/) -> JSON document, or the file's text as a str."""
    from braidforge import io as bio
    from braidforge.abelian import FinAbGroup
    from braidforge.fusion import group_ring, ising_ring, product_ring
    from braidforge.premodular import deligne_product, ising_datum, pointed_datum
    from braidforge.qform import (
        a_form, hyperbolic_plane, is_metric, m_form, odd_norm, odd_rank1, random_form,
    )

    docs = {"form_1.json": {"group": {"orders": []}, "values": ["0/1"]}}
    # every shape of order <= 36: one seeded form, and the first metric one
    for k, orders in enumerate(shapes(36)):
        G = FinAbGroup(orders)
        rng = random.Random(1000 + k)
        docs[f"form_{_name(orders)}_r.json"] = bio.qform_to_json(random_form(G, rng))
        for _ in range(200):
            M = random_form(G, rng)
            if is_metric(M):
                docs[f"form_{_name(orders)}_m.json"] = bio.qform_to_json(M)
                break
    # H + H + A on (Z/2)^5: Aut(G, q) is refused by aut_count_cap
    G = FinAbGroup((2,) * 5)
    docs["form_hha.json"] = {"group": {"orders": [2] * 5}, "values": [
        bio.fraction_str((F(x[0] * x[1] + x[2] * x[3], 2) + F(x[4], 4)) % 1)
        for x in G.elements()]}
    # q(x) = x^2/128 on Z/64: the form of the derived rank-64 pointed datum
    docs["big_form_z64.json"] = {"group": {"orders": [64]},
                                 "values": [bio.fraction_str(F(x * x, 128) % 1) for x in range(64)]}
    named = {"ai": a_form(), "h2": hyperbolic_plane(2), "h3": hyperbolic_plane(3),
             "m1": m_form(F(1, 8)), "m2": m_form(F(1, 4)), "o3": odd_rank1(3),
             "o5n": odd_rank1(5, 2), "n3": odd_norm(3), "n2": odd_norm(2)}
    for name, M in named.items():
        docs[f"form_{name}.json"] = bio.qform_to_json(M)
    # malformed forms
    docs["bad_form_not_even.json"] = {"group": {"orders": [4]},
                                      "values": ["0/1", "1/4", "0/1", "3/4"]}
    docs["bad_form_short.json"] = {"group": {"orders": [4]}, "values": ["0/1", "1/4"]}
    docs["bad_form_q0.json"] = {"group": {"orders": [2]}, "values": ["1/2", "1/4"]}
    docs["bad_form_not_quadratic.json"] = {"group": {"orders": [2, 2]},
                                           "values": ["0/1", "1/8", "0/1", "1/8"]}
    docs["bad_form_fraction.json"] = {"group": {"orders": [2]}, "values": ["0/1", "1/0"]}
    docs["bad_form_group.json"] = {"group": {"orders": [1, 2]}, "values": ["0/1", "1/4"]}
    docs["bad_form_shape.json"] = [0, 1]

    # rings
    ising, z2 = ising_ring(), group_ring(FinAbGroup((2,)))
    rings = {"ising": ising, "ising2": product_ring(ising, ising), "z2": z2,
             "z3": group_ring(FinAbGroup((3,))), "z4": group_ring(FinAbGroup((4,))),
             "z2z2": group_ring(FinAbGroup((2, 2))), "z2ising": product_ring(z2, ising),
             "z13": group_ring(FinAbGroup((13,)))}
    for name, R in rings.items():
        docs[f"ring_{name}.json"] = bio.ring_to_json(R)
    docs["ring_s3.json"] = _s3_ring()
    good = bio.ring_to_json(ising)
    good["N"][2][2][2] = 1  # X X = 1 + delta + X: the representation ring of S3
    docs["ring_reps3.json"] = good
    good = bio.ring_to_json(ising)

    def mutated(fn):
        doc = json.loads(json.dumps(good))
        fn(doc)
        return doc

    docs["bad_ring_unit.json"] = mutated(lambda d: d.__setitem__("unit", 1))
    docs["bad_ring_assoc.json"] = mutated(lambda d: d["N"][1][2].__setitem__(0, 1))
    docs["bad_ring_dual.json"] = mutated(lambda d: d.__setitem__("dual", [0, 2, 1]))
    docs["bad_ring_table.json"] = mutated(lambda d: d.__setitem__("N", 3))
    docs["bad_ring_fields.json"] = {"labels": ["1"], "unit": 0}
    # entries that are no JSON integer, each equal to the integer it replaces
    docs["bad_ring_float.json"] = mutated(lambda d: d["N"][2][2].__setitem__(0, 1.9))
    docs["bad_ring_bool.json"] = mutated(lambda d: d["dual"].__setitem__(1, True))
    docs["bad_ring_string.json"] = mutated(lambda d: d.__setitem__("unit", "0"))
    # labels that are no JSON strings, which str() would have turned into some
    docs["bad_ring_labels.json"] = mutated(lambda d: d.__setitem__("labels", [None, 1.5, ["X"]]))
    # units that are no basis index: one past the last, one read from the
    # end, and the empty ring's
    docs["bad_ring_unit_past.json"] = mutated(lambda d: d.__setitem__("unit", 3))
    docs["bad_ring_unit_negative.json"] = mutated(lambda d: d.__setitem__("unit", -1))
    empty = {"labels": [], "unit": 0, "dual": [], "N": []}
    docs["bad_ring_unit_empty.json"] = empty

    # data
    data = {"ising_1p": ising_datum(F(1, 16), 1), "ising_3m": ising_datum(F(3, 16), -1),
            "ising_7p": ising_datum(F(7, 16), 1), "ising_15m": ising_datum(F(15, 16), -1),
            "ising2": deligne_product(ising_datum(F(1, 16), 1), ising_datum(F(15, 16), 1)),
            "ising_3p_5m": deligne_product(ising_datum(F(3, 16), 1),
                                           ising_datum(F(5, 16), -1))}
    for name in ("ai", "h2", "m1", "o3", "n3", "n2"):
        data[f"pointed_{name}"] = pointed_datum(named[name])
    data["pointed_ai_chi"] = pointed_datum(named["ai"], (1, -1))
    data["pointed_z13"] = pointed_datum(odd_rank1(13))
    for name, D in data.items():
        docs[f"datum_{name}.json"] = bio.datum_to_json(D)
    base = bio.datum_to_json(data["ising_1p"])

    def bad_datum(fn):
        doc = json.loads(json.dumps(base))
        fn(doc)
        return doc

    docs["bad_datum_dualdim.json"] = bad_datum(
        lambda d: d["dims"].__setitem__(2, {"conductor": 4, "coeffs": ["0/1", "1/1"]}))
    docs["bad_datum_verlinde.json"] = bad_datum(
        lambda d: d["dims"].__setitem__(2, {"conductor": 1, "coeffs": ["2/1"]}))
    docs["bad_datum_unit_twist.json"] = bad_datum(lambda d: d["twists"].__setitem__(0, "1/2"))
    docs["bad_datum_zero_dim.json"] = bad_datum(
        lambda d: d["dims"].__setitem__(1, {"conductor": 1, "coeffs": ["0/1"]}))
    docs["bad_datum_conductor.json"] = bad_datum(
        lambda d: d["dims"].__setitem__(2, {"conductor": 2311, "coeffs": ["1/1"]}))
    docs["bad_datum_twist_conductor.json"] = bad_datum(
        lambda d: d["twists"].__setitem__(2, "1/4621"))
    docs["bad_datum_cover.json"] = bad_datum(lambda d: d["twists"].pop())
    docs["bad_datum_empty_ring.json"] = {"ring": empty, "twists": [], "dims": []}
    # a seeded dimension at conductor 2310 (phi = 480), at the default
    # conductor_guard: its descent to 1155 is the work before DualDimFail
    rng = random.Random(7)
    dim = {"conductor": 2310, "coeffs": [
        bio.fraction_str(F(rng.randint(-2, 2), rng.randint(1, 3))) for _ in range(480)]}
    docs["bad_datum_descent_2310.json"] = bad_datum(lambda d: d["dims"].__setitem__(2, dim))
    z4 = bio.datum_to_json(pointed_datum(m_form(F(1, 8))))
    z4["twists"] = ["0/1", "0/1", "0/1", "1/8"]  # S is not dual-invariant
    docs["bad_datum_symmetry.json"] = z4
    # the (Z/2)^3 group ring with unit dimensions and one twist of order
    # 1021 or 2257 (phi = 2160): a product relation fails just under the
    # default conductor_guard
    z2cubed = bio.ring_to_json(group_ring(FinAbGroup((2, 2, 2))))
    one = {"conductor": 1, "coeffs": ["1/1"]}
    for den in (1021, 2257):
        docs[f"tail_datum_2x2x2_t{den}.json"] = {
            "ring": z2cubed, "twists": ["0/1", f"1/{den}"] + ["0/1"] * 6, "dims": [one] * 8}
    # x^2/251 on Z/251, just under enum_guard; the smallest groups past the
    # default enum_guard (|G| = 257) and aut_guard (|G| = 65)
    docs["tail_form_z251.json"] = bio.qform_to_json(odd_rank1(251))
    docs["guard_form_z257.json"] = bio.qform_to_json(odd_rank1(257))
    docs["guard_form_z65.json"] = {"group": {"orders": [65]},
                                   "values": [bio.fraction_str(F(x * x, 65) % 1)
                                              for x in range(65)]}

    # JSON nested 2,000 deep, past the decoder's recursion limit; a str is
    # written as it is
    docs["deep_nesting.json"] = "[" * 2000 + "]" * 2000 + "\n"

    # characters
    docs["chi_ai.json"] = {"chi": [1, -1]}
    docs["chi_ai_bad.json"] = {"chi": [-1, -1]}
    docs["chi_ai_float.json"] = {"chi": [1, -1.0]}
    docs["chi_z2z2.json"] = {"chi": [1, -1, 1, -1]}
    return docs


def _s3_ring() -> dict:
    """The group ring of S3: noncommutative, so it has no universal grading."""
    import itertools

    perms = list(itertools.permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    n = len(perms)
    N = [[[0] * n for _ in range(n)] for _ in range(n)]
    dual = [0] * n
    for p in perms:
        for q in perms:
            N[idx[p]][idx[q]][idx[tuple(p[q[i]] for i in range(3))]] = 1
        dual[idx[p]] = idx[tuple(sorted(range(3), key=lambda i: p[i]))]
    return {"labels": [str(i) for i in range(n)], "unit": idx[(0, 1, 2)], "dual": dual, "N": N}


# -- commands ------------------------------------------------------------------

QFORM_ACTIONS = ("analyze", "classify", "gauss", "witt", "core", "wap")


def commands(names) -> list:
    """Every argv of the corpus, given the input file names."""
    inp = lambda name: f"inputs/{name}"  # noqa: E731
    cmds = []
    for name in sorted(n for n in names if n.startswith("form_")):
        # a shape's metric form adds the actions whose answer needs q metric
        for action in ("analyze", "witt", "wap") if name.endswith("_m.json") else QFORM_ACTIONS:
            cmds.append(["qform", action, inp(name)])
    for name in sorted(n for n in names if n.startswith("bad_form_")):
        cmds.append(["qform", "analyze", inp(name)])
    cmds += [
        ["qform", "analyze", "inputs/missing.json"],
        ["qform", "analyze", inp("form_4x4_r.json"), "--enum-guard", "8"],
        ["qform", "core", inp("form_2x2x2_r.json"), "--aut-guard", "4"],
        ["qform", "wap", inp("form_2x2x2x2_m.json"), "--aut-guard", "8"],
        ["qform", "gauss", inp("form_ai.json"), "--output", "text"],
        ["qform", "analyze", inp("form_h3.json"), "--output", "text"],
        ["qform", "witt", inp("form_2x4_m.json"), "--output", "text"],
        ["qform", "core", inp("form_2x8_r.json"), "--out", f"{OUT}/core.json"],
        ["qform", "gauss", inp("form_ai.json"), "--tolerance", "0.5"],
    ]

    rings = sorted(n for n in names if n.startswith(("ring_", "bad_ring_")))
    for name in rings:
        actions = ("check", "dims", "grading", "subrings") if name.startswith("ring_") \
            else ("check",)
        for action in actions:
            cmds.append(["fusion", action, inp(name)])
    cmds += [
        ["fusion", "subrings", inp("ring_ising2.json"), "--rank-guard", "4"],
        ["fusion", "dims", inp("ring_ising.json"), "--output", "text"],
        ["fusion", "grading", inp("ring_ising2.json"), "--out", f"{OUT}/grading.json"],
        ["fusion", "dims", inp("ring_ising.json"), "--tolerance", "1e-9"],
        ["fusion", "dims", inp("bad_ring_float.json")],
        ["fusion", "dims", inp("bad_ring_labels.json")],
        ["fusion", "dims", inp("bad_ring_unit_empty.json")],
        ["fusion", "subrings", inp("bad_ring_unit_empty.json")],
        ["fusion", "grading", inp("bad_ring_unit_empty.json")],
    ]

    data = sorted(n for n in names if n.startswith("datum_"))
    for name in data:
        for action in ("report", "gfp"):
            cmds.append(["premodular", action, inp(name)])
    for name in sorted(n for n in names if n.startswith("bad_datum_")):
        cmds.append(["premodular", "report", inp(name)])
    cmds += [
        ["premodular", "centralizer", inp("datum_ising_1p.json"), "--subring", "1"],
        ["premodular", "centralizer", inp("datum_ising_3m.json"), "--subring", "2"],
        ["premodular", "centralizer", inp("datum_ising2.json"), "--subring", "4"],
        ["premodular", "centralizer", inp("datum_ising2.json"), "--subring", "1,3"],
        ["premodular", "centralizer", inp("datum_pointed_h2.json"), "--subring", "1"],
        ["premodular", "centralizer", inp("datum_pointed_n3.json"), "--subring", "1,3"],
        ["premodular", "centralizer", inp("datum_ising_1p.json")],
        ["premodular", "centralizer", inp("datum_ising_1p.json"), "--subring", "3"],
        ["premodular", "centralizer", inp("datum_ising_1p.json"), "--subring", "a"],
        ["premodular", "report", inp("datum_ising_1p.json"), "--conductor-guard", "15"],
        ["premodular", "report", inp("datum_ising_1p.json"), "--output", "text"],
        ["premodular", "gfp", inp("datum_ising2.json"), "--out", f"{OUT}/gfp.json"],
        ["premodular", "gfp", inp("bad_datum_descent_2310.json")],
        ["premodular", "gfp", inp("bad_datum_empty_ring.json")],
        ["premodular", "report", inp("ring_ising.json")],
    ]

    for k in (1, 3, 5, 7, 9, 11, 13, 15):
        for eps in ("+1", "-1"):
            cmds.append(["catalog", "ising", "--zeta", f"{k}/16", "--eps", eps])
    cmds += [
        ["catalog", "ising", "--zeta", "1/8", "--eps", "1"],
        ["catalog", "ising", "--zeta", "x", "--eps", "1"],
        ["catalog", "ising", "--zeta", "3/16", "--eps", "1", "--out", f"{OUT}/ising.json"],
        ["catalog", "ising", "--zeta", "1/16", "--eps", "1", "--conductor-guard", "8"],
        ["catalog", "pointed", "--form", inp("form_ai.json")],
        ["catalog", "pointed", "--form", inp("form_ai.json"), "--chi", inp("chi_ai.json")],
        ["catalog", "pointed", "--form", inp("form_ai.json"), "--chi", inp("chi_ai_bad.json")],
        ["catalog", "pointed", "--form", inp("form_ai.json"), "--chi", inp("chi_ai_float.json")],
        ["catalog", "pointed", "--form", inp("form_2x2_m.json"), "--chi", inp("chi_z2z2.json")],
        ["catalog", "pointed", "--form", inp("form_2x2_r.json"), "--chi", inp("chi_ai.json")],
        ["catalog", "pointed", "--form", inp("form_3x3_m.json"), "--out", f"{OUT}/p.json"],
        ["catalog", "pointed", "--form", inp("bad_form_not_even.json")],
        ["catalog", "product", inp("datum_ising_1p.json"), inp("datum_pointed_ai.json")],
        ["catalog", "product", inp("datum_ising_3m.json"), inp("datum_ising_7p.json"),
         "--out", f"{OUT}/prod.json"],
        ["catalog", "product", inp("datum_pointed_h2.json"), inp("bad_datum_verlinde.json")],
    ]
    # the rank-64 pointed datum: made, refused by rank_guard, and reported
    z64 = "generated/datum_pointed_z64.json"
    cmds += [
        DERIVED[z64],
        ["premodular", "report", z64],
        ["premodular", "report", z64, "--rank-guard", "64"],
        ["premodular", "gfp", z64, "--rank-guard", "64"],
    ]
    # near the default guards, and refused at them: enum_guard on Z/257,
    # aut_guard on Z/65 (the core needs Aut(G, q))
    cmds += [
        ["premodular", "report", inp("tail_datum_2x2x2_t1021.json")],
        ["premodular", "report", inp("tail_datum_2x2x2_t2257.json")],
        ["qform", "witt", inp("tail_form_z251.json")],
        ["qform", "analyze", inp("guard_form_z257.json")],
        ["qform", "core", inp("guard_form_z65.json")],
    ]
    # every JSON reader, on input nested too deeply to decode
    deep = inp("deep_nesting.json")
    cmds += [
        ["qform", "analyze", deep],
        ["fusion", "dims", deep],
        ["premodular", "report", deep],
        ["catalog", "pointed", "--form", deep],
        ["catalog", "pointed", "--form", inp("form_ai.json"), "--chi", deep],
        ["catalog", "product", inp("datum_pointed_ai.json"), deep],
    ]
    return cmds


def write_input(name, doc) -> None:
    with open(os.path.join(INPUTS, name), "w", encoding="utf-8") as fh:
        if isinstance(doc, str):
            fh.write(doc)
        else:
            json.dump(doc, fh, indent=1)
            fh.write("\n")


def main(argv=None) -> int:
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))
    for key in [k for k in os.environ if k.startswith("BRAIDFORGE_")]:
        del os.environ[key]
    from braidforge.cli import main as cli_main

    only = set(argv if argv is not None else sys.argv[1:])
    if only == {"--add"}:
        docs = inputs()
        for name, doc in docs.items():
            if not os.path.exists(os.path.join(INPUTS, name)):
                write_input(name, doc)
        with open(RECORDS, encoding="utf-8") as fh:
            kept = {r["id"]: r for r in json.load(fh)}
        records = [kept.get(" ".join(argv)) or run(argv, cli_main) for argv in commands(docs)]
        lost = kept.keys() - {r["id"] for r in records}
        if lost:
            print(f"records with no command: {sorted(lost)}", file=sys.stderr)
            return 2
    elif not only:
        docs = inputs()
        os.makedirs(INPUTS, exist_ok=True)
        for name, doc in docs.items():
            write_input(name, doc)
        records = [run(argv, cli_main) for argv in commands(docs)]
    else:
        with open(RECORDS, encoding="utf-8") as fh:
            records = json.load(fh)
        unknown = only - {r["id"] for r in records}
        if unknown:
            print(f"no record with id {sorted(unknown)}", file=sys.stderr)
            return 2
        records = [run(r["argv"], cli_main) if r["id"] in only else r for r in records]
    with open(RECORDS, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")
    print(f"{len(records)} records", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
