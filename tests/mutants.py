#!/usr/bin/env python3
"""Mutants of the library that named tests must kill, and their runner.

    python tests/mutants.py [ID ...]

Each entry changes one exact text of one file under ``src/`` and names
the tests that must then fail.  The runner copies ``src/`` to a fresh
temporary directory per mutant, replaces the text there, and runs the
named tests with ``PYTHONPATH`` set to the copy, so the checkout itself
is never changed.  It reports each mutant as

- ``killed``: the tests failed, as they should;
- ``survived``: they passed;
- ``stale``: the old text does not occur exactly once, because a later
  change rewrote it.  A change that rewrites a mutated text updates the
  entry with it.

A pytest exit other than pass or fail (a test id that matches nothing,
an interrupted run) stops the runner with pytest's output.

An entry marked ``survives`` is expected to survive (an equivalent
mutant on every input the tests reach); its note says why.  The exit
status is 0 when every mutant meets its expectation and no entry is
stale.  pytest does not collect this file: its name does not start with
``test_``.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    id: str
    file: str               # relative to src/
    old: str
    new: str
    tests: tuple            # pytest node ids, relative to the checkout
    survives: bool = False
    note: str = ""


_ROOTS = "tests/test_cyclotomic.py::test_roots_of_unity_match_the_root_table"
_MONOMIAL = "tests/test_cyclotomic.py::test_monomial_reads_rational_multiples_of_roots"
_TAU = "tests/test_witt.py::test_tau_image_matches_division_reference"
_DIMS = "tests/test_cli.py::test_dimensions_parsed_once_match_a_parse_of_each"
_S_IDENTITIES = "tests/test_premodular.py::test_build_reports_each_s_identity"
_SQUARES = "tests/test_premodular.py::test_square_classes_are_kept_on_the_ring_per_tolerance"
_PAIRING = "tests/test_premodular.py::test_pairing_matches_an_unmemoised_pairing"
_RING_ENTRIES = "tests/test_cli.py::test_ring_entries_must_be_json_integers"
_RING_LABELS = "tests/test_cli.py::test_ring_labels_must_be_json_strings"
_FOLD = "tests/test_cyclotomic.py::test_fold_bound_covers_every_power_of_x"
_ZERO_TEST = "tests/test_premodular.py::test_kronecker_zero_test_agrees_with_reduce"
_FITS = "tests/test_premodular.py::test_every_identity_fits_the_datum_base"
_S_TILDE = "tests/test_premodular.py::test_s_tilde_makes_one_inverse_product_per_pair_of_dimensions"
_DENSE = "tests/test_fusion.py::test_constructions_match_their_dense_tables"
_RIGHT_UNIT = "tests/test_fusion.py::test_a_ring_without_a_right_unit_gets_every_index"
_UNIT_RANGE = "tests/test_cli.py::test_a_unit_outside_the_basis_is_refused"
_WARM = "tests/test_kits.py::test_warm_builds_match_fresh_builds"
_REFUSAL = "tests/test_kits.py::test_a_refusal_keeps_no_kit_and_fails_again"
_KEPT_DOC = "tests/test_kits.py::test_a_kept_dimension_document_meets_a_lower_guard"
_REFUSED_DOC = "tests/test_kits.py::test_a_refused_datum_keeps_no_dimension_document"
_RESIDUES = "tests/test_residues.py::test_build_at_the_base_matches_the_vector_build"
_MUEGER = "tests/test_premodular.py::test_mueger_identities"
_SOURCES = "tests/test_premodular.py::test_pointed_sources_of_built_and_product_data"
_PRODUCT_LAGRANGIANS = "tests/test_premodular.py::test_lagrangians_of_a_product_are_isotropic_subrings_of_it"
_VALIDATE = "tests/test_qform.py::test_validate_matches_reference_on_forms_and_mutations"
_TABLES = "tests/test_kernels.py::test_tables_match_coordinate_arithmetic"
_UNCHECKED = "tests/test_abelian.py::test_unchecked_subgroups_hold_zero_and_are_closed"
_SUBRINGS = ("tests/test_fusion.py::"
             "test_subring_lattice_closures_and_joins_match_the_pass_by_pass_search")
_SUBGROUP_COUNTS = "tests/test_abelian.py::test_subgroup_counts_formula_oracles"

MUTANTS = (
    Mutant("monomial-shift-range-one-block-short", "braidforge/cyclotomic.py",
           "    for s in range(0, n, ctx.phi):",
           "    for s in range(0, n - ctx.phi, ctx.phi):",
           (_ROOTS,)),
    Mutant("monomial-sign-term-dropped", "braidforge/cyclotomic.py",
           "Fraction((2 * k + n * (a < 0)) % (2 * n), 2 * n)",
           "Fraction((2 * k) % (2 * n), 2 * n)",
           (_ROOTS,)),
    Mutant("monomial-single-coefficient-loosened", "braidforge/cyclotomic.py",
           "        if len(nz) == 1:",
           "        if len(nz) >= 1:",
           (_ROOTS,)),
    Mutant("root-of-unity-accepts-any-rational-factor", "braidforge/cyclotomic.py",
           "return m[1] if (m := _monomial(self)) and m[0] == 1 else None",
           "return m[1] if (m := _monomial(self)) else None",
           (_ROOTS,)),
    Mutant("tau-label-unit-test-removed", "braidforge/witt.py",
           "if m is not None and ((8 if p == 2 else 2) * m[1]).denominator == 1:",
           "if m is not None:",
           (_TAU, _MONOMIAL),
           survives=True,
           note="tau+ of a metric form is sqrt|G| times an eighth root of unity "
                "(Milgram); on every catalog label, whichever of tau and tau * conj(g) "
                "is a monomial first has an allowed unit, so the test only guards the raise"),
    Mutant("dims-memo-keys-true-as-1", "braidforge/io.py",
           'type(d.get("conductor")) is int',
           'isinstance(d.get("conductor"), int)',
           (_DIMS,)),
    Mutant("s-triangle-copied-across-non-commuting-pair", "braidforge/premodular.py",
           "if rows[x][y] != rows[y][x] and entry(y, x) != S[x][y]:",
           "if rows[x][y] != rows[y][x] and entry(x, y) != S[x][y]:",
           (_S_IDENTITIES,)),
    Mutant("ring-squares-slot-ignores-tolerance", "braidforge/premodular.py",
           "if R._squares is None or R._squares[0] != config.tolerance:",
           "if R._squares is None:",
           (_SQUARES,)),
    Mutant("pairing-memo-keyed-by-index", "braidforge/premodular.py",
           "key = (cls[y], cls[v]) if cls[y] <= cls[v] else (cls[v], cls[y])",
           "key = (y, v)",
           (_PAIRING,)),
    Mutant("ring-float-entry-accepted", "braidforge/fusion.py",
           "*chain.from_iterable(N)))) <= {int}:",
           "*chain.from_iterable(N)))) <= {int, float}:",
           (_RING_ENTRIES,)),
    Mutant("fold-bound-taken-as-1", "braidforge/cyclotomic.py",
           "ctx.fold = -(-l1 * root // 2), max(",
           "ctx.fold = 1, max(",
           (_FOLD,)),
    Mutant("kron-base-not-above-the-bound", "braidforge/premodular.py",
           "self.k = k = ((2 * ctx.phi - 1) * M * c + h + 1).bit_length()",
           "self.k = k = ((2 * ctx.phi - 1) * M * c + h + 1).bit_length() - 1",
           (_ZERO_TEST, _FITS)),
    Mutant("kron-negative-coefficient-packed-positive", "braidforge/premodular.py",
           "format(c + self.half, word) for c in reversed(v)",
           "format(abs(c) + self.half, word) for c in reversed(v)",
           (_ZERO_TEST,)),
    Mutant("s-tilde-pairs-keyed-by-index", "braidforge/premodular.py",
           "key = (cls[x], cls[y]) if cls[x] <= cls[y] else (cls[y], cls[x])",
           "key = (x, y)",
           (_S_TILDE,)),
    Mutant("ring-label-not-a-string-accepted", "braidforge/fusion.py",
           "if not set(map(type, labels)) <= {str}:",
           "if False:",
           (_RING_LABELS,)),
    Mutant("ring-entry-quoted-by-repr", "braidforge/fusion.py",
           "ring entry {json.dumps(bad, default=repr)} is not",
           "ring entry {bad!r} is not",
           (_RING_ENTRIES,)),
    Mutant("product-ring-adds-multiplicities", "braidforge/fusion.py",
           "tuple(m1 * m2 for m1 in row1[1]",
           "tuple(m1 + m2 for m1 in row1[1]",
           (_DENSE,)),
    Mutant("perron-sums-in-decreasing-y", "braidforge/fusion.py",
           "        for y in r:\n            zs, ms = R.rows[x][y]",
           "        for y in reversed(r):\n            zs, ms = R.rows[x][y]",
           (_DENSE,)),
    Mutant("unit-law-checked-on-the-left-only", "braidforge/fusion.py",
           "for row in (rows[u][j], rows[j][u])",
           "for row in (rows[u][j],)",
           (_RIGHT_UNIT,)),
    Mutant("unit-range-off-by-one", "braidforge/fusion.py",
           "if not 0 <= unit < r:",
           "if not 0 <= unit <= r:",
           (_UNIT_RANGE,)),
    Mutant("base-looked-up-by-dimensions-alone", "braidforge/premodular.py",
           "    kr = ring._kits.get((dim, L))\n",
           "    kr = next((b for (d, _), b in ring._kits.items() if d == dim), None)\n",
           (_WARM,)),
    Mutant("kit-kept-before-the-dual-dimension-check", "braidforge/premodular.py",
           "        kinds, cls = _dimension_classes(ring, dim)\n",
           "        ring._kits[dim, L] = _Kron(_ctx(L), 1)\n"
           "        kinds, cls = _dimension_classes(ring, dim)\n",
           (_REFUSAL,)),
    Mutant("mueger-identities-compared-as-raw-integers", "braidforge/premodular.py",
           "        return kr.divides(dim(a) * dim(b) - dim(c) * dim(e))\n",
           "        return dim(a) * dim(b) == dim(c) * dim(e)\n",
           (_MUEGER,)),
    Mutant("kept-dimension-document-skips-the-guard", "braidforge/io.py",
           "            config.check_conductor(key[0])\n",
           "            pass\n",
           (_KEPT_DOC,)),
    Mutant("dimension-document-kept-before-the-build", "braidforge/io.py",
           "                new[key] = c\n",
           "                new[key] = kept[key] = c\n",
           (_REFUSED_DOC,)),
    Mutant("product-relation-reads-a-multiplicity-as-1", "braidforge/premodular.py",
           "rhs = P[ws[0]] if ms == (1,) else",
           "rhs = P[ws[0]] if len(ms) == 1 else",
           (_WARM,)),
    Mutant("sign-folded-into-the-rotation-at-odd-L", "braidforge/premodular.py",
           "        v = value(cls[z], (t - tx - ty) % L)\n"
           "        tot += -m * v if (s + sx + sy) & 1 else m * v\n",
           "        v = value(cls[z], (t - tx - ty + (s + sx + sy) * (L // 2)) % L)\n"
           "        tot += m * v\n",
           (_RESIDUES,)),
    Mutant("kit-bound-without-the-fold-bound", "braidforge/premodular.py",
           "    A = _fold_bound(ctx)[0] * max(",
           "    A = max(",
           (_RESIDUES,)),
    Mutant("residue-left-unbalanced", "braidforge/premodular.py",
           "        return (x + (self.mod >> 1)) % self.mod - (self.mod >> 1)\n",
           "        return x % self.mod\n",
           (_RESIDUES,)),
    Mutant("fp-image-exponent-negated", "braidforge/premodular.py",
           "        return self.omega[u] * self.img[k]\n",
           "        return self.omega[-u] * self.img[k]\n",
           (_RESIDUES,)),
    Mutant("deligne-product-drops-the-pointed-source", "braidforge/premodular.py",
           "        datum.pointed_source = (form, (1,) * form.group.order)\n",
           "        datum.pointed_source = None\n",
           (_SOURCES,)),
    Mutant("pointed-datum-drops-its-source", "braidforge/premodular.py",
           "    D.pointed_source = (M, chi)\n",
           "    D.pointed_source = None\n",
           (_SOURCES,)),
    Mutant("product-source-recanonicalized", "braidforge/premodular.py",
           "        from .qform import orthogonal_sum   # numbered as the ring: i * r2 + j\n"
           "        form = orthogonal_sum(D1.pointed_source[0], D2.pointed_source[0])\n",
           "        from .qform import direct_sum\n"
           "        form = direct_sum(D1.pointed_source[0], D2.pointed_source[0])\n",
           (_PRODUCT_LAGRANGIANS,)),
    Mutant("biadditivity-tested-against-the-first-generator-only", "braidforge/qform.py",
           "[(d + D[e]) % L for d in D] for e in gens):",
           "[(d + D[e]) % L for d in D] for e in gens[:1]):",
           (_VALIDATE,)),
    Mutant("add-table-rotated-by-one-row", "braidforge/kernels/pure.py",
           "        rows = [f[i * h:] + f[:i * h] for i in range(m) for f in fulls]\n",
           "        rows = [f[(i + 1) * h:] + f[:(i + 1) * h] for i in range(m) for f in fulls]\n",
           (_TABLES,)),
    Mutant("neg-table-sign-dropped", "braidforge/kernels/pure.py",
           "        neg = [(-c % m) * h + t for c in range(m) for t in neg]\n",
           "        neg = [(c % m) * h + t for c in range(m) for t in neg]\n",
           (_TABLES,)),
    Mutant("witt-line-wrapped-without-its-closure", "braidforge/witt.py",
           "Subgroup.closed(G, kernels.closure(G.order, G.add_flat(), [i]))",
           "Subgroup.closed(G, (0, i))",
           (_UNCHECKED,)),
    Mutant("join-meets-new-elements-on-the-left-only", "braidforge/fusion.py",
           "            for z in rows[x][y][0] + rows[y][x][0]:",
           "            for z in rows[x][y][0]:",
           (_SUBRINGS,), survives=True,
           note="no ring found where it differs: every seed of at most 3 indices of the group "
                "rings of S3, D4 and A4, and 12,000 joins in random order on those, the "
                "Haagerup ring and its products with S3 and Ising; no proof covers every "
                "non-commutative ring, so both sides stay"),
    Mutant("join-drops-its-first-subring", "braidforge/fusion.py",
           "_join(self.ring, a.indices, b.indices)",
           "_join(self.ring, (), b.indices)",
           (_SUBRINGS,)),
    Mutant("new-element-does-not-meet-itself", "braidforge/fusion.py",
           "        for y in done:\n",
           "        for y in done[:-1]:\n",
           (_SUBRINGS,)),
    Mutant("lattice-grows-the-bottom-only", "braidforge/kernels/pure.py",
           "                found.add(ext)\n                queue.append(ext)\n",
           "                found.add(ext)\n",
           (_SUBRINGS, _SUBGROUP_COUNTS)),
    Mutant("cyclic-subring-joined-by-its-greatest-generator", "braidforge/fusion.py",
           "for x in reversed(range(R.rank))}",
           "for x in range(R.rank)}",
           (_SUBRINGS,), survives=True,
           note="equivalent: joining any generator of <x> joins <x>, so the lattice is the same"),
)


def run(m: Mutant) -> str:
    """``killed``, ``survived`` or ``stale`` for one mutant."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / m.file
        text = path.read_text()
        if text.count(m.old) != 1:
            return "stale"
        path.write_text(text.replace(m.old, m.new))
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        probe = subprocess.run([sys.executable, "-c", "import braidforge; print(braidforge.__file__)"],
                               env=env, capture_output=True, text=True, cwd=ROOT)
        if not probe.stdout.startswith(str(src)):
            raise RuntimeError(f"braidforge imported from {probe.stdout.strip()!r}, not the copy")
        res = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                              *m.tests], env=env, capture_output=True, cwd=ROOT)
        # pytest exits 1 when tests failed; 2-5 mean no verdict (an
        # interrupted run, a usage error, a test id that matches nothing)
        if res.returncode not in (0, 1):
            raise RuntimeError(f"pytest exited {res.returncode} on {m.id}:\n{res.stdout.decode()}")
        return "survived" if res.returncode == 0 else "killed"


def main(ids):
    unknown = set(ids) - {m.id for m in MUTANTS}
    if unknown:
        sys.exit(f"unknown mutant ids: {', '.join(sorted(unknown))}")
    ok = True
    for m in MUTANTS:
        if ids and m.id not in ids:
            continue
        outcome = run(m)
        expected = "survived" if m.survives else "killed"
        ok &= outcome == expected
        flag = "" if outcome == expected else f"  (expected {expected})"
        print(f"{outcome:<9} {m.id}{flag}")
        if m.note and outcome == expected:
            print(f"          {m.note}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
