"""Fusion rings: axioms, FP dimensions, subrings, gradings."""

import itertools
import math
import operator
import random
import time

import pytest

from braidforge.abelian import FinAbGroup
from braidforge.errors import (
    AssociativityFail,
    EnumerationLimit,
    NotWeaklyIntegral,
    RingAxiomError,
    SchemaError,
    Unsupported,
)
from braidforge.fusion import (
    adjoint_subring,
    all_subrings,
    fp_dims,
    fp_square_grading,
    group_ring,
    integral_part,
    ising_ring,
    pointed_part,
    product_ring,
    subring_generated,
    universal_grading,
    validate_ring,
)


def s3_character_ring():
    N = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for i in range(3):
        N[0][i][i] = 1
        N[i][0][i] = 1
    N[1][1][0] = 1
    N[1][2][2] = 1
    N[2][1][2] = 1
    N[2][2] = [1, 1, 1]
    return validate_ring(("1", "sgn", "V"), 0, (0, 1, 2), N)


def test_validate_ring_examples():
    I = ising_ring()
    validate_ring(I.labels, I.unit, I.dual, I.N)
    R3 = group_ring(FinAbGroup((3,)))
    validate_ring(R3.labels, R3.unit, R3.dual, R3.N)
    bad = [list(map(list, p)) for p in I.N]
    bad[2][2][1] = 2
    with pytest.raises(AssociativityFail):
        validate_ring(I.labels, I.unit, I.dual, bad)


def test_associativity_failure_names_its_first_index():
    # Ising with X*X = 1 + 2*delta (X = 2, delta = 1).  Every triple before
    # (delta, X, X) in (x, y, z) order still associates; there
    # (delta*X)*X = X*X = 1 + 2*delta but delta*(X*X) = delta + 2*1, so the
    # coefficients first differ at v = 0.
    I = ising_ring()
    bad = [list(map(list, p)) for p in I.N]
    bad[2][2][1] = 2
    with pytest.raises(AssociativityFail) as info:
        validate_ring(I.labels, I.unit, I.dual, bad)
    assert str(info.value) == "associativity fails at (1, 2, 2) -> 0"


def test_fp_dims():
    I = ising_ring()
    fp = fp_dims(I)
    assert abs(fp.fpdim[0] - 1) < 1e-9 and abs(fp.fpdim[1] - 1) < 1e-9
    assert abs(fp.fpdim[2] - math.sqrt(2)) < 1e-9
    assert abs(fp.total - 4) < 1e-9
    R = group_ring(FinAbGroup((2, 2)))
    fp = fp_dims(R)
    assert all(abs(d - 1) < 1e-12 for d in fp.fpdim)
    assert abs(fp.total - 4) < 1e-9
    S3 = s3_character_ring()
    fp = fp_dims(S3)
    # oracle: the Perron root of [[0,0,1],[0,0,1],[1,1,1]] solves
    # x^2 - x - 2 = 0, so it is exactly 2
    assert abs(fp.fpdim[2] - 2) < 1e-9
    assert abs(fp.total - 6) < 1e-9


def test_fp_dims_kept_per_ring_with_callers_tolerance():
    from braidforge.config import Config

    I = ising_ring()
    first = fp_dims(I)
    loose = fp_dims(I, Config(tolerance=1e-3))
    assert loose.tolerance == 1e-3 and first.tolerance == Config().tolerance
    assert loose.fpdim is first.fpdim and loose.total == first.total
    # the kept values are not part of the ring's value
    assert ising_ring() == I and hash(ising_ring()) == hash(I)


def test_fp_character_property():
    for R in (ising_ring(), s3_character_ring(), group_ring(FinAbGroup((4,)))):
        fp = fp_dims(R)
        for i in range(R.rank):
            for j in range(R.rank):
                want = sum(R.N[i][j][k] * fp.fpdim[k] for k in range(R.rank))
                assert abs(fp.fpdim[i] * fp.fpdim[j] - want) < 1e-6


def test_subring_generated():
    I = ising_ring()
    assert subring_generated(I, (1,)).indices == (0, 1)
    assert subring_generated(I, (2,)).indices == (0, 1, 2)
    assert subring_generated(I, ()).indices == (0,)
    # idempotent closure
    for seed in [(1,), (2,), ()]:
        s = subring_generated(I, seed)
        assert subring_generated(I, s.indices).indices == s.indices


def _s3_group_ring():
    """The non-commutative group ring of S3, basis the six permutations."""
    import itertools

    els = list(itertools.permutations(range(3)))
    idx = {g: i for i, g in enumerate(els)}
    n = len(els)
    N = [[[0] * n for _ in range(n)] for _ in range(n)]
    for a in els:
        for b in els:
            N[idx[a]][idx[b]][idx[tuple(a[b[k]] for k in range(3))]] = 1
    dual = [idx[tuple(sorted(range(3), key=lambda k: g[k]))] for g in els]
    return validate_ring([str(g) for g in els], idx[(0, 1, 2)], dual, N)


def test_subring_lattice_is_every_closure():
    import itertools

    rings = [
        ising_ring(),
        s3_character_ring(),
        _s3_group_ring(),
        group_ring(FinAbGroup((2, 4))),
        product_ring(ising_ring(), ising_ring()),
    ]
    for R in rings:
        closures = {
            subring_generated(R, seed).indices
            for k in range(R.rank + 1)
            for seed in itertools.combinations(range(R.rank), k)
        }
        want = sorted(closures, key=lambda s: (len(s), s))
        assert [s.indices for s in all_subrings(R).subrings] == want
        # the kept lattice gives the same subrings again
        assert [s.indices for s in all_subrings(R).subrings] == want
    assert not _s3_group_ring().is_commutative()


def test_all_subrings():
    I = ising_ring()
    lat = all_subrings(I)
    assert [s.indices for s in lat.subrings] == [(0,), (0, 1), (0, 1, 2)]
    G = FinAbGroup((2, 2))
    R = group_ring(G)
    lat = all_subrings(R)
    from braidforge.abelian import subgroups

    assert len(lat.subrings) == len(subgroups(G))
    one = lat.subrings[0]
    assert len(all_subrings(group_ring(FinAbGroup(()))).subrings) == 1
    # meet and join
    a, b = lat.subrings[1], lat.subrings[2]
    assert set(lat.meet(a, b).indices) == set(a.indices) & set(b.indices)
    assert set(lat.join(a, one).indices) == set(a.indices)


def test_rank_guard():
    R = group_ring(FinAbGroup((16,)))
    with pytest.raises(EnumerationLimit):
        all_subrings(R)


def test_modular_law_spot_checks():
    # commutative table: the subring lattice is modular
    R = group_ring(FinAbGroup((2, 4)))
    lat = all_subrings(R)
    subs = lat.subrings
    for a in subs:
        for b in subs:
            for d in subs:
                if set(d.indices) <= set(a.indices):
                    lhs = lat.meet(a, lat.join(b, d)).indices
                    rhs = lat.join(lat.meet(a, b), d).indices
                    assert lhs == rhs


def _reference_subring_generated(R, seed):
    """The closure by whole passes, each multiplying every pair again, and
    its dual-closure assertion: the library's closure before it closed by
    new elements only."""
    cur = set(seed) | {R.unit}
    while True:
        new = set(cur)
        for i in cur:
            for j in cur:
                new.update(R.constituents(i, j))
        if new == cur:
            break
        cur = new
    assert all(R.dual[i] in cur for i in cur)
    return tuple(sorted(cur))


def _reference_lattice(R):
    """The breadth-first search the library ran before its lattice moved to
    the kernel: every subring found, extended by every index outside it."""
    base = _reference_subring_generated(R, ())
    found, queue = {base}, [base]
    while queue:
        cur = queue.pop()
        for x in range(R.rank):
            if x not in cur:
                ext = _reference_subring_generated(R, cur + (x,))
                if ext not in found:
                    found.add(ext)
                    queue.append(ext)
    return sorted(found, key=lambda s: (len(s), s))


def _oracle_rings():
    """(name, ring) for the subring oracle: Ising to Ising^3, the S3 rings,
    the group ring of every invariant shape of order <= 32, SU(2)_k for
    k = 1..11 and every ring of the golden corpus."""
    import json
    from pathlib import Path

    from braidforge import io as bio
    from test_abelian import invariant_shapes
    from test_su2 import LEVELS, su2

    I = ising_ring()
    II = product_ring(I, I)
    yield from (("Ising", I), ("Ising^2", II), ("Ising^3", product_ring(II, I)),
                ("Rep(S3)", s3_character_ring()), ("Z[S3]", _s3_group_ring()))
    for shape in invariant_shapes(32):
        yield f"Z{shape}", group_ring(FinAbGroup(shape))
    for k in LEVELS:
        yield f"SU(2)_{k}", su2(k).ring
    for path in sorted((Path(__file__).parent / "golden" / "inputs").glob("*.json")):
        try:
            doc = json.loads(path.read_text())
        except RecursionError:   # deep_nesting.json
            continue
        doc = doc.get("ring", doc) if isinstance(doc, dict) else None
        if isinstance(doc, dict) and "N" in doc:
            try:
                yield path.name, bio.ring_from_json(doc)
            except SchemaError:   # the refused tables
                pass


def test_subring_lattice_closures_and_joins_match_the_pass_by_pass_search(monkeypatch):
    from braidforge import fusion
    from braidforge.config import Config

    monkeypatch.setattr(fusion, "_RINGS", {})   # corpus rings without a kept lattice
    rng = random.Random(43)
    names = set()
    for name, R in _oracle_rings():
        names.add(name)
        want = _reference_lattice(R)
        lat = all_subrings(R, Config(rank_guard=max(R.rank, 12)))
        assert [s.indices for s in lat.subrings] == want, name
        r = range(R.rank)
        seeds = [()] + [(x,) for x in r] + [tuple(rng.sample(r, min(k, R.rank)))
                                             for k in (2, 2, 3, 3, 4) for _ in range(4)]
        for seed in seeds:
            got = subring_generated(R, seed)
            assert got.indices == _reference_subring_generated(R, seed), (name, seed)
        subs = lat.subrings
        pairs = list(itertools.product(subs, subs))
        for a, b in pairs if len(pairs) <= 400 else rng.sample(pairs, 400):
            assert lat.join(a, b).indices == _reference_subring_generated(R, a.indices + b.indices)
    assert {"Ising^3", "Z[S3]", "Z(2, 2, 2, 2, 2)", "Z(32,)", "SU(2)_11", "ring_s3.json",
            "datum_ising2.json"} <= names


def test_adjoint_subring():
    assert adjoint_subring(ising_ring()).indices == (0, 1)
    assert adjoint_subring(group_ring(FinAbGroup((4,)))).indices == (0,)
    S3 = s3_character_ring()
    assert adjoint_subring(S3).indices == (0, 1, 2)


def test_universal_grading():
    g = universal_grading(ising_ring())
    assert g.group.orders == (2,)
    assert g.deg[0] == g.deg[1] == (0,) and g.deg[2] == (1,)
    G = FinAbGroup((2, 4))
    g = universal_grading(group_ring(G))
    assert g.group.orders == (2, 4)
    assert len(set(g.deg)) == 8  # singleton components
    g = universal_grading(s3_character_ring())
    assert g.group.orders == ()
    # grading respected on every nonzero entry
    I = ising_ring()
    g = universal_grading(I)
    for i in range(3):
        for j in range(3):
            for k in I.constituents(i, j):
                assert g.deg[k] == g.group.add(g.deg[i], g.deg[j])


def test_universal_grading_noncommutative_rejected():
    # a noncommutative based ring: the group ring shape of S3 itself
    # (not abelian); build a small noncommutative table
    import itertools

    perms = list(itertools.permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    n = 6
    N = [[[0] * n for _ in range(n)] for _ in range(n)]
    for p in perms:
        for q in perms:
            comp = tuple(p[q[i]] for i in range(3))
            N[idx[p]][idx[q]][idx[comp]] = 1
    unit = idx[(0, 1, 2)]
    dual = [0] * n
    for p in perms:
        inv = tuple(sorted(range(3), key=lambda i: p[i]))
        dual[idx[p]] = idx[inv]
    R = validate_ring([str(i) for i in range(n)], unit, dual, N)
    assert not R.is_commutative()
    with pytest.raises(Unsupported):
        universal_grading(R)


def test_pointed_and_integral_parts():
    I = ising_ring()
    assert pointed_part(I).indices == (0, 1)
    assert integral_part(I).indices == (0, 1)
    g = fp_square_grading(I)
    assert g.deg[2] != g.group.zero()  # class of 2
    R = group_ring(FinAbGroup((3,)))
    assert pointed_part(R).indices == (0, 1, 2)
    assert integral_part(R).indices == (0, 1, 2)
    assert fp_square_grading(R).group.orders == ()


def test_ising_square_products():
    II = product_ring(ising_ring(), ising_ring())
    ip = integral_part(II)
    assert ip.rank == 5
    fp = fp_dims(II)
    assert abs(sum(fp.fpdim[i] ** 2 for i in ip.indices) - 8) < 1e-9
    assert abs(fp.total - 16) < 1e-9
    inv = pointed_part(II)
    assert inv.rank == 4


def test_not_weakly_integral():
    # golden ring: 1, t with t^2 = 1 + t; FPdim total = 1 + phi^2 not integral
    N = [[[0] * 2 for _ in range(2)] for _ in range(2)]
    N[0][0][0] = 1
    N[0][1][1] = N[1][0][1] = 1
    N[1][1][0] = 1
    N[1][1][1] = 1
    R = validate_ring(("1", "t"), 0, (0, 1), N)
    with pytest.raises(NotWeaklyIntegral):
        fp_square_grading(R)


def test_equal_tables_parse_to_one_ring(monkeypatch):
    from braidforge import fusion
    from braidforge import io as bio

    monkeypatch.setattr(fusion, "_RINGS", {})
    I = ising_ring()
    obj = bio.ring_to_json(I)
    R = bio.ring_from_json(obj)
    # lists or tuples, a copy of the document: the same table, the same ring
    assert bio.ring_from_json(bio.ring_to_json(I)) is R
    assert validate_ring(list(I.labels), I.unit, list(I.dual), I.N) is R
    assert R == I and R is not I
    # ring-level results are built on the shared object once
    calls = []
    real = fusion._perron_dims
    monkeypatch.setattr(fusion, "_perron_dims", lambda S: calls.append(S) or real(S))
    assert fp_dims(R).fpdim == fp_dims(bio.ring_from_json(obj)).fpdim
    assert calls == [R]
    assert all_subrings(bio.ring_from_json(obj)).subrings == all_subrings(R).subrings
    assert len(fusion._RINGS) == 1


def test_tables_differing_in_labels_are_distinct_rings(monkeypatch):
    from braidforge import fusion

    monkeypatch.setattr(fusion, "_RINGS", {})
    I = ising_ring()
    a = validate_ring(("1", "delta", "X"), 0, I.dual, I.N)
    b = validate_ring(("1", "psi", "sigma"), 0, I.dual, I.N)
    assert a is not b and a.N == b.N
    assert (a.labels, b.labels) == (("1", "delta", "X"), ("1", "psi", "sigma"))
    assert repr(a) == "FusionRing(1, delta, X)" and repr(b) == "FusionRing(1, psi, sigma)"
    assert validate_ring(("1", "psi", "sigma"), 0, I.dual, I.N) is b


def test_invalid_table_raises_on_every_parse(monkeypatch):
    from braidforge import fusion

    monkeypatch.setattr(fusion, "_RINGS", {})
    I = ising_ring()
    bad = [list(map(list, p)) for p in I.N]
    bad[2][2][1] = 2
    for _ in range(2):
        with pytest.raises(AssociativityFail, match=r"at \(1, 2, 2\) -> 0"):
            validate_ring(I.labels, I.unit, I.dual, bad)
    assert fusion._RINGS == {}


# -- algebra generators -------------------------------------------------------

def _word_span_rank(R, gens):
    """Rank over Q, by elimination in Fractions, of the words in ``gens``
    (right products, from the unit), grown a letter at a time until no
    word adds to the span."""
    from fractions import Fraction

    r = R.rank
    unit = [0] * r
    unit[R.unit] = 1
    echelon = []   # (pivot, row with 1 there)

    def add(v):
        v = [Fraction(c) for c in v]
        for p, e in echelon:
            if v[p]:
                v = [a - v[p] * b for a, b in zip(v, e)]
        p = next((i for i, c in enumerate(v) if c), None)
        if p is None:
            return False
        echelon.append((p, [c / v[p] for c in v]))
        return True

    add(unit)
    frontier = [unit]
    while frontier:
        longer = []
        for w in frontier:
            for g in gens:
                wg = [sum(w[u] * R.N[u][g][k] for u in range(r)) for k in range(r)]
                if add(wg):
                    longer.append(wg)
        frontier = longer
    return len(echelon)


def test_algebra_generators_span_the_ring():
    from braidforge import io as bio
    from braidforge.fusion import algebra_generators
    from test_abelian import invariant_shapes

    I = ising_ring()
    rings = [I, product_ring(I, I), s3_character_ring()]
    rings += [group_ring(FinAbGroup(s)) for s in invariant_shapes(16)]
    rings.append(bio.ring_from_json(bio.ring_to_json(group_ring(FinAbGroup((2, 2, 2))))))
    for R in rings:
        gens = algebra_generators(R)
        assert R._gens is gens and algebra_generators(R) is gens   # built once
        assert _word_span_rank(R, gens) == R.rank, R
        # and none of them can be dropped
        assert all(_word_span_rank(R, [g for g in gens if g != h]) < R.rank for h in gens)
    labels = {tuple(R.labels[i] for i in algebra_generators(R)) for R in rings[:2]}
    assert labels == {("X",), ("1*X", "X*1")}
    assert len(algebra_generators(group_ring(FinAbGroup((16,))))) == 1
    assert len(algebra_generators(rings[-1])) == 3   # (Z/2)^3, parsed


def test_subring_closure_is_not_algebra_generation():
    from braidforge.fusion import algebra_generators

    II = product_ring(ising_ring(), ising_ring())
    trap = (II.labels.index("1*X"), II.labels.index("X*X"))
    assert subring_generated(II, trap).indices == tuple(range(9))
    assert _word_span_rank(II, trap) == 7
    assert _word_span_rank(II, algebra_generators(II)) == 9


def test_a_ring_not_known_to_be_associative_gets_every_index():
    # the generators are checked on the ring itself, whoever built it
    from braidforge.fusion import FusionRing, algebra_generators

    I = ising_ring()
    for R in (I, product_ring(I, I), group_ring(FinAbGroup((2, 4)))):
        twin = validate_ring(R.labels, R.unit, R.dual, R.N)
        copy = FusionRing(R.labels, R.unit, R.dual, R.N)
        assert algebra_generators(copy) == algebra_generators(twin)
        assert len(algebra_generators(copy)) < R.rank
    bad = [list(map(list, p)) for p in I.N]
    bad[2][2][1] = 2   # X X = 1 + 2 delta: the unit law holds, associativity fails
    with pytest.raises(AssociativityFail):
        validate_ring(I.labels, I.unit, I.dual, bad)
    B = FusionRing(I.labels, I.unit, I.dual, tuple(tuple(map(tuple, p)) for p in bad))
    assert algebra_generators(B) == (0, 1, 2)
    assert algebra_generators(product_ring(I, B)) == tuple(range(9))


def test_a_ring_without_a_right_unit_gets_every_index(monkeypatch):
    # N[X][1] = 0: no greedy trial could grow the span, so the search,
    # which would never end, is not entered
    from braidforge import fusion

    def never(R):
        raise AssertionError("greedy search entered without the unit law")

    monkeypatch.setattr(fusion, "_greedy_generators", never)
    I = ising_ring()
    N = [[list(row) for row in plane] for plane in I.N]
    N[2][0] = [0, 0, 0]
    R = fusion.FusionRing(I.labels, I.unit, I.dual, tuple(tuple(map(tuple, p)) for p in N))
    assert fusion.algebra_generators(R) == (0, 1, 2)


# -- Light's associativity test ------------------------------------------------

def _reference_verdict(dual, N):
    """(class name, message) of the first axiom failure, or None: the
    checks ``validate_ring`` made with a scan of every triple."""
    r = len(N)
    if sorted(dual) != list(range(r)) or any(dual[dual[i]] != i for i in range(r)):
        return "DualityFail", "dual is not an involution on indices"
    if any(m < 0 for p in N for row in p for m in row):
        return "UnitFail", "negative structure constant"
    for j in range(r):
        for k in range(r):
            want = 1 if j == k else 0
            if N[0][j][k] != want or N[j][0][k] != want:
                return "UnitFail", f"unit law fails at ({j}, {k})"
    support = [[[(w, m) for w, m in enumerate(row) if m] for row in plane] for plane in N]
    for x in range(r):
        for y in range(r):
            for z in range(r):
                lhs = [0] * r
                for w, m in support[x][y]:
                    for v, c in support[w][z]:
                        lhs[v] += m * c
                rhs = [0] * r
                for w, m in support[y][z]:
                    for v, c in support[x][w]:
                        rhs[v] += m * c
                if lhs != rhs:
                    v = next(v for v in range(r) if lhs[v] != rhs[v])
                    return "AssociativityFail", f"associativity fails at ({x}, {y}, {z}) -> {v}"
    for x in range(r):
        for y in range(r):
            if N[x][y][0] != (1 if y == dual[x] else 0):
                return "DualityFail", f"N[{x}][{y}][unit] = {N[x][y][0]} but dual({x}) = {dual[x]}"
    return None


def _verdict(dual, N):
    try:
        validate_ring(tuple(map(str, range(len(N)))), 0, dual, N)
    except RingAxiomError as exc:
        return type(exc).__name__, str(exc)
    return None


def _mutants(R, count, rng):
    """``count`` seeded mutants of R's table (and now and then of its
    duality): one or two entries each moved to another value in 0..2."""
    r = R.rank
    for _ in range(count):
        dual = list(R.dual)
        if rng.random() < 0.05:
            i, j = rng.randrange(1, r), rng.randrange(1, r)
            dual[i], dual[j] = dual[j], dual[i]
        N = [[list(row) for row in plane] for plane in R.N]
        for _ in range(rng.randint(1, 2)):
            x, y, z = (rng.randrange(r) for _ in range(3))
            N[x][y][z] = rng.choice([m for m in range(3) if m != N[x][y][z]])
        yield tuple(dual), N


def test_lights_test_gives_the_verdict_of_the_full_scan(monkeypatch):
    from braidforge import fusion

    monkeypatch.setattr(fusion, "_RINGS", {})
    rng = random.Random(23)
    I = ising_ring()
    tables = [t for R in (I, product_ring(I, I), group_ring(FinAbGroup((16,))),
                          group_ring(FinAbGroup((2, 4))))
              for t in _mutants(R, 150, rng)]
    tables += _rank3_tables()
    outcomes = set()
    for dual, N in tables:
        want = _reference_verdict(dual, N)
        assert _verdict(dual, N) == want, (dual, N)
        outcomes.add(want and want[0])
    assert outcomes == {None, "UnitFail", "AssociativityFail", "DualityFail"}


def test_validating_the_z128_table_is_quick(monkeypatch):
    # Light's test reads |Y| r^2 = 128^2 triples; a scan of all r^3 took
    # seconds more
    from braidforge import fusion

    monkeypatch.setattr(fusion, "_RINGS", {})
    R = group_ring(FinAbGroup((128,)))
    start = time.perf_counter()
    V = validate_ring(R.labels, R.unit, R.dual, R.N)
    assert time.perf_counter() - start < 3.0
    assert V == R and len(fusion.algebra_generators(V)) == 1


# -- Frobenius symmetry --------------------------------------------------------

def _frobenius_rotations_hold(dual, N) -> bool:
    """N_xy^z = N_(z*x)^(y*) = N_(y z*)^(x*) at every (x, y, z): the check
    ``validate_ring`` once made after associativity and duality."""
    r = len(N)
    return all(N[x][y][z] == N[dual[z]][x][dual[y]] == N[y][dual[z]][dual[x]]
               for x in range(r) for y in range(r) for z in range(r))


def _accepts(dual, N) -> bool:
    try:
        validate_ring(tuple(map(str, range(len(N)))), 0, dual, N)
    except RingAxiomError:
        return False
    return True


def _rank3_tables():
    """Every rank-3 table with unit 0, either duality, N_xy^1 as the
    duality asks and each other entry of x, y != 1 in 0..2: 2 * 3^8."""
    for dual in ((0, 1, 2), (0, 2, 1)):
        for free in itertools.product(range(3), repeat=8):
            N = [[[0] * 3 for _ in range(3)] for _ in range(3)]
            for j in range(3):
                N[0][j][j] = N[j][0][j] = 1
            it = iter(free)
            for x in (1, 2):
                for y in (1, 2):
                    N[x][y] = [int(y == dual[x]), next(it), next(it)]
            yield dual, N


def test_accepted_tables_are_frobenius_symmetric(monkeypatch):
    # associativity and N_xy^1 = [y = x*] imply both rotations, so
    # validate_ring does not check them: every rank-3 table of
    # _rank3_tables, and every single-entry change of Ising and of Z/3,
    # that validate_ring accepts satisfies them
    from braidforge import fusion

    monkeypatch.setattr(fusion, "_RINGS", {})
    accepted = 0
    for dual, N in _rank3_tables():
        if _accepts(dual, N):
            accepted += 1
            assert _frobenius_rotations_hold(dual, N), (dual, N)
    assert accepted == 19
    mutants = 0
    for R in (ising_ring(), group_ring(FinAbGroup((3,)))):
        for x, y, z in itertools.product(range(3), repeat=3):
            for value in range(4):
                if value == R.N[x][y][z]:
                    continue
                N = [[list(row) for row in plane] for plane in R.N]
                N[x][y][z] = value
                if _accepts(R.dual, N):
                    mutants += 1
                    assert _frobenius_rotations_hold(R.dual, N), (R, x, y, z, value)
    assert mutants == 3   # X X = 1 + delta + k X in Ising, k = 1, 2, 3


# -- one table: sparse rows, the dense view ------------------------------------

def _reference_group_n(G):
    """The dense table ``group_ring`` built before rows."""
    n, add = G.order, G.add_flat()
    N = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            N[i][j][add[i * n + j]] = 1
    return N


def _reference_ising_n():
    """The dense table ``ising_ring`` built before rows."""
    N = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    table = {(0, 0): [0], (0, 1): [1], (0, 2): [2], (1, 0): [1], (1, 1): [0], (1, 2): [2],
             (2, 0): [2], (2, 1): [2], (2, 2): [0, 1]}
    for (i, j), ks in table.items():
        for k in ks:
            N[i][j][k] = 1
    return N


def _reference_product_n(N1, N2):
    """The dense table ``product_ring`` built before rows."""
    r1, r2 = len(N1), len(N2)
    rank = r1 * r2
    N = [[[0] * rank for _ in range(rank)] for _ in range(rank)]
    for a1, a2, b1, b2, c1, c2 in itertools.product(range(r1), range(r2), range(r1),
                                                    range(r2), range(r1), range(r2)):
        m = N1[a1][b1][c1] * N2[a2][b2][c2]
        if m:
            N[a1 * r2 + a2][b1 * r2 + b2][c1 * r2 + c2] = m
    return N


def _reference_rows(N):
    """Rows as ``_constituents`` was derived from N, with the entries."""
    return tuple(tuple((tuple(k for k, m in enumerate(row) if m > 0),
                        tuple(m for m in row if m > 0)) for row in plane) for plane in N)


def _reference_perron(N):
    """``_perron_dims`` on the dense table, as it was: each sum takes
    every A[z][y] * v[y] in increasing y, the zeros too."""
    dims, r = [], len(N)
    for x in range(r):
        A = [[N[x][y][z] + (1 if y == z else 0) for y in range(r)] for z in range(r)]
        v, lam = [1.0] * r, 1.0
        for _ in range(100_000):
            w = [sum(map(operator.mul, A[z], v)) for z in range(r)]
            tot = sum(w)
            new_lam = tot / sum(v)
            v = [wi / tot for wi in w]
            if abs(new_lam - lam) < 1e-12:
                lam = new_lam
                break
            lam = new_lam
        dims.append(lam - 1.0)
    return tuple(dims)


def _freeze(N):
    return tuple(tuple(map(tuple, plane)) for plane in N)


def _check_one_table(R, N):
    """R's rows and view against the dense reference N; its Perron floats
    bit for bit; its table parsed twice is one ring, whose view is the
    parsed table and whose equal rows are one pair."""
    from braidforge import fusion

    assert R.rows == _reference_rows(N) and R.N == _freeze(N)
    assert fusion._perron_dims(R) == _reference_perron(N), R
    first = validate_ring(list(R.labels), R.unit, list(R.dual), N)
    assert validate_ring(R.labels, R.unit, R.dual, R.N) is first and first == R
    key = next(k for k, v in fusion._RINGS.items() if v is first)
    assert first.N is key[3] and first.rows == R.rows and hash(first) == hash(R)
    pairs = list(itertools.chain.from_iterable(first.rows))
    assert len(set(map(id, pairs))) == len(set(pairs))


def test_constructions_match_their_dense_tables(monkeypatch):
    from test_abelian import invariant_shapes

    from braidforge import fusion

    monkeypatch.setattr(fusion, "_RINGS", {})
    for orders in invariant_shapes(64) + [(128,)]:
        G = FinAbGroup(orders)
        _check_one_table(group_ring(G), _reference_group_n(G))
    I, NI = ising_ring(), _reference_ising_n()
    _check_one_table(I, NI)
    Z4, N4 = group_ring(FinAbGroup((4,))), _reference_group_n(FinAbGroup((4,)))
    II, NII = product_ring(I, I), _reference_product_n(NI, NI)
    for R, N in ((II, NII), (product_ring(II, I), _reference_product_n(NII, NI)),
                 (product_ring(I, Z4), _reference_product_n(NI, N4))):
        _check_one_table(R, N)


def test_corpus_rings_match_their_dense_tables(monkeypatch):
    import json
    import pathlib

    from braidforge import fusion
    from braidforge import io as bio

    monkeypatch.setattr(fusion, "_RINGS", {})
    seen = 0
    for path in sorted(pathlib.Path(__file__).parent.joinpath("golden", "inputs").glob("*.json")):
        try:
            doc = json.loads(path.read_text())
        except RecursionError:   # deep_nesting.json
            continue
        doc = doc.get("ring", doc) if isinstance(doc, dict) else None
        if not isinstance(doc, dict) or "N" not in doc:
            continue
        try:
            R = bio.ring_from_json(doc)
        except SchemaError:   # the refused tables
            continue
        _check_one_table(R, doc["N"])
        assert bio.ring_to_json(R) == doc
        seen += 1
    assert seen > 20


def test_rank3_tables_match_their_rows(monkeypatch):
    # the 13,122 tables of test_accepted_tables_are_frobenius_symmetric,
    # accepted or not
    from braidforge import fusion

    monkeypatch.setattr(fusion, "_RINGS", {})
    labels = ("0", "1", "2")
    for dual, N in _rank3_tables():
        R = fusion.FusionRing(labels, 0, dual, _freeze(N))
        assert R.rows == _reference_rows(N) and R.N == _freeze(N)
        if _accepts(dual, N):
            _check_one_table(R, N)
