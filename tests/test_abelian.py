"""Group substrate: canonical forms, subgroups, quotients, automorphisms.

Derived expectations are recomputed here by independent brute force
(power-set closure scans, bijection searches) before being asserted
against the library path.
"""

import itertools
import random
from types import MappingProxyType

import pytest

from braidforge import abelian
from braidforge.abelian import (
    FinAbGroup,
    GroupHom,
    Subgroup,
    aut_order,
    automorphism_perms,
    automorphisms,
    canonical_form,
    quotient,
    subgroups,
)
from braidforge.config import Config
from braidforge.errors import EnumerationLimit, InvalidPresentation, NotASubgroup


def brute_subgroup_count(G):
    """Oracle: scan all subsets for closure (feasible up to |G| = 16)."""
    els = G.elements()
    n = len(els)
    count = 0
    for mask in range(1 << n):
        if not mask & 1:  # zero element, which is index 0, must be in
            continue
        chosen = [els[i] for i in range(n) if mask >> i & 1]
        cset = set(chosen)
        if all(G.add(a, b) in cset for a in chosen for b in chosen):
            count += 1
    return count


def brute_automorphism_count(G):
    """Oracle: scan all bijections of the element set (tiny groups only)."""
    els = G.elements()
    count = 0
    for perm in itertools.permutations(range(len(els))):
        if perm[0] != 0:
            continue
        if all(
            els[perm[G.index(G.add(a, b))]]
            == G.add(els[perm[G.index(a)]], els[perm[G.index(b)]])
            for a in els
            for b in els
        ):
            count += 1
    return count


def test_canonical_form_crt():
    G, iso = canonical_form([2, 3])
    assert G.orders == (6,)
    assert iso.is_isomorphism()


def test_canonical_form_reorder():
    G, iso = canonical_form([4, 2])
    assert G.orders == (2, 4)
    assert iso.is_isomorphism()


def test_canonical_form_smith():
    # oracle: Z/6 x Z/4 and Z/2 x Z/12 have equal element-order multisets
    # and a brute-force isomorphism exists
    G, iso = canonical_form([6, 4])
    assert G.orders == (2, 12)
    assert iso.is_isomorphism()
    src = FinAbGroup((6, 4))
    orders_src = sorted(src.element_order(e) for e in src.elements())
    orders_dst = sorted(G.element_order(e) for e in G.elements())
    assert orders_src == orders_dst


def test_canonical_form_idempotent_and_order_preserving():
    for orders in [(2,), (2, 4), (3, 9), (2, 2, 2), (6,)]:
        G, _ = canonical_form(orders)
        G2, iso2 = canonical_form(G.orders)
        assert G2.orders == G.orders
        assert iso2.is_isomorphism()
        assert G.order == FinAbGroup(orders).order


def test_canonical_form_rejects_bad_entries():
    with pytest.raises(InvalidPresentation):
        canonical_form([2, 1])


@pytest.mark.parametrize(
    "orders, expected",
    [((2,), 2), ((2, 2), 5), ((4,), 3)],
)
def test_subgroup_counts_interface(orders, expected):
    assert len(subgroups(FinAbGroup(orders))) == expected


@pytest.mark.parametrize("orders", [(2,), (3,), (4,), (2, 2), (6,), (2, 4), (2, 2, 2), (12,), (3, 3)])
def test_subgroups_match_power_set_oracle(orders):
    G = FinAbGroup(orders)
    assert len(subgroups(G)) == brute_subgroup_count(G)


def test_subgroups_lagrange_and_determinism():
    G = FinAbGroup((2, 4))
    subs = subgroups(G)
    assert all(G.order % s.order == 0 for s in subs)
    assert subs[0].order == 1 and subs[-1].order == G.order
    assert [s.elements for s in subs] == sorted(
        (s.elements for s in subs), key=lambda e: (len(e), e)
    )
    # closed and duplicate-free by construction
    for s in subs:
        assert len(set(s.elements)) == len(s.elements)


def test_quotient_examples():
    G = FinAbGroup((4,))
    Q, proj = quotient(G, Subgroup.generated(G, [(2,)]))
    assert Q.orders == (2,)
    assert set(proj.kernel_elements()) == {(0,), (2,)}

    Q2, _ = quotient(G, Subgroup.full(G))
    assert Q2.orders == ()

    G24 = FinAbGroup((2, 4))
    H = Subgroup.generated(G24, [(1, 2)])
    Q3, proj3 = quotient(G24, H)
    assert Q3.orders == (4,)
    # oracle: coset count and surjectivity
    images = {proj3(g) for g in G24.elements()}
    assert len(images) == 4
    assert set(proj3.kernel_elements()) == set(H.elements)


def test_quotient_rejects_foreign_subgroup():
    G = FinAbGroup((4,))
    H = Subgroup.generated(FinAbGroup((2, 2)), [(1, 0)])
    with pytest.raises(NotASubgroup):
        quotient(G, H)


@pytest.mark.parametrize(
    "orders, expected",
    [((4,), 2), ((2, 2), 6), ((2, 4), 8), ((6,), 2)],
)
def test_automorphism_counts(orders, expected):
    G = FinAbGroup(orders)
    auts = automorphisms(G)
    assert len(auts) == expected
    assert len(auts) == brute_automorphism_count(G)


def invariant_shapes(limit):
    """Oracle: every divisor chain m_1 | m_2 | ... with product <= limit."""
    out = []

    def rec(prefix, prod):
        for m in range(prefix[-1] if prefix else 2, limit // prod + 1):
            if not prefix or m % prefix[-1] == 0:
                out.append(prefix + (m,))
                rec(prefix + (m,), prod * m)

    rec((), 1)
    return out


def test_aut_order_matches_enumeration():
    shapes = [s for s in invariant_shapes(36) if s != (2,) * 5]
    assert len(shapes) == 60
    for orders in shapes:
        assert aut_order(orders) == len(automorphism_perms(FinAbGroup(orders))), orders
    assert aut_order(()) == len(automorphism_perms(FinAbGroup(()))) == 1
    # |GL_5(F_2)|, and a presentation outside invariant-factor form
    assert aut_order((2,) * 5) == 9999360
    assert aut_order((6, 4)) == aut_order((2, 12)) == 16


def test_aut_count_cap_refuses_after_a_larger_cap_enumerated():
    G = FinAbGroup((2, 2, 2))  # |Aut| = |GL_3(F_2)| = 168
    assert len(automorphism_perms(G, Config(aut_count_cap=168))) == 168
    with pytest.raises(EnumerationLimit, match=r"\|Aut\(G\)\| = 168 exceeds aut_count_cap = 167"):
        automorphism_perms(G, Config(aut_count_cap=167))


def test_automorphism_perms_returns_a_fresh_list():
    G = FinAbGroup((2, 4))
    first = automorphism_perms(G)
    want = list(first)
    first.clear()
    assert automorphism_perms(G) == want


def test_automorphisms_form_a_group():
    G = FinAbGroup((2, 4))
    auts = automorphisms(G)
    keyed = {tuple(a(g) for g in G.elements()): a for a in auts}
    assert len(keyed) == len(auts)
    ident = tuple(G.elements())
    assert ident in keyed
    for a in auts:
        for b in auts:
            comp = a.compose(b)
            assert tuple(comp(g) for g in G.elements()) in keyed
    # inverses present: composition table row is a permutation hitting id
    for a in auts:
        assert any(
            tuple(a.compose(b)(g) for g in G.elements()) == ident for b in auts
        )


def test_subgroup_generators_generate():
    G = FinAbGroup((2, 2, 4))
    for s in subgroups(G):
        regen = Subgroup.generated(G, s.generators)
        assert regen.elements == s.elements


def test_hom_validation():
    G = FinAbGroup((4,))
    H = FinAbGroup((2,))
    with pytest.raises(InvalidPresentation):
        # order-4 generator cannot land on an element of order 4 in Z/2...
        # (1,) has order 2, fine; reject wrong arity instead
        GroupHom(G, H, ((1,), (0,)))
    hom = GroupHom(G, H, ((1,),))
    assert hom((3,)) == (1,)


def gaussian_binomial(n, k, q=2):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def test_subgroup_counts_formula_oracles():
    # elementary abelian: sum of Gaussian binomials; cyclic: divisor count
    G = FinAbGroup((2,) * 5)
    assert len(subgroups(G)) == sum(gaussian_binomial(5, k) for k in range(6))
    G = FinAbGroup((2,) * 6)
    assert len(subgroups(G)) == sum(gaussian_binomial(6, k) for k in range(7))
    assert len(subgroups(FinAbGroup((64,)))) == 7
    assert len(subgroups(FinAbGroup((3, 3, 3)))) == sum(
        gaussian_binomial(3, k, 3) for k in range(4)
    )
    # rank 2: subgroup count of Z_m x Z_n is sum over d | gcd of
    # phi(d) tau(m/d) tau(n/d)  (divisor-sum identity)
    import math as _m

    def tau(n):
        return sum(1 for d in range(1, n + 1) if n % d == 0)

    def phi(n):
        return sum(1 for k in range(1, n + 1) if _m.gcd(k, n) == 1)

    for m, n in [(4, 8), (2, 16), (4, 4), (6, 6)]:
        want = sum(
            phi(d) * tau(m // d) * tau(n // d)
            for d in range(1, _m.gcd(m, n) + 1)
            if m % d == 0 and n % d == 0
        )
        got = len(subgroups(FinAbGroup((m, n)) if m <= n else FinAbGroup((n, m))))
        assert got == want, (m, n, got, want)


def test_quotient_order_over_all_subgroups():
    for orders in [(2, 4), (12,), (3, 3)]:
        G = FinAbGroup(orders)
        for s in subgroups(G):
            Q, proj = quotient(G, s)
            assert Q.order * s.order == G.order
            assert len({proj(g) for g in G.elements()}) == Q.order
            assert set(proj.kernel_elements()) == set(s.elements)


def test_smith_diagonal_properties():
    import random

    from braidforge.abelian import smith_diagonal

    rng = random.Random(6)
    for _ in range(40):
        r = rng.randrange(1, 5)
        c = rng.randrange(1, 6)
        M = [[rng.randrange(-9, 10) for _ in range(c)] for _ in range(r)]
        diag, U = smith_diagonal(M)
        # U is unimodular
        det = _int_det([row[:] for row in U])
        assert det in (1, -1)
        # divisibility chain on the nonzero part
        nz = [d for d in diag if d != 0]
        assert all(nz[i + 1] % nz[i] == 0 for i in range(len(nz) - 1))
        assert all(d >= 0 for d in diag)
        # square nonsingular: the diagonal product is |det M|
        if r == c:
            dm = abs(_int_det([row[:] for row in M]))
            prod = 1
            for d in diag:
                prod *= d
            assert prod == dm


def _int_det(M):
    from fractions import Fraction

    n = len(M)
    A = [[Fraction(x) for x in row] for row in M]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if A[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            A[col], A[piv] = A[piv], A[col]
            det = -det
        det *= A[col][col]
        inv = 1 / A[col][col]
        for r in range(col + 1, n):
            if A[r][col]:
                f = A[r][col] * inv
                A[r] = [x - f * y for x, y in zip(A[r], A[col])]
    assert det.denominator == 1
    return int(det)


def test_subgroup_structure_maps_are_isomorphisms():
    import random

    from braidforge.qform import _sub_structure

    rng = random.Random(17)
    for orders in [(2, 4), (4, 4), (2, 2, 2), (2, 8), (12,), (2, 2, 4)]:
        G = FinAbGroup(orders)
        subs = subgroups(G)
        for H in rng.sample(subs, min(6, len(subs))):
            K, to_K, from_K = _sub_structure(G, [G.index(g) for g in H.generators])
            assert K.order == H.order
            assert set(to_K) == set(H.indices())
            for a in H.elements:
                for b in H.elements:
                    ka, kb = (K.from_index(to_K[G.index(x)]) for x in (a, b))
                    assert to_K[G.index(G.add(a, b))] == K.index(K.add(ka, kb))
            assert all(from_K[to_K[a]] == a for a in H.indices())
            assert sorted(from_K) == list(H.indices())


# -- the structure a group keeps per subgroup -----------------------------------

_KEPT = (abelian._minimal_generators, abelian._sub_structure, abelian._quotient_images)


def _plain(value):
    """A kept value with its read-only mappings as dicts, for comparison."""
    if isinstance(value, tuple):
        return tuple(map(_plain, value))
    return dict(value) if isinstance(value, MappingProxyType) else value


def _subgroups_to_check():
    """Every subgroup of every group of order <= 16, then a seeded six of
    each group of order 17 to 36."""
    rng = random.Random(18)
    for orders in invariant_shapes(36):
        G = FinAbGroup(orders)
        subs = subgroups(G, Config(enum_guard=64))
        for H in subs if G.order <= 16 else rng.sample(subs, min(6, len(subs))):
            yield G, H


def _kept_args(H):
    """The argument of each function in _KEPT for the subgroup H."""
    return H.idx, H.gen_idx, H.gen_idx


def test_kept_subgroup_structure_equals_a_fresh_computation():
    abelian._TABLE_CACHE.clear()
    for G, H in _subgroups_to_check():
        for fn, arg in zip(_KEPT, _kept_args(H)):
            fresh = _plain(fn.__wrapped__(G, arg))
            first = fn(G, list(arg))    # a list and a tuple hit one line
            assert fn(G, tuple(arg)) is first, (fn.__name__, G, H)
            assert _plain(first) == fresh, (fn.__name__, G, H)
    # and the same answers again once the memo is refilled from empty
    def answers():
        return _plain(tuple(tuple(fn(G, arg) for fn, arg in zip(_KEPT, _kept_args(H)))
                            for G, H in _subgroups_to_check()))

    kept = answers()
    abelian._TABLE_CACHE.clear()
    assert answers() == kept


def test_kept_subgroup_structure_is_immutable():
    G = FinAbGroup((2, 4, 4))
    H = Subgroup.generated(G, [(1, 2, 0), (0, 1, 1)])
    gens, (K, to_K, from_K), (Q, images) = (
        fn(G, arg) for fn, arg in zip(_KEPT, _kept_args(H)))

    def leaves(value):
        if isinstance(value, (tuple, MappingProxyType)):
            for v in (value.items() if isinstance(value, MappingProxyType) else value):
                yield from leaves(v)
        else:
            yield value

    assert all(type(v) in (int, FinAbGroup) for v in leaves((gens, K, to_K, from_K, Q, images)))
    with pytest.raises(TypeError):
        to_K[0] = 1
    with pytest.raises(AttributeError):
        to_K.clear()


def test_subgroup_index_tuple_must_hold_zero_and_be_closed():
    G = FinAbGroup((2, 4))
    assert Subgroup(G, (0, 2, 4, 6)).elements == ((0, 0), (0, 2), (1, 0), (1, 2))
    with pytest.raises(NotASubgroup, match="missing zero"):
        Subgroup(G, (2, 4, 6))
    with pytest.raises(NotASubgroup, match="not closed"):
        Subgroup(G, (0, 1))
    with pytest.raises(NotASubgroup, match="not closed"):
        Subgroup(G, (0, 2, 4))
    with pytest.raises(NotASubgroup, match="outside"):
        Subgroup(G, (0, 8))


def test_unchecked_subgroups_hold_zero_and_are_closed(monkeypatch):
    """Every subgroup the library wraps unchecked in one pass of the
    benchmark's form_stream requests (seed 7), and in ``generated`` and
    ``orthogonal_complement`` on every form of two groups, is sorted,
    holds 0 and is closed."""
    import sys
    from pathlib import Path

    from braidforge import kernels, qform

    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    made = []
    real = Subgroup.closed.__func__

    def closed(cls, G, idx):
        made.append((sys._getframe(1).f_code.co_name, G, tuple(idx)))
        return real(cls, G, idx)

    monkeypatch.setattr(Subgroup, "closed", classmethod(closed))
    for visit in workloads.stream_setup(7):
        gen, out = visit(), None
        while True:
            try:
                req = gen.send(out)
            except StopIteration:
                break
            try:
                out = req.run()
            except EnumerationLimit:   # the (Z/2)^5 refusal ends its visit
                break
    for orders in ((2, 4), (2, 2, 2)):
        G = FinAbGroup(orders)
        for gens in itertools.combinations(G.elements(), 2):
            Subgroup.generated(G, gens)
        for M in qform.all_forms(G):
            for r in qform.isotropic_subgroups(M):
                qform.orthogonal_complement(M, r.subgroup)
    callers = {"degeneracy", "isotropic_subgroups", "anisotropic_quotient", "generated",
               "orthogonal_complement"}
    assert {name for name, _, _ in made} == callers
    for name, G, idx in made:
        assert idx[0] == 0 and list(idx) == sorted(set(idx)), (name, G, idx)
        assert kernels.closure(G.order, G.add_flat(), idx) == idx, (name, G, idx)


def _coordinate_eval(hom, a):
    """Reference: sum of a_i times the i-th generator image, on coordinates."""
    T = hom.target
    out = T.zero()
    for x, im in zip(a, hom.images):
        out = T.add(out, T.mul(x, im))
    return out


def test_hom_table_matches_coordinate_evaluation():
    import random

    rng = random.Random(29)
    checked = 0
    for orders in invariant_shapes(16):
        G = FinAbGroup(orders)
        auts = automorphism_perms(G)
        homs = [GroupHom.from_table(G, G, p) for p in rng.sample(auts, min(12, len(auts)))]
        homs += [quotient(G, H)[1] for H in subgroups(G)]
        homs.append(canonical_form(tuple(reversed(orders)))[1])
        for hom in homs:
            S, T = hom.source, hom.target
            for i, a in enumerate(S.elements()):
                want = _coordinate_eval(hom, a)
                assert hom.table[i] == T.index(want) and hom(a) == want, (orders, hom)
            assert GroupHom(S, T, hom.images) == hom
            checked += 1
    assert checked > 400


def test_table_composition_matches_coordinate_compose():
    G = FinAbGroup((2, 4))
    auts = automorphisms(G)
    assert len(auts) == 8
    for a in auts:
        for b in auts:
            by_coords = GroupHom(G, G, tuple(_coordinate_eval(a, im) for im in b.images))
            by_table = GroupHom.from_table(G, G, [a.table[i] for i in b.table])
            assert a.compose(b) == by_coords == by_table


def test_both_hom_constructors_check_annihilation():
    Z2, Z4 = FinAbGroup((2,)), FinAbGroup((4,))
    with pytest.raises(InvalidPresentation, match="not annihilated"):
        GroupHom(Z2, Z4, ((1,),))
    with pytest.raises(InvalidPresentation, match="not annihilated"):
        GroupHom.on_indices(Z2, Z4, (1,))
    assert GroupHom.on_indices(Z2, Z4, (2,)) == GroupHom(Z2, Z4, ((2,),))
