"""Property-based invariants (hypothesis)."""

import math
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from braidforge.abelian import FinAbGroup, canonical_form
from braidforge.cyclotomic import CycloNum, root_sum
from braidforge.qform import direct_sum, random_form, validate
from braidforge.witt import tau_plus
from test_numeric_oracle import as_complex, close

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)
root_exps = st.builds(F, st.integers(0, 47), st.just(48))


def cyclos(max_terms=3):
    return st.lists(
        st.tuples(root_exps, fractions), min_size=1, max_size=max_terms
    ).map(root_sum)


@settings(max_examples=60, deadline=None)
@given(cyclos(), cyclos(), cyclos())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a
    if not a.is_zero():
        assert a * a.inverse() == CycloNum.one()


# odd and composite conductors, with non-cyclic Galois groups at 8, 12,
# 15, 20 and 21 and joins up to 420
mixed_exps = st.sampled_from([1, 3, 4, 5, 7, 8, 9, 12, 15, 20, 21]).flatmap(
    lambda b: st.builds(F, st.integers(0, b - 1), st.just(b))
)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(mixed_exps, fractions), min_size=1, max_size=2).map(root_sum))
def test_inverse_over_mixed_conductors(a):
    if a.is_zero():
        return
    inv = a.inverse()
    assert a * inv == CycloNum.one()
    assert close(as_complex(inv), 1 / as_complex(a))


@settings(max_examples=60, deadline=None)
@given(cyclos(), cyclos())
def test_conjugation_is_a_ring_map(a, b):
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert a.conjugate().conjugate() == a


@settings(max_examples=60, deadline=None)
@given(root_exps, root_exps)
def test_embed_multiplicative_and_conjugate(r, s):
    assert CycloNum.from_root(r) * CycloNum.from_root(s) == CycloNum.from_root(r + s)
    assert CycloNum.from_root(r).conjugate() == CycloNum.from_root((-r) % 1)


@settings(max_examples=40, deadline=None)
@given(cyclos())
def test_rationality_iff_all_galois_conjugates_agree(a):
    rational = a.as_rational() is not None
    fixed = all(g == a for g in a.galois_conjugates())
    assert rational == fixed


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(2, 9), min_size=0, max_size=3))
def test_canonical_form_idempotent(orders):
    G, iso = canonical_form(orders)
    assert G.is_invariant_form
    assert iso.is_isomorphism()
    G2, _ = canonical_form(G.orders)
    assert G2.orders == G.orders
    assert G.order == math.prod(orders)


group_strategy = st.sampled_from(
    [(2,), (3,), (4,), (2, 2), (5,), (6,), (8,), (2, 4), (9,), (3, 3), (12,)]
)


@settings(max_examples=40, deadline=None)
@given(group_strategy, st.randoms(use_true_random=False))
def test_square_scaling(orders, rng):
    M = random_form(FinAbGroup(orders), rng)
    G = M.group
    for g in G.elements():
        for n in (2, 3, G.exponent - 1):
            assert M.q(G.mul(n, g)) == (n * n * M.q(g)) % 1


@settings(max_examples=30, deadline=None)
@given(group_strategy, group_strategy, st.randoms(use_true_random=False))
def test_gauss_multiplicativity(o1, o2, rng):
    M1 = random_form(FinAbGroup(o1), rng)
    M2 = random_form(FinAbGroup(o2), rng)
    S = direct_sum(M1, M2)
    assert tau_plus(S) == tau_plus(M1) * tau_plus(M2)


@settings(max_examples=30, deadline=None)
@given(group_strategy, st.randoms(use_true_random=False))
def test_random_forms_validate(orders, rng):
    M = random_form(FinAbGroup(orders), rng)
    validate(M.group, M.values)


@settings(max_examples=30, deadline=None)
@given(group_strategy, st.randoms(use_true_random=False))
def test_serialization_roundtrip(orders, rng):
    from braidforge import io as bio

    M = random_form(FinAbGroup(orders), rng)
    assert bio.qform_from_json(bio.qform_to_json(M)).values == M.values
