"""Quadratic-form theory: validation, isotropy, cores, classification."""

import itertools
import math
import random
from fractions import Fraction as F

import pytest

from braidforge import abelian
from braidforge.abelian import FinAbGroup, Subgroup, subgroups
from braidforge.config import Config
from braidforge.errors import (
    EnumerationLimit,
    NotAnisotropic,
    NotEven,
    NotIsotropic,
    NotNormalized,
    NotQuadratic,
)
from braidforge.qform import (
    AnisotropicLabel,
    PreMetricGroup,
    a_form,
    all_forms,
    anisotropic_catalog,
    bicharacter,
    build_labeled_form,
    classify_anisotropic,
    core,
    degeneracy,
    direct_sum,
    hyperbolic_plane,
    is_anisotropic,
    is_weakly_anisotropic,
    isomorphic,
    isotropic_subgroups,
    m_form,
    odd_norm,
    odd_rank1,
    orthogonal_complement,
    q_automorphism_perms,
    quotient_form,
    random_form,
    restrict,
    slight_deg2,
    slight_deg4,
    trivial_form,
    validate,
    wap_decompose,
)
from test_abelian import invariant_shapes


def brute_isotropic(M):
    """Oracle: filter the full subgroup list for q = 0."""
    return sorted(
        s.elements
        for s in subgroups(M.group)
        if all(M.q(e) == 0 for e in s.elements)
    )


def test_validate_examples():
    validate(FinAbGroup((4,)), [F(n * n, 8) for n in range(4)])
    validate(FinAbGroup((2,)), [F(0), F(1, 4)])
    with pytest.raises(NotEven):
        validate(FinAbGroup((4,)), [F(n, 4) for n in range(4)])
    with pytest.raises(NotQuadratic):
        # even, normalized, but the polarization is not biadditive
        validate(FinAbGroup((8,)), [F(0), F(1, 3), F(0), F(1, 3), F(0), F(1, 3), F(0), F(1, 3)])


def test_bicharacter_examples():
    Ai = a_form(F(1, 4))
    assert bicharacter(Ai).b((1,), (1,)) == F(1, 2)
    for p in (2, 3, 5):
        H = hyperbolic_plane(p)
        assert bicharacter(H).b((1, 0), (0, 1)) == F(1, p)
    Z = PreMetricGroup(FinAbGroup((2, 2)), (F(0),) * 4)
    assert all(v == 0 for v in bicharacter(Z).table)


def test_degeneracy_examples():
    assert degeneracy(slight_deg2()).tag == "slightly_degenerate"
    assert degeneracy(a_form()).tag == "nondegenerate"
    assert degeneracy(PreMetricGroup(FinAbGroup((2,)), (F(0), F(0)))).tag == "degenerate_other"
    assert degeneracy(slight_deg4()).tag == "slightly_degenerate"


def test_orthogonal_complement():
    H2 = hyperbolic_plane(2)
    line = Subgroup.generated(H2.group, [(1, 0)])
    assert orthogonal_complement(H2, line).elements == line.elements
    assert orthogonal_complement(H2, Subgroup.trivial(H2.group)).order == 4
    # metric: |H| |H-perp| = |G| over all subgroups
    for M in (H2, odd_norm(3), m_form(F(1, 8))):
        for s in subgroups(M.group):
            perp = orthogonal_complement(M, s)
            assert s.order * perp.order == M.order


def test_isotropic_subgroups_against_oracle():
    rng = random.Random(7)
    cases = [hyperbolic_plane(2), odd_norm(3), slight_deg4(), hyperbolic_plane(3)]
    for orders in [(4,), (2, 4), (2, 2, 2), (9,), (3, 3), (12,)]:
        cases.append(random_form(FinAbGroup(orders), rng))
    for M in cases:
        got = sorted(r.subgroup.elements for r in isotropic_subgroups(M))
        assert got == brute_isotropic(M)
        for rec in isotropic_subgroups(M):
            perp = orthogonal_complement(M, rec.subgroup)
            assert set(rec.subgroup.elements) <= set(perp.elements)
            assert rec.is_lagrangian == (rec.subgroup.elements == perp.elements)


def test_isotropic_flags_hyperbolic():
    recs = isotropic_subgroups(hyperbolic_plane(2))
    assert len(recs) == 3
    assert sum(1 for r in recs if r.is_lagrangian) == 2
    aniso = odd_norm(3)
    assert [r.subgroup.order for r in isotropic_subgroups(aniso)] == [1]


def test_quotient_form():
    H2 = hyperbolic_plane(2)
    line = Subgroup.generated(H2.group, [(1, 0)])
    assert quotient_form(H2, line).group.orders == ()
    Ai = a_form()
    same = quotient_form(Ai, Subgroup.trivial(Ai.group))
    assert same.values == Ai.values
    D = direct_sum(Ai, a_form(F(3, 4)))
    diag = Subgroup.generated(D.group, [(1, 1)])
    assert quotient_form(D, diag).group.orders == ()
    with pytest.raises(NotIsotropic):
        quotient_form(Ai, Subgroup.full(Ai.group))


def test_rational_and_internal_forms_compare_and_hash_alike():
    Z2 = FinAbGroup((2,))
    A = PreMetricGroup(Z2, ["0/1", "1/4"])
    same = [
        PreMetricGroup(Z2, [F(0), F(2, 8)]),
        PreMetricGroup.at_level(Z2, 16, [16, -12]),
        # Z/8 with q(n) = n^2/16 modulo its isotropic <4>: the level drops to 4
        quotient_form(PreMetricGroup(FinAbGroup((8,)), [F(n * n, 16) for n in range(8)]),
                      Subgroup.generated(FinAbGroup((8,)), [(4,)])),
        direct_sum(trivial_form(), A),
        direct_sum(A, trivial_form()),
        A.negated().negated(),
        a_form(F(1, 4)),
    ]
    for M in same:
        assert M == A and hash(M) == hash(A) and M.level == 4, M
    S = PreMetricGroup(Z2, ["0", "2/4"])
    assert S == PreMetricGroup(Z2, [F(0), F(1, 2)]) == slight_deg2()
    assert hash(S) == hash(slight_deg2()) and S.level == 2
    D = direct_sum(a_form(F(1, 4)), a_form(F(3, 4)))
    T = quotient_form(D, Subgroup.generated(D.group, [(1, 1)]))
    assert T == trivial_form() == PreMetricGroup(FinAbGroup(()), [F(0, 7)])
    assert hash(T) == hash(trivial_form()) and T.level == 1


def test_restrict():
    H2 = hyperbolic_plane(2)
    line = Subgroup.generated(H2.group, [(1, 0)])
    R = restrict(H2, line)
    assert R.group.orders == (2,) and all(v == 0 for v in R.values)
    # restriction to a dependent generating set still lands on the
    # right abstract group
    G = FinAbGroup((2, 4))
    M = random_form(G, random.Random(3))
    full = restrict(M, Subgroup.full(G))
    assert full.group.orders == (2, 4)
    assert isomorphic(full, M) is not None


def test_direct_sum_neutral_and_examples():
    M = m_form(F(5, 8))
    S = direct_sum(M, trivial_form())
    assert isomorphic(S, M) is not None
    AA = direct_sum(a_form(), a_form())
    assert AA.order == 4
    assert isomorphic(AA, m_form(F(1, 4))) is not None  # A_i + A_i is the order-4 form with value i


def test_isomorphic_examples():
    # M_xi + A_i = M_{i xi} + A_{-i}
    left = direct_sum(m_form(F(1, 8)), a_form(F(1, 4)))
    right = direct_sum(m_form(F(3, 8)), a_form(F(3, 4)))
    hom = isomorphic(left, right)
    assert hom is not None
    assert all(left.q(g) == right.q(hom(g)) for g in left.group.elements())
    # A_i and A_{-i} differ (only one nontrivial bijection to check)
    assert isomorphic(a_form(F(1, 4)), a_form(F(3, 4))) is None
    M = odd_norm(5)
    assert isomorphic(M, M) is not None


def test_core_examples():
    for p in (2, 3, 5):
        res = core(hyperbolic_plane(p))
        assert res.core.group.orders == ()
        assert res.subgroup.order == p
    M = odd_norm(3)
    res = core(M)
    assert res.core.values == M.values
    assert len(res.gamma) == 8  # the full isometry group of the norm form


def test_core_well_defined_on_samples():
    rng = random.Random(11)
    tried = 0
    for _ in range(300):
        orders = rng.choice([(4,), (8,), (2, 4), (2, 2), (9,), (3, 3), (12,), (16,), (2, 8)])
        M = random_form(FinAbGroup(orders), rng)
        recs = isotropic_subgroups(M)
        maxima = [r.subgroup for r in recs if r.is_maximal]
        if len(maxima) < 2:
            continue
        tried += 1
        quots = [quotient_form(M, H) for H in maxima]
        assert all(isomorphic(quots[0], q) is not None for q in quots[1:])
        if tried >= 25:
            break
    assert tried >= 10


def test_core_is_anisotropic():
    rng = random.Random(5)
    for _ in range(40):
        orders = rng.choice([(4,), (2, 4), (2, 2, 2), (9,), (6,), (12,)])
        M = random_form(FinAbGroup(orders), rng)
        assert is_anisotropic(core(M).core)


def test_classification_examples():
    lab = classify_anisotropic(odd_rank1(3))
    assert lab == (AnisotropicLabel("OddRank1", 3, (1,)),)
    lab = classify_anisotropic(odd_norm(2))
    assert lab == (AnisotropicLabel("M", 2, (F(1, 2),)),)
    lab = classify_anisotropic(slight_deg4())
    assert lab == (AnisotropicLabel("SlightDeg4", 2),)
    with pytest.raises(NotAnisotropic):
        classify_anisotropic(hyperbolic_plane(2))


def test_classification_roundtrip():
    for p, orders in [(2, (2,)), (2, (4,)), (2, (8,)), (3, (3,)), (3, (9,)), (5, (5,)), (5, (25,))]:
        for o in (2, 4, 8) if p == 2 else (p, p * p):
            for lab in anisotropic_catalog(p, o):
                M = build_labeled_form(lab)
                assert classify_anisotropic(M) == (lab,)
                assert isomorphic(M, build_labeled_form(classify_anisotropic(M)[0])) is not None


def test_classification_invariant_under_presentation():
    # every anisotropic form on order-8 2-groups maps to a catalog label,
    # and isomorphic forms share it
    for orders in [(2, 4), (2, 2, 2)]:
        G = FinAbGroup(orders)
        by_label = {}
        for M in all_forms(G):
            if is_anisotropic(M):
                lab = classify_anisotropic(M)
                by_label.setdefault(lab, []).append(M)
        for lab, forms in by_label.items():
            for M in forms[1:]:
                assert isomorphic(forms[0], M) is not None


def test_weak_anisotropy_examples():
    assert is_weakly_anisotropic(hyperbolic_plane(3))
    mult, aniso = wap_decompose(hyperbolic_plane(3))
    assert mult == {3: 1} and aniso.order == 1
    Z9 = PreMetricGroup(FinAbGroup((9,)), tuple(F(a * a, 9) for a in range(9)))
    assert not is_weakly_anisotropic(Z9)
    assert wap_decompose(Z9) is None
    assert is_weakly_anisotropic(direct_sum(a_form(), a_form()))


def test_wap_decomposition_reassembles():
    rng = random.Random(23)
    hits = 0
    for _ in range(120):
        orders = rng.choice([(2, 2), (4,), (2, 4), (2, 2, 2), (3, 3), (9,)])
        M = random_form(FinAbGroup(orders), rng)
        if not is_weakly_anisotropic(M):
            continue
        hits += 1
        mult, aniso = wap_decompose(M)
        total = aniso
        for p, k in mult.items():
            for _ in range(k):
                total = direct_sum(total, hyperbolic_plane(p))
        assert isomorphic(M, total) is not None
    assert hits >= 15


def test_square_scaling_invariant():
    rng = random.Random(2)
    for _ in range(30):
        orders = rng.choice([(4,), (2, 4), (6,), (9,), (12,), (2, 2)])
        M = random_form(FinAbGroup(orders), rng)
        G = M.group
        for g in G.elements():
            for n in range(2 * G.exponent):
                lhs = M.q(G.mul(n, g))
                rhs = (n * n * M.q(g)) % 1
                assert lhs == rhs


def test_wap_equivalences_order_32_low_rank():
    # exhaustive sweep continues one order higher on the small-rank
    # shapes (the rank-5 shape needs an automorphism group too large to
    # tabulate; it is covered exhaustively at order 16)
    from braidforge import kernels
    from braidforge.abelian import automorphism_perms

    def cond_iii(M):
        recs = isotropic_subgroups(M)
        subs = [r.subgroup for r in recs]
        for A in subs:
            if A.order == 1:
                continue
            if not any(
                B.order == A.order
                and all(
                    any(M.b(a, b) != 0 for b in B.elements)
                    for a in A.elements
                    if a != M.group.zero()
                )
                for B in subs
            ):
                return False
        return True

    for orders in [(32,), (2, 16), (4, 8)]:
        G = FinAbGroup(orders)
        perms = automorphism_perms(G)
        L = 2 * G.exponent
        seen = set()
        for M in all_forms(G):
            t = tuple(int(v * L) for v in M.values)
            if t in seen:
                continue
            seen.update(kernels.apply_perm(p, t) for p in perms)
            assert is_weakly_anisotropic(M) == cond_iii(M)


def test_double_orthogonal_complement_metric():
    for M in (hyperbolic_plane(2), odd_norm(3), m_form(F(1, 8)),
              direct_sum(a_form(), m_form(F(1, 2)))):
        for s in subgroups(M.group):
            perp = orthogonal_complement(M, s)
            assert orthogonal_complement(M, perp).elements == s.elements


def test_slightly_degenerate_splitting():
    # every slightly degenerate form = metric + the order-2 form of value 1/2
    from braidforge.qform import degeneracy, is_metric

    rng = random.Random(77)
    shapes = [(2,), (4,), (2, 2), (2, 4), (8,), (2, 2, 2), (2, 8), (4, 4),
              (2, 2, 4), (16,), (2, 16), (4, 8), (32,)]
    found = 0
    for _ in range(600):
        M = random_form(FinAbGroup(rng.choice(shapes)), rng)
        if degeneracy(M).tag != "slightly_degenerate":
            continue
        found += 1
        G = M.group
        u = degeneracy(M).radical.elements[1]
        split = None
        for K in subgroups(G):
            if K.order != G.order // 2 or u in K:
                continue
            N = restrict(M, K)
            if is_metric(N):
                split = N
                break
        assert split is not None
        assert isomorphic(M, direct_sum(split, slight_deg2())) is not None
        if found >= 40:
            break
    assert found >= 25


def brute_form_isomorphic(M1, M2):
    """Oracle: scan every bijection of small element sets."""
    import itertools

    G1, G2 = M1.group, M2.group
    if G1.order != G2.order or G1.order > 8:
        raise ValueError("oracle only for tiny matched orders")
    els1, els2 = G1.elements(), G2.elements()
    for perm in itertools.permutations(range(len(els2))):
        if perm[0] != 0:
            continue
        phi = {els1[i]: els2[p] for i, p in enumerate(perm)}
        if all(
            phi[G1.add(a, b)] == G2.add(phi[a], phi[b]) for a in els1 for b in els1
        ) and all(M2.q(phi[a]) == M1.q(a) for a in els1):
            return True
    return False


def test_isomorphic_matches_bijection_oracle():
    rng = random.Random(41)
    shapes = [(4,), (2, 2), (8,), (2, 4), (2, 2, 2)]
    agree = disagree_found = 0
    for _ in range(60):
        orders = rng.choice(shapes)
        M1 = random_form(FinAbGroup(orders), rng)
        M2 = random_form(FinAbGroup(orders), rng)
        got = isomorphic(M1, M2) is not None
        want = brute_form_isomorphic(M1, M2)
        assert got == want
        agree += got
        disagree_found += not got
    assert agree >= 3 and disagree_found >= 3


def reference_form_tables(G):
    """Value tables of every form on G, with the Fraction arithmetic of
    the coefficient presentation: c_i in (1/2n_i)Z (n_i even) or
    (1/n_i)Z (n_i odd), then beta_ij in (1/gcd(n_i, n_j))Z for i < j in
    lexicographic order, each range walked upward, repeats dropped."""
    els = G.elements()
    params = []
    for i, m in enumerate(G.orders):
        k = 2 * m if m % 2 == 0 else m
        params.append([[F(c, k) * g[i] * g[i] for g in els] for c in range(k)])
    for i in range(G.rank):
        for j in range(i + 1, G.rank):
            k = math.gcd(G.orders[i], G.orders[j])
            params.append([[F(c, k) * g[i] * g[j] for g in els] for c in range(k)])
    out, seen = [], set()

    def rec(depth, acc):
        if depth == len(params):
            vals = tuple(v % 1 for v in acc)
            if vals not in seen:
                seen.add(vals)
                out.append(vals)
            return
        for term in params[depth]:
            rec(depth + 1, [a + t for a, t in zip(acc, term)])

    rec(0, [F(0)] * G.order)
    return out


def test_all_forms_match_fraction_reference():
    for orders in invariant_shapes(16):
        G = FinAbGroup(orders)
        got = [M.values for M in all_forms(G)]
        assert got == reference_form_tables(G), orders


def reference_validate(G, value_table):
    """Oracle: ``validate`` with one polarization evaluation per term."""
    M = PreMetricGroup(G, tuple(value_table))
    n, L, t = G.order, M.level, M.res
    if t[0] != 0:
        raise NotNormalized(f"q(0) = {M.q_idx(0)} != 0")
    neg, add = G.neg_flat(), G.add_flat()
    for i in range(n):
        if t[neg[i]] != t[i]:
            raise NotEven(f"q(-g) != q(g) at g = {G.from_index(i)}: "
                          f"{M.q_idx(neg[i])} vs {M.q_idx(i)}")

    def bi(i, j):
        return (t[add[i * n + j]] - t[i] - t[j]) % L

    for s in G.gen_strides():
        for g in range(n):
            sg = add[s * n + g]
            for h in range(n):
                if (bi(sg, h) - bi(s, h) - bi(g, h)) % L != 0:
                    raise NotQuadratic("polarization not biadditive at "
                                       f"({G.from_index(s)} + {G.from_index(g)}, "
                                       f"{G.from_index(h)})")
    return M


def _outcome(fn, G, values):
    try:
        return fn(G, values).values
    except (NotNormalized, NotEven, NotQuadratic) as exc:
        return type(exc), str(exc)


def test_validate_matches_reference_on_forms_and_mutations():
    # outcomes compared whole: the form, or the error class and its message
    rng = random.Random(11)
    seen = set()
    for orders in invariant_shapes(36):
        G = FinAbGroup(orders)
        neg = G.neg_flat()
        for _ in range(4):
            values = list(random_form(G, rng).values)
            cases = [values]
            for _ in range(6):
                i = rng.randrange(G.order)
                v = F(rng.randrange(4 * G.exponent), 4 * G.exponent)
                single = values[:i] + [v] + values[i + 1:]
                paired = list(single)
                paired[neg[i]] = v
                cases += [single, paired]
            for case in cases:
                want = _outcome(reference_validate, G, case)
                assert _outcome(validate, G, case) == want, (orders, case)
                seen.add(want[0] if isinstance(want[0], type) else "form")
    assert seen == {"form", NotNormalized, NotEven, NotQuadratic}
    # every table on Z/2 x Z/2 at level 8, so a check of one generator
    # only is caught too: (0, 1/8, 0, 1/8) passes at (1, 0), fails at (0, 1)
    G = FinAbGroup((2, 2))
    for tail in itertools.product(range(8), repeat=3):
        case = [F(0)] + [F(k, 8) for k in tail]
        assert _outcome(validate, G, case) == _outcome(reference_validate, G, case), case


# -- what a form keeps: its radical, isotropic lattice and Aut(G, q) ----------

def _copy(M):
    return PreMetricGroup.at_level(M.group, M.level, M.res)


def _answers(M):
    """Every kept structure of M, read in the order form actions read them."""
    deg = degeneracy(M)
    iso = isotropic_subgroups(M)
    wa = is_weakly_anisotropic(M)
    res = core(M)
    return deg, iso, wa, q_automorphism_perms(M), (res.core, res.subgroup, res.gamma)


def test_kept_structures_equal_a_fresh_copys():
    # every form of every shape of order <= 16, but (Z/2)^4, whose 16,384
    # forms would take the Aut(G, q) search alone half a minute: 256 of them
    rng = random.Random(17)
    for orders in invariant_shapes(16):
        forms = list(all_forms(FinAbGroup(orders)))
        if orders == (2, 2, 2, 2):
            forms = rng.sample(forms, 256)
        for M in forms:
            first = _answers(M)
            isotropic_subgroups(M).clear()      # what a caller does to its
            q_automorphism_perms(M).append(0)   # lists never reaches the form
            again = _answers(M)
            abelian._TABLE_CACHE.clear()        # the copy starts with no group memo
            assert again == first == _answers(_copy(M)), (orders, M)
            assert M == _copy(M) and hash(M) == hash(_copy(M))


def test_returned_lists_are_fresh():
    M = direct_sum(hyperbolic_plane(2), a_form())
    iso, auts = isotropic_subgroups(M), q_automorphism_perms(M)
    want_iso, want_auts = list(iso), list(auts)
    iso.reverse()
    del auts[1:]
    assert isotropic_subgroups(M) == want_iso and isotropic_subgroups(M) is not iso
    assert q_automorphism_perms(M) == want_auts and q_automorphism_perms(M) is not auts


def test_guards_run_on_every_call():
    M = direct_sum(hyperbolic_plane(2), hyperbolic_plane(2))  # on (Z/2)^4
    _answers(M)
    for small, kept in ((Config(enum_guard=8), isotropic_subgroups),
                        (Config(aut_guard=8), q_automorphism_perms),
                        (Config(aut_count_cap=100), q_automorphism_perms)):
        for call in (kept, core, is_weakly_anisotropic, wap_decompose):
            with pytest.raises(EnumerationLimit):
                call(M, small)
    assert len(q_automorphism_perms(M)) == 72  # |O+(4, 2)|, still kept


def test_a_refusal_keeps_nothing():
    G = FinAbGroup((2,) * 5)
    values = [(F(x[0] * x[1] + x[2] * x[3], 2) + F(x[4], 4)) % 1 for x in G.elements()]
    M = validate(G, values)
    with pytest.raises(EnumerationLimit, match="aut_count_cap"):
        q_automorphism_perms(M)
    assert M._auts is None
    with pytest.raises(EnumerationLimit, match="enum_guard"):
        isotropic_subgroups(M, Config(enum_guard=16))
    assert M._iso is None
    with pytest.raises(EnumerationLimit, match="aut_count_cap"):
        core(M)  # the lattice is kept, Aut(G, q) is refused again
    assert M._iso is not None and M._auts is None


def test_radical_and_lagrangian_flags_match_all_elements():
    # Ker b from b(g, .) on the generators, and the Lagrangian flag from
    # |Ker b n H|, against b(g, h) on every h
    tags, degenerate_lagrangians = set(), 0
    for k, orders in enumerate(invariant_shapes(36)):
        G = FinAbGroup(orders)
        n, add = G.order, G.add_flat()
        rng = random.Random(700 + k)
        for _ in range(4):
            M = random_form(G, rng)
            L, t = M.level, M.res
            want = tuple(g for g in range(n)
                         if all((t[add[g * n + h]] - t[g] - t[h]) % L == 0 for h in range(n)))
            deg = degeneracy(M)
            assert deg.radical.idx == want, (orders, t)
            tags.add(deg.tag)
            for rec in isotropic_subgroups(M):
                H = rec.subgroup.idx
                perp = tuple(g for g in range(n)
                             if all((t[add[g * n + h]] - t[g] - t[h]) % L == 0 for h in H))
                assert rec.is_lagrangian == (perp == H), (orders, t, H)
                degenerate_lagrangians += rec.is_lagrangian and len(want) > 1
    assert tags == {"nondegenerate", "slightly_degenerate", "degenerate_other"}
    assert degenerate_lagrangians
