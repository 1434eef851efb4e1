"""Acceptance suite: one test per numbered criterion, exact unless noted.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line
per criterion.  The module takes about 45 s on a 2-core x86-64 host
with Python 3.11.
"""

import itertools
import math
import random
from fractions import Fraction as F

import pytest

from braidforge import kernels, qform
from braidforge.abelian import FinAbGroup, subgroups
from braidforge.cyclotomic import CycloNum
from braidforge.fusion import (
    FusionSubring,
    adjoint_subring,
    all_subrings,
    fp_dims,
    integral_part,
    ising_ring,
    product_ring,
    universal_grading,
    validate_ring,
)
from braidforge.premodular import (
    centralizer,
    deligne_product,
    gauss_and_charge,
    gfp_invariants,
    ising_datum,
    pointed_datum,
    symmetric_and_isotropic,
)
from braidforge.qform import (
    PreMetricGroup,
    a_form,
    all_forms,
    anisotropic_catalog,
    build_labeled_form,
    classify_anisotropic,
    direct_sum,
    hyperbolic_plane,
    is_anisotropic,
    is_metric,
    is_weakly_anisotropic,
    isomorphic,
    isotropic_subgroups,
    m_form,
    odd_norm,
    odd_rank1,
    orthogonal_complement,
    quotient_form,
    random_form,
    trivial_form,
)
from braidforge.witt import (
    WittClass,
    ZERO_CLASS,
    is_hyperbolic,
    tau_image,
    tau_plus,
    witt_add,
)

ONE = CycloNum.one()


def rat(x):
    return CycloNum.from_rational(x)


def zeta(k, n=16):
    return CycloNum.from_root(F(k, n))


def groups_up_to(limit, only_prime=None):
    """All invariant-factor tuples with 2 <= order <= limit."""
    out = []

    def rec(prefix, prod, last):
        for m in range(last, limit + 1):
            if prod * m > limit:
                break
            if prefix and m % prefix[-1] != 0:
                continue
            if only_prime is not None and not _is_p_power(m, only_prime):
                continue
            out.append(tuple(prefix) + (m,))
            rec(prefix + [m], prod * m, m)

    rec([], 1, 2)
    return out


def _is_p_power(n, p):
    while n % p == 0:
        n //= p
    return n == 1


def test_criterion_01_gauss_table():
    assert tau_plus(a_form(F(1, 4))) == ONE + zeta(1, 4)
    for p in (2, 3, 5, 7):
        assert tau_plus(odd_norm(p)) == rat(-p)
    for k in range(8):
        assert tau_plus(m_form(F(k, 8))) == rat(2) * CycloNum.from_root(F(k, 8))
    assert tau_plus(odd_norm(2)) == rat(-2)  # the rank-2 form with all values -1
    print("\n[criterion 1] Gauss-sum table reproduction: PASS")


def test_criterion_02_norm_and_subquotient():
    rng = random.Random(20260808)
    shapes = groups_up_to(36)
    checked = 0
    metric_seen = 0
    for _ in range(500):
        M = random_form(FinAbGroup(rng.choice(shapes)), rng)
        t = tau_plus(M)
        if is_metric(M):
            metric_seen += 1
            assert t * t.conjugate() == rat(M.order)
        for rec in isotropic_subgroups(M):
            q = quotient_form(M, rec.subgroup)
            assert t == tau_plus(q) * rec.subgroup.order
        checked += 1
    assert checked == 500 and metric_seen >= 50
    print(f"\n[criterion 2] tau norm + isotropic subquotient on {checked} "
          f"random forms ({metric_seen} metric): PASS")


def _metric_sum_test_set():
    """Classification representatives + hyperbolic planes, orders 4 and 16."""
    order2 = [a_form(F(1, 4)), a_form(F(3, 4))]
    order4 = [m_form(F(k, 8)) for k in range(8)]  # k = 0 is the hyperbolic plane
    order8 = [build_labeled_form(l) for l in anisotropic_catalog(2, 8)]
    sets = {4: list(order4), 16: []}
    for combo in itertools.combinations_with_replacement(range(2), 4):
        forms = [order2[i] for i in combo]
        sets[16].append(_dsum(forms))
    for pair in itertools.combinations_with_replacement(range(2), 2):
        for mform in order4:
            sets[16].append(_dsum([order2[pair[0]], order2[pair[1]], mform]))
    for i, j in itertools.combinations_with_replacement(range(8), 2):
        sets[16].append(_dsum([order4[i], order4[j]]))
    for a in order2:
        for m8 in order8:
            sets[16].append(_dsum([a, m8]))
    return sets


def _dsum(forms):
    out = trivial_form()
    for f in forms:
        out = direct_sum(out, f)
    return out


def test_criterion_03_two_group_epsilon():
    sets = _metric_sum_test_set()
    total = 0
    for order, forms in sets.items():
        n = order.bit_length() // 2  # order = 2^(2n)
        for M in forms:
            assert M.order == order and is_metric(M)
            eps = tau_plus(M) * F(1, 2 ** n)
            r = eps.is_root_of_unity()
            assert r is not None and (8 * r) % 1 == 0
            assert (r == 0) == is_hyperbolic(M)[0]
            total += 1
    assert total == len(sets[4]) + len(sets[16]) == 8 + 77
    print(f"\n[criterion 3] tau = 2^n eps with eps^8 = 1 and eps = 1 iff "
          f"hyperbolic, on {total} metric 2-groups: PASS")


def test_criterion_04_classification_complete():
    catalog_hits = {}
    forms_seen = 0
    for orders in groups_up_to(9):
        G = FinAbGroup(orders)
        for M in all_forms(G):
            forms_seen += 1
            if not is_anisotropic(M):
                continue
            labels = classify_anisotropic(M)
            rebuilt = trivial_form()
            for lab in labels:
                rebuilt = direct_sum(rebuilt, build_labeled_form(lab))
            assert isomorphic(M, rebuilt) is not None
            for lab in labels:
                part = restrict_order(M, lab.prime)
                catalog_hits.setdefault((lab.prime, part), set()).add(lab)
    expected = {}
    for p, orders in ((2, (2, 4, 8)), (3, (3, 9)), (5, (5,)), (7, (7,))):
        for o in orders:
            labels = set(anisotropic_catalog(p, o))
            if labels:
                expected[(p, o)] = labels
    assert catalog_hits == expected
    print(f"\n[criterion 4] anisotropic classification over {forms_seen} forms "
          f"on all groups of order <= 9 matches the catalog exactly: PASS")


def restrict_order(M, p):
    n = M.order
    out = 1
    while n % p == 0:
        n //= p
        out *= p
    return out


def test_criterion_05_witt_group():
    for p in (2, 3, 5):
        orders = (2, 4, 8) if p == 2 else (p, p * p)
        classes = [ZERO_CLASS] + [
            WittClass(((p, lab),))
            for o in orders
            for lab in anisotropic_catalog(p, o)
            if lab.kind in ("A", "M", "MplusA", "OddRank1", "OddNorm")
        ]
        k = len(classes)
        idx = {}
        for i, c in enumerate(classes):
            idx[c] = i
        table = {}
        for i in range(k):
            for j in range(i, k):
                s = witt_add(classes[i], classes[j])
                assert s in idx, "closure under addition"
                table[(i, j)] = table[(j, i)] = idx[s]
        for i in range(k):
            for j in range(k):
                for l in range(k):
                    assert table[(table[(i, j)], l)] == table[(i, table[(j, l)])]
        for i, c in enumerate(classes):
            acc, order = c, 1
            while not acc.is_zero:
                acc = witt_add(acc, c)
                order += 1
            assert 8 % order == 0
        images = [(tau_image(c, p).unit, tau_image(c, p).radical) for c in classes]
        assert len(set(images)) == k
        expected_size = {2: 16, 3: 4, 5: 4}[p]
        assert k == expected_size
    print("\n[criterion 5] Witt groups at p = 2, 3, 5: associative, "
          "commutative, exponent | 8, tau separates classes: PASS")


def test_criterion_06_core_well_defined():
    rng = random.Random(1729)
    shapes = groups_up_to(36)
    done = 0
    attempts = 0
    while done < 200 and attempts < 4000:
        attempts += 1
        M = random_form(FinAbGroup(rng.choice(shapes)), rng)
        maxima = [r.subgroup for r in isotropic_subgroups(M) if r.is_maximal]
        if len(maxima) < 2:
            continue
        cores = [quotient_form(M, H) for H in maxima]
        assert all(isomorphic(cores[0], c) is not None for c in cores[1:])
        done += 1
    assert done >= 200
    print(f"\n[criterion 6] core independent of the maximal isotropic choice "
          f"on {done} random forms: PASS")


# -- criterion 7: weak anisotropy equivalences --------------------------------

def _cond_iii(M):
    recs = isotropic_subgroups(M)
    subs = [r.subgroup for r in recs]
    for A in subs:
        if A.order == 1:
            continue
        found = False
        for B in subs:
            if B.order != A.order:
                continue
            if all(
                any(M.b(a, b) != 0 for b in B.elements)
                for a in A.elements
                if a != M.group.zero()
            ):
                found = True
                break
        if not found:
            return False
    return True


def _cond_ii(M, p):
    order = M.order
    k = 0
    while p ** (2 * k) <= order:
        rest = order // p ** (2 * k)
        if p ** (2 * k) * rest == order:
            cands = [trivial_form()] if rest == 1 else [
                build_labeled_form(l) for l in anisotropic_catalog(p, rest)
            ]
            for A in cands:
                total = A
                for _ in range(k):
                    total = direct_sum(total, hyperbolic_plane(p))
                if isomorphic(M, total) is not None:
                    return True
        k += 1
    return False


def _cond_iv(M, p):
    G = M.group
    annihilated = all(G.mul(p, g) == G.zero() for g in G.elements())
    return annihilated and is_metric(M)


def _orbit_reps(G, forms):
    """One form per Aut(G)-orbit of value tables (conditions are
    isomorphism-invariant, so checking representatives checks all)."""
    from braidforge.abelian import automorphism_perms

    perms = automorphism_perms(G)
    L = 2 * G.exponent
    reps = []
    seen = set()
    for M in forms:
        t = tuple(r * (L // M.level) for r in M.res)
        if t in seen:
            continue
        orbit = {kernels.apply_perm(p, t) for p in perms}
        seen.update(orbit)
        reps.append((M, len(orbit)))
    return reps


@pytest.mark.parametrize("p, limit", [(2, 16), (3, 27)])
def test_criterion_07_wap_equivalences(p, limit):
    total_forms = 0
    total_reps = 0
    for orders in groups_up_to(limit, only_prime=p):
        G = FinAbGroup(orders)
        forms = list(all_forms(G))
        total_forms += len(forms)
        reps = _orbit_reps(G, forms)
        covered = sum(n for _, n in reps)
        assert covered == len(forms)
        for M, _ in reps:
            i = is_weakly_anisotropic(M)
            ii = _cond_ii(M, p)
            iii = _cond_iii(M)
            assert i == ii == iii, (orders, M.values)
            if p != 2:
                assert i == _cond_iv(M, p)
        total_reps += len(reps)
    print(f"\n[criterion 7] weak-anisotropy equivalences at p = {p} on all "
          f"{total_forms} forms of order <= {limit} ({total_reps} classes): PASS")


# -- criterion 8: datum validity ----------------------------------------------

def _metric_classes_up_to(limit):
    out = []
    for orders in groups_up_to(limit):
        G = FinAbGroup(orders)
        forms = [M for M in all_forms(G) if is_metric(M)]
        out.extend(M for M, _ in _orbit_reps(G, forms))
    return out


def test_criterion_08_datum_validity():
    for k in range(1, 16, 2):
        for eps in (1, -1):
            D = ising_datum(F(k, 16), eps)  # build() verifies every identity
            rep = gauss_and_charge(D)
            assert not [c for c in rep.checks if c.status == "fail"]
    classes = _metric_classes_up_to(8)
    for M in classes:
        D = pointed_datum(M)
        rep = gauss_and_charge(D)
        assert not [c for c in rep.checks if c.status == "fail"]
    print(f"\n[criterion 8] datum identities exact for 16 rank-3 data and "
          f"{len(classes)} pointed metric data of order <= 8: PASS")


def test_criterion_09_ising_invariants():
    for k in range(1, 16, 2):
        lam = zeta(2 * k) + zeta(-2 * k)
        for eps in (1, -1):
            D = ising_datum(F(k, 16), eps)
            assert D.tau(+1) == rat(2 * eps) * zeta(-k)
            el = lam if eps == 1 else -lam
            expected_S = [
                [ONE, ONE, el],
                [ONE, ONE, -1 * el],
                [el, -1 * el, CycloNum.zero()],
            ]
            for i in range(3):
                for j in range(3):
                    assert D.S[i][j] == expected_S[i][j]
            n, tp, tm = gfp_invariants(D)
            assert n == 2
            assert tp == zeta(-k) * lam and tm == zeta(k) * lam
    print("\n[criterion 9] Ising tau, S-matrix, square-class sums, x = 2, "
          "for all 16 parameter pairs: PASS")


# -- criterion 10: centralizer theory ------------------------------------------

def _diag_metric_form(orders):
    """Direct sum of cyclic metric forms, one per invariant factor."""
    out = trivial_form()
    for m in orders:
        c = F(1, 2 * m) if m % 2 == 0 else F(1, m)
        G = FinAbGroup((m,))
        out = direct_sum(out, PreMetricGroup(G, tuple(c * n * n % 1 for n in range(m))))
    return out


def test_criterion_10_centralizers():
    # (a) pointed metric data of order <= 16: K' of the H-subring is the
    # H-perp subring, for every subgroup H
    count_forms = 0
    count_subgroups = 0
    for orders in groups_up_to(16):
        M = _diag_metric_form(orders)
        assert is_metric(M) and M.group.orders == tuple(orders)
        D = pointed_datum(M)
        G = M.group
        for H in subgroups(G):
            K = FusionSubring(D.ring, tuple(G.index(e) for e in H.elements))
            rep = centralizer(D, K)  # also asserts rank = component count
            perp = orthogonal_complement(M, H)
            assert rep.centralizer.indices == tuple(G.index(e) for e in perp.elements)
            count_subgroups += 1
        count_forms += 1

    # (b) dimension identities over every subring pair of the corpus
    corpus = [
        ising_datum(F(1, 16), 1),
        ising_datum(F(3, 16), -1),
        pointed_datum(a_form()),
        pointed_datum(hyperbolic_plane(2)),
        pointed_datum(m_form(F(1, 8))),
        pointed_datum(odd_rank1(3)),
        deligne_product(ising_datum(F(1, 16), 1), ising_datum(F(15, 16), 1)),
    ]
    pair_count = 0
    for D in corpus:
        lat = all_subrings(D.ring)
        whole = FusionSubring(D.ring, tuple(range(D.rank)))
        cc = centralizer(D, whole).centralizer
        fp = fp_dims(D.ring)
        ck = {}
        for K in lat.subrings:
            ck[K.indices] = centralizer(D, K).centralizer  # rank asserted inside

        def fptot(idx):
            return sum(fp.fpdim[i] ** 2 for i in idx)

        for K in lat.subrings:
            Kc = ck[K.indices]
            kcc = ck[Kc.indices]
            join_kc = lat.join(K, cc)
            assert kcc.indices == join_kc.indices  # double centralizer
            lhs = D.cat_dim(K.indices) * D.cat_dim(Kc.indices)
            rhs = D.dim_total() * D.cat_dim(lat.meet(K, cc).indices)
            assert lhs == rhs
            lf = fptot(K.indices) * fptot(Kc.indices)
            rf = fptot(range(D.rank)) * fptot(lat.meet(K, cc).indices)
            assert abs(lf - rf) <= 1e-6 * max(1.0, abs(rf))
            for B in lat.subrings:
                Bc = ck[B.indices]
                lhs = D.cat_dim(lat.meet(B, Kc).indices) * D.cat_dim(K.indices)
                rhs = D.cat_dim(lat.meet(K, Bc).indices) * D.cat_dim(B.indices)
                assert lhs == rhs
                lhs = D.cat_dim(K.indices) * D.cat_dim(B.indices)
                rhs = D.cat_dim(lat.join(K, B).indices) * D.cat_dim(lat.meet(K, B).indices)
                assert lhs == rhs
                pair_count += 1
    print(f"\n[criterion 10] pointed centralizers = orthogonal complements "
          f"({count_forms} forms, {count_subgroups} subgroups); dimension "
          f"identities over {pair_count} subring pairs: PASS")


# -- criterion 11: the product/core chain ---------------------------------------

def _f(k):
    return zeta(-k) * (zeta(2 * k) + zeta(-2 * k))


def test_criterion_11_product_core_chain():
    for k1 in range(1, 16, 2):
        for k2 in range(1, 16, 2):
            D = deligne_product(ising_datum(F(k1, 16), 1), ising_datum(F(k2, 16), 1))
            n, tp, tm = gfp_invariants(D)
            assert n == 1
            assert tp == rat(2) * _f(k1) * _f(k2)
            assert tm == tp.conjugate()
            # the order-4 metric class predicted for the reduced datum:
            # distinguished value xi with 2 xi = T+ / dim(E)
            E = FusionSubring(D.ring, (0, 4))  # generated by delta*delta
            flags = symmetric_and_isotropic(D, E)
            assert flags["isotropic"]
            xi = (tp / (rat(2) * D.cat_dim(E.indices))).is_root_of_unity()
            assert xi is not None and (8 * xi) % 1 == 0
            # the order-4 classes are separated by their Gauss sums, so
            # tau identifies the reduced form as the xi-class
            assert tau_plus(m_form(xi)) * D.cat_dim(E.indices) == tp

    # the inverse-pair case: reduced class is the hyperbolic plane with
    # the full automorphism group acting
    thehyperb = PreMetricGroup(
        FinAbGroup((2, 2)), (F(0), F(0), F(0), F(1, 2))
    )
    for k in range(1, 16, 2):
        kinv = (16 - k) % 16
        D = deligne_product(ising_datum(F(k, 16), 1), ising_datum(F(kinv, 16), 1))
        n, tp, _ = gfp_invariants(D)
        E = FusionSubring(D.ring, (0, 4))
        assert symmetric_and_isotropic(D, E)["isotropic"]
        dim_e = D.cat_dim(E.indices)
        assert dim_e == rat(2)
        two_xi = (tp / dim_e).as_rational()
        assert two_xi == 2
        core_class = m_form(F(0))  # xi = 1
        assert tau_plus(core_class) == rat(two_xi)
        assert isomorphic(core_class, thehyperb) is not None
        # the stabilizer of the distinguished element is all of Aut
        auts = qform.form_automorphisms(core_class)
        u = next(e for e in core_class.group.elements() if core_class.q(e) == F(1, 2))
        stab = [a for a in auts if a(u) == u]
        assert len(auts) == 2 and len(stab) == len(auts)
    print("\n[criterion 11] square-class sums of the 64 products match "
          "2 f(z) f(z'); the inverse-pair reduction is the hyperbolic "
          "plane with full automorphism image: PASS")


def test_criterion_12_fp_machinery():
    I = ising_ring()
    fp = fp_dims(I)
    assert abs(fp.fpdim[0] - 1) < 1e-9
    assert abs(fp.fpdim[1] - 1) < 1e-9
    assert abs(fp.fpdim[2] - math.sqrt(2)) < 1e-9
    g = universal_grading(I)
    assert g.group.orders == (2,)
    II = product_ring(I, I)
    II = validate_ring(II.labels, II.unit, II.dual, II.N)
    ip = integral_part(II)
    fpII = fp_dims(II)
    assert ip.rank == 5
    assert abs(sum(fpII.fpdim[i] ** 2 for i in ip.indices) - 8) < 1e-9
    assert abs(fpII.total - 16) < 1e-9
    ad = adjoint_subring(I)
    assert abs(fp.total - 2 * sum(fp.fpdim[i] ** 2 for i in ad.indices)) < 1e-9
    print("\n[criterion 12] FP dimensions, universal grading, square "
          "grading of the rank-9 product, graded dimension count: PASS")
