"""Pre-modular data: S-matrices, centralizers, Gauss sums, square-class sums."""

import math
import random
import time
from fractions import Fraction as F

import pytest

from braidforge import qform
from braidforge.abelian import FinAbGroup, subgroups
from braidforge.cyclotomic import CycloNum, matrix_rank
from braidforge.errors import (
    BadParameter,
    BraidforgeError,
    Check,
    ClassificationBug,
    DatumError,
    Degenerate,
    DualDimFail,
    NotCharacter,
    NotWeaklyIntegral,
    SymmetryFail,
    UnitTwistFail,
    VerlindeFail,
    ZeroDim,
)
from braidforge.fusion import (
    FusionRing,
    FusionSubring,
    _squarefree,
    all_subrings,
    fp_square_integers,
    group_ring,
    integral_part,
    pointed_part,
    subring_generated,
)
from braidforge.premodular import (
    ONE,
    CentralizerReport,
    InvariantReport,
    PreModularDatum,
    build,
    centralizer,
    commutator,
    deligne_product,
    dichotomy_check,
    gauss_and_charge,
    gfp_invariants,
    is_nondegenerate,
    ising_datum,
    mueger_report,
    pointed_datum,
    projective_centralizer,
    symmetric_and_isotropic,
    trivial_datum,
)
from test_abelian import invariant_shapes
from test_kits import _unpacked

Z = lambda k, n=16: CycloNum.from_root(F(k, n))


def lam_of(k):
    return Z(2 * k) + Z(-2 * k)


def test_ising_datum_values():
    for k in range(1, 16, 2):
        for eps in (1, -1):
            D = ising_datum(F(k, 16), eps)
            el = lam_of(k) if eps == 1 else -lam_of(k)
            assert D.tau(+1) == 2 * Z(-k) * (1 if eps == 1 else -1)
            assert D.S[2][2].is_zero()
            assert D.S[0][2] == el and D.S[1][2] == -1 * el
            assert D.dim[2] * D.dim[2] == CycloNum.from_rational(2)
            assert is_nondegenerate(D)
    with pytest.raises(BadParameter):
        ising_datum(F(1, 8), 1)


def test_build_rejects_mutated_twist():
    D = ising_datum(F(1, 16), 1)
    with pytest.raises(VerlindeFail):
        build(D.ring, (F(0), F(0), D.theta[2]), D.dim)


def test_pointed_datum_s_matrix():
    M = qform.m_form(F(1, 8))
    G = M.group
    for chi_table in [None, tuple(1 if G.element_order(e) <= 2 else -1 for e in G.elements())]:
        D = pointed_datum(M, chi_table)
        chi = chi_table or (1,) * G.order
        for i, g in enumerate(G.elements()):
            for j, h in enumerate(G.elements()):
                want = CycloNum.from_root(M.b(g, h)) * (chi[i] * chi[j])
                assert D.S[i][j] == want
    with pytest.raises(NotCharacter):
        pointed_datum(M, (1, -1, 1, 1))


@pytest.mark.parametrize("chi", [(1.0, -1.5), (1.0, 1.0), (True, True), (F(1), F(1)), ("1", "1")])
def test_pointed_datum_refuses_non_integer_character_entries(chi):
    # int(-1.5) would be -1: such an entry must be refused, not truncated
    with pytest.raises(NotCharacter):
        pointed_datum(qform.a_form(), chi)


def test_pointed_nondegeneracy_tracks_form():
    assert is_nondegenerate(pointed_datum(qform.a_form()))
    assert is_nondegenerate(pointed_datum(qform.hyperbolic_plane(3)))
    flat = qform.PreMetricGroup(FinAbGroup((2,)), (F(0), F(0)))
    assert not is_nondegenerate(pointed_datum(flat))


def test_pointed_gauss_equals_classical():
    from braidforge.witt import tau_plus

    rng = random.Random(4)
    for _ in range(10):
        M = qform.random_form(FinAbGroup(rng.choice([(2, 2), (4,), (3,)])), rng)
        D = pointed_datum(M)
        assert D.tau(+1) == tau_plus(M)
    # nontrivial chi leaves the sums at the twist values
    M = qform.a_form()
    chi = (1, -1)
    D = pointed_datum(M, chi)
    want = sum(
        (CycloNum.from_root(D.theta[i]) for i in range(2)), CycloNum.zero()
    )
    assert D.tau(+1) == want


def test_deligne_product():
    DA = pointed_datum(qform.a_form())
    DT = trivial_datum()
    P = deligne_product(DA, DT)
    assert P.rank == DA.rank and P.tau(1) == DA.tau(1)
    I1 = ising_datum(F(1, 16), 1)
    I2 = ising_datum(F(3, 16), -1)
    P = deligne_product(I1, I2)
    assert P.tau(1) == I1.tau(1) * I2.tau(1)
    # pointed x pointed = pointed of the orthogonal direct sum
    DB = pointed_datum(qform.m_form(F(1, 2)))
    prod = deligne_product(DA, DB)
    direct = pointed_datum(qform.direct_sum(qform.a_form(), qform.m_form(F(1, 2))))
    assert sorted(prod.theta) == sorted(direct.theta)
    assert prod.tau(1) == direct.tau(1)


def test_centralizer_examples():
    I = ising_datum(F(1, 16), 1)
    rep = centralizer(I, FusionSubring(I.ring, (0, 1)))
    assert rep.centralizer.indices == (0, 1)
    assert rep.rank_stilde == 2 and len(rep.components) == 2
    rep = centralizer(I, FusionSubring(I.ring, (0,)))
    assert rep.centralizer.indices == (0, 1, 2)
    assert rep.rank_stilde == 1


def test_pointed_centralizer_is_perp():
    for M in (qform.hyperbolic_plane(2), qform.m_form(F(1, 8)),
              qform.odd_rank1(3), qform.direct_sum(qform.a_form(), qform.a_form(F(3, 4)))):
        D = pointed_datum(M)
        G = M.group
        for H in subgroups(G):
            K = FusionSubring(D.ring, tuple(G.index(e) for e in H.elements))
            rep = centralizer(D, K)
            perp = qform.orthogonal_complement(M, H)
            assert rep.centralizer.indices == tuple(G.index(e) for e in perp.elements)


def test_dichotomy():
    I = ising_datum(F(5, 16), 1)
    whole = FusionSubring(I.ring, (0, 1, 2))
    assert all(c.status == "pass" for c in dichotomy_check(I, whole))
    # by hand: column X sums 1 + 1 - 2 = 0
    col = sum((I.dim[y] * I.dim[y] * I.S_tilde[y][2] for y in range(3)), CycloNum.zero())
    assert col.is_zero()
    unit_only = FusionSubring(I.ring, (0,))
    assert all(c.status == "pass" for c in dichotomy_check(I, unit_only))
    M = qform.hyperbolic_plane(2)
    D = pointed_datum(M)
    assert all(c.status == "pass" for c in dichotomy_check(D, FusionSubring(D.ring, tuple(range(4)))))


def test_mueger_identities():
    I = ising_datum(F(1, 16), 1)
    K = FusionSubring(I.ring, (0, 1))
    B = FusionSubring(I.ring, (0,))
    checks = mueger_report(I, K, B)
    assert all(c.status != "fail" for c in checks)
    # dims by hand: dim K = 2, K' = K, dim C = 4, K cap C' = unit
    assert I.cat_dim(K.indices) == CycloNum.from_rational(2)
    # pointed: FP identity reads |H| |H-perp| = |G|
    M = qform.m_form(F(3, 8))
    D = pointed_datum(M)
    lat = all_subrings(D.ring)
    for K in lat.subrings:
        for B in lat.subrings:
            assert all(c.status != "fail" for c in mueger_report(D, K, B))
    # Fib x Fib: the dimensions of Fib x 1 and 1 x Fib are irrational, so
    # dim(K) dim(K') is a product of two vectors at L that equals dim(C)
    # only modulo Phi_L
    from test_su2 import su2

    fib = su2(3, (0, 2))
    FF = deligne_product(fib, fib)
    lat = all_subrings(FF.ring)
    assert len(lat.subrings) == 4   # 1, Fib x 1, 1 x Fib and the whole
    for K in lat.subrings:
        for B in lat.subrings:
            assert all(c.status != "fail" for c in mueger_report(FF, K, B)), (K, B)


def test_projective_centralizer_and_commutator():
    I = ising_datum(F(1, 16), 1)
    whole = FusionSubring(I.ring, (0, 1, 2))
    # delta projectively centralizes X but X does not projectively
    # centralize itself (the two braiding eigenvalues differ), so the
    # projective centralizer of everything is the pointed part
    assert projective_centralizer(I, whole).indices == (0, 1)
    unit_only = FusionSubring(I.ring, (0,))
    assert commutator(I.ring, unit_only).indices == (0, 1)  # the pointed part
    # nondegenerate: centralizer of the adjoint = pointed part
    from braidforge.fusion import adjoint_subring, pointed_part

    ad = adjoint_subring(I.ring)
    assert centralizer(I, ad).centralizer.indices == pointed_part(I.ring).indices
    assert centralizer(I, pointed_part(I.ring)).centralizer.indices == ad.indices


def test_commutator_duality_on_subrings():
    # (K_ad)' = (K')^co across all subrings of a couple of data
    data = [ising_datum(F(7, 16), -1), pointed_datum(qform.m_form(F(1, 8)))]
    for D in data:
        for K in all_subrings(D.ring).subrings:
            projective_centralizer(D, K)  # raises on mismatch


def test_symmetric_and_isotropic():
    I = ising_datum(F(1, 16), 1)
    flags = symmetric_and_isotropic(I, FusionSubring(I.ring, (0, 1)))
    assert flags["symmetric"] and not flags["isotropic"]
    M = qform.hyperbolic_plane(2)
    D = pointed_datum(M)
    G = M.group
    K = FusionSubring(D.ring, (0, G.index((1, 0))))
    flags = symmetric_and_isotropic(D, K)
    assert flags["isotropic"]
    assert flags["lagrangian_pointed"]["k_is_lagrangian"]
    P = deligne_product(ising_datum(F(1, 16), 1), ising_datum(F(3, 16), 1))
    dd = FusionSubring(P.ring, (0, 4))
    flags = symmetric_and_isotropic(P, dd)
    assert flags["symmetric"] and flags["isotropic"]


def test_pointed_sources_of_built_and_product_data():
    # build sets no pointed source and pointed_datum sets its form, so the
    # two differ on one triple; a product of two untwisted pointed data
    # carries the orthogonal sum, and a twisted or Ising factor none
    M1, M2 = qform.a_form(), qform.a_form(F(3, 4))
    D1, D2 = pointed_datum(M1), pointed_datum(M2)
    B, B2 = build(D1.ring, D1.theta, D1.dim), build(D1.ring, D1.theta, D1.dim)
    D1b = pointed_datum(M1)
    assert B.pointed_source is None and D1.pointed_source == (M1, (1, 1))
    assert D1 != B and D1 == D1b and B == B2
    assert hash(D1) == hash(D1b) and hash(B) == hash(B2) and len({D1, B, D1b, B2}) == 2
    P = deligne_product(D1, D2)
    S = qform.orthogonal_sum(M1, M2)
    assert P.pointed_source == (S, (1,) * 4)
    assert symmetric_and_isotropic(P, FusionSubring(P.ring, (0,)))["lagrangian_pointed"]
    twisted = pointed_datum(M2, (1, -1))
    I = ising_datum(F(1, 16), 1)
    for E in (deligne_product(D1, twisted), deligne_product(twisted, D1),
              deligne_product(D1, I), deligne_product(I, D1)):
        assert E.pointed_source is None
        flags = symmetric_and_isotropic(E, FusionSubring(E.ring, (0,)))
        assert flags["lagrangian_pointed"] is None


def test_lagrangians_of_a_product_are_isotropic_subrings_of_it():
    # Z/4 + (Z/2)^2 recanonicalizes to (Z/2, Z/2, Z/4), whose numbering is
    # not the product ring's i * 4 + j: the source keeps the product's
    rng = random.Random(1)
    listed = 0
    for _ in range(200):
        M1 = qform.random_form(FinAbGroup((4,)), rng)
        M2 = qform.random_form(FinAbGroup((2, 2)), rng)
        P = deligne_product(pointed_datum(M1), pointed_datum(M2))
        assert P.pointed_source == (qform.orthogonal_sum(M1, M2), (1,) * 16)
        flags = symmetric_and_isotropic(P, FusionSubring(P.ring, (0,)))
        for K in flags["lagrangian_pointed"]["lagrangian_subgroups"]:
            sub = subring_generated(P.ring, K)
            assert sub.indices == K, (M1, M2, K)
            assert symmetric_and_isotropic(P, sub)["isotropic"], (M1, M2, K)
            listed += 1
    assert listed == 17


def test_lagrangians_listed_once_per_pointed_datum(monkeypatch):
    M = qform.direct_sum(qform.hyperbolic_plane(2), qform.a_form())
    lags = [r.subgroup.indices() for r in qform.isotropic_subgroups(M) if r.is_lagrangian]
    D = pointed_datum(M)
    calls = []
    real = qform.isotropic_subgroups
    monkeypatch.setattr(qform, "isotropic_subgroups", lambda *a: calls.append(a) or real(*a))
    gauss_and_charge(D)
    subs = all_subrings(D.ring).subrings
    assert len(subs) > 10
    for K in subs:
        got = symmetric_and_isotropic(D, K)["lagrangian_pointed"]
        assert got == {"lagrangian_subgroups": lags, "k_is_lagrangian": K.indices in lags}
    assert len(calls) == 1


def test_gauss_and_charge_ising():
    k = 3
    D = ising_datum(F(k, 16), 1)
    rep = gauss_and_charge(D)
    assert rep.tau_plus == 2 * Z(-k)
    assert rep.charge_sq == Z(-2 * k)
    assert rep.dim_total == CycloNum.from_rational(4)
    assert rep.x_class == 2
    assert not [c for c in rep.checks if c.status == "fail"]
    rep = gauss_and_charge(trivial_datum())
    assert rep.tau_plus == ONE and rep.tau_minus == ONE


def test_gfp_examples():
    for k in (1, 9):
        D = ising_datum(F(k, 16), -1)
        n, tp, tm = gfp_invariants(D)
        assert n == 2
        assert tp == Z(-k) * lam_of(k)
        assert tm == Z(k) * lam_of(k)
        assert tm == tp.conjugate()
    # integral pointed metric: x = 1 and the sums are the classical ones
    from braidforge.witt import tau_plus

    M = qform.m_form(F(5, 8))
    D = pointed_datum(M)
    n, tp, tm = gfp_invariants(D)
    assert n == 1 and tp == tau_plus(M)
    with pytest.raises(Degenerate):
        gfp_invariants(pointed_datum(qform.PreMetricGroup(FinAbGroup((2,)), (F(0), F(0)))))


def test_gfp_product_formula():
    def f(k):
        return Z(-k) * lam_of(k)

    for k1, k2 in [(1, 15), (3, 7), (5, 5)]:
        D = deligne_product(ising_datum(F(k1, 16), 1), ising_datum(F(k2, 16), -1))
        n, tp, _ = gfp_invariants(D)
        assert n == 1
        assert tp == 2 * f(k1) * f(k2)


def test_pairing_injective_on_invertibles():
    # nondegenerate data: invertibles are separated by their s~ rows
    # restricted to one representative per grading component
    from braidforge.fusion import pointed_part, universal_grading

    for D in (ising_datum(F(1, 16), 1), pointed_datum(qform.m_form(F(1, 8)))):
        g = universal_grading(D.ring)
        reps = {}
        for i in range(D.rank):
            reps.setdefault(g.deg[i], i)
        rows = {}
        for a in pointed_part(D.ring).indices:
            row = tuple(D.S_tilde[a][reps[d]] for d in sorted(reps))
            assert row not in rows.values()
            rows[a] = row


def test_double_centralizer_for_nondegenerate():
    for D in (ising_datum(F(5, 16), 1), pointed_datum(qform.direct_sum(qform.a_form(), qform.a_form()))):
        assert is_nondegenerate(D)
        for K in all_subrings(D.ring).subrings:
            Kc = centralizer(D, K).centralizer
            Kcc = centralizer(D, Kc).centralizer
            assert Kcc.indices == K.indices


def test_dichotomy_over_all_subrings():
    # exactly one branch per (datum, subring, object), across a corpus
    corpus = [
        ising_datum(F(9, 16), 1),
        pointed_datum(qform.hyperbolic_plane(2)),
        pointed_datum(qform.m_form(F(3, 8))),
        pointed_datum(qform.PreMetricGroup(FinAbGroup((2,)), (F(0), F(0)))),
        deligne_product(ising_datum(F(1, 16), 1), pointed_datum(qform.a_form())),
    ]
    for D in corpus:
        for K in all_subrings(D.ring).subrings:
            assert all(c.status == "pass" for c in dichotomy_check(D, K))


def test_gauss_report_on_degenerate_datum():
    # tau- = 0 there, so the squared charge is undefined but nothing fails
    D = pointed_datum(qform.slight_deg2())
    rep = gauss_and_charge(D)
    assert rep.tau_plus.is_zero() and rep.charge_sq is None
    assert not [c for c in rep.checks if c.status == "fail"]


def test_build_negative_paths():
    from braidforge.errors import DualDimFail, UnitTwistFail, ZeroDim
    from braidforge.fusion import group_ring

    R2 = group_ring(FinAbGroup((2,)))
    with pytest.raises(ZeroDim):
        build(R2, (F(0), F(1, 2)), (ONE, CycloNum.zero()))
    with pytest.raises(UnitTwistFail):
        build(R2, (F(1, 2), F(0)), (ONE, ONE))
    R4 = group_ring(FinAbGroup((4,)))
    i = CycloNum.from_root(F(1, 4))
    with pytest.raises(DualDimFail):
        build(R4, (F(0), F(1, 8), F(1, 2), F(1, 8)), (ONE, i, ONE, i))


# -- build: one conductor against the CycloNum loops it replaced --------------

def _reference_build(ring, theta, dim):
    """The S-derivation and identity checks of ``build`` on CycloNum
    entries, one canonical form per temporary; returns (S, S_tilde)."""
    mod1 = lambda x: x - (x // 1)
    r = ring.rank
    theta = tuple(mod1(F(t)) for t in theta)
    dim = tuple(d if isinstance(d, CycloNum) else CycloNum.from_rational(d) for d in dim)
    if len(theta) != r or len(dim) != r:
        raise DatumError("twist and dimension tables must cover the basis")
    if theta[ring.unit] != 0:
        raise UnitTwistFail(f"unit twist is {theta[ring.unit]}, not 1")
    if dim[ring.unit] != ONE:
        raise DatumError("unit dimension must be 1")
    for i, d in enumerate(dim):
        if d.is_zero():
            raise ZeroDim(f"dimension of {ring.labels[i]} is zero")
    for i in range(r):
        if dim[ring.dual[i]] != dim[i].conjugate():
            raise DualDimFail(f"d(dual {ring.labels[i]}) != conjugate(d({ring.labels[i]}))")
    qd = [CycloNum.from_root(theta[z]) * dim[z] for z in range(r)]

    def sum_z(x, y):
        acc = CycloNum.zero()
        for z, m in enumerate(ring.N[x][y]):
            if m:
                acc = acc + m * qd[z]
        return acc

    S = [
        tuple(CycloNum.from_root(mod1(-theta[x] - theta[y])) * sum_z(x, y) for y in range(r))
        for x in range(r)
    ]
    for x in range(r):
        for y in range(x, r):
            if S[x][y] != S[y][x]:
                raise SymmetryFail(f"S not symmetric at ({x}, {y})")
    for x in range(r):
        for y in range(r):
            if S[ring.dual[x]][ring.dual[y]] != S[x][y]:
                raise SymmetryFail(f"S not dual-invariant at ({x}, {y})")
        if S[ring.unit][x] != dim[x]:
            raise SymmetryFail(f"S[unit][{x}] != d({ring.labels[x]})")
    for x in range(r):
        for y in range(r):
            for z in range(r):
                rhs = CycloNum.zero()
                for w, m in enumerate(ring.N[y][z]):
                    if m:
                        rhs = rhs + m * S[x][w]
                if S[x][y] * S[x][z] != dim[x] * rhs:
                    raise VerlindeFail(
                        f"product relation fails at (X, Y, Z) = "
                        f"({ring.labels[x]}, {ring.labels[y]}, {ring.labels[z]})"
                    )
    dinv = [d.inverse() for d in dim]
    St = tuple(tuple(S[x][y] * dinv[x] * dinv[y] for y in range(r)) for x in range(r))
    return tuple(S), St


def _outcome(fn, *args):
    try:
        return fn(*args)
    except BraidforgeError as exc:
        return type(exc), str(exc)


def _assert_builds_agree(ring, theta, dim):
    want = _outcome(_reference_build, ring, theta, dim)
    got = _outcome(build, ring, theta, dim)
    if isinstance(got, PreModularDatum):
        got = (got.S, got.S_tilde)
    assert got == want, (ring, theta, dim)
    return want


def _with_n(ring, N):
    return FusionRing(ring.labels, ring.unit, ring.dual, N)


def _set_n(N, x, y, row):
    N = [list(plane) for plane in N]
    N[x][y] = tuple(row)
    return tuple(tuple(plane) for plane in N)


def _build_corpus():
    rng = random.Random(11)
    out = [ising_datum(F(k, 16), eps) for k in (1, 3, 5, 7) for eps in (1, -1)]
    out.append(deligne_product(ising_datum(F(1, 16), 1), ising_datum(F(3, 16), -1)))
    out.append(deligne_product(ising_datum(F(5, 16), -1), ising_datum(F(5, 16), -1)))
    for orders in invariant_shapes(12):
        G = FinAbGroup(orders)
        for _ in range(2):
            M = qform.random_form(G, rng)
            out.append(pointed_datum(M))
            chi = tuple((-1) ** e[-1] if orders[-1] % 2 == 0 else 1 for e in G.elements())
            out.append(pointed_datum(M, chi))
    return out


def test_build_matches_reference_on_data_and_mutations():
    rng = random.Random(5)
    scales = [CycloNum.from_root(F(k, 8)) for k in range(8)]
    scales += [CycloNum.from_rational(q) for q in (2, F(1, 2), F(-2, 3))]
    failures = set()
    for D in _build_corpus():
        R, theta, dim = D.ring, D.theta, D.dim
        assert _assert_builds_agree(R, theta, dim) == (D.S, D.S_tilde)
        r = R.rank
        for _ in range(6):
            i = rng.randrange(1, r) if r > 1 else 0
            kind = rng.choice(("theta", "dim", "N", "N-sym"))
            t, d, ring = list(theta), list(dim), R
            if kind == "theta":
                t[i] = F(rng.randrange(48), 48)
            elif kind == "dim":
                d[i] = d[i] * rng.choice(scales)
                d[R.dual[i]] = d[i].conjugate()
            else:
                x, y = rng.randrange(r), rng.randrange(r)
                row = list(R.N[x][y])
                row[rng.randrange(r)] += rng.choice((1, 2))
                N = _set_n(R.N, x, y, row)
                if kind == "N-sym":
                    N = _set_n(N, y, x, row)
                ring = _with_n(R, N)
            got = _assert_builds_agree(ring, tuple(t), tuple(d))
            if isinstance(got[0], type):
                failures.add(got[0].__name__)
    assert {"SymmetryFail", "VerlindeFail"} <= failures


def test_parsed_data_match_reference_on_mutations():
    # a parsed ring is validated, so build checks the product relation on
    # the rows of its algebra generators only; the same twist and dimension
    # mutations as above, made in the JSON, must end as the full check does
    from braidforge import io as bio
    from braidforge.fusion import algebra_generators

    rng = random.Random(7)
    scales = [CycloNum.from_root(F(k, 8)) for k in range(8)]
    scales += [CycloNum.from_rational(q) for q in (2, F(1, 2), F(-2, 3))]
    failures = set()
    for D in _build_corpus():
        doc = bio.datum_to_json(D)
        R = bio.datum_from_json(doc).ring
        assert len(algebra_generators(R)) < R.rank
        for _ in range(4):
            i = rng.randrange(1, R.rank)
            t, d = list(D.theta), list(D.dim)
            if rng.random() < 0.5:
                t[i] = F(rng.randrange(48), 48)
            else:
                d[i] = d[i] * rng.choice(scales)
                d[R.dual[i]] = d[i].conjugate()
            mutated = dict(doc, twists=[bio.fraction_str(x) for x in t],
                           dims=[bio.cyclo_to_json(x) for x in d])
            got = _outcome(bio.datum_from_json, mutated)
            if isinstance(got, PreModularDatum):
                got = (got.S, got.S_tilde)
            want = _outcome(_reference_build, R, t, d)
            assert got == want, (R, t, d)
            if isinstance(want[0], type):
                failures.add(want[0].__name__)
    assert {"SymmetryFail", "VerlindeFail"} <= failures


def test_failing_datum_near_the_conductor_guard_ends_quickly():
    # (Z/2)^3 with one twist of order 2257 = 37 * 61 (phi = 2160), under the
    # default conductor_guard 2310; every product took about 6 s to fail
    from braidforge import io as bio

    ring = bio.ring_to_json(group_ring(FinAbGroup((2, 2, 2))))
    one = {"conductor": 1, "coeffs": ["1"]}
    for den in (1021, 2257):
        doc = {"ring": ring, "twists": ["0", f"1/{den}"] + ["0"] * 6, "dims": [one] * 8}
        start = time.perf_counter()
        with pytest.raises(VerlindeFail) as err:
            bio.datum_from_json(doc)
        elapsed = time.perf_counter() - start
        assert str(err.value) == "product relation fails at (X, Y, Z) = (g001, g001, g001)"
        assert elapsed < 3.0, (den, elapsed)


def test_dimension_at_the_conductor_guard_descends_quickly():
    # Ising with d(X) a seeded element at conductor 2310 (the default
    # conductor_guard; phi = 480, 376 coefficients nonzero), as in the CLI
    # corpus: descending it to 1155 took about 15 s by a projection matrix
    from braidforge import io as bio

    rng = random.Random(7)
    doc = bio.datum_to_json(ising_datum(F(1, 16), 1))
    doc["dims"][2] = {"conductor": 2310, "coeffs": [
        bio.fraction_str(F(rng.randint(-2, 2), rng.randint(1, 3))) for _ in range(480)]}
    start = time.perf_counter()
    with pytest.raises(DualDimFail) as err:
        bio.datum_from_json(doc)
    elapsed = time.perf_counter() - start
    assert str(err.value) == "d(dual X) != conjugate(d(X))"
    assert elapsed < 3.0, elapsed


def test_build_reports_each_s_identity():
    I = ising_datum(F(1, 16), 1)
    R = I.ring
    # delta * X = 2X but X * delta = X: S is not symmetric
    bad = _with_n(R, _set_n(R.N, 1, 2, (0, 0, 2)))
    with pytest.raises(SymmetryFail, match=r"^S not symmetric at \(1, 2\)$"):
        build(bad, I.theta, I.dim)
    _assert_builds_agree(bad, I.theta, I.dim)
    # 1 * X = X * 1 = 2X keeps S symmetric but breaks the unit row
    bad = _with_n(R, _set_n(_set_n(R.N, 0, 2, (0, 0, 2)), 2, 0, (0, 0, 2)))
    with pytest.raises(SymmetryFail, match=r"^S\[unit\]\[2\] != d\(X\)$"):
        build(bad, I.theta, I.dim)
    _assert_builds_agree(bad, I.theta, I.dim)
    # a wrong duality on (Z/2)^2 that swaps elements of different twist
    M = qform.PreMetricGroup(FinAbGroup((2, 2)), (F(0), F(1, 2), F(1, 4), F(3, 4)))
    D = pointed_datum(M)
    Rd = group_ring(M.group)
    swapped = FusionRing(Rd.labels, Rd.unit, (0, 2, 1, 3), Rd.N)
    with pytest.raises(SymmetryFail, match=r"^S not dual-invariant at \(1, 1\)$"):
        build(swapped, D.theta, D.dim)
    _assert_builds_agree(swapped, D.theta, D.dim)
    # theta(delta) = 1 keeps S a symmetric matrix but breaks the product relation
    with pytest.raises(VerlindeFail, match=r"^product relation fails at \(X, Y, Z\) = "):
        build(R, (F(0), F(0), I.theta[2]), I.dim)
    _assert_builds_agree(R, (F(0), F(0), I.theta[2]), I.dim)


def test_is_lagrangian_is_self_perp():
    rng = random.Random(8)
    degenerate = 0
    for orders in invariant_shapes(16):
        G = FinAbGroup(orders)
        forms = [qform.random_form(G, rng) for _ in range(3)]
        forms.append(qform.PreMetricGroup(G, (F(0),) * G.order))
        for M in forms:
            degenerate += not qform.is_metric(M)
            for rec in qform.isotropic_subgroups(M):
                H = rec.subgroup
                assert rec.is_lagrangian == (qform.orthogonal_complement(M, H) == H)
    assert degenerate >= len(invariant_shapes(16))


# -- reports: the build's vectors against the S~/CycloNum loops they replaced --

def _ref_components(R, cent):
    """Classes of "y occurs in z (x) w for w in cent", by graph search."""
    adj = {i: set() for i in range(R.rank)}
    for z in range(R.rank):
        for w in cent:
            for y in R.constituents(z, w):
                adj[z].add(y)
                adj[y].add(z)
    seen, out = set(), []
    for i in range(R.rank):
        if i not in seen:
            comp, todo = {i}, [i]
            while todo:
                for j in adj[todo.pop()] - comp:
                    comp.add(j)
                    todo.append(j)
            seen |= comp
            out.append(tuple(sorted(comp)))
    return tuple(out)


def _ref_centralizer(D, K):
    R, St = D.ring, D.S_tilde
    cent = tuple(v for v in range(R.rank) if all(St[y][v] == ONE for y in K.indices))
    if subring_generated(R, cent).indices != cent:
        raise ClassificationBug("centralizer is not a subring")
    components = _ref_components(R, cent)
    rank = matrix_rank([[St[y][v] for v in range(R.rank)] for y in K.indices])
    if rank != len(components):
        raise ClassificationBug(f"rank {rank} != component count {len(components)}")
    return CentralizerReport(K, FusionSubring(R, cent), components, rank)


def _ref_nondegenerate(D):
    rep = _ref_centralizer(D, FusionSubring(D.ring, tuple(range(D.rank))))
    by_rank = rep.rank_stilde == D.rank
    if by_rank != (rep.centralizer.indices == (D.ring.unit,)):
        raise ClassificationBug("rank and centralizer tests disagree")
    return by_rank


def _ref_tau(D, sign, indices):
    out = CycloNum.zero()
    for i in indices:
        out = out + CycloNum.from_root(sign * D.theta[i]) * D.dim[i] * D.dim[i]
    return out


def _ref_cat_dim(D, indices):
    return sum((D.dim[i] * D.dim[i] for i in indices), CycloNum.zero())


def _ref_isotropic(D, K):
    St = D.S_tilde
    symmetric = all(St[y][z] == ONE for y in K.indices for z in K.indices)
    return symmetric, symmetric and all(D.theta[i] == 0 for i in K.indices)


def _ref_dichotomy(D, K):
    out = []
    for v in range(D.rank):
        inside = all(D.S_tilde[y][v] == ONE for y in K.indices)
        acc = sum((D.dim[y] * D.dim[y] * D.S_tilde[y][v] for y in K.indices), CycloNum.zero())
        vanishes = acc.is_zero()
        out.append(Check(f"dichotomy[{D.ring.labels[v]}]", "centralizer-dichotomy",
                         "pass" if inside != vanishes else "fail",
                         f"in_centralizer={inside} weighted_column_zero={vanishes}"))
    return out


def _ref_gfp(D):
    if not _ref_nondegenerate(D):
        raise Degenerate("square-class Gauss sums need a non-degenerate datum")
    R = D.ring
    sq = fp_square_integers(R)
    sf = [_squarefree(m) for m in sq]
    A = _ref_centralizer(D, integral_part(R)).centralizer
    if not set(A.indices) <= set(pointed_part(R).indices):
        raise ClassificationBug("centralizer of the integral part is not pointed")
    chi = {}
    for a in A.indices:
        val = (CycloNum.from_root(D.theta[a]) * D.dim[a]).as_rational()
        if val not in (1, -1):
            raise ClassificationBug(f"braiding character value {val} is not +-1")
        chi[a] = int(val)
    candidates = [
        v for v in sorted(set(sf))
        if all(D.S_tilde[a][x] == CycloNum.from_rational(chi[a])
               for a in A.indices for x in range(R.rank) if sf[x] == v)
    ]
    if len(candidates) != 1:
        raise ClassificationBug(f"square-class solutions: {candidates}")
    n_c = candidates[0]
    t_p = t_m = CycloNum.zero()
    for x in range(R.rank):
        if sf[x] == n_c:
            w = math.isqrt(sq[x] // n_c)
            t_p = t_p + w * CycloNum.from_root(D.theta[x]) * D.dim[x]
            t_m = t_m + w * CycloNum.from_root(-D.theta[x]) * D.dim[x]
    if t_m != t_p.conjugate():
        raise ClassificationBug("square-class sums are not conjugate")
    return n_c, t_p, t_m


def _ref_gauss_and_charge(D):
    R = D.ring
    every = range(R.rank)
    tau_p, tau_m = _ref_tau(D, +1, every), _ref_tau(D, -1, every)
    dim_tot = _ref_cat_dim(D, every)
    checks = [Check("conjugate-sums", "gauss-conjugate-pair",
                    "pass" if tau_m == tau_p.conjugate() else "fail")]
    for y in every:
        acc = sum((CycloNum.from_root(D.theta[x]) * D.dim[x] * D.S[x][y] for x in every),
                  CycloNum.zero())
        want = D.dim[y] * CycloNum.from_root(-D.theta[y]) * tau_p
        checks.append(Check(f"twisted-row-sum[{R.labels[y]}]", "twisted-row-sum",
                            "pass" if acc == want else "fail"))
    nondeg = _ref_nondegenerate(D)
    for sub in all_subrings(R).subrings:
        kc = _ref_centralizer(D, sub).centralizer.indices
        dk = _ref_cat_dim(D, sub.indices)
        ok = (tau_p * _ref_tau(D, -1, sub.indices) == dk * _ref_tau(D, +1, kc)
              and tau_m * _ref_tau(D, +1, sub.indices) == dk * _ref_tau(D, -1, kc))
        name = ",".join(sub.labels())
        checks.append(Check(f"gauss-mult[{name}]", "gauss-centralizer-multiplicativity",
                            "pass" if ok else "fail"))
        if nondeg and _ref_isotropic(D, sub)[1]:
            ok = _ref_tau(D, +1, kc) == tau_p and _ref_tau(D, -1, kc) == tau_m
            checks.append(Check(f"isotropic-centralizer-gauss[{name}]",
                                "isotropic-centralizer-gauss", "pass" if ok else "fail"))
    charge = None if tau_m.is_zero() else tau_p / tau_m
    if nondeg:
        checks.append(Check("norm", "gauss-norm-is-dimension",
                            "pass" if tau_p * tau_m == dim_tot else "fail"))
        checks.append(Check("charge-root", "squared-charge-root-of-unity",
                            "pass" if charge is not None
                            and charge.is_root_of_unity() is not None else "fail"))
    x_class = t_p = t_m = None
    try:
        x_class, t_p, t_m = _ref_gfp(D)
    except (Degenerate, NotWeaklyIntegral):
        pass
    return InvariantReport(tau_p, tau_m, charge, dim_tot, x_class, t_p, t_m, tuple(checks))


def test_reports_match_cyclonum_reference():
    rng = random.Random(17)
    non_subrings = raised = 0
    for D in _build_corpus():
        assert _outcome(gauss_and_charge, D) == _outcome(_ref_gauss_and_charge, D), D
        assert _outcome(gfp_invariants, D) == _outcome(_ref_gfp, D), D
        assert is_nondegenerate(D) == _ref_nondegenerate(D)
        sets = [K.indices for K in all_subrings(D.ring).subrings]
        for _ in range(4):
            sets.append(tuple(rng.sample(range(D.rank), rng.randint(1, D.rank))))
        for idx in sets:
            K = FusionSubring(D.ring, idx)
            non_subrings += subring_generated(D.ring, K.indices).indices != K.indices
            got = _outcome(centralizer, D, K)
            assert got == _outcome(_ref_centralizer, D, K), (D, idx)
            raised += isinstance(got, tuple)
            assert dichotomy_check(D, K) == _ref_dichotomy(D, K)
            flags = symmetric_and_isotropic(D, K)
            assert (flags["symmetric"], flags["isotropic"]) == _ref_isotropic(D, K)
    assert non_subrings >= 150 and raised >= 100


def test_subrings_refuse_indices_outside_the_basis():
    I = ising_datum(F(1, 16), 1)
    for idx in ((3,), (0, 3), (-1, 0)):
        with pytest.raises(BadParameter, match=r"outside 0\.\.2$"):
            FusionSubring(I.ring, idx)
    with pytest.raises(BadParameter):
        subring_generated(I.ring, (-1,))
    assert centralizer(I, FusionSubring(I.ring, (0, 1))).centralizer.indices == (0, 1)
    assert list(I._cents) == [(0, 1)]


def test_reports_build_each_centralizer_and_lattice_once(monkeypatch):
    from braidforge import cyclotomic, fusion, premodular
    from braidforge.config import Config
    from braidforge.errors import EnumerationLimit

    data = _build_corpus()
    ctx_keys = set(cyclotomic._CTX)
    # one rank step per computed centralizer report
    ranked, lattices = [], []
    real_rank, real_lattice = premodular.PreModularDatum._rank_rows, fusion._subring_lattice
    monkeypatch.setattr(premodular.PreModularDatum, "_rank_rows",
                        lambda D, rows: ranked.append(len(rows)) or real_rank(D, rows))
    monkeypatch.setattr(fusion, "_subring_lattice",
                        lambda R: lattices.append(id(R)) or real_lattice(R))
    asked = set()
    for D in data:
        gauss_and_charge(D)
        is_nondegenerate(D)
        try:
            gfp_invariants(D)
        except (Degenerate, NotWeaklyIntegral):
            pass
        for K in all_subrings(D.ring).subrings:
            asked.add((id(D), K.indices))
            centralizer(D, K)
    kept = {(id(D), k) for D in data for k in D._cents}
    assert len(ranked) == len(kept) and asked <= kept
    assert sorted(lattices) == sorted({id(D.ring) for D in data})
    assert set(cyclotomic._CTX) == ctx_keys
    # the rank guard still refuses a ring whose lattice is kept
    D = data[-1]
    assert D.ring._lattice is not None
    with pytest.raises(EnumerationLimit, match="exceeds rank_guard = 1"):
        all_subrings(D.ring, Config(rank_guard=1))
    with pytest.raises(EnumerationLimit):
        gauss_and_charge(D, Config(rank_guard=1))


def test_centralizer_ranks_match_the_exact_rank(monkeypatch):
    # every K-row rank against _rank_vec on the K rows of S; a full-rank
    # F_p image of S settles every K of its datum, and _rank_vec the rest
    from braidforge import premodular
    from braidforge.cyclotomic import _rank_vec

    exact = []
    monkeypatch.setattr(premodular, "_rank_vec",
                        lambda ctx, M: exact.append(len(M)) or _rank_vec(ctx, M))
    paths = set()
    for D in _build_corpus():
        S = _unpacked(D).S
        for K in all_subrings(D.ring).subrings:
            calls = len(exact)
            rep = centralizer(D, K)
            assert rep.rank_stilde == _rank_vec(D._ctx, [S[y] for y in K.indices]), (D, K)
            assert (len(exact) > calls) != D._full
            paths.add(D._full)
        assert is_nondegenerate(D) or not D._full
    assert paths == {True, False}


def test_centralizer_components_are_kept_on_the_ring(monkeypatch):
    # a second datum parsed onto the same interned ring reads the components
    # the first one kept, and they equal a fresh computation
    from braidforge import io as bio
    from braidforge import premodular
    from braidforge.fusion import components

    computed = []
    monkeypatch.setattr(premodular, "components",
                        lambda R, cent: computed.append(tuple(cent)) or components(R, cent))
    pairs = [(ising_datum(F(1, 16), 1), ising_datum(F(3, 16), -1))]
    rng = random.Random(27)
    G = FinAbGroup((2, 4))
    pairs.append(tuple(pointed_datum(qform.random_form(G, rng)) for _ in range(2)))
    for first, second in pairs:
        D1, D2 = (bio.datum_from_json(bio.datum_to_json(D)) for D in (first, second))
        R = D1.ring
        assert D2.ring is R and D2 != D1
        computed.clear()
        for K in all_subrings(R).subrings:
            centralizer(D1, K)
        kept, before, hits = dict(R._comps), len(computed), 0
        for K in all_subrings(R).subrings:
            rep = centralizer(D2, K)
            cent = rep.centralizer.indices
            assert rep.components == components(R, cent)
            assert (cent in kept) == (len(computed) == before)
            hits += cent in kept
            before = len(computed)
        assert hits
        assert set(R._comps) == set(kept) | set(computed)
        # the ring's equality and hash read its table alone
        bare = FusionRing(R.labels, R.unit, R.dual, R.N)
        assert bare == R and hash(bare) == hash(R) and not bare._comps


def test_a_centralizer_that_is_no_subring_keeps_nothing():
    # a falsified pairing table puts {0, 1} in the centralizer of the unit
    # on Z/4, which 1 + 1 = 2 leaves: refused, and nothing is kept
    D = pointed_datum(qform.random_form(FinAbGroup((4,)), random.Random(3)))
    R = D.ring
    D._pairing()
    D._ones = [frozenset({0}) if v in (0, 1) else frozenset() for v in range(R.rank)]
    with pytest.raises(ClassificationBug, match="centralizer is not a subring"):
        centralizer(D, FusionSubring(R, (0,)))
    assert R._comps == {} and D._cents == {}
    with pytest.raises(ClassificationBug, match="centralizer is not a subring"):
        centralizer(D, FusionSubring(R, (0,)))


def test_square_class_sums_are_kept_per_tolerance(monkeypatch):
    # gauss_and_charge and a later gfp_invariants share one computation;
    # another tolerance computes afresh and is kept in its place, and a
    # refusal keeps nothing
    from braidforge import premodular
    from braidforge.config import Config

    squares = []
    monkeypatch.setattr(premodular, "fp_square_integers",
                        lambda R, config: squares.append(config.tolerance)
                        or fp_square_integers(R, config))
    D = deligne_product(ising_datum(F(1, 16), 1), ising_datum(F(3, 16), -1))
    rep = gauss_and_charge(D)
    got = gfp_invariants(D)
    assert got is gfp_invariants(D) and (rep.x_class, rep.gfp_plus, rep.gfp_minus) == got
    tight = Config(tolerance=1e-9)
    assert gfp_invariants(D, tight) == got and len(squares) == 2
    assert D._gfp == (1e-9, got)
    assert gfp_invariants(D) == got and len(squares) == 3
    E = pointed_datum(qform.PreMetricGroup(FinAbGroup((2,)), (F(0), F(0))))
    for _ in range(2):
        with pytest.raises(Degenerate):
            gfp_invariants(E)
    assert E._gfp is None


def test_rings_differing_in_labels_keep_their_own_messages(monkeypatch):
    from braidforge import fusion
    from braidforge import io as bio

    monkeypatch.setattr(fusion, "_RINGS", {})
    doc = bio.datum_to_json(ising_datum(F(1, 16), 1))
    doc["dims"][1] = {"conductor": 1, "coeffs": ["0/1"]}
    renamed = dict(doc, ring=dict(doc["ring"], labels=["1", "psi", "sigma"]))
    for obj, label in ((doc, "delta"), (renamed, "psi"), (doc, "delta")):
        with pytest.raises(ZeroDim, match=f"dimension of {label} is zero"):
            bio.datum_from_json(obj)
    assert len(fusion._RINGS) == 2


def test_reports_do_not_depend_on_request_order(tmp_path, capsys, monkeypatch):
    import json

    from braidforge import fusion
    from braidforge import io as bio
    from braidforge.cli import main
    from braidforge.fusion import ising_ring

    def put(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    rng = random.Random(3)
    data = [ising_datum(F(k, 16), eps) for k, eps in ((1, 1), (3, -1), (5, 1), (7, -1))]
    data += [deligne_product(ising_datum(F(1, 16), 1), ising_datum(F(k, 16), -1))
             for k in (3, 5)]
    data += [pointed_datum(qform.random_form(FinAbGroup(orders), rng))
             for orders in ((2, 2), (2, 2), (4,))]
    bad = bio.ring_to_json(ising_ring())
    bad["N"][2][2][1] = 2
    argvs = [["fusion", "subrings", put("bad.json", bad)]]
    for i, D in enumerate(data):
        path = put(f"d{i}.json", bio.datum_to_json(D))
        argvs += [["premodular", "report", path], ["premodular", "gfp", path],
                  ["premodular", "centralizer", path, "--subring", "1"],
                  ["fusion", "subrings", put(f"r{i}.json", bio.ring_to_json(D.ring))],
                  ["fusion", "dims", put(f"r{i}.json", bio.ring_to_json(D.ring))]]
    argvs.append(argvs[0])

    def run_all(order):
        monkeypatch.setattr(fusion, "_RINGS", {})
        out = {}
        for argv in order:
            code = main(argv)
            got = capsys.readouterr()
            out.setdefault(tuple(argv), set()).add((code, got.out, got.err))
        return out

    forward = run_all(argvs)
    assert forward == run_all(argvs[::-1])
    assert all(len(v) == 1 for v in forward.values())
    assert forward[tuple(argvs[0])] == {(2, "", "AssociativityFail: associativity fails "
                                                  "at (1, 2, 2) -> 0\n")}
    assert len(fusion._RINGS) == 4   # Ising, Ising x Ising, (Z/2)^2 and Z/4


def test_seed_round_builds_ring_work_once_per_table(monkeypatch):
    """One round of the benchmark's datum_reports requests (seed 7)."""
    import sys
    from pathlib import Path

    from braidforge import fusion

    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import inputs
    import workloads

    reqs = inputs.datum_requests(7)
    tables = {inputs.canonical(obj["ring"]) for obj in reqs}
    assert (len(reqs), len(tables)) == (106, 18)
    monkeypatch.setattr(fusion, "_RINGS", {})
    # validate_ring makes one FusionRing per table, and a later parse returns it
    calls = {"FusionRing": [], "_perron_dims": [], "_subring_lattice": []}
    for name, seen in calls.items():
        real = getattr(fusion, name)
        monkeypatch.setattr(fusion, name, lambda *a, real=real, seen=seen:
                            seen.append(a) or real(*a))
    for obj in reqs:
        assert workloads.datum_report(obj)["identity"]
    assert len(fusion._RINGS) == 18
    assert {name: len(seen) for name, seen in calls.items()} == dict.fromkeys(calls, 18)


def _corpus_data():
    """The build corpus, and every datum of the CLI corpus that builds."""
    import json
    from pathlib import Path

    from braidforge import io as bio

    out = _build_corpus()
    for path in sorted((Path(__file__).parent / "golden" / "inputs").glob("datum_*.json")):
        out.append(bio.datum_from_json(json.loads(path.read_text())))
    return out


def test_canonical_s_and_s_tilde_are_made_on_first_read():
    # the reports never read the canonical matrices; the first read makes
    # them from the kept vectors, equal to the reference build's, and keeps them
    from braidforge import io as bio
    from braidforge.config import Config

    cfg = Config(rank_guard=13)
    for D in _corpus_data():
        gauss_and_charge(D, cfg)
        for K in all_subrings(D.ring, cfg).subrings:
            centralizer(D, K)
            dichotomy_check(D, K)
            symmetric_and_isotropic(D, K)
        for E in (D, bio.datum_from_json(bio.datum_to_json(D)),
                  deligne_product(D, trivial_datum())):
            assert E._S is None and E._S_tilde is None, E
        if D.rank <= 12:
            assert (D.S, D.S_tilde) == _reference_build(D.ring, D.theta, D.dim), D
        else:   # Z/13: each entry against s_xy = d_x d_y s~_xy
            for x in range(D.rank):
                for y in range(D.rank):
                    assert D.S[x][y] == D.dim[x] * D.dim[y] * D.S_tilde[x][y]
        assert D.S is D.S and D.S_tilde is D.S_tilde
    P = pointed_datum(qform.random_form(FinAbGroup((2, 4)), random.Random(2)))
    assert P._S is None and P._S_tilde is None


def test_s_is_shared_across_the_diagonal_only_where_the_table_commutes():
    for D in _build_corpus():
        S, N = D._pS, D.ring.N
        for x in range(D.rank):
            for y in range(D.rank):
                assert (S[x][y] is S[y][x]) == (N[x][y] == N[y][x]), (D, x, y)
    # X delta = 2X but delta X = X: no datum, and the same first pair as a
    # check of the whole matrix names
    I = ising_datum(F(1, 16), 1)
    bad = _with_n(I.ring, _set_n(I.ring.N, 2, 1, (0, 0, 2)))
    assert _outcome(build, bad, I.theta, I.dim) == (SymmetryFail, "S not symmetric at (1, 2)")
    _assert_builds_agree(bad, I.theta, I.dim)


def test_pairing_matches_an_unmemoised_pairing(monkeypatch):
    # s_yv against +-d(y) d(v) at every pair, and d(y) d(v) kept by the
    # dimension kit once per pair of distinct dimensions, so the pairing
    # makes no product
    from braidforge import premodular
    from braidforge.cyclotomic import _mul_vec

    made = []
    monkeypatch.setattr(premodular, "_mul_vec",
                        lambda ctx, a, b: made.append(1) or _mul_vec(ctx, a, b))
    for D in _corpus_data():
        r, V = D.rank, _unpacked(D)
        first = {}
        for i, d in enumerate(D.dim):
            first.setdefault(d, i)
        made.clear()
        pm, ones = D._pairing()
        want = {tuple(sorted((first[D.dim[y]], first[D.dim[v]]))) for y in range(r) for v in range(r)}
        assert not made and len(D._kron.pairs) == len(want), D
        for y in range(r):
            for v in range(r):
                s = [c * D._kron.D for c in V.S[y][v]]
                dd = _mul_vec(D._ctx, V.dv[y], V.dv[v])
                want = 1 if s == dd else -1 if s == [-c for c in dd] else 0
                assert pm[y][v] == want, (D, y, v)
            assert ones[y] == {x for x in range(r) if pm[x][y] == 1}


def test_square_classes_are_kept_on_the_ring_per_tolerance(monkeypatch):
    # one slot on the ring, for the last tolerance: a second datum on the
    # ring reads it, another tolerance computes afresh, and a refusal at a
    # tolerance the Perron dimensions cannot meet keeps nothing
    from braidforge import fusion
    from braidforge import io as bio
    from braidforge import premodular
    from braidforge.config import Config

    monkeypatch.setattr(fusion, "_RINGS", {})
    squares = []
    monkeypatch.setattr(premodular, "fp_square_integers",
                        lambda R, config: squares.append(config.tolerance)
                        or fp_square_integers(R, config))
    first, second = (deligne_product(ising_datum(F(1, 16), 1), ising_datum(F(k, 16), -1))
                     for k in (3, 5))
    D1, D2 = (bio.datum_from_json(bio.datum_to_json(D)) for D in (first, second))
    R = D1.ring
    assert D2.ring is R and R._squares is None
    got = gfp_invariants(D1)
    assert R._squares[0] == 1e-6 and squares == [1e-6]
    sq = fp_square_integers(R)
    assert R._squares[1:] == (sq, tuple(_squarefree(m) for m in sq), integral_part(R).indices,
                              frozenset(pointed_part(R).indices))
    assert gfp_invariants(D2) == _ref_gfp(D2) and squares == [1e-6]
    with pytest.raises(NotWeaklyIntegral):
        gfp_invariants(D2, Config(tolerance=1e-14))
    assert R._squares[0] == 1e-6 and squares == [1e-6, 1e-14]
    assert gfp_invariants(D1, Config(tolerance=1e-12)) == got and squares[-1] == 1e-12
    assert R._squares[0] == 1e-12
    with pytest.raises(NotWeaklyIntegral):
        gfp_invariants(D1, Config(tolerance=1e-14))


# -- the integer tests: Kronecker substitution against _reduce and vectors ----

def _conv(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _zero_cases(ctx, rng, dense):
    """Seeded (Delta, M): polynomials of degree <= 2 phi - 2 whose
    coefficients reach M in size, half of them multiples of Phi_n."""
    from braidforge.cyclotomic import _reduce, cyclotomic_polynomial

    phi = ctx.phi
    Phi = cyclotomic_polynomial(ctx.n)

    def vec(size, bound):
        if dense:
            return [rng.randint(-bound, bound) for _ in range(size)]
        v = [0] * size
        for i in rng.sample(range(size), min(size, 3)):
            v[i] = rng.choice((-bound, bound, rng.randint(-bound, bound)))
        return v

    for bound in (1, 7, 2 ** 40):
        a, b = vec(phi, bound), vec(phi, bound)
        ab = _conv(a, b)
        red = _reduce(ctx, list(ab))
        yield [x - (red[j] if j < phi else 0) for j, x in enumerate(ab)]   # a b - (a b mod Phi)
        red[rng.randrange(phi)] += rng.choice((-1, 1))
        yield [x - (red[j] if j < phi else 0) for j, x in enumerate(ab)]   # off by one
        q = vec(phi - 1, bound)
        qP = _conv(q, Phi)
        yield qP                                                            # q Phi
        qP[rng.randrange(len(qP))] -= bound
        yield qP
        yield vec(2 * phi - 1, bound)


@pytest.mark.parametrize("ns", [[n for n in range(1, 201) if n % 4 != 2], [2257, 2310]],
                         ids=["canonical n <= 200", "2257 and 2310"])
def test_kronecker_zero_test_agrees_with_reduce(ns):
    # Phi_n(B) | Delta(B) exactly when Delta reduces to zero, on seeded
    # Delta whose coefficients reach the bound M the base is made for,
    # with negative coefficients, sparse and dense
    from braidforge import cyclotomic
    from braidforge.cyclotomic import _fold_bound, _reduce
    from braidforge.premodular import _Kron

    seen = set()
    for n in ns:
        ctx = cyclotomic._ctx(n)
        rng = random.Random(n)
        c, h = _fold_bound(ctx)
        for dense in ((False, True) if n <= 200 else (False,)):
            for delta in _zero_cases(ctx, rng, dense):
                M = max(map(abs, delta))
                kr = _Kron(ctx, M)
                assert 1 << kr.k > (2 * ctx.phi - 1) * M * c + h + 1, n
                assert kr.mod == sum(a << kr.k * i for i, a in
                                     enumerate(cyclotomic.cyclotomic_polynomial(n)))
                value = kr.pack(delta)
                assert value == sum(a << kr.k * i for i, a in enumerate(delta))
                zero = not any(_reduce(ctx, list(delta)))
                assert kr.divides(value) == zero, (n, delta)
                seen.add(zero)
    assert seen == {True, False}


def _total(D, vecs, indices=None):
    """Sum of the vectors ``vecs`` over ``indices`` (all of them when None)."""
    vecs = vecs if indices is None else [vecs[i] for i in indices]
    return list(map(sum, zip(*vecs))) or [0] * D._ctx.phi


def _identity_deltas(D):
    """The unreduced polynomial of each identity the integer tests read,
    for the coefficient bound: the product relation at every (X, Y, Z), the
    twisted row sums, the Gauss-sum products over every subring, the norm,
    and mueger_report's dimension identities for every pair of subrings
    (dim-exchange, dim-product, whose delta nondeg-factor tests again, and
    diamond-dims), with both sides over one power of the denominator."""
    R, V = D.ring, _unpacked(D)
    den, r = D._kron.D, D.rank
    tot = lambda vs, idx: _total(D, vs, idx)  # noqa: E731
    pad = lambda v, n: list(v) + [0] * (n - len(v))  # noqa: E731
    sub = lambda a, b: [x - y for x, y in zip(pad(a, len(b)), pad(b, len(a)))]  # noqa: E731
    for x in range(r):
        for y in range(r):
            for z in range(r):
                rhs = [0] * D._ctx.phi
                for w in R.constituents(y, z):
                    rhs = [u + R.N[y][z][w] * v for u, v in zip(rhs, V.S[x][w])]
                yield sub(_conv(V.S[x][y], V.S[x][z]), _conv(V.dv[x], rhs))
    tp, tm = tot(V.td[1], None), tot(V.td[-1], None)
    for y in range(r):
        acc = [0] * (2 * D._ctx.phi - 1)
        for x in range(r):
            acc = [u + den * v for u, v in zip(acc, _conv(V.qd[x], V.S[x][y]))]
        yield sub(acc, _conv(V.qi[y], tp))
    lat = all_subrings(R)
    cent = {K.indices: centralizer(D, K).centralizer for K in lat.subrings}
    for K in lat.subrings:
        kc = cent[K.indices].indices
        dk = tot(V.dd, K.indices)
        yield sub(_conv(tp, tot(V.td[-1], K.indices)), _conv(dk, tot(V.td[1], kc)))
        yield sub(_conv(tm, tot(V.td[1], K.indices)), _conv(dk, tot(V.td[-1], kc)))
    yield sub(_conv(tp, tm), [den * den * v for v in tot(V.dd, None)])
    whole = FusionSubring(R, tuple(range(r)))
    Cc = cent[whole.indices]

    def dims(a, b, c, e):   # dim(a) dim(b) - dim(c) dim(e), each dim over den^2
        return sub(_conv(tot(V.dd, a.indices), tot(V.dd, b.indices)),
                   _conv(tot(V.dd, c.indices), tot(V.dd, e.indices)))

    for K in lat.subrings:
        Kc = cent[K.indices]
        yield dims(K, Kc, whole, lat.meet(K, Cc))
        for B in lat.subrings:
            yield dims(lat.meet(B, Kc), K, lat.meet(K, cent[B.indices]), B)
            yield dims(K, B, lat.join(K, B), lat.meet(K, B))


def test_every_identity_fits_the_datum_base():
    # the base each datum chose is large enough for the identities' actual
    # coefficients, so the proof in _Kron's docstring applies to each test
    from braidforge.cyclotomic import _fold_bound

    for D in _corpus_data():
        if D.rank > 12:
            continue
        kr, ctx = D._kron, D._ctx
        c, h = _fold_bound(ctx)
        M = max(max(map(abs, delta)) for delta in _identity_deltas(D))
        assert 1 << kr.k > (2 * ctx.phi - 1) * M * c + h + 1, D


def _vector_checks(D):
    """The statuses of gauss_and_charge's checks by the vector test it
    replaced: _mul_vec products and list equality, on the datum's own
    vectors, with the same CycloNum checks where no product is made."""
    from braidforge.cyclotomic import _mul_vec, _times_root

    R, V = D.ring, _unpacked(D)
    ctx, L, den = D._ctx, D._ctx.n, D._kron.D
    dd, td = V.dd, V.td
    every = range(R.rank)
    tp, tm, dtot = _total(D, td[1]), _total(D, td[-1]), _total(D, dd)
    tau_p, tau_m = CycloNum(L, tp, den ** 2), CycloNum(L, tm, den ** 2)
    out = [("conjugate-sums", tau_m == tau_p.conjugate())]
    for y in every:
        acc = _total(D, [_mul_vec(ctx, V.qd[x], V.S[x][y]) for x in every])
        s, t = D._roots[y]
        want = _mul_vec(ctx, _times_root(ctx, s, -t, V.dv[y]), tp)
        out.append((f"twisted-row-sum[{R.labels[y]}]", [c * den for c in acc] == want))
    nondeg = is_nondegenerate(D)
    for sub in all_subrings(R).subrings:
        kc = centralizer(D, sub).centralizer.indices
        dk = _total(D, dd, sub.indices)
        tp_c, tm_c = _total(D, td[1], kc), _total(D, td[-1], kc)
        ok = (_mul_vec(ctx, tp, _total(D, td[-1], sub.indices)) == _mul_vec(ctx, dk, tp_c)
              and _mul_vec(ctx, tm, _total(D, td[1], sub.indices)) == _mul_vec(ctx, dk, tm_c))
        name = ",".join(sub.labels())
        out.append((f"gauss-mult[{name}]", ok))
        if nondeg and symmetric_and_isotropic(D, sub)["isotropic"]:
            out.append((f"isotropic-centralizer-gauss[{name}]", tp_c == tp and tm_c == tm))
    if nondeg:
        out.append(("norm", _mul_vec(ctx, tp, tm) == [c * den ** 2 for c in dtot]))
        charge = None if tau_m.is_zero() else tau_p / tau_m
        out.append(("charge-root", charge is not None and charge.is_root_of_unity() is not None))
    return [(name, "pass" if ok else "fail") for name, ok in out]


def _tampered(D, rng):
    """D with one twist moved in its vectors after build, so S and theta d
    no longer match theta^+-1 d^2: the integer tests see a datum whose
    identities fail, which build would have refused."""
    i = rng.randrange(1, D.rank)
    roots = list(D._roots)
    roots[i] = (roots[i][0] + 1, (roots[i][1] + rng.randrange(D._ctx.n)) % D._ctx.n)
    bad = PreModularDatum(D.ring, D.theta, D.dim, D._ctx, roots, D._kron, D._pS)
    D._rank_rows(())   # the F_p rank of S, whose images are taken from the twists S was made with
    bad._pqd, bad._full = D._pqd, D._full
    return bad


def test_integer_checks_match_the_vector_checks_on_data_and_mutations(monkeypatch):
    # every corpus datum, and seeded copies with one twist, one dimension or
    # one N entry changed: the same error class and message as the
    # reference build, or the same check statuses as the vector test; and
    # copies whose vectors were moved after build, where checks fail
    from braidforge import premodular

    def no_gfp(D, config=None):
        raise Degenerate("not asked for")

    rng = random.Random(35)
    scales = [CycloNum.from_root(F(k, 8)) for k in range(8)]
    scales += [CycloNum.from_rational(q) for q in (2, F(1, 2), F(-2, 3))]
    statuses, errors = {}, set()
    for D in _corpus_data():
        R, r = D.ring, D.rank
        if r > 12:   # Z/13: the subring lattice is past the default rank_guard
            continue
        copies = [(R, D.theta, D.dim)]
        for kind in ("theta", "dim", "N") * (2 if r > 1 else 0):
            i = rng.randrange(1, r)
            t, d, ring = list(D.theta), list(D.dim), R
            if kind == "theta":
                t[i] = F(rng.randrange(48), 48)
            elif kind == "dim":
                d[i] = d[i] * rng.choice(scales)
                d[R.dual[i]] = d[i].conjugate()
            else:
                x, y = rng.randrange(r), rng.randrange(r)
                row = list(R.N[x][y])
                row[rng.randrange(r)] += rng.choice((1, 2))
                ring = _with_n(R, _set_n(R.N, x, y, row))
            copies.append((ring, tuple(t), tuple(d)))
        for ring, t, d in copies:
            got = _outcome(build, ring, t, d)
            want = _outcome(_reference_build, ring, t, d)
            if isinstance(want[0], type):
                assert got == want, (ring, t, d)
                errors.add(want[0].__name__)
                continue
            assert (got.S, got.S_tilde) == want
            checks = [(c.name, c.status) for c in gauss_and_charge(got).checks]
            assert checks == _vector_checks(got), (ring, t, d)
        with monkeypatch.context() as m:
            m.setattr(premodular, "gfp_invariants", no_gfp)
            for _ in range(2 if r > 1 else 0):
                E = _tampered(D, rng)
                checks = [(c.name, c.status) for c in gauss_and_charge(E).checks]
                assert checks == _vector_checks(E), D
                for name, status in checks:
                    statuses.setdefault(name.split("[")[0], set()).add(status)
    assert {"VerlindeFail", "SymmetryFail"} <= errors
    for name in ("twisted-row-sum", "gauss-mult", "norm"):
        assert statuses[name] == {"pass", "fail"}, name


def test_s_tilde_makes_one_inverse_product_per_pair_of_dimensions(monkeypatch):
    # build makes no entry of s~; its first read makes d_x^-1 d_y^-1 once
    # per pair of distinct dimensions and s_xy times it once per x <= y,
    # each one CycloNum product
    product = CycloNum.__mul__
    made = []
    monkeypatch.setattr(CycloNum, "__mul__", lambda a, b: made.append(1) or product(a, b))
    for D in _corpus_data():
        E = build(D.ring, D.theta, D.dim)
        made.clear()
        St = E.S_tilde
        r, classes = D.rank, len(set(D.dim))
        assert len(made) == classes * (classes + 1) // 2 + r * (r + 1) // 2, D
        assert St == D.S_tilde and E.S_tilde is St
        for x in range(r):
            for y in range(r):
                assert St[x][y] * D.dim[x] * D.dim[y] == D.S[x][y]
