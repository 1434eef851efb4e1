"""Subquotients H-perp / H and the core, checked against a coordinate reference.

The reference below is the element-tuple implementation that the
index-based ``qform._subquotient`` replaced: greedy generators on
coordinate tuples, the generator-combination structure map built with
``FinAbGroup.add``/``mul``, the Smith quotient as a ``GroupHom`` and the
induced automorphisms of the core as coordinate mappings.  The library
must reproduce its groups, value tables, chosen subgroups and the
automorphism list, in order.
"""

import random

from braidforge.abelian import FinAbGroup, GroupHom, TRIVIAL_GROUP, smith_diagonal
from braidforge.qform import (
    core,
    isotropic_subgroups,
    q_automorphism_perms,
    quotient_form,
    random_form,
    restrict,
)
from test_abelian import invariant_shapes


def _ref_generators(G, elements):
    if len(elements) == 1:
        return ()
    target = sorted(elements)
    cand = sorted((e for e in elements if e != G.zero()), key=lambda e: (-G.element_order(e), e))
    gens = []

    def span(gs):
        cur = {G.zero()}
        for g in gs:
            while True:
                new = cur | {G.add(x, g) for x in cur}
                if new == cur:
                    break
                cur = new
        return sorted(cur)

    have = [G.zero()]
    for e in cand:
        if e not in have:
            gens.append(e)
            have = span(gens)
            if len(have) == len(elements):
                break
    changed = True
    while changed:
        changed = False
        for i in range(len(gens)):
            rest = gens[:i] + gens[i + 1 :]
            if span(rest) == target:
                gens, changed = rest, True
                break
    return tuple(gens)


def _ref_structure(G, gens):
    if not gens:
        return TRIVIAL_GROUP, {G.zero(): ()}, {(): G.zero()}
    k = len(gens)
    gord = [G.element_order(g) for g in gens]
    rel_cols = [[gord[i] if j == i else 0 for j in range(k)] for i in range(k)]
    combos = [()]
    for o in gord:
        combos = [c + (j,) for c in combos for j in range(o)]
    sums = []
    for v in combos:
        s = G.zero()
        for c, g in zip(v, gens):
            s = G.add(s, G.mul(c, g))
        sums.append(s)
        if any(v) and s == G.zero():
            rel_cols.append(list(v))
    diag, U = smith_diagonal([[col[i] for col in rel_cols] for i in range(k)])
    kept = [(i, d) for i, d in enumerate(diag) if d != 1]
    K = FinAbGroup(tuple(d for _, d in kept)) if kept else TRIVIAL_GROUP
    to_K = {}
    for v, el in zip(combos, sums):
        to_K.setdefault(el, tuple(sum(U[i][j] * v[j] for j in range(k)) % d for i, d in kept))
    assert len(set(to_K.values())) == K.order == len(to_K)
    return K, to_K, {v: g for g, v in to_K.items()}


def _ref_quotient(K, gens):
    r = K.rank
    if r == 0:
        return TRIVIAL_GROUP, GroupHom(K, TRIVIAL_GROUP, ())
    mat = [[K.orders[i] if i == j else 0 for j in range(r)] + [h[i] for h in gens] for i in range(r)]
    diag, U = smith_diagonal(mat)
    kept = [(i, d) for i, d in enumerate(diag) if d != 1]
    Q = FinAbGroup(tuple(d for _, d in kept)) if kept else TRIVIAL_GROUP
    return Q, GroupHom(K, Q, tuple(tuple(U[i][j] % d for i, d in kept) for j in range(r)))


def _ref_quotient_form(M, H):
    """(Q, values, perp, project) with project: G-element -> Q-element."""
    G = M.group
    assert all(M.q(h) == 0 for h in H.elements)
    perp = [g for g in G.elements() if all(M.b(g, h) == 0 for h in H.elements)]
    K, to_K, from_K = _ref_structure(G, _ref_generators(G, perp))
    Q, proj = _ref_quotient(K, _ref_generators(K, sorted(to_K[h] for h in H.elements)))
    vals = {}
    for e in K.elements():
        assert vals.setdefault(proj(e), M.q(from_K[e])) == M.q(from_K[e])
    return Q, tuple(vals[y] for y in Q.elements()), perp, lambda g: proj(to_K[g])


def _ref_core(M):
    G = M.group
    H = min((r.subgroup for r in isotropic_subgroups(M) if r.is_maximal), key=lambda s: s.elements)
    Q, vals, perp, project = _ref_quotient_form(M, H)
    hset = set(H.elements)
    induced = set()
    for p in q_automorphism_perms(M):
        act = lambda g: G.from_index(p[G.index(g)])  # noqa: E731
        if {act(h) for h in hset} != hset:
            continue
        mapping = {}
        for g in perp:
            assert mapping.setdefault(project(g), project(act(g))) == project(act(g))
        induced.add(tuple(mapping[y] for y in Q.elements()))
    gamma = [tuple(imgs[Q.index(e)] for e in Q.generators()) for imgs in sorted(induced)]
    return Q, vals, H, gamma


def test_quotient_form_matches_coordinate_reference():
    rng = random.Random(61)
    checked = 0
    for shape in invariant_shapes(16):
        G = FinAbGroup(shape)
        for _ in range(2):
            M = random_form(G, rng)
            for rec in isotropic_subgroups(M):
                Q, vals, _, _ = _ref_quotient_form(M, rec.subgroup)
                got = quotient_form(M, rec.subgroup)
                assert (got.group.orders, got.values) == (Q.orders, vals), (shape, M, rec)
                checked += 1
    assert checked >= 90


def test_restrict_matches_coordinate_reference():
    rng = random.Random(62)
    for shape in invariant_shapes(16):
        G = FinAbGroup(shape)
        M = random_form(G, rng)
        for rec in isotropic_subgroups(M):
            H = rec.subgroup
            K, _, from_K = _ref_structure(G, list(H.generators))
            got = restrict(M, H)
            assert got.group.orders == K.orders
            assert got.values == tuple(M.q(from_K[e]) for e in K.elements())


def test_core_matches_coordinate_reference():
    rng = random.Random(63)
    shapes = [s for s in invariant_shapes(36) if s != (2,) * 5]
    assert len(shapes) == 60
    nontrivial_gamma = 0
    for shape in shapes:
        G = FinAbGroup(shape)
        for _ in range(2):
            M = random_form(G, rng)
            Q, vals, H, gamma = _ref_core(M)
            res = core(M)
            assert res.core.group.orders == Q.orders
            assert res.core.values == vals
            assert res.subgroup == H
            assert [g.images for g in res.gamma] == gamma, (shape, M)
            nontrivial_gamma += len(gamma) > 1
    assert nontrivial_gamma > 20
