"""Quadratic forms on finite abelian groups, with values in Q/Z.

A form is a total value table q: G -> Q/Z (fractions in [0,1), one per
element in lexicographic order); the multiplicative picture of roots of
unity is recovered as e^(2*pi*i*q).  The polarization
b(g,h) = q(g+h) - q(g) - q(h) is the associated bicharacter.

Subquotients H-perp / H, restrictions and the automorphisms induced on
the core are computed on flat element indices with the group's cached
add and element-order tables; coordinate tuples, ``Subgroup`` and
``GroupHom`` values are built only for what the public functions return.

Covers isotropy and orthogonality, quotients by isotropic subgroups,
cores, the full classification of anisotropic forms (odd rank-1 and
norm forms; the order-2 forms i^(n^2); the order-4 family with a
distinguished element of value -1; their order-8 sums; the two
degenerate anisotropic 2-groups), and weak anisotropy with its
hyperbolic-plane decomposition.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import product

from . import kernels
from .abelian import (
    FinAbGroup,
    GroupHom,
    Subgroup,
    TRIVIAL_GROUP,
    _minimal_generators,
    _quotient_images,
    automorphism_perms,  # re-exported: Aut(G) beside Aut(G, q)
    canonical_form,
    check_aut_size,
    hom_from_perm,
    primes_of,
    smith_diagonal,
)
from .config import DEFAULT, Config
from .errors import (
    ClassificationBug,
    EnumerationLimit,
    NotAnisotropic,
    NotASubgroup,
    NotEven,
    NotIsotropic,
    NotNormalized,
    NotQuadratic,
)

_mod1 = lambda x: x - (x // 1)


@dataclass(frozen=True)
class PreMetricGroup:
    """A group with a Q/Z-valued quadratic form (value table in lex order)."""

    group: FinAbGroup
    values: tuple
    # int_table(), built on first use
    _int_table: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        vals = tuple(_mod1(Fraction(v)) for v in self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) != self.group.order:
            raise NotQuadratic(
                f"value table has {len(vals)} entries for a group of order {self.group.order}"
            )

    @property
    def order(self) -> int:
        return self.group.order

    def q(self, g) -> Fraction:
        return self.values[self.group.index(g)]

    def q_idx(self, i: int) -> Fraction:
        return self.values[i]

    def b(self, g, h) -> Fraction:
        G = self.group
        return _mod1(self.q(G.add(g, h)) - self.q(g) - self.q(h))

    def int_table(self):
        """(L, table) with q(g) = table[g]/L; the kernel-facing encoding."""
        if self._int_table is None:
            L = reduce(math.lcm, (v.denominator for v in self.values), 1)
            object.__setattr__(self, "_int_table", (L, tuple(int(v * L) for v in self.values)))
        return self._int_table

    def negated(self) -> "PreMetricGroup":
        return PreMetricGroup(self.group, tuple(_mod1(-v) for v in self.values))

    def __repr__(self):
        return f"PreMetricGroup({self.group!r}, {[str(v) for v in self.values]})"


@dataclass(frozen=True)
class Bicharacter:
    """Symmetric biadditive pairing, tabulated on all element pairs."""

    group: FinAbGroup
    table: tuple  # flat n*n of Fractions in [0,1)

    def b(self, g, h) -> Fraction:
        n = self.group.order
        return self.table[self.group.index(g) * n + self.group.index(h)]


@dataclass(frozen=True)
class DegeneracyClass:
    tag: str  # nondegenerate | slightly_degenerate | degenerate_other
    radical: Subgroup


@dataclass(frozen=True)
class AnisotropicLabel:
    """Isomorphism-class label of an anisotropic form at one prime.

    kinds and parameters:
      OddRank1(p; residue)   residue is +1 for square class, -1 otherwise
      OddNorm(p)             the rank-2 norm form
      A(i_sign)              order 2, q(1) = i_sign in {1/4, 3/4}
      M(xi)                  order 4, distinguished value xi (8*xi = 0 mod 1)
      MplusA(xi, i_sign)     order 8, canonicalized to i_sign = 1/4
      SlightDeg2             order 2 degenerate, q(1) = 1/2
      SlightDeg4             order 4 degenerate anisotropic (single class)
    """

    kind: str
    prime: int
    params: tuple = ()

    def __repr__(self):
        if not self.params:
            return f"{self.kind}(p={self.prime})"
        return f"{self.kind}(p={self.prime}, {', '.join(map(str, self.params))})"


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def validate(group: FinAbGroup, value_table) -> PreMetricGroup:
    """Check the quadratic-form axioms and return the validated form.

    Raises NotNormalized (q(0) != 0), NotEven (q(-g) != q(g)), or
    NotQuadratic (polarization not biadditive), naming the witness.
    """
    M = PreMetricGroup(group, tuple(value_table))
    n = group.order
    L, t = M.int_table()
    if t[0] != 0:
        raise NotNormalized(f"q(0) = {M.values[0]} != 0")
    neg = group.neg_flat()
    for i in range(n):
        if t[neg[i]] != t[i]:
            raise NotEven(
                f"q(-g) != q(g) at g = {group.from_index(i)}: "
                f"{M.values[neg[i]]} vs {M.values[i]}"
            )
    add = group.add_flat()

    def bi(i, j):
        return (t[add[i * n + j]] - t[i] - t[j]) % L

    for s in group.gen_strides():
        for g in range(n):
            sg = add[s * n + g]
            for h in range(n):
                if (bi(sg, h) - bi(s, h) - bi(g, h)) % L != 0:
                    raise NotQuadratic(
                        "polarization not biadditive at "
                        f"({group.from_index(s)} + {group.from_index(g)}, {group.from_index(h)})"
                    )
    return M


def bicharacter(M: PreMetricGroup) -> Bicharacter:
    G = M.group
    n = G.order
    add = G.add_flat()
    tab = []
    for i in range(n):
        qi = M.values[i]
        row = [_mod1(M.values[add[i * n + j]] - qi - M.values[j]) for j in range(n)]
        tab.extend(row)
    return Bicharacter(G, tuple(tab))


def degeneracy(M: PreMetricGroup) -> DegeneracyClass:
    """Radical Ker b and the three-way degeneracy tag."""
    G = M.group
    n = G.order
    L, t = M.int_table()
    add = G.add_flat()
    rad = [
        i
        for i in range(n)
        if all((t[add[i * n + j]] - t[i] - t[j]) % L == 0 for j in range(n))
    ]
    radical = Subgroup(G, tuple(G.from_index(i) for i in rad))
    if len(rad) == 1:
        tag = "nondegenerate"
    elif len(rad) == 2 and M.q_idx(rad[1]) == Fraction(1, 2):
        tag = "slightly_degenerate"
    else:
        tag = "degenerate_other"
    return DegeneracyClass(tag, radical)


def is_metric(M: PreMetricGroup) -> bool:
    return degeneracy(M).tag == "nondegenerate"


# ---------------------------------------------------------------------------
# isotropy and orthogonality
# ---------------------------------------------------------------------------

def orthogonal_complement(M: PreMetricGroup, H: Subgroup) -> Subgroup:
    """H-perp = {g : b(g,h) = 0 for all h in H}."""
    G = M.group
    if H.parent.orders != G.orders:
        raise NotASubgroup("subgroup belongs to a different group")
    out = _perp_indices(M, [G.index(h) for h in H.generators])
    return Subgroup(G, tuple(G.from_index(i) for i in out))


def _perp_indices(M: PreMetricGroup, gens) -> list:
    """Indices of the g with b(g, h) = 0 for every index h in ``gens``."""
    n = M.group.order
    L, t = M.int_table()
    add = M.group.add_flat()
    return [
        i
        for i in range(n)
        if all((t[add[i * n + j]] - t[i] - t[j]) % L == 0 for j in gens)
    ]


@dataclass(frozen=True)
class IsotropicSubgroup:
    subgroup: Subgroup
    is_maximal: bool
    is_lagrangian: bool


def isotropic_subgroups(M: PreMetricGroup, config: Config = DEFAULT) -> list:
    """All subgroups with q = 0, maximal/Lagrangian flags set.

    Grown by closure: H extends by x exactly when q(x) = 0 and
    b(x, H) = 0, so the search never leaves the isotropic lattice.
    """
    G = M.group
    n = G.order
    if n > config.enum_guard:
        raise EnumerationLimit(f"|G| = {n} exceeds enum_guard = {config.enum_guard}")
    L, t = M.int_table()
    add = G.add_flat()
    iso_elems = [i for i in range(n) if t[i] == 0]

    def extensions(idx_tuple):
        out = []
        for x in iso_elems:
            if x in idx_tuple:
                continue
            if all((t[add[x * n + h]] - t[x] - t[h]) % L == 0 for h in idx_tuple):
                out.append(x)
        return out

    trivial = (0,)
    found = {trivial}
    queue = [trivial]
    maximal = {}
    while queue:
        cur = queue.pop()
        exts = extensions(cur)
        maximal[cur] = not exts
        for x in exts:
            new = kernels.closure(n, add, list(cur) + [x])
            if new not in found:
                found.add(new)
                queue.append(new)
    result = []
    for idx in sorted(found, key=lambda s: (len(s), s)):
        sub = Subgroup(G, tuple(G.from_index(i) for i in idx))
        # H is isotropic, so H lies in H-perp: Lagrangian iff |H-perp| = |H|
        perp = _perp_indices(M, [G.index(h) for h in sub.generators])
        result.append(IsotropicSubgroup(sub, maximal[idx], len(perp) == len(idx)))
    return result


def _sub_structure(G: FinAbGroup, gens):
    """Abstract structure of the subgroup generated by the indices ``gens``:
    (K, to_K, from_K).

    K is canonical; to_K maps the subgroup's G-indices to K-indices, and
    from_K lists the G-index of each K-index.  Derived from the relation
    lattice of the generating sequence via Smith reduction, so dependent
    generators are handled correctly.
    """
    if not gens:
        return TRIVIAL_GROUP, {0: 0}, [0]
    k = len(gens)
    gord = [G.order_flat()[g] for g in gens]
    sums = kernels.combinations(G.order, G.add_flat(), gens, gord)
    # relations inside the box prod Z/ord(g_i): all combos summing to zero
    rel_cols = [[gord[i] if j == i else 0 for j in range(k)] for i in range(k)]
    box = product(*map(range, gord))
    rel_cols += [list(v) for v, s in zip(box, sums) if s == 0 and any(v)]
    mat = [[col[i] for col in rel_cols] for i in range(k)]
    diag, U = smith_diagonal(mat)
    kept = [(i, d) for i, d in enumerate(diag) if d != 1]
    K = FinAbGroup(tuple(d for _, d in kept)) if kept else TRIVIAL_GROUP
    images = [K.index([U[i][j] for i, _ in kept]) for j in range(k)]
    to_K = {}
    for g, kk in zip(sums, kernels.combinations(K.order, K.add_flat(), images, gord)):
        to_K.setdefault(g, kk)
    if len(set(to_K.values())) != K.order or K.order != len(to_K):
        raise ClassificationBug("subgroup structure map is not bijective")
    from_K = [0] * K.order
    for g, kk in to_K.items():
        from_K[kk] = g
    return K, to_K, from_K


def _restricted(M: PreMetricGroup, gens) -> PreMetricGroup:
    K, _, from_K = _sub_structure(M.group, gens)
    return PreMetricGroup(K, tuple(M.values[g] for g in from_K))


def restrict(M: PreMetricGroup, H: Subgroup) -> PreMetricGroup:
    """The form restricted to a subgroup, on its canonical abstract group."""
    return _restricted(M, [M.group.index(g) for g in H.generators])


def _subquotient(M: PreMetricGroup, H: Subgroup):
    """H-perp / H for isotropic H, on indices: (Q, to_Q, values).

    Q is canonical, to_Q maps each G-index of H-perp to its Q-index, and
    values is the induced form's table in Q's index order.
    """
    for h in H.elements:
        if M.q(h) != 0:
            raise NotIsotropic(f"q({h}) = {M.q(h)} != 0")
    G = M.group
    perp = _perp_indices(M, [G.index(h) for h in H.generators])
    K, to_K, from_K = _sub_structure(G, _minimal_generators(G, perp))
    low = _minimal_generators(K, sorted(to_K[h] for h in H.indices()))
    Q, images = _quotient_images(K, [K.from_index(i) for i in low])
    proj = kernels.combinations(Q.order, Q.add_flat(), list(map(Q.index, images)), K.orders)
    vals = [None] * Q.order
    for y, g in zip(proj, from_K):
        if vals[y] is not None and vals[y] != M.values[g]:
            raise ClassificationBug("induced form not constant on cosets")
        vals[y] = M.values[g]
    return Q, {g: proj[kk] for g, kk in to_K.items()}, tuple(vals)


def quotient_form(M: PreMetricGroup, H: Subgroup) -> PreMetricGroup:
    """The induced form on H-perp / H for isotropic H."""
    Q, _, vals = _subquotient(M, H)
    return PreMetricGroup(Q, vals)


# ---------------------------------------------------------------------------
# sums, isomorphism
# ---------------------------------------------------------------------------

def direct_sum(M1: PreMetricGroup, M2: PreMetricGroup) -> PreMetricGroup:
    """Orthogonal direct sum, recanonicalized."""
    orders = M1.group.orders + M2.group.orders
    if not orders:
        return trivial_form()
    G, iso = canonical_form(orders)
    src = iso.source
    n1 = M1.group.order
    vals = [Fraction(0)] * G.order
    for x in src.elements():
        g1 = x[: M1.group.rank]
        g2 = x[M1.group.rank :]
        vals[G.index(iso(x))] = _mod1(M1.q(g1) + M2.q(g2))
    return PreMetricGroup(G, tuple(vals))


def trivial_form() -> PreMetricGroup:
    return PreMetricGroup(TRIVIAL_GROUP, (Fraction(0),))


def isomorphic(M1: PreMetricGroup, M2: PreMetricGroup, config: Config = DEFAULT):
    """A form-preserving isomorphism M1 -> M2, or None.

    Deterministic first witness from the generator-image backtracking
    search; groups must be in invariant-factor form.
    """
    G1, G2 = M1.group, M2.group
    if G1.orders != G2.orders:
        return None
    if G1.order > config.aut_guard:
        raise EnumerationLimit(f"|G| = {G1.order} exceeds aut_guard = {config.aut_guard}")
    L1, t1 = M1.int_table()
    L2, t2 = M2.int_table()
    L = math.lcm(L1, L2)
    t1 = [x * (L // L1) for x in t1]
    t2 = [x * (L // L2) for x in t2]
    perm = kernels.find_isomorphism(
        G1.order, G1.add_flat(), G1.gen_strides(), list(G1.orders), t1, t2
    )
    if perm is None:
        return None
    return hom_from_perm(G1, perm)


def q_automorphism_perms(M: PreMetricGroup, config: Config = DEFAULT) -> list:
    """Aut(G, q) as index permutations, in the order of ``automorphism_perms``.

    Searched directly as the stabilizer of q, under the same size checks
    as Aut(G); Aut(G) itself is never enumerated.
    """
    G = M.group
    check_aut_size(G, config)
    _, t = M.int_table()
    return kernels.stabilizer(G.order, G.add_flat(), G.gen_strides(), list(G.orders), t)


def form_automorphisms(M: PreMetricGroup, config: Config = DEFAULT) -> list:
    """Aut(G, q) as GroupHoms."""
    return [hom_from_perm(M.group, p) for p in q_automorphism_perms(M, config)]


# ---------------------------------------------------------------------------
# the core
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoreResult:
    core: PreMetricGroup
    subgroup: Subgroup  # the maximal isotropic used
    gamma: tuple        # induced automorphisms of the core (GroupHoms)


def core(M: PreMetricGroup, config: Config = DEFAULT) -> CoreResult:
    """Quotient by the least maximal isotropic subgroup, with the
    induced automorphism image.

    The choice of maximal isotropic subgroup is pinned to the
    lexicographically least element list; the quotient is independent of
    the choice up to isomorphism, and gamma records the image in
    Aut(core) of its stabilizer inside Aut(G, q).
    """
    iso_list = isotropic_subgroups(M, config)
    maximal = [r.subgroup for r in iso_list if r.is_maximal]
    H = min(maximal, key=lambda s: s.elements)
    Q, to_Q, vals = _subquotient(M, H)
    coreform = PreMetricGroup(Q, vals)
    return CoreResult(coreform, H, _induced_on_core(M, H, to_Q, coreform, config))


def _induced_on_core(M, H, to_Q, coreform, config):
    Q = coreform.group
    h_idx = set(H.indices())
    induced = set()
    for p in q_automorphism_perms(M, config):
        if {p[i] for i in h_idx} != h_idx:
            continue
        mapping = {}
        for i, src in to_Q.items():
            if mapping.setdefault(src, to_Q[p[i]]) != to_Q[p[i]]:
                raise ClassificationBug("automorphism does not descend to the core")
        induced.add(tuple(mapping[y] for y in range(Q.order)))
    gamma = []
    for imgs in sorted(induced):
        hom = GroupHom(Q, Q, tuple(Q.from_index(imgs[s]) for s in Q.gen_strides()))
        for y in Q.elements():
            if coreform.q(hom(y)) != coreform.q(y):
                raise ClassificationBug("core automorphism does not preserve the form")
        gamma.append(hom)
    return tuple(gamma)


# ---------------------------------------------------------------------------
# the anisotropic catalog
# ---------------------------------------------------------------------------

def odd_rank1(p: int, c: int = 1) -> PreMetricGroup:
    """(Z/p, q(n) = c n^2 / p) for odd p."""
    G = FinAbGroup((p,))
    return PreMetricGroup(G, tuple(Fraction(c * n * n, p) for n in range(p)))


def odd_norm(p: int) -> PreMetricGroup:
    """The rank-2 anisotropic norm form on (Z/p)^2."""
    if p == 2:
        G = FinAbGroup((2, 2))
        vals = [Fraction(x * x + x * y + y * y, 2) for x in range(2) for y in range(2)]
        return PreMetricGroup(G, tuple(vals))
    d = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)
    G = FinAbGroup((p, p))
    vals = [Fraction((x * x - d * y * y) % p, p) for x in range(p) for y in range(p)]
    return PreMetricGroup(G, tuple(vals))


def a_form(i_sign=Fraction(1, 4)) -> PreMetricGroup:
    """Order-2 metric form q(n) = i_sign * n^2, i_sign in {1/4, 3/4}."""
    return PreMetricGroup(FinAbGroup((2,)), (Fraction(0), Fraction(i_sign)))


def m_form(xi) -> PreMetricGroup:
    """The order-4 form with a distinguished element u of value 1/2 and
    value xi elsewhere; xi runs over the eighth roots (8*xi = 0)."""
    xi = _mod1(Fraction(xi))
    if xi.denominator == 8:
        # cyclic: q(n) = xi * n^2 on Z/4
        G = FinAbGroup((4,))
        return PreMetricGroup(G, tuple(_mod1(xi * n * n) for n in range(4)))
    G = FinAbGroup((2, 2))
    half = Fraction(1, 2)
    vals = {(0, 0): Fraction(0), (1, 0): half, (0, 1): xi, (1, 1): _mod1(xi + half)}
    # q(1,1) must equal xi for the distinguished-u presentation
    vals[(1, 1)] = xi
    return PreMetricGroup(G, tuple(vals[e] for e in G.elements()))


def hyperbolic_plane(p: int) -> PreMetricGroup:
    """(Z/p)^2 with q(x,y) = xy/p."""
    G = FinAbGroup((p, p))
    return PreMetricGroup(G, tuple(Fraction(x * y, p) for x in range(p) for y in range(p)))


def slight_deg2() -> PreMetricGroup:
    return PreMetricGroup(FinAbGroup((2,)), (Fraction(0), Fraction(1, 2)))


def slight_deg4(i_sign=Fraction(1, 4)) -> PreMetricGroup:
    G = FinAbGroup((2, 2))
    i_sign = Fraction(i_sign)
    vals = {
        (0, 0): Fraction(0),
        (0, 1): Fraction(1, 2),
        (1, 0): i_sign,
        (1, 1): _mod1(i_sign + Fraction(1, 2)),
    }
    return PreMetricGroup(G, tuple(vals[e] for e in G.elements()))


def build_labeled_form(label: AnisotropicLabel) -> PreMetricGroup:
    """A representative form of a classification label."""
    p = label.prime
    if label.kind == "OddRank1":
        c = 1 if label.params[0] == 1 else _least_nonresidue(p)
        return odd_rank1(p, c)
    if label.kind == "OddNorm":
        return odd_norm(p)
    if label.kind == "A":
        return a_form(label.params[0])
    if label.kind == "M":
        return m_form(label.params[0])
    if label.kind == "MplusA":
        return direct_sum(m_form(label.params[0]), a_form(label.params[1]))
    if label.kind == "SlightDeg2":
        return slight_deg2()
    if label.kind == "SlightDeg4":
        return slight_deg4()
    raise ClassificationBug(f"unknown label kind {label.kind}")


def _least_nonresidue(p: int) -> int:
    return next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)


def anisotropic_catalog(p: int, order: int) -> list:
    """All anisotropic pre-metric p-group classes of the given order."""
    out = []
    if order == 1:
        return out
    if p == 2:
        if order == 2:
            out = [
                AnisotropicLabel("A", 2, (Fraction(1, 4),)),
                AnisotropicLabel("A", 2, (Fraction(3, 4),)),
                AnisotropicLabel("SlightDeg2", 2),
            ]
        elif order == 4:
            out = [
                AnisotropicLabel("M", 2, (Fraction(k, 8),)) for k in range(1, 8)
            ] + [AnisotropicLabel("SlightDeg4", 2)]
        elif order == 8:
            seen = []
            for k in range(8):
                xi = Fraction(k, 8)
                for s in (Fraction(1, 4), Fraction(3, 4)):
                    if xi == 0 or _mod1(xi + s) == 0:
                        continue  # xi = 1 or xi = -i_sign gives an isotropic value
                    lab = _canon_mplusa(xi, s)
                    if lab not in seen:
                        seen.append(lab)
            out = seen
    else:
        if order == p:
            out = [
                AnisotropicLabel("OddRank1", p, (1,)),
                AnisotropicLabel("OddRank1", p, (-1,)),
            ]
        elif order == p * p:
            out = [AnisotropicLabel("OddNorm", p)]
    return out


def _canon_mplusa(xi, i_sign) -> AnisotropicLabel:
    """Canonical (xi, i_sign): M_xi + A_{-i} matches M_{xi - 1/4} + A_i."""
    xi, i_sign = _mod1(Fraction(xi)), Fraction(i_sign)
    if i_sign == Fraction(3, 4):
        xi, i_sign = _mod1(xi - Fraction(1, 4)), Fraction(1, 4)
    return AnisotropicLabel("MplusA", 2, (xi, i_sign))


# ---------------------------------------------------------------------------
# classification of anisotropic forms
# ---------------------------------------------------------------------------

def is_anisotropic(M: PreMetricGroup) -> bool:
    return all(v != 0 for v in M.values[1:])


def sylow_decomposition(M: PreMetricGroup) -> dict:
    """Restriction of the form to each primary component (orthogonal)."""
    G = M.group
    orders = G.order_flat()
    out = {}
    for p in primes_of(max(G.order, 1)) or []:
        idx = [i for i in range(G.order) if _p_power_order(orders[i], p)]
        out[p] = _restricted(M, _minimal_generators(G, idx))
    return out


def _p_power_order(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


def classify_anisotropic(M: PreMetricGroup) -> tuple:
    """Classification labels, one per prime dividing |G|.

    Labels are canonical representatives of the isomorphism classes, so
    equal labels mean isomorphic forms.  Raises NotAnisotropic when the
    form vanishes away from zero, ClassificationBug when an anisotropic
    form falls outside the provably complete catalog.
    """
    if not is_anisotropic(M):
        g = next(e for e in M.group.elements()[1:] if M.q(e) == 0)
        raise NotAnisotropic(f"q({g}) = 0")
    labels = []
    for p, Mp in sorted(sylow_decomposition(M).items()):
        labels.append(_classify_primary(p, Mp))
    return tuple(labels)


def _classify_primary(p: int, Mp: PreMetricGroup) -> AnisotropicLabel:
    n = Mp.group.order
    if p != 2:
        if Mp.group.orders == (p,):
            g = Mp.group.from_index(1)
            c = (Mp.q(g) * p)
            res = 1 if pow(int(c), (p - 1) // 2, p) == 1 else -1
            return AnisotropicLabel("OddRank1", p, (res,))
        if Mp.group.orders == (p, p):
            lab = AnisotropicLabel("OddNorm", p)
            if isomorphic(Mp, build_labeled_form(lab)) is None:
                raise ClassificationBug(f"rank-2 anisotropic {p}-form not the norm form")
            return lab
        raise ClassificationBug(f"anisotropic odd {p}-group of order {n} impossible")
    deg = degeneracy(Mp)
    if deg.tag != "nondegenerate":
        if deg.tag != "slightly_degenerate":
            raise ClassificationBug("degenerate anisotropic form must be slightly degenerate")
        if n == 2:
            return AnisotropicLabel("SlightDeg2", 2)
        if n == 4:
            return AnisotropicLabel("SlightDeg4", 2)
        raise ClassificationBug(f"degenerate anisotropic 2-group of order {n} impossible")
    if n == 2:
        return AnisotropicLabel("A", 2, (Mp.q(Mp.group.from_index(1)),))
    if n == 4:
        els = Mp.group.elements()
        u = next(e for e in els[1:] if Mp.q(e) == Fraction(1, 2))
        xi = next(Mp.q(e) for e in els[1:] if e != u)
        return AnisotropicLabel("M", 2, (xi,))
    if n == 8:
        els = Mp.group.elements()
        v = next(
            e
            for e in els[1:]
            if Mp.group.element_order(e) == 2 and Mp.q(e).denominator == 4
        )
        i_sign = Mp.q(v)
        comp = orthogonal_complement(Mp, Subgroup.generated(Mp.group, [v]))
        Mc = restrict(Mp, comp)
        inner = _classify_primary(2, Mc)
        if inner.kind != "M":
            raise ClassificationBug("order-8 complement is not an order-4 metric form")
        return _canon_mplusa(inner.params[0], i_sign)
    raise ClassificationBug(f"anisotropic metric 2-group of order {n} impossible")


# ---------------------------------------------------------------------------
# weak anisotropy
# ---------------------------------------------------------------------------

def is_weakly_anisotropic(M: PreMetricGroup, config: Config = DEFAULT) -> bool:
    """No nonzero isotropic subgroup stable under Aut(G, q).

    A subgroup is stable iff it is a union of element orbits, so the
    check works directly on the automorphism list.
    """
    iso_list = isotropic_subgroups(M, config)
    nontrivial = [r.subgroup for r in iso_list if r.subgroup.order > 1]
    if not nontrivial:
        return True
    auts = q_automorphism_perms(M, config)
    G = M.group
    for sub in nontrivial:
        idx = set(G.index(e) for e in sub.elements)
        if all({p[i] for i in idx} == idx for p in auts):
            return False
    return True


def wap_decompose(M: PreMetricGroup, config: Config = DEFAULT):
    """(hyperbolic multiplicities per prime, anisotropic part), or None.

    Defined exactly when the form is weakly anisotropic; the parts
    reassemble to a form isomorphic to M.
    """
    if not is_weakly_anisotropic(M, config):
        return None
    mult = {}
    parts = []
    for p, Mp in sorted(sylow_decomposition(M).items()):
        found = None
        order = Mp.group.order
        k = 0
        while p ** (2 * k) <= order:
            rest = order // p ** (2 * k)
            if p ** (2 * k) * rest == order:
                for lab in _aniso_candidates(p, rest):
                    cand = lab
                    for _ in range(k):
                        cand = direct_sum(cand, hyperbolic_plane(p))
                    if isomorphic(Mp, cand, config) is not None:
                        found = (k, lab)
                        break
            if found:
                break
            k += 1
        if found is None:
            raise ClassificationBug(
                "weakly anisotropic form without hyperbolic decomposition"
            )
        k, aniso = found
        if k:
            mult[p] = k
        if aniso.group.order > 1:
            parts.append(aniso)
    total = trivial_form()
    for part in parts:
        total = direct_sum(total, part)
    return mult, total


def _aniso_candidates(p: int, order: int) -> list:
    if order == 1:
        return [trivial_form()]
    return [build_labeled_form(l) for l in anisotropic_catalog(p, order)]


# ---------------------------------------------------------------------------
# form enumeration and sampling
# ---------------------------------------------------------------------------

def _coeff_choices(G: FinAbGroup):
    """Parameter ranges for the diagonal/cross presentation of forms.

    Every quadratic form on G = sum Z/n_i is q(sum a_i e_i) =
    sum c_i a_i^2 + sum_{i<j} beta_ij a_i a_j with c_i in (1/2n_i)Z
    (n_i even) or (1/n_i)Z (n_i odd) and beta_ij in (1/gcd(n_i,n_j))Z.
    """
    diag = []
    for m in G.orders:
        if m % 2 == 0:
            diag.append([Fraction(k, 2 * m) for k in range(2 * m)])
        else:
            diag.append([Fraction(k, m) for k in range(m)])
    cross = {}
    r = G.rank
    for i in range(r):
        for j in range(i + 1, r):
            g = math.gcd(G.orders[i], G.orders[j])
            cross[(i, j)] = [Fraction(k, g) for k in range(g)]
    return diag, cross


def _form_from_params(G: FinAbGroup, diag_vals, cross_vals) -> PreMetricGroup:
    r = G.rank
    vals = []
    for g in G.elements():
        v = Fraction(0)
        for i in range(r):
            v += diag_vals[i] * g[i] * g[i]
        for (i, j), beta in cross_vals.items():
            v += beta * g[i] * g[j]
        vals.append(_mod1(v))
    return PreMetricGroup(G, tuple(vals))


def all_forms(G: FinAbGroup):
    """Every quadratic form on G, without repetition of value tables."""
    diag, cross = _coeff_choices(G)
    keys = sorted(cross)
    seen = set()

    def rec_diag(i, chosen):
        if i == len(diag):
            yield from rec_cross(0, chosen, {})
            return
        for c in diag[i]:
            yield from rec_diag(i + 1, chosen + [c])

    def rec_cross(j, dvals, cvals):
        if j == len(keys):
            M = _form_from_params(G, dvals, cvals)
            if M.values not in seen:
                seen.add(M.values)
                yield M
            return
        for b in cross[keys[j]]:
            nxt = dict(cvals)
            nxt[keys[j]] = b
            yield from rec_cross(j + 1, dvals, nxt)

    yield from rec_diag(0, [])


def random_form(G: FinAbGroup, rng: random.Random) -> PreMetricGroup:
    diag, cross = _coeff_choices(G)
    dvals = [rng.choice(ds) for ds in diag]
    cvals = {k: rng.choice(vs) for k, vs in cross.items()}
    return _form_from_params(G, dvals, cvals)
