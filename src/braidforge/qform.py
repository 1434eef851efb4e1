"""Quadratic forms on finite abelian groups, with values in Q/Z.

A form is stored as one integer level L and a residue table:
q(g) = res[g]/L mod 1, one residue in [0, L) per element in
lexicographic (index) order, with L the least common denominator of
the values.  Rationals become residues only in the ``PreMetricGroup``
constructor; ``values``, ``q``, ``q_idx``, ``b`` and ``bicharacter``
build ``Fraction``s from the residues.  The multiplicative picture of
roots of unity is recovered as e^(2*pi*i*q).  The polarization
b(g,h) = q(g+h) - q(g) - q(h) is the associated bicharacter.

Everything here runs on flat element indices with the group's cached
add and element-order tables: a ``Subgroup`` is a sorted index tuple,
a ``GroupHom`` (an automorphism, an isomorphism, an induced automorphism
of the core) wraps the kernel's index permutation, and subquotients and
restrictions are built from the subgroup structure that each group keeps
in ``abelian`` (generators, abstract group, quotient).  Coordinates
appear only in exception messages and in the accessors of the values
returned (``q``, ``b``, ``Subgroup.elements`` and the like).

Covers isotropy and orthogonality, quotients by isotropic subgroups,
cores, the full classification of anisotropic forms (odd rank-1 and
norm forms; the order-2 forms i^(n^2); the order-4 family with a
distinguished element of value -1; their order-8 sums; the two
degenerate anisotropic 2-groups), and weak anisotropy with its
hyperbolic-plane decomposition.

A form keeps what its questions share: its radical (``degeneracy``),
its isotropic lattice (a ``kernels.lattice`` search) and Aut(G, q) are
computed on first use and kept on the form for its lifetime.  The guards
of ``isotropic_subgroups`` and ``q_automorphism_perms`` run on every
call, before the kept value is read, and each call returns a fresh list.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import reduce
from typing import NamedTuple

from . import kernels
from .abelian import (
    FinAbGroup,
    GroupHom,
    Subgroup,
    TRIVIAL_GROUP,
    _minimal_generators,
    _quotient_images,
    _sub_structure,
    automorphism_perms,  # re-exported: Aut(G) beside Aut(G, q)
    canonical_form,
    check_aut_size,
    primes_of,
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


class PreMetricGroup:
    """A group with a Q/Z-valued quadratic form: q(g) = res[g]/level mod 1.

    ``res`` holds one residue in [0, level) per element in lex (index)
    order.  ``level`` is the least common denominator of the values, so
    two forms are equal exactly when their value tables are.  The slots
    ``_deg``, ``_iso`` and ``_auts`` keep the radical, the isotropic
    lattice and Aut(G, q) once computed; equality and hashing ignore them.
    Every call still runs its guards first and gets a fresh list.
    """

    __slots__ = ("group", "level", "res", "_deg", "_iso", "_auts")

    def __init__(self, group: FinAbGroup, values):
        """The form with the rational value table ``values``, read mod 1."""
        vals = [v if type(v) is Fraction else Fraction(v) for v in values]
        N = reduce(math.lcm, (v.denominator for v in vals), 1)
        self._store(group, N, [v.numerator * (N // v.denominator) for v in vals])

    @classmethod
    def at_level(cls, group: FinAbGroup, N: int, res) -> "PreMetricGroup":
        """The form q(g) = res[g]/N mod 1, for integers ``res``."""
        M = object.__new__(cls)
        M._store(group, N, res)
        return M

    def _store(self, group, N, res):
        if len(res) != group.order:
            raise NotQuadratic(
                f"value table has {len(res)} entries for a group of order {group.order}"
            )
        d = math.gcd(N, *res)
        L = N // d
        self.group, self.level, self.res = group, L, tuple(r // d % L for r in res)
        self._deg = self._iso = self._auts = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.group, self.level, self.res) == (other.group, other.level, other.res)

    def __hash__(self):
        return hash((self.group, self.level, self.res))

    @property
    def order(self) -> int:
        return self.group.order

    @property
    def values(self) -> tuple:
        """The value table as Fractions in [0, 1)."""
        return tuple(Fraction(r, self.level) for r in self.res)

    def q(self, g) -> Fraction:
        return self.q_idx(self.group.index(g))

    def q_idx(self, i: int) -> Fraction:
        return Fraction(self.res[i], self.level)

    def b(self, g, h) -> Fraction:
        G, t = self.group, self.res
        r = t[G.index(G.add(g, h))] - t[G.index(g)] - t[G.index(h)]
        return Fraction(r % self.level, self.level)

    def negated(self) -> "PreMetricGroup":
        return PreMetricGroup.at_level(self.group, self.level, [-r for r in self.res])

    def __repr__(self):
        return f"PreMetricGroup({self.group!r}, {[str(v) for v in self.values]})"


class Bicharacter(NamedTuple):
    """Symmetric biadditive pairing, tabulated on all element pairs."""

    group: FinAbGroup
    table: tuple  # flat n*n of Fractions in [0,1)

    def b(self, g, h) -> Fraction:
        n = self.group.order
        return self.table[self.group.index(g) * n + self.group.index(h)]


class DegeneracyClass(NamedTuple):
    tag: str  # nondegenerate | slightly_degenerate | degenerate_other
    radical: Subgroup


class AnisotropicLabel(NamedTuple):
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
    NotQuadratic naming the first generator s, then the first (g, h) in
    index order, with b(s + g, h) != b(s, h) + b(g, h).

    For a generator s, D_s(x) = q(s + x) - q(x) - q(s) is b(s, x), and
    b(s + g, h) - b(s, h) - b(g, h) = D_s(g + h) - D_s(g) - D_s(h) (both
    are q(s+g+h) - q(s+g) - q(s+h) - q(g+h) + q(s) + q(g) + q(h)): the
    axiom at s says D_s is a homomorphism.  As q(0) = 0 gives D_s(0) = 0,
    that holds iff D_s(x + e) = D_s(x) + D_s(e) for every x and generator
    e (induct on word length): one list comparison per e, on the column
    add[e::n].  Only a D_s that fails is scanned pair by pair, in order.
    """
    M = PreMetricGroup(group, tuple(value_table))
    n = group.order
    L, t = M.level, M.res
    if t[0] != 0:
        raise NotNormalized(f"q(0) = {M.q_idx(0)} != 0")
    neg = group.neg_flat()
    for i in range(n):
        if t[neg[i]] != t[i]:
            raise NotEven(
                f"q(-g) != q(g) at g = {group.from_index(i)}: "
                f"{M.q_idx(neg[i])} vs {M.q_idx(i)}"
            )
    add = group.add_flat()
    gens = group.gen_strides()
    for s in gens:
        ts = t[s]
        D = [(t[y] - tx - ts) % L for y, tx in zip(add[s * n:(s + 1) * n], t)]
        if any(list(map(D.__getitem__, add[e::n])) != [(d + D[e]) % L for d in D] for e in gens):
            g, h = next((g, h) for g in range(n) for h in range(n)
                        if D[add[g * n + h]] != (D[g] + D[h]) % L)
            raise NotQuadratic(
                "polarization not biadditive at "
                f"({group.from_index(s)} + {group.from_index(g)}, {group.from_index(h)})"
            )
    return M


def bicharacter(M: PreMetricGroup) -> Bicharacter:
    G, L, t = M.group, M.level, M.res
    n = G.order
    add = G.add_flat()
    tab = [
        Fraction((t[add[i * n + j]] - t[i] - t[j]) % L, L) for i in range(n) for j in range(n)
    ]
    return Bicharacter(G, tuple(tab))


def degeneracy(M: PreMetricGroup) -> DegeneracyClass:
    """Radical Ker b and the three-way degeneracy tag, kept on M.  Each
    b(g, .) is a character, so Ker b is the orthogonal of G's generators."""
    if M._deg is not None:
        return M._deg
    G = M.group
    rad = _perp_indices(M, G.gen_strides())
    radical = Subgroup.closed(G, rad)
    if len(rad) == 1:
        tag = "nondegenerate"
    elif len(rad) == 2 and 2 * M.res[rad[1]] == M.level:
        tag = "slightly_degenerate"
    else:
        tag = "degenerate_other"
    M._deg = DegeneracyClass(tag, radical)
    return M._deg


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
    return Subgroup.closed(G, _perp_indices(M, H.gen_idx))


def _perp_indices(M: PreMetricGroup, gens) -> list:
    """Indices of the g with b(g, h) = 0 for every index h in ``gens``:
    as b(g, .) is a character, the orthogonal of the subgroup they
    generate.  Filtered one generator at a time, so the list shrinks."""
    n, L, t = M.group.order, M.level, M.res
    add = M.group.add_flat()
    idx = list(range(n))
    for j in gens:
        idx = [i for i in idx if (t[add[i * n + j]] - t[i] - t[j]) % L == 0]
    return idx


class IsotropicSubgroup(NamedTuple):
    subgroup: Subgroup
    is_maximal: bool
    is_lagrangian: bool


def isotropic_subgroups(M: PreMetricGroup, config: Config = DEFAULT) -> list:
    """All subgroups with q = 0, maximal/Lagrangian flags set.

    ``kernels.lattice`` from {0} over the x with q(x) = 0.  For H
    isotropic, q(kx + h) = k^2 q(x) + q(h) + k b(x, h) = k b(x, h), so
    <H, x> is isotropic exactly when q vanishes on the coset x + H, which
    is tested first (a failing x gives H back, already found); H is
    maximal when no x outside it passes.  g -> b(g, .) on H has kernel
    H-perp, and its image is the characters of H that vanish on H n Ker b,
    so |H-perp| = |G| |H n Ker b| / |H|; H, which lies in H-perp, is
    Lagrangian when that is |H|.  The records are kept on M; the guard
    runs on every call.
    """
    G = M.group
    n = G.order
    if n > config.enum_guard:
        raise EnumerationLimit(f"|G| = {n} exceeds enum_guard = {config.enum_guard}")
    if M._iso is not None:
        return list(M._iso)
    t, add, grown = M.res, G.add_flat(), set()

    def grow(cur, x):
        if any(t[add[x * n + h]] for h in cur):
            return cur
        grown.add(cur)
        return kernels.pure._extend(n, add, cur, x)

    rad = set(degeneracy(M).radical.idx)
    result = []
    for idx in kernels.lattice((0,), [i for i in range(n) if t[i] == 0], grow):
        lagrangian = n * len(rad.intersection(idx)) == len(idx) ** 2
        result.append(IsotropicSubgroup(Subgroup.closed(G, idx), idx not in grown, lagrangian))
    M._iso = tuple(result)
    return result


def _restricted(M: PreMetricGroup, gens) -> PreMetricGroup:
    K, _, from_K = _sub_structure(M.group, gens)
    return PreMetricGroup.at_level(K, M.level, [M.res[g] for g in from_K])


def restrict(M: PreMetricGroup, H: Subgroup) -> PreMetricGroup:
    """The form restricted to a subgroup, on its canonical abstract group."""
    return _restricted(M, H.gen_idx)


def _subquotient(M: PreMetricGroup, H: Subgroup):
    """H-perp / H for isotropic H, on indices: (Q, to_Q, res).

    Q is canonical, to_Q maps each G-index of H-perp to its Q-index, and
    res is the induced form's residue table at M's level, in Q's index
    order.
    """
    G, t = M.group, M.res
    for h in H.idx:
        if t[h] != 0:
            raise NotIsotropic(f"q({G.from_index(h)}) = {M.q_idx(h)} != 0")
    perp = _perp_indices(M, H.gen_idx)
    K, to_K, from_K = _sub_structure(G, _minimal_generators(G, perp))
    Q, images = _quotient_images(K, _minimal_generators(K, sorted(to_K[h] for h in H.idx)))
    proj = kernels.combinations(Q.order, Q.add_flat(), images, K.orders)
    vals = [None] * Q.order
    for y, g in zip(proj, from_K):
        if vals[y] is not None and vals[y] != t[g]:
            raise ClassificationBug("induced form not constant on cosets")
        vals[y] = t[g]
    return Q, {g: proj[kk] for g, kk in to_K.items()}, vals


def quotient_form(M: PreMetricGroup, H: Subgroup) -> PreMetricGroup:
    """The induced form on H-perp / H for isotropic H."""
    Q, _, vals = _subquotient(M, H)
    return PreMetricGroup.at_level(Q, M.level, vals)


# ---------------------------------------------------------------------------
# sums, isomorphism
# ---------------------------------------------------------------------------

def orthogonal_sum(M1: PreMetricGroup, M2: PreMetricGroup) -> PreMetricGroup:
    """Orthogonal direct sum on G1 x G2 as presented (orders1 + orders2),
    so the index of (i1, i2) is i1 * n2 + i2; not recanonicalized."""
    L = math.lcm(M1.level, M2.level)
    s1, s2 = L // M1.level, L // M2.level
    res = [a * s1 + b * s2 for a in M1.res for b in M2.res]
    return PreMetricGroup.at_level(FinAbGroup(M1.group.orders + M2.group.orders), L, res)


def direct_sum(M1: PreMetricGroup, M2: PreMetricGroup) -> PreMetricGroup:
    """Orthogonal direct sum, recanonicalized."""
    S = orthogonal_sum(M1, M2)
    G, iso = canonical_form(S.group.orders)
    return PreMetricGroup.at_level(G, S.level, kernels.apply_perm(iso.table, S.res))


def trivial_form() -> PreMetricGroup:
    return PreMetricGroup.at_level(TRIVIAL_GROUP, 1, (0,))


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
    if M1.level != M2.level:  # the levels are the values' least common denominators
        return None
    perm = kernels.find_isomorphism(
        G1.order, G1.add_flat(), G1.order_flat(), G1.gen_strides(), list(G1.orders),
        M1.res, M2.res,
    )
    return None if perm is None else GroupHom.from_table(G1, G2, perm)


def q_automorphism_perms(M: PreMetricGroup, config: Config = DEFAULT) -> list:
    """Aut(G, q) as index permutations, in the order of ``automorphism_perms``.

    Searched directly as the stabilizer of q, under the same size checks
    as Aut(G), which run on every call; Aut(G) itself is never
    enumerated.  The permutations are kept on M.
    """
    G = M.group
    check_aut_size(G, config)
    if M._auts is None:
        M._auts = tuple(kernels.stabilizer(
            G.order, G.add_flat(), G.order_flat(), G.gen_strides(), list(G.orders), M.res
        ))
    return list(M._auts)


def form_automorphisms(M: PreMetricGroup, config: Config = DEFAULT) -> list:
    """Aut(G, q) as GroupHoms."""
    return [GroupHom.from_table(M.group, M.group, p) for p in q_automorphism_perms(M, config)]


# ---------------------------------------------------------------------------
# the core
# ---------------------------------------------------------------------------

class CoreResult(NamedTuple):
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
    H = min(maximal, key=lambda s: s.idx)
    Q, to_Q, vals = _subquotient(M, H)
    coreform = PreMetricGroup.at_level(Q, M.level, vals)
    return CoreResult(coreform, H, _induced_on_core(M, H, to_Q, coreform, config))


def _induced_on_core(M, H, to_Q, coreform, config):
    Q, t = coreform.group, coreform.res
    h_idx = set(H.idx)
    induced = set()
    for p in q_automorphism_perms(M, config):
        if {p[i] for i in h_idx} != h_idx:
            continue
        # one (class, image class) pair per class exactly when p descends
        pairs = {(src, to_Q[p[i]]) for i, src in to_Q.items()}
        if len(pairs) != Q.order:
            raise ClassificationBug("automorphism does not descend to the core")
        induced.add(tuple(image for _, image in sorted(pairs)))
    gamma = sorted(induced)
    if any(t[perm[i]] != t[i] for perm in gamma for i in range(Q.order)):
        raise ClassificationBug("core automorphism does not preserve the form")
    return tuple(GroupHom.from_table(Q, Q, perm) for perm in gamma)


# ---------------------------------------------------------------------------
# the anisotropic catalog
# ---------------------------------------------------------------------------

def odd_rank1(p: int, c: int = 1) -> PreMetricGroup:
    """(Z/p, q(n) = c n^2 / p) for odd p."""
    return PreMetricGroup.at_level(FinAbGroup((p,)), p, [c * n * n for n in range(p)])


def odd_norm(p: int) -> PreMetricGroup:
    """The rank-2 anisotropic norm form on (Z/p)^2."""
    pairs = [(x, y) for x in range(p) for y in range(p)]
    if p == 2:
        return PreMetricGroup.at_level(
            FinAbGroup((2, 2)), 2, [x * x + x * y + y * y for x, y in pairs]
        )
    d = _least_nonresidue(p)
    return PreMetricGroup.at_level(FinAbGroup((p, p)), p, [x * x - d * y * y for x, y in pairs])


def a_form(i_sign=Fraction(1, 4)) -> PreMetricGroup:
    """Order-2 metric form q(n) = i_sign * n^2, i_sign in {1/4, 3/4}."""
    return PreMetricGroup(FinAbGroup((2,)), (0, i_sign))


def m_form(xi) -> PreMetricGroup:
    """The order-4 form with a distinguished element u of value 1/2 and
    value xi elsewhere; xi runs over the eighth roots (8*xi = 0)."""
    k = int(Fraction(xi) * 8) % 8
    if k % 2:
        # cyclic: q(n) = xi * n^2 on Z/4
        return PreMetricGroup.at_level(FinAbGroup((4,)), 8, [k * n * n for n in range(4)])
    # (Z/2)^2 with u = (1, 0): q(0, 1) = q(1, 1) = xi
    return PreMetricGroup.at_level(FinAbGroup((2, 2)), 8, (0, k, 4, k))


def hyperbolic_plane(p: int) -> PreMetricGroup:
    """(Z/p)^2 with q(x,y) = xy/p."""
    G = FinAbGroup((p, p))
    return PreMetricGroup.at_level(G, p, [x * y for x in range(p) for y in range(p)])


def slight_deg2() -> PreMetricGroup:
    return PreMetricGroup.at_level(FinAbGroup((2,)), 2, (0, 1))


def slight_deg4(i_sign=Fraction(1, 4)) -> PreMetricGroup:
    """(Z/2)^2 with q(0, 1) = 1/2 and q(1, 0) = i_sign."""
    k = int(Fraction(i_sign) * 4) % 4
    return PreMetricGroup.at_level(FinAbGroup((2, 2)), 4, (0, 2, k, k + 2))


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
            for k in range(1, 8):  # xi = k/8; xi = 1 gives an isotropic value
                for s in (1, 3):  # i_sign = s/4
                    if (k + 2 * s) % 8 == 0:
                        continue  # xi = -i_sign gives an isotropic value
                    lab = _canon_mplusa(Fraction(k, 8), Fraction(s, 4))
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
    if i_sign == Fraction(3, 4):
        xi, i_sign = (xi - Fraction(1, 4)) % 1, Fraction(1, 4)
    return AnisotropicLabel("MplusA", 2, (xi, i_sign))


# ---------------------------------------------------------------------------
# classification of anisotropic forms
# ---------------------------------------------------------------------------

def is_anisotropic(M: PreMetricGroup) -> bool:
    return 0 not in M.res[1:]


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
        raise NotAnisotropic(f"q({M.group.from_index(M.res.index(0, 1))}) = 0")
    labels = []
    for p, Mp in sorted(sylow_decomposition(M).items()):
        labels.append(_classify_primary(p, Mp))
    return tuple(labels)


def _classify_primary(p: int, Mp: PreMetricGroup) -> AnisotropicLabel:
    G, L, t = Mp.group, Mp.level, Mp.res
    n = G.order
    if p != 2:
        if G.orders == (p,):
            res = 1 if pow(t[1] * p // L, (p - 1) // 2, p) == 1 else -1
            return AnisotropicLabel("OddRank1", p, (res,))
        if G.orders == (p, p):
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
        return AnisotropicLabel("A", 2, (Mp.q_idx(1),))
    if n == 4:
        u = next(i for i in range(1, n) if 2 * t[i] == L)
        xi = next(Mp.q_idx(i) for i in range(1, n) if i != u)
        return AnisotropicLabel("M", 2, (xi,))
    if n == 8:
        # v: an element of order 2 with value +-1/4
        ords = G.order_flat()
        v = next(i for i in range(1, n) if ords[i] == 2 and L // math.gcd(L, t[i]) == 4)
        comp = _minimal_generators(G, _perp_indices(Mp, [v]))
        inner = _classify_primary(2, _restricted(Mp, comp))
        if inner.kind != "M":
            raise ClassificationBug("order-8 complement is not an order-4 metric form")
        return _canon_mplusa(inner.params[0], Mp.q_idx(v))
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
    for sub in nontrivial:
        idx = set(sub.idx)
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
    mult, total = {}, trivial_form()
    for p, Mp in sorted(sylow_decomposition(M).items()):
        k, aniso = _hyperbolic_split(Mp, p, config)
        if k:
            mult[p] = k
        if aniso.group.order > 1:
            total = direct_sum(total, aniso)
    return mult, total


def _hyperbolic_split(Mp: PreMetricGroup, p: int, config: Config):
    """(k, A) for the least k, then the first catalog form A, with Mp
    isomorphic to A plus k hyperbolic planes."""
    n = Mp.group.order
    for k in range(n.bit_length()):
        if n % p ** (2 * k) == 0:
            for A in _aniso_candidates(p, n // p ** (2 * k)):
                cand = A
                for _ in range(k):
                    cand = direct_sum(cand, hyperbolic_plane(p))
                if isomorphic(Mp, cand, config) is not None:
                    return k, A
    raise ClassificationBug("weakly anisotropic form without hyperbolic decomposition")


def _aniso_candidates(p: int, order: int) -> list:
    if order == 1:
        return [trivial_form()]
    return [build_labeled_form(l) for l in anisotropic_catalog(p, order)]


# ---------------------------------------------------------------------------
# form enumeration and sampling
# ---------------------------------------------------------------------------

def _coeff_choices(G: FinAbGroup):
    """(N, terms) for the diagonal/cross presentation of forms.

    Every quadratic form on G = sum Z/n_i is q(sum a_i e_i) =
    sum c_i a_i^2 + sum_{i<j} beta_ij a_i a_j with c_i in (1/2n_i)Z
    (n_i even) or (1/n_i)Z (n_i odd) and beta_ij in (1/gcd(n_i,n_j))Z,
    so every value lies in (1/N)Z with N = 2 lcm(n_i).  Each term pairs
    a monomial's table over the elements with its coefficient choices as
    residues mod N: the c_i first, then the beta_ij with (i, j) in
    lexicographic order.
    """
    N = 2 * reduce(math.lcm, G.orders, 1)
    # a[i][g]: the i-th coordinate of the element with index g
    a = [[g // s % m for g in range(G.order)] for s, m in zip(G.gen_strides(), G.orders)]
    terms = []
    for i, m in enumerate(G.orders):
        k = 2 * m if m % 2 == 0 else m
        terms.append(([x * x for x in a[i]], [c * (N // k) for c in range(k)]))
    for i in range(G.rank):
        for j in range(i + 1, G.rank):
            k = math.gcd(G.orders[i], G.orders[j])
            terms.append(([x * y for x, y in zip(a[i], a[j])], [c * (N // k) for c in range(k)]))
    return N, terms


def all_forms(G: FinAbGroup):
    """Every quadratic form on G, without repetition of value tables."""
    N, terms = _coeff_choices(G)
    seen = set()

    def rec(k, acc):
        if k == len(terms):
            res = tuple(a % N for a in acc)
            if res not in seen:
                seen.add(res)
                yield PreMetricGroup.at_level(G, N, res)
            return
        mono, choices = terms[k]
        for c in choices:
            yield from rec(k + 1, [a + c * x for a, x in zip(acc, mono)])

    yield from rec(0, [0] * G.order)


def random_form(G: FinAbGroup, rng: random.Random) -> PreMetricGroup:
    N, terms = _coeff_choices(G)
    picks = [(mono, rng.choice(choices)) for mono, choices in terms]
    return PreMetricGroup.at_level(
        G, N, [sum(c * mono[g] for mono, c in picks) for g in range(G.order)]
    )
