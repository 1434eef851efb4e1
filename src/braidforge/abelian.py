"""Finite abelian groups in invariant-factor form.

A group is a tuple of integer orders; an element is a tuple of residue
coordinates.  All element lists are ordered lexicographically on
coordinates, which coincides with mixed-radix index order (leftmost
coordinate most significant); every "deterministic order" promise in
the library refers to this ordering.

Values are immutable and operations pure, so everything here is safe
for concurrent read-only use.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import reduce

from . import kernels
from .config import DEFAULT, Config
from .errors import EnumerationLimit, InvalidPresentation, NotASubgroup

GroupElement = tuple  # residue coordinates, one per invariant factor

_TABLE_CACHE: dict = {}


@dataclass(frozen=True)
class FinAbGroup:
    """Direct sum of cyclic groups Z/orders[0] x ... x Z/orders[r-1].

    Library constructors always produce the invariant-factor form
    (orders[i] divides orders[i+1]); raw user presentations may violate
    the chain and should pass through :func:`canonical_form` first.
    """

    orders: tuple

    def __post_init__(self):
        object.__setattr__(self, "orders", tuple(int(m) for m in self.orders))
        if any(m < 2 for m in self.orders):
            raise InvalidPresentation(f"orders must all be >= 2: {self.orders}")

    @property
    def order(self) -> int:
        return reduce(lambda a, b: a * b, self.orders, 1)

    @property
    def rank(self) -> int:
        return len(self.orders)

    @property
    def is_invariant_form(self) -> bool:
        return all(
            self.orders[i + 1] % self.orders[i] == 0
            for i in range(len(self.orders) - 1)
        )

    @property
    def exponent(self) -> int:
        return self.orders[-1] if self.orders else 1

    # -- element arithmetic ------------------------------------------------
    def zero(self) -> GroupElement:
        return (0,) * len(self.orders)

    def reduce_el(self, coords) -> GroupElement:
        return tuple(int(c) % m for c, m in zip(coords, self.orders))

    def add(self, a, b) -> GroupElement:
        return tuple((x + y) % m for x, y, m in zip(a, b, self.orders))

    def neg(self, a) -> GroupElement:
        return tuple((-x) % m for x, m in zip(a, self.orders))

    def sub(self, a, b) -> GroupElement:
        return tuple((x - y) % m for x, y, m in zip(a, b, self.orders))

    def mul(self, k: int, a) -> GroupElement:
        return tuple((k * x) % m for x, m in zip(a, self.orders))

    def element_order(self, a) -> int:
        return reduce(math.lcm, (m // math.gcd(x, m) for x, m in zip(a, self.orders)), 1)

    # -- indexing ----------------------------------------------------------
    def index(self, a) -> int:
        i = 0
        for x, m in zip(a, self.orders):
            i = i * m + (x % m)
        return i

    def from_index(self, i: int) -> GroupElement:
        coords = []
        for m in reversed(self.orders):
            coords.append(i % m)
            i //= m
        return tuple(reversed(coords))

    def elements(self) -> list:
        """All elements in lexicographic (= index) order."""
        return [self.from_index(i) for i in range(self.order)]

    def generators(self) -> list:
        """Standard basis e_i, one per invariant factor."""
        r = len(self.orders)
        return [tuple(1 if j == i else 0 for j in range(r)) for i in range(r)]

    def gen_strides(self) -> list:
        """Index of each standard generator."""
        return [self.index(e) for e in self.generators()]

    # -- cached kernel tables ----------------------------------------------
    def _tables(self):
        key = self.orders
        hit = _TABLE_CACHE.get(key)
        if hit is None:
            add = kernels.add_table(self.orders)
            neg = kernels.neg_table(self.orders)
            hit = (add, neg, kernels.element_orders(self.order, add))
            _TABLE_CACHE[key] = hit
        return hit

    def add_flat(self):
        return self._tables()[0]

    def neg_flat(self):
        return self._tables()[1]

    def order_flat(self):
        """Additive order of every index."""
        return self._tables()[2]

    def __repr__(self):
        if not self.orders:
            return "FinAbGroup(trivial)"
        return "FinAbGroup(%s)" % " x ".join(f"Z/{m}" for m in self.orders)


TRIVIAL_GROUP = FinAbGroup(())


@dataclass(frozen=True)
class GroupHom:
    """Homomorphism determined by images of the source's standard generators."""

    source: FinAbGroup
    target: FinAbGroup
    images: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "images", tuple(self.target.reduce_el(im) for im in self.images)
        )
        if len(self.images) != self.source.rank:
            raise InvalidPresentation("one image per source generator required")
        for m, im in zip(self.source.orders, self.images):
            if any((m * x) % mt != 0 for x, mt in zip(im, self.target.orders)):
                raise InvalidPresentation(
                    f"image {im} not annihilated by generator order {m}"
                )

    def __call__(self, a) -> GroupElement:
        out = self.target.zero()
        for x, im in zip(a, self.images):
            out = self.target.add(out, self.target.mul(x, im))
        return out

    def compose(self, other: "GroupHom") -> "GroupHom":
        """self o other (apply ``other`` first)."""
        if other.target.orders != self.source.orders:
            raise InvalidPresentation("composition mismatch")
        return GroupHom(other.source, self.target, tuple(self(im) for im in other.images))

    def image_elements(self) -> tuple:
        add = self.target.add_flat()
        n = self.target.order
        idx = kernels.closure(n, add, [self.target.index(im) for im in self.images])
        return tuple(self.target.from_index(i) for i in idx)

    def kernel_elements(self) -> tuple:
        return tuple(
            g for g in self.source.elements() if self(g) == self.target.zero()
        )

    def is_isomorphism(self) -> bool:
        if self.source.order != self.target.order:
            return False
        return len(self.image_elements()) == self.target.order

    @staticmethod
    def identity(G: FinAbGroup) -> "GroupHom":
        return GroupHom(G, G, tuple(G.generators()))


@dataclass(frozen=True)
class Subgroup:
    """Subgroup as a closed, sorted, duplicate-free element list."""

    parent: FinAbGroup
    elements: tuple
    generators: tuple = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        els = tuple(sorted(self.parent.reduce_el(e) for e in set(self.elements)))
        object.__setattr__(self, "elements", els)
        if self.parent.zero() not in els:
            raise NotASubgroup("missing zero")
        idx = [self.parent.index(e) for e in els]
        closed = kernels.closure(self.parent.order, self.parent.add_flat(), idx)
        if tuple(closed) != tuple(idx):
            raise NotASubgroup("element set not closed under addition")
        if self.generators is None:
            gens = _minimal_generators(self.parent, idx)
            object.__setattr__(self, "generators", tuple(map(self.parent.from_index, gens)))
        else:
            object.__setattr__(
                self, "generators", tuple(self.parent.reduce_el(g) for g in self.generators)
            )

    @property
    def order(self) -> int:
        return len(self.elements)

    def indices(self) -> tuple:
        return tuple(self.parent.index(e) for e in self.elements)

    def __contains__(self, e) -> bool:
        return self.parent.reduce_el(e) in set(self.elements)

    @staticmethod
    def generated(G: FinAbGroup, gens) -> "Subgroup":
        idx = kernels.closure(G.order, G.add_flat(), [G.index(g) for g in gens])
        return Subgroup(G, tuple(G.from_index(i) for i in idx))

    @staticmethod
    def trivial(G: FinAbGroup) -> "Subgroup":
        return Subgroup(G, (G.zero(),), generators=())

    @staticmethod
    def full(G: FinAbGroup) -> "Subgroup":
        return Subgroup(G, tuple(G.elements()), generators=tuple(G.generators()))


def _minimal_generators(G: FinAbGroup, idx) -> tuple:
    """Irredundant generating sequence of the subgroup with sorted element
    indices ``idx``, as indices; deterministic.

    Greedy by descending element order (index tie-break, which is the
    lexicographic one), then a pruning pass removing redundant picks.
    """
    if len(idx) == 1:
        return ()
    add = G.add_flat()
    n = G.order
    orders = G.order_flat()
    target = tuple(idx)
    gens: list = []
    have = {0}
    for e in sorted(idx[1:], key=lambda i: (-orders[i], i)):
        if e not in have:
            gens.append(e)
            have = set(kernels.closure(n, add, gens))
            if len(have) == len(idx):
                break
    changed = True
    while changed:
        changed = False
        for i in range(len(gens)):
            rest = gens[:i] + gens[i + 1 :]
            if kernels.closure(n, add, rest) == target:
                gens = rest
                changed = True
                break
    return tuple(gens)


# ---------------------------------------------------------------------------
# Smith normal form over the integers (small dense matrices).
# ---------------------------------------------------------------------------

def smith_diagonal(mat):
    """Diagonalize an integer matrix by unimodular row/column operations.

    Returns ``(diag, U)`` where ``U`` is the accumulated row-operation
    matrix: ``U @ mat @ V = diag(d_1..d_k)`` for some unimodular ``V``
    (not tracked) with ``d_1 | d_2 | ...`` and ``d_i >= 0``.
    """
    M = [list(row) for row in mat]
    r = len(M)
    c = len(M[0]) if r else 0
    U = [[1 if i == j else 0 for j in range(r)] for i in range(r)]

    def row_op(i, j, q):  # row_i -= q * row_j
        M[i] = [a - q * b for a, b in zip(M[i], M[j])]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    def row_swap(i, j):
        M[i], M[j] = M[j], M[i]
        U[i], U[j] = U[j], U[i]

    def col_op(j, k, q):  # col_j -= q * col_k
        for row in M:
            row[j] -= q * row[k]

    def col_swap(j, k):
        for row in M:
            row[j], row[k] = row[k], row[j]

    t = 0
    while t < min(r, c):
        # locate smallest-magnitude nonzero pivot in the trailing block
        piv = None
        for i in range(t, r):
            for j in range(t, c):
                if M[i][j] != 0 and (piv is None or abs(M[i][j]) < abs(M[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        row_swap(t, piv[0])
        col_swap(t, piv[1])
        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, r):
                if M[i][t] != 0:
                    q = M[i][t] // M[t][t]
                    row_op(i, t, q)
                    if M[i][t] != 0:
                        row_swap(i, t)
                        dirty = True
            if dirty:
                continue
            # clear row t
            for j in range(t + 1, c):
                if M[t][j] != 0:
                    q = M[t][j] // M[t][t]
                    col_op(j, t, q)
                    if M[t][j] != 0:
                        col_swap(j, t)
                        dirty = True
                        break
            if not dirty:
                break
        # divisibility: pivot must divide the whole trailing block
        d = M[t][t]
        bad = None
        for i in range(t + 1, r):
            for j in range(t + 1, c):
                if M[i][j] % d != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            row_op(t, bad, -1)  # row_t += row_bad, then redo this pivot
            continue
        t += 1
    diag = []
    for i in range(min(r, c)):
        d = M[i][i]
        if d < 0:
            U[i] = [-a for a in U[i]]
            d = -d
        diag.append(d)
    return diag, U


def canonical_form(orders):
    """Invariant-factor form of a raw cyclic presentation.

    Returns ``(G, iso)`` with ``G`` canonical and ``iso`` the group
    isomorphism from the input presentation onto ``G``.  Idempotent: a
    canonical input maps by the identity up to generator signs.
    """
    orders = tuple(int(m) for m in orders)
    if any(m < 2 for m in orders):
        raise InvalidPresentation(f"presentation entries must be >= 2: {orders}")
    src = FinAbGroup(orders) if orders else TRIVIAL_GROUP
    r = len(orders)
    if r == 0:
        return TRIVIAL_GROUP, GroupHom(TRIVIAL_GROUP, TRIVIAL_GROUP, ())
    diag, U = smith_diagonal([[orders[i] if i == j else 0 for j in range(r)] for i in range(r)])
    kept = [(i, d) for i, d in enumerate(diag) if d != 1]
    target = FinAbGroup(tuple(d for _, d in kept)) if kept else TRIVIAL_GROUP
    images = tuple(
        tuple(U[i][j] % d for i, d in kept) for j in range(r)
    )
    return target, GroupHom(src, target, images)


def subgroups(G: FinAbGroup, config: Config = DEFAULT) -> list:
    """Complete subgroup list, deterministic (by size, then element list).

    Layered closure over cyclic extensions; guarded by
    ``config.enum_guard`` on |G|.
    """
    if G.order > config.enum_guard:
        raise EnumerationLimit(f"|G| = {G.order} exceeds enum_guard = {config.enum_guard}")
    subs = kernels.all_subgroups(G.order, G.add_flat())
    return [Subgroup(G, tuple(G.from_index(i) for i in s)) for s in subs]


def quotient(G: FinAbGroup, H: Subgroup):
    """Quotient G/H in canonical form, with the projection hom."""
    if H.parent.orders != G.orders:
        raise NotASubgroup("subgroup belongs to a different group")
    Q, images = _quotient_images(G, H.generators)
    return Q, GroupHom(G, Q, images)


def _quotient_images(G: FinAbGroup, gens):
    """G modulo the subgroup generated by the coordinate tuples ``gens``:
    (Q in canonical form, images in Q of G's standard generators)."""
    r = G.rank
    if r == 0:
        return TRIVIAL_GROUP, ()
    mat = [[G.orders[i] if i == j else 0 for j in range(r)] for i in range(r)]
    for h in gens:
        for i in range(r):
            mat[i].append(h[i])
    diag, U = smith_diagonal(mat)
    kept = [(i, d) for i, d in enumerate(diag) if d != 1]
    Q = FinAbGroup(tuple(d for _, d in kept)) if kept else TRIVIAL_GROUP
    return Q, tuple(tuple(U[i][j] % d for i, d in kept) for j in range(r))


def check_aut_size(G: FinAbGroup, config: Config = DEFAULT) -> None:
    """Refuse a search of Aut(G), or of a subgroup of it, that is too large.

    ``config.aut_count_cap`` is decided from the closed-form |Aut(G)|
    before anything is enumerated.
    """
    if G.order > config.aut_guard:
        raise EnumerationLimit(f"|G| = {G.order} exceeds aut_guard = {config.aut_guard}")
    count = aut_order(G.orders)
    if count > config.aut_count_cap:
        raise EnumerationLimit(
            f"|Aut(G)| = {count} exceeds aut_count_cap = {config.aut_count_cap}"
        )


def automorphism_perms(G: FinAbGroup, config: Config = DEFAULT) -> list:
    """Aut(G) as index permutations (the kernel-level representation)."""
    check_aut_size(G, config)
    return kernels.automorphisms(
        G.order, G.add_flat(), G.order_flat(), G.gen_strides(), list(G.orders),
        config.aut_count_cap,
    )


def automorphisms(G: FinAbGroup, config: Config = DEFAULT) -> list:
    """All automorphisms of G as GroupHoms, deterministic order."""
    perms = automorphism_perms(G, config)
    strides = G.gen_strides()
    return [
        GroupHom(G, G, tuple(G.from_index(p[s]) for s in strides)) for p in perms
    ]


def hom_from_perm(G: FinAbGroup, perm) -> GroupHom:
    strides = G.gen_strides()
    return GroupHom(G, G, tuple(G.from_index(perm[s]) for s in strides))


def primes_of(n: int) -> list:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def aut_order(orders) -> int:
    """|Aut(G)| of G = Z/orders[0] x ... x Z/orders[-1], in closed form.

    Aut(G) is the product of the automorphism groups of the p-primary
    parts.  For Z/p^e_1 x ... x Z/p^e_k with e_1 <= ... <= e_k, let
    d_i = max{j : e_j = e_i} and c_i = min{j : e_j = e_i}; then
    |Aut| = prod_i (p^d_i - p^(i-1)) * prod_j p^(e_j (k - d_j))
    * prod_i p^((e_i - 1)(k - c_i + 1))  (Hillar and Rhea, Amer. Math.
    Monthly 114 (2007)).  Any cyclic presentation works, not only the
    invariant-factor form.
    """
    total = 1
    for p in primes_of(math.prod(orders)):
        es = sorted(e for e in (_valuation(m, p) for m in orders) if e)
        k = len(es)
        for i, e in enumerate(es, 1):
            d = bisect_right(es, e)
            c = bisect_left(es, e) + 1
            total *= (p**d - p ** (i - 1)) * p ** (e * (k - d) + (e - 1) * (k - c + 1))
    return total


def _valuation(n: int, p: int) -> int:
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e
