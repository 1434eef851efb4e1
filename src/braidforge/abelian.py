"""Finite abelian groups in invariant-factor form.

A group is a tuple of integer orders.  An element is held as its flat
index, the mixed-radix integer of its residue coordinates (leftmost
coordinate most significant), so index order is lexicographic order on
coordinates; every "deterministic order" promise in the library refers
to this ordering.  A ``Subgroup`` is its sorted tuple of element
indices and a ``GroupHom`` its index table (the image index of every
source index).  Coordinate tuples appear only in JSON and in the
accessors that return them: ``Subgroup.elements`` and ``generators``,
``GroupHom.images``, calling a hom, and its kernel and image lists.

A group's order is a slot, set once when it is made.  A group keeps its
add, negation and element-order tables and a memo of each subgroup
touched: its generators, abstract group and quotient
(``_minimal_generators``, ``_sub_structure``, ``_quotient_images``, keyed
by index tuple), all in one ``_TABLE_CACHE`` entry per ``orders``,
process-local and unbounded like ``_CTX`` in ``cyclotomic``.  Values are
immutable (kept ones are tuples and read-only mappings) and operations
pure, so everything here is safe for concurrent read-only use.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from functools import reduce, wraps
from itertools import product
from types import MappingProxyType

from . import kernels
from .config import DEFAULT, Config
from .errors import ClassificationBug, EnumerationLimit, InvalidPresentation, NotASubgroup

GroupElement = tuple  # residue coordinates, one per invariant factor

_TABLE_CACHE: dict = {}


class FinAbGroup:
    """Direct sum of cyclic groups Z/orders[0] x ... x Z/orders[r-1].

    Library constructors always produce the invariant-factor form
    (orders[i] divides orders[i+1]); raw user presentations may violate
    the chain and should pass through :func:`canonical_form` first.
    """

    __slots__ = ("orders", "order")

    def __init__(self, orders):
        self.orders = tuple(int(m) for m in orders)
        if any(m < 2 for m in self.orders):
            raise InvalidPresentation(f"orders must all be >= 2: {self.orders}")
        self.order = math.prod(self.orders)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.orders == other.orders

    def __hash__(self):
        return hash((self.orders,))

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

    def add(self, a, b) -> GroupElement:
        return tuple((x + y) % m for x, y, m in zip(a, b, self.orders))

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
            hit = (add, neg, kernels.element_orders(self.orders), {})
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


class GroupHom:
    """Homomorphism as its index table: ``table[i]`` is the index of the
    image of the source's i-th element."""

    __slots__ = ("source", "target", "table")

    def __init__(self, source: FinAbGroup, target: FinAbGroup, images):
        """The homomorphism sending the i-th standard generator of
        ``source`` to the coordinate tuple ``images[i]``."""
        images = [target.index(im) for im in images]
        if len(images) != source.rank:
            raise InvalidPresentation("one image per source generator required")
        self._store(source, target, images)

    @classmethod
    def on_indices(cls, source: FinAbGroup, target: FinAbGroup, images) -> "GroupHom":
        """The homomorphism sending the i-th standard generator of
        ``source`` to the target index ``images[i]``."""
        hom = object.__new__(cls)
        hom._store(source, target, images)
        return hom

    @classmethod
    def from_table(cls, source: FinAbGroup, target: FinAbGroup, table) -> "GroupHom":
        """Wrap a homomorphism's index table, such as a kernel permutation."""
        hom = object.__new__(cls)
        hom._set(source, target, tuple(table))
        return hom

    def _store(self, source, target, images):
        ords = target.order_flat()
        for m, im in zip(source.orders, images):
            if m % ords[im]:
                raise InvalidPresentation(
                    f"image {target.from_index(im)} not annihilated by generator order {m}"
                )
        table = kernels.combinations(target.order, target.add_flat(), images, source.orders)
        self._set(source, target, tuple(table))

    def _set(self, source, target, table):
        self.source, self.target, self.table = source, target, table

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.source, self.target, self.table) == (other.source, other.target, other.table)

    def __hash__(self):
        return hash((self.source, self.target, self.table))

    def __repr__(self):
        return f"GroupHom(source={self.source!r}, target={self.target!r}, table={self.table!r})"

    @property
    def images(self) -> tuple:
        """Images of the source's standard generators, as coordinates."""
        return tuple(self.target.from_index(self.table[s]) for s in self.source.gen_strides())

    def __call__(self, a) -> GroupElement:
        return self.target.from_index(self.table[self.source.index(a)])

    def compose(self, other: "GroupHom") -> "GroupHom":
        """self o other (apply ``other`` first)."""
        if other.target.orders != self.source.orders:
            raise InvalidPresentation("composition mismatch")
        return GroupHom.from_table(other.source, self.target, [self.table[i] for i in other.table])

    def kernel_elements(self) -> tuple:
        return tuple(self.source.from_index(i) for i, y in enumerate(self.table) if y == 0)

    def is_isomorphism(self) -> bool:
        return self.source.order == self.target.order == len(set(self.table))

    @staticmethod
    def identity(G: FinAbGroup) -> "GroupHom":
        return GroupHom.from_table(G, G, range(G.order))


class Subgroup:
    """Subgroup as the sorted tuple ``idx`` of its element indices.

    The constructor checks that the indices hold 0 and are closed under
    addition; :meth:`closed` wraps a set a closure or an orthogonal just
    made, unchecked.  ``elements`` and ``generators`` give coordinates.
    """

    # _gens: generator indices, the minimal ones derived on first use
    __slots__ = ("parent", "idx", "_gens")

    def __init__(self, parent: FinAbGroup, idx):
        self.parent = parent
        self.idx = idx = tuple(sorted(set(idx)))
        self._gens = None
        n = parent.order
        if not idx or idx[0] != 0:
            raise NotASubgroup("missing zero")
        if idx[-1] >= n:
            raise NotASubgroup(f"index {idx[-1]} outside a group of order {n}")
        if kernels.closure(n, parent.add_flat(), idx) != idx:
            raise NotASubgroup("element set not closed under addition")

    @classmethod
    def closed(cls, parent: FinAbGroup, idx) -> "Subgroup":
        """Wrap sorted indices that hold 0 and are closed, unchecked."""
        H = object.__new__(cls)
        H.parent, H.idx, H._gens = parent, tuple(idx), None
        return H

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.parent, self.idx) == (other.parent, other.idx)

    def __hash__(self):
        return hash((self.parent, self.idx))

    def __repr__(self):
        return f"Subgroup(parent={self.parent!r}, idx={self.idx!r})"

    @property
    def gen_idx(self) -> tuple:
        """Irredundant generator indices (:func:`_minimal_generators`)."""
        if self._gens is None:
            self._gens = _minimal_generators(self.parent, self.idx)
        return self._gens

    @property
    def elements(self) -> tuple:
        return tuple(map(self.parent.from_index, self.idx))

    @property
    def generators(self) -> tuple:
        return tuple(map(self.parent.from_index, self.gen_idx))

    @property
    def order(self) -> int:
        return len(self.idx)

    def indices(self) -> tuple:
        return self.idx

    def __contains__(self, e) -> bool:
        return self.parent.index(e) in self.idx

    @staticmethod
    def generated(G: FinAbGroup, gens) -> "Subgroup":
        return Subgroup.closed(G, kernels.closure(G.order, G.add_flat(), list(map(G.index, gens))))

    @staticmethod
    def trivial(G: FinAbGroup) -> "Subgroup":
        return Subgroup(G, (0,))

    @staticmethod
    def full(G: FinAbGroup) -> "Subgroup":
        H = Subgroup(G, range(G.order))
        H._gens = tuple(G.gen_strides())
        return H


def _kept(fn):
    """``fn(G, idx)`` kept in G's memo, keyed by fn and the index tuple;
    ``__wrapped__`` computes afresh."""
    @wraps(fn)
    def kept(G, idx):
        memo, key = G._tables()[3], (fn.__name__, tuple(idx))
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = fn(G, key[1])
        return hit
    return kept


@_kept
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


def smith_presentation(mat):
    """The group with one generator per row of the integer matrix ``mat``
    and one relation per column (relations sum the generators with the
    column's coefficients), for ``mat`` with at least as many columns as
    rows: ``(G, images)``, G in invariant-factor form and ``images[j]``
    the index in G of the j-th generator.

    Raises InvalidPresentation when the relations leave a free part.
    """
    diag, U = smith_diagonal(mat)
    kept = [(i, d) for i, d in enumerate(diag) if d != 1]
    if 0 in diag:
        raise InvalidPresentation("relations do not present a finite group")
    G = FinAbGroup(tuple(d for _, d in kept)) if kept else TRIVIAL_GROUP
    return G, [G.index([U[i][j] for i, _ in kept]) for j in range(len(mat))]


def canonical_form(orders):
    """Invariant-factor form of a raw cyclic presentation.

    Returns ``(G, iso)`` with ``G`` canonical and ``iso`` the group
    isomorphism from the input presentation onto ``G``.  Idempotent: a
    canonical input maps by the identity up to generator signs.
    """
    orders = tuple(int(m) for m in orders)
    if any(m < 2 for m in orders):
        raise InvalidPresentation(f"presentation entries must be >= 2: {orders}")
    r = len(orders)
    target, images = smith_presentation(
        [[orders[i] if i == j else 0 for j in range(r)] for i in range(r)]
    )
    return target, GroupHom.on_indices(FinAbGroup(orders), target, images)


def subgroups(G: FinAbGroup, config: Config = DEFAULT) -> list:
    """Complete subgroup list, deterministic (by size, then element list).

    Layered closure over cyclic extensions; guarded by
    ``config.enum_guard`` on |G|.
    """
    if G.order > config.enum_guard:
        raise EnumerationLimit(f"|G| = {G.order} exceeds enum_guard = {config.enum_guard}")
    subs = kernels.all_subgroups(G.order, G.add_flat())
    return [Subgroup(G, s) for s in subs]


def quotient(G: FinAbGroup, H: Subgroup):
    """Quotient G/H in canonical form, with the projection hom."""
    if H.parent.orders != G.orders:
        raise NotASubgroup("subgroup belongs to a different group")
    Q, images = _quotient_images(G, H.gen_idx)
    return Q, GroupHom.on_indices(G, Q, images)


@_kept
def _quotient_images(G: FinAbGroup, gens):
    """G modulo the subgroup generated by the indices ``gens``:
    (Q in canonical form, indices in Q of G's standard generators).
    Kept per group."""
    cols = [G.from_index(h) for h in gens]
    Q, images = smith_presentation(
        [[m if i == j else 0 for j in range(G.rank)] + [c[i] for c in cols]
         for i, m in enumerate(G.orders)]
    )
    return Q, tuple(images)


@_kept
def _sub_structure(G: FinAbGroup, gens):
    """Abstract structure of the subgroup generated by the indices ``gens``:
    (K, to_K, from_K), kept per group.

    K is canonical; to_K maps the subgroup's G-indices to K-indices (a
    read-only mapping), and from_K lists the G-index of each K-index.
    Derived from the relation lattice of the generating sequence via
    Smith reduction, so dependent generators are handled correctly.
    """
    k = len(gens)
    gord = [G.order_flat()[g] for g in gens]
    sums = kernels.combinations(G.order, G.add_flat(), gens, gord)
    # relations inside the box prod Z/ord(g_i): all combos summing to zero
    rel_cols = [[gord[i] if j == i else 0 for j in range(k)] for i in range(k)]
    box = product(*map(range, gord))
    rel_cols += [list(v) for v, s in zip(box, sums) if s == 0 and any(v)]
    K, images = smith_presentation([[col[i] for col in rel_cols] for i in range(k)])
    to_K = {}
    for g, kk in zip(sums, kernels.combinations(K.order, K.add_flat(), images, gord)):
        to_K.setdefault(g, kk)
    if len(set(to_K.values())) != K.order or K.order != len(to_K):
        raise ClassificationBug("subgroup structure map is not bijective")
    from_K = [0] * K.order
    for g, kk in to_K.items():
        from_K[kk] = g
    return K, MappingProxyType(to_K), tuple(from_K)


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
    return [GroupHom.from_table(G, G, p) for p in automorphism_perms(G, config)]


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
