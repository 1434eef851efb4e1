"""Fusion rings: based rings with non-negative structure constants,
a unit, and a duality involution.

A ring keeps one table: rows[x][y] = (zs, ms), the basis indices z in
the product of x and y, increasing, and their multiplicities N_xy^z.
The dense N is a view of it, made on first read.  Validation checks
the unit, associativity and duality against the unit (N_xy^1 =
[y = x*]) exactly; everything downstream assumes a validated ring.
Associativity is Light's test on the algebra generators (see
``algebra_generators``); only a table that fails it is scanned in
order, to name its first failing triple.  The Frobenius symmetries
N_xy^z = N_(yz*)^(x*) = N_(z*x)^(y*) follow from those two: the unit
coefficient of (xy)z* is N_xy^z and that of x(yz*) is N_(yz*)^(x*).

Frobenius-Perron dimensions are the one numeric (float) surface of the
library: the largest eigenvalue of each left-multiplication matrix,
found by power iteration with a deterministic all-ones seed.  The
iteration runs on L_x + 1 so periodic (bipartite-like) tables converge
too; subtracting one recovers the eigenvalue.

Validated rings are interned by the parsed table: ``validate_ring``
returns the ring it built for an equal (labels, unit, dual, N), whose
view is that parsed table, so data on one table share its FP
dimensions, subring lattice and algebra generators, and the dimension
documents and kits of ``io`` and ``premodular``.  Like ``_CTX`` in
``cyclotomic``, the cache is process-local and unbounded.
"""

from __future__ import annotations

import json
import math
from itertools import chain, compress
from typing import NamedTuple

from .abelian import FinAbGroup, TRIVIAL_GROUP, primes_of, smith_presentation
from .config import DEFAULT, Config
from .errors import (
    AssociativityFail,
    BadParameter,
    ClassificationBug,
    DualityFail,
    EnumerationLimit,
    InvalidPresentation,
    NotWeaklyIntegral,
    NumericalFail,
    UnitFail,
    Unsupported,
)

_POWER_TOL = 1e-12
_POWER_CAP = 100_000
_RINGS: dict = {}  # (labels, unit, dual, N) -> the validated FusionRing


class FusionRing:
    # rows[x][y] = (zs, ms): the z with N_xy^z > 0, increasing, and those
    # N_xy^z; equal rows of a table given dense share one pair.  _N, the
    # dense view, is the table given to the constructor, or made from the
    # rows on first read of N.  Built on first use: _fpdim, the Perron
    # eigenvalues of the left multiplications; _lattice, the SubringLattice
    # that all_subrings returns, its FusionSubrings with it; _gens, the
    # indices of algebra_generators; _squares,
    # (tolerance, fp_square_integers, their squarefree parts, the indices
    # of integral_part) at the last tolerance premodular.gfp_invariants
    # asked for; _mult, the largest sum of the multiplicities of a row,
    # which bounds premodular.build's integer tests.  _comps maps
    # the indices of each centralizer of a report premodular.centralizer
    # passed (so a subring) to its FusionSubring and its components.
    # _kits maps each (dimension tuple, conductor) of a datum
    # premodular.build accepted to its base (premodular._Kron: the checks
    # it passed, the dimensions' classes and denominator, their values at
    # the base and F_p images, the base's table of turned values, and the
    # inverses), and
    # _dims each dimension document io.datum_from_json parsed for a datum
    # built on the ring, in its written form, to its CycloNum.  A refusal
    # keeps nothing but entries of a kept base's table of turned values,
    # which read the dimensions alone.  Equality and hashing read the
    # labels, unit, dual and rows alone.
    __slots__ = ("labels", "unit", "dual", "rows", "_N", "_fpdim", "_lattice", "_gens",
                 "_squares", "_mult", "_comps", "_kits", "_dims")

    def __init__(self, labels: tuple, unit: int, dual: tuple, N: tuple):
        r = range(len(N))
        cut = {row: (tuple(compress(r, row)), tuple(filter(None, row)))
               for row in set(chain.from_iterable(N))}
        self.labels, self.unit, self.dual, self._N = labels, unit, dual, N
        self.rows = tuple(tuple(map(cut.__getitem__, p)) for p in N)
        self._fpdim = self._lattice = self._gens = self._squares = self._mult = None
        self._comps, self._kits, self._dims = {}, {}, {}

    @property
    def N(self) -> tuple:
        """The dense table N[x][y][z], made from the rows on first read."""
        if self._N is None:
            dense = {row: tuple(map(dict(zip(*row)).get, range(self.rank), [0] * self.rank))
                     for row in set(chain.from_iterable(self.rows))}
            self._N = tuple(tuple(map(dense.__getitem__, p)) for p in self.rows)
        return self._N

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.labels, self.unit, self.dual, self.rows) == (
            other.labels, other.unit, other.dual, other.rows)

    def __hash__(self):
        return hash((self.labels, self.unit, self.dual, self.rows))

    @property
    def rank(self) -> int:
        return len(self.labels)

    def constituents(self, i: int, j: int) -> tuple:
        return self.rows[i][j][0]

    def is_commutative(self) -> bool:
        rows, r = self.rows, self.rank
        return all(rows[i][j] == rows[j][i] for i in range(r) for j in range(i + 1, r))

    def __repr__(self):
        return f"FusionRing({', '.join(self.labels)})"


def _of_rows(labels: tuple, unit: int, dual: tuple, rows: tuple) -> FusionRing:
    """The ring of these rows; its dense view is made on first read."""
    R = FusionRing(labels, unit, dual, ())
    R.rows, R._N = rows, None
    return R


def validate_ring(labels, unit, dual, N) -> FusionRing:
    """Exact axioms check; the first violation is reported with indices.
    An equal table gets the ring that passed before, with its caches.

    The labels must be a list (or tuple) of str, and the unit and every
    entry of ``dual`` and ``N`` an int: anything else (a float, bool,
    null or list; a string in place of the labels' list) is refused with
    TypeError before the lookup, never converted, truncated or taken for
    the int it equals.  The message quotes the value as JSON.  A unit
    that is no basis index (negative, past the last, or any unit of the
    empty table) is refused with UnitFail.
    """
    if type(labels) not in (list, tuple):
        raise TypeError(f"ring labels {json.dumps(labels, default=repr)} are not a list")
    labels = tuple(labels)
    r = len(labels)
    dual = tuple(dual)
    N = tuple(tuple(map(tuple, plane)) for plane in N)
    if not set(map(type, labels)) <= {str}:
        bad = next(l for l in labels if type(l) is not str)
        raise TypeError(f"ring label {json.dumps(bad, default=repr)} is not a string")
    if type(unit) is not int or not set(map(type, chain(dual, *chain.from_iterable(N)))) <= {int}:
        bad = next(c for c in chain((unit,), dual, *chain.from_iterable(N)) if type(c) is not int)
        raise TypeError(f"ring entry {json.dumps(bad, default=repr)} is not an integer")
    key = (labels, unit, dual, N)   # hashed once per lookup: a tuple keeps no hash
    if (R := _RINGS.get(key)) is not None:
        return R
    if len(N) != r or any(len(p) != r or any(len(row) != r for row in p) for p in N):
        raise UnitFail(f"N must be {r}x{r}x{r}")
    if not 0 <= unit < r:
        raise UnitFail(f"unit {unit} is not a basis index "
                       + (f"0..{r - 1}" if r else "(the basis is empty)"))
    if sorted(dual) != list(range(r)) or any(dual[dual[i]] != i for i in range(r)):
        raise DualityFail("dual is not an involution on indices")
    R = FusionRing(labels, unit, dual, N)
    if any(m < 0 for _, ms in chain.from_iterable(R.rows) for m in ms):
        raise UnitFail("negative structure constant")
    fault = _unit_fault(R)
    if fault:
        raise UnitFail(f"unit law fails at ({fault[0]}, {fault[1]})")
    # the unit is never a generator: every index back means Light's test failed
    if len(algebra_generators(R)) == r and (fault := _associator_fault(R, range(r))):
        raise AssociativityFail("associativity fails at ({}, {}, {}) -> {}".format(*fault))
    for x in range(r):
        for y in range(r):
            zs, ms = R.rows[x][y]
            if (m := ms[zs.index(unit)] if unit in zs else 0) != (y == dual[x]):
                raise DualityFail(f"N[{x}][{y}][unit] = {m} but dual({x}) = {dual[x]}")
    _RINGS[key] = R
    return R


def _unit_fault(R: FusionRing):
    """The first (j, k) at which 1 j or j 1 differs from j at k, or None."""
    u, rows = R.unit, R.rows
    for j in range(R.rank):
        bad = [dict(zip(*row)) for row in (rows[u][j], rows[j][u]) if row != ((j,), (1,))]
        if bad:
            return j, min(k for c in bad for k in c.keys() | {j} if c.get(k, 0) != (k == j))


def _associator_fault(R: FusionRing, ys):
    """The first (x, y, z, v), y in ``ys``, in that order, at which (xy)z
    and x(yz) differ in the coefficient of v (the least such v), or None."""
    rows, r = R.rows, range(R.rank)
    for x, y, z in ((x, y, z) for x in r for y in ys for z in r):
        lhs, rhs = {}, {}   # sparse: every coefficient kept is positive
        for w, a in zip(*rows[x][y]):
            for v, b in zip(*rows[w][z]):
                lhs[v] = lhs.get(v, 0) + a * b
        for w, a in zip(*rows[y][z]):
            for v, b in zip(*rows[x][w]):
                rhs[v] = rhs.get(v, 0) + a * b
        if lhs != rhs:
            return x, y, z, min(v for v in lhs.keys() | rhs.keys() if lhs.get(v) != rhs.get(v))


# ---------------------------------------------------------------------------
# standard constructions
# ---------------------------------------------------------------------------

def group_ring(G: FinAbGroup) -> FusionRing:
    """The pointed ring of a finite abelian group."""
    n = G.order
    add = G.add_flat()
    cell = [((k,), (1,)) for k in range(n)]
    rows = tuple(tuple(map(cell.__getitem__, add[i * n:(i + 1) * n])) for i in range(n))
    labels = tuple("g" + "".join(str(c) for c in e) if e else "1" for e in G.elements())
    return _of_rows(labels, 0, tuple(G.neg_flat()), rows)


def ising_ring() -> FusionRing:
    """Rank 3: unit, delta, X with X*X = 1 + delta."""
    one, delta, X = ((0,), (1,)), ((1,), (1,)), ((2,), (1,))
    rows = ((one, delta, X), (delta, one, X), (X, X, ((0, 1), (1, 1))))
    return _of_rows(("1", "delta", "X"), 0, (0, 1, 2), rows)


def product_ring(R1: FusionRing, R2: FusionRing) -> FusionRing:
    """Basis = pairs, structure constants multiply."""
    r1, r2 = R1.rank, R2.rank
    labels = tuple(f"{a}*{b}" for a in R1.labels for b in R2.labels)
    dual = tuple(d1 * r2 + d2 for d1 in R1.dual for d2 in R2.dual)

    def times(row1, row2):   # z1 r2 + z2 increases with (z1, z2)
        return (tuple(z1 * r2 + z2 for z1 in row1[0] for z2 in row2[0]),
                tuple(m1 * m2 for m1 in row1[1] for m2 in row2[1]))

    rows = tuple(tuple(times(R1.rows[a1][b1], R2.rows[a2][b2])
                       for b1 in range(r1) for b2 in range(r2))
                 for a1 in range(r1) for a2 in range(r2))
    return _of_rows(labels, R1.unit * r2 + R2.unit, dual, rows)


# ---------------------------------------------------------------------------
# Frobenius-Perron dimensions
# ---------------------------------------------------------------------------

class FPData(NamedTuple):
    fpdim: tuple    # floats, one per basis index
    total: float    # sum of squares
    tolerance: float


def fp_dims(R: FusionRing, config: Config = DEFAULT) -> FPData:
    """Perron eigenvalues of the left-multiplication matrices."""
    if R._fpdim is None:
        R._fpdim = _perron_dims(R)
    dims = R._fpdim
    return FPData(dims, sum(d * d for d in dims), config.tolerance)


def _perron_dims(R: FusionRing) -> tuple:
    dims = []
    r = range(R.rank)
    for x in r:
        # column z of L_x + 1 (so periodic tables converge): its nonzero
        # (y, N_xy^z + [y = z]) in increasing y, the order of a dense sum
        cols = [[] for _ in r]
        for y in r:
            zs, ms = R.rows[x][y]
            if y not in zs:
                cols[y].append((y, 1))
            for z, m in zip(zs, ms):
                cols[z].append((y, m + (z == y)))
        v = [1.0] * R.rank
        lam = 1.0
        for _ in range(_POWER_CAP):
            w = [sum([m * v[y] for y, m in col]) for col in cols]
            tot = sum(w)
            new_lam = tot / sum(v)
            v = [wi / tot for wi in w]
            if abs(new_lam - lam) < _POWER_TOL:
                lam = new_lam
                break
            lam = new_lam
        else:
            raise NumericalFail(f"power iteration did not converge for index {x}")
        dims.append(lam - 1.0)
    return tuple(dims)


# ---------------------------------------------------------------------------
# subrings
# ---------------------------------------------------------------------------

class FusionSubring:
    __slots__ = ("parent", "indices")

    def __init__(self, parent: FusionRing, indices):
        idx = tuple(sorted(set(indices)))
        if idx and (idx[0] < 0 or idx[-1] >= parent.rank):
            raise BadParameter(f"subring indices {idx} outside 0..{parent.rank - 1}")
        self.parent, self.indices = parent, idx

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.parent, self.indices) == (other.parent, other.indices)

    def __hash__(self):
        return hash((self.parent, self.indices))

    def __repr__(self):
        return f"FusionSubring(parent={self.parent!r}, indices={self.indices!r})"

    @property
    def rank(self) -> int:
        return len(self.indices)

    def __contains__(self, i: int) -> bool:
        return i in set(self.indices)

    def labels(self) -> tuple:
        return tuple(self.parent.labels[i] for i in self.indices)


def subring_generated(R: FusionRing, seed) -> FusionSubring:
    """Least constituent-closed subset containing the seed and the unit.

    Dual-closure always follows for genuine fusion rings, so it is not
    part of the closure; it is asserted afterwards, and a violation
    marks the input as not a fusion ring.
    """
    cur = set(seed) | {R.unit}
    while True:
        new = set(cur)
        for i in cur:
            for j in cur:
                new.update(R.constituents(i, j))
        if new == cur:
            break
        cur = new
    for i in cur:
        if R.dual[i] not in cur:
            raise ClassificationBug(f"closure not dual-closed at index {i}")
    return FusionSubring(R, tuple(sorted(cur)))


class SubringLattice(NamedTuple):
    ring: FusionRing
    subrings: tuple  # sorted by (rank, indices)

    def meet(self, a: FusionSubring, b: FusionSubring) -> FusionSubring:
        common = set(a.indices) & set(b.indices)
        sub = FusionSubring(self.ring, tuple(common))
        if subring_generated(self.ring, sub.indices).indices != sub.indices:
            raise ClassificationBug("intersection of subrings is not a subring")
        return sub

    def join(self, a: FusionSubring, b: FusionSubring) -> FusionSubring:
        return subring_generated(self.ring, a.indices + b.indices)


def all_subrings(R: FusionRing, config: Config = DEFAULT) -> SubringLattice:
    """The full subring lattice, by closure of single-element extensions.

    Built once per ring, and kept on it with its subrings; the rank guard
    is checked on every call.
    """
    if R.rank > config.rank_guard:
        raise EnumerationLimit(f"rank {R.rank} exceeds rank_guard = {config.rank_guard}")
    if R._lattice is None:
        R._lattice = SubringLattice(R, tuple(FusionSubring(R, s) for s in _subring_lattice(R)))
    return R._lattice


def _subring_lattice(R: FusionRing) -> tuple:
    base = subring_generated(R, ())
    found = {base.indices}
    queue = [base.indices]
    while queue:
        cur = queue.pop()
        for x in range(R.rank):
            if x in cur:
                continue
            ext = subring_generated(R, cur + (x,)).indices
            if ext not in found:
                found.add(ext)
                queue.append(ext)
    return tuple(sorted(found, key=lambda s: (len(s), s)))


# ---------------------------------------------------------------------------
# algebra generators
# ---------------------------------------------------------------------------

def algebra_generators(R: FusionRing) -> tuple:
    """Sorted basis indices whose words, from the unit, span R over Q.

    A linear map phi with phi(1) = 1 that satisfies
    phi(yz) = phi(y) phi(z) for these y and every z is a character: the
    y for which that holds span a unital subalgebra, by the unit law and
    associativity, so it is all of R.  This is not ``subring_generated``,
    which closes under constituents: {1*X, X*X} generates Ising x Ising
    as a fusion ring but spans only 7 of its 9 dimensions as an algebra.

    Greedy: each step adds the index that makes the unital algebra of
    the chosen ones largest (the least index on ties), computed by exact
    fraction-free elimination.  It ends only under the unit law (e_i 1 =
    e_i makes each trial grow), which is checked first.  Its set Y then
    proves associativity by Light's test (Clifford and Preston, The
    Algebraic Theory of Semigroups I, 1.2) on |Y| r^2 triples: the y with
    (xy)z = x(yz) for all x, z (the middle nucleus) include 1, are closed
    under products and hold Y, whose words span R, so they are all of R.
    A failing ring, whoever built it, gets every index.  Built once per ring.
    """
    if R._gens is None:
        R._gens = tuple(range(R.rank))
        if _unit_fault(R) is None:
            gens = tuple(sorted(_greedy_generators(R)))
            if _associator_fault(R, gens) is None:
                R._gens = gens
    return R._gens


def _greedy_generators(R: FusionRing) -> list:
    r = R.rank
    echelon, gens = [(R.unit, [int(k == R.unit) for k in range(r)])], []
    while len(echelon) < r:
        best = None
        for i in range(r):
            if not _echelon_add(list(echelon), [int(k == i) for k in range(r)]):
                continue   # e_i already lies in the algebra
            trial = _close(R, echelon, gens, i)
            if best is None or len(trial) > len(best[1]):
                best = (i, trial)
            if len(trial) == r:
                break   # no later index does better
        gens.append(best[0])
        echelon = best[1]
    return gens


def _close(R: FusionRing, echelon: list, gens: list, i: int) -> list:
    """Echelon rows of the span of ``echelon``, which left multiplication
    by ``gens`` keeps, closed under left multiplication by i too; a new
    list.  The span is closed once every row has met every generator."""
    echelon, every = list(echelon), gens + [i]
    todo = [(row, (i,)) for _, row in echelon]
    while todo and len(echelon) < R.rank:
        w, by = todo.pop()
        for g in by:
            u = [0] * R.rank   # e_g * w
            for v, c in enumerate(w):
                if c:
                    for k, m in zip(*R.rows[g][v]):
                        u[k] += c * m
            if _echelon_add(echelon, u):
                todo.append((echelon[-1][1], every))
    return echelon


def _echelon_add(echelon, v) -> bool:
    """Reduce the integer vector v, fraction-free, by ``echelon``, a list of
    (pivot, row) with each row zero at the pivots before it; append what
    is left and return True, or return False when v lies in their span."""
    for pos, e in echelon:
        if v[pos]:
            v = _combine(e[pos], v, v[pos], e)
    pos = next((t for t, a in enumerate(v) if a), None)
    if pos is None:
        return False
    echelon.append((pos, v))
    return True


def _combine(a, u, b, w):
    """a*u - b*w, divided by the gcd of its entries."""
    v = [a * x - b * y for x, y in zip(u, w)]
    g = math.gcd(*v)
    return [x // g for x in v] if g > 1 else v


def adjoint_subring(R: FusionRing) -> FusionSubring:
    """Generated by the constituents of x (x) dual(x)."""
    seed = []
    for x in range(R.rank):
        seed.extend(R.constituents(x, R.dual[x]))
    return subring_generated(R, seed)


def pointed_part(R: FusionRing) -> FusionSubring:
    """Subring of invertibles (x with x (x) dual(x) = unit on the nose)."""
    inv = [x for x in range(R.rank) if R.rows[x][R.dual[x]] == ((R.unit,), (1,))]
    sub = FusionSubring(R, tuple(inv))
    if subring_generated(R, sub.indices).indices != sub.indices:
        raise ClassificationBug("invertibles do not close under the product")
    return sub


# ---------------------------------------------------------------------------
# gradings
# ---------------------------------------------------------------------------

class Grading(NamedTuple):
    group: FinAbGroup
    deg: tuple  # GroupElement per basis index

    def trivial_component(self) -> tuple:
        z = self.group.zero()
        return tuple(i for i, d in enumerate(self.deg) if d == z)

    def is_faithful(self) -> bool:
        return len(set(self.deg)) == self.group.order


def components(R: FusionRing, indices) -> tuple:
    """Classes of the relation "y is a constituent of z (x) w for some w
    in ``indices``", as sorted index tuples in order of least index."""
    parent = list(range(R.rank))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for z in range(R.rank):
        for w in indices:
            for y in R.constituents(z, w):
                ri, rj = find(z), find(y)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    buckets = {}
    for i in range(R.rank):
        buckets.setdefault(find(i), []).append(i)
    return tuple(tuple(v) for _, v in sorted(buckets.items()))


def group_from_table(n: int, mul, unit: int):
    """Canonical FinAbGroup from an abstract abelian multiplication table.

    ``mul(i, j)`` gives the product index.  Returns (G, encode) where
    encode maps an abstract index to a GroupElement of G.  Presentation:
    one generator per abstract element, relations from the full table.
    """
    cols = []
    for i in range(n):
        for j in range(i, n):
            col = [0] * n
            col[i] += 1
            col[j] += 1
            col[mul(i, j)] -= 1
            cols.append(col)
    col = [0] * n
    col[unit] += 1
    cols.append(col)
    try:
        G, images = smith_presentation([[c[i] for c in cols] for i in range(n)])
    except InvalidPresentation:
        raise ClassificationBug("abstract table does not present a finite group") from None
    if len(set(images)) != n or G.order != n:
        raise ClassificationBug("abstract table is not a group of the stated size")
    return G, {j: G.from_index(g) for j, g in enumerate(images)}


def universal_grading(R: FusionRing, config: Config = DEFAULT) -> Grading:
    """The finest group grading; trivial component = adjoint subring.

    Components are the classes of "y occurs in z (x) a for adjoint a";
    the class product is read off representatives and checked to be
    well-defined.  Only commutative tables are supported (the grading
    group must be abelian).
    """
    if not R.is_commutative():
        raise Unsupported("universal grading requires a commutative table")
    if R.rank > config.rank_guard:
        raise EnumerationLimit(f"rank {R.rank} exceeds rank_guard = {config.rank_guard}")
    ad = adjoint_subring(R)
    classes = components(R, ad.indices)
    comp = [0] * R.rank
    for k, cls in enumerate(classes):
        for i in cls:
            comp[i] = k

    mul_table = {}
    for i in range(R.rank):
        for j in range(R.rank):
            cs = {comp[k] for k in R.constituents(i, j)}
            if len(cs) != 1:
                raise ClassificationBug("component product is not well-defined")
            key = (comp[i], comp[j])
            got = cs.pop()
            if mul_table.setdefault(key, got) != got:
                raise ClassificationBug("component product depends on representatives")
    k = len(classes)
    G, encode = group_from_table(k, lambda i, j: mul_table[(i, j)], comp[R.unit])
    deg = tuple(encode[comp[i]] for i in range(R.rank))
    grading = Grading(G, deg)
    if set(grading.trivial_component()) != set(ad.indices):
        raise ClassificationBug("trivial component differs from the adjoint subring")
    if not grading.is_faithful():
        raise ClassificationBug("universal grading must be faithful")
    return grading


# ---------------------------------------------------------------------------
# weak integrality and the square grading
# ---------------------------------------------------------------------------

def _squarefree(n: int) -> int:
    out = 1
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e % 2:
            out *= d
        d += 1
    return out * n


def fp_square_integers(R: FusionRing, config: Config = DEFAULT) -> tuple:
    """round(FPdim(x)^2) for all x, tolerance-checked; requires weak
    integrality of the total."""
    fp = fp_dims(R, config)
    total = fp.total
    if abs(total - round(total)) > config.tolerance:
        raise NotWeaklyIntegral(f"total squared dimension {total} is not integral")
    out = []
    for x, d in enumerate(fp.fpdim):
        sq = d * d
        m = round(sq)
        if abs(sq - m) > config.tolerance or m <= 0:
            raise NumericalFail(
                f"FPdim^2 = {sq} at index {x} does not round decisively"
            )
        out.append(m)
    return tuple(out)


def fp_square_grading(R: FusionRing, config: Config = DEFAULT) -> Grading:
    """Grading by square-free parts of FPdim^2 (an elementary 2-group)."""
    sq = fp_square_integers(R, config)
    sf = [_squarefree(m) for m in sq]
    primes = sorted({p for v in sf for p in primes_of(v)})
    r = len(primes)
    G = FinAbGroup((2,) * r) if r else TRIVIAL_GROUP
    deg = tuple(
        tuple(1 if v % p == 0 else 0 for p in primes) for v in sf
    )
    grading = Grading(G, deg)
    for i in range(R.rank):
        for j in range(R.rank):
            for k in R.constituents(i, j):
                if _squarefree(sf[i] * sf[j]) != sf[k]:
                    raise NumericalFail(
                        f"square classes not multiplicative at ({i}, {j}) -> {k}"
                    )
    return grading


def integral_part(R: FusionRing, config: Config = DEFAULT) -> FusionSubring:
    """Maximal integral subring: trivial component of the square grading."""
    grading = fp_square_grading(R, config)
    sub = FusionSubring(R, grading.trivial_component())
    if subring_generated(R, sub.indices).indices != sub.indices:
        raise ClassificationBug("integral component is not closed")
    return sub
