"""Fusion rings: based rings with non-negative structure constants,
a unit, and a duality involution.

The table N[i][j][k] counts the k-th basis element inside the product
of the i-th and j-th.  Validation checks the unit, associativity and
duality against the unit (N_xy^1 = [y = x*]) exactly; everything
downstream assumes a validated ring.  Associativity is Light's test on
the algebra generators (see ``algebra_generators``); only a table that
fails it is scanned in order, to name its first failing triple.  The
Frobenius symmetries
N_xy^z = N_(yz*)^(x*) = N_(z*x)^(y*) follow from those two: the unit
coefficient of (xy)z* is N_xy^z and that of x(yz*) is N_(yz*)^(x*).

Frobenius-Perron dimensions are the one numeric (float) surface of the
library: the largest eigenvalue of each left-multiplication matrix,
found by power iteration with a deterministic all-ones seed.  The
iteration runs on L_x + 1 so periodic (bipartite-like) tables converge
too; subtracting one recovers the eigenvalue.

Validated rings are interned by table: ``validate_ring`` returns the
ring it already built for an equal (labels, unit, dual, N), so data on
one table share its FP dimensions, subring lattice and algebra
generators.  Like ``_CTX`` in ``cyclotomic``, the cache is process-local
and unbounded.
"""

from __future__ import annotations

import json
import math
from itertools import chain
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
    # N[i][j][k], non-negative ints.  Built on first use: _fpdim, the Perron
    # eigenvalues of the left multiplications; _lattice, the subring index
    # tuples; _gens, the indices of algebra_generators; _squares,
    # (tolerance, fp_square_integers, their squarefree parts, the indices
    # of integral_part) at the last tolerance premodular.gfp_invariants
    # asked for; _mult, the largest sum of the positive entries of a row
    # N_xy, which bounds premodular.build's integer tests.  _comps maps
    # the indices of each centralizer of a report premodular.centralizer
    # passed (so a subring) to its components.  A refusal keeps nothing.
    # Equality and hashing read the table alone.
    __slots__ = ("labels", "unit", "dual", "N", "_constituents", "_fpdim", "_lattice", "_gens",
                 "_squares", "_mult", "_comps")

    def __init__(self, labels: tuple, unit: int, dual: tuple, N: tuple):
        self.labels, self.unit, self.dual, self.N = labels, unit, dual, N
        self._constituents = tuple(
            tuple(tuple(k for k, m in enumerate(row) if m > 0) for row in plane)
            for plane in N
        )
        self._fpdim = self._lattice = self._gens = self._squares = self._mult = None
        self._comps = {}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.labels, self.unit, self.dual, self.N) == (
            other.labels, other.unit, other.dual, other.N)

    def __hash__(self):
        return hash((self.labels, self.unit, self.dual, self.N))

    @property
    def rank(self) -> int:
        return len(self.labels)

    def constituents(self, i: int, j: int) -> tuple:
        return self._constituents[i][j]

    def is_commutative(self) -> bool:
        r = self.rank
        return all(
            self.N[i][j] == self.N[j][i] for i in range(r) for j in range(i + 1, r)
        )

    def __repr__(self):
        return f"FusionRing({', '.join(self.labels)})"


def validate_ring(labels, unit, dual, N) -> FusionRing:
    """Exact axioms check; the first violation is reported with indices.
    An equal table gets the ring that passed before, with its caches.

    The labels must be a list (or tuple) of str, and the unit and every
    entry of ``dual`` and ``N`` an int: anything else (a float, bool,
    null or list; a string in place of the labels' list) is refused with
    TypeError before the lookup, never converted, truncated or taken for
    the int it equals.  The message quotes the value as JSON.
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
    key = (labels, unit, dual, N)
    if key in _RINGS:
        return _RINGS[key]
    if len(N) != r or any(len(p) != r or any(len(row) != r for row in p) for p in N):
        raise UnitFail(f"N must be {r}x{r}x{r}")
    if sorted(dual) != list(range(r)) or any(dual[dual[i]] != i for i in range(r)):
        raise DualityFail("dual is not an involution on indices")
    if any(min(row) < 0 for p in N for row in p):
        raise UnitFail("negative structure constant")
    R = FusionRing(labels, unit, dual, N)
    fault = _unit_fault(R)
    if fault:
        raise UnitFail(f"unit law fails at ({fault[0]}, {fault[1]})")
    # the unit is never a generator: every index back means Light's test failed
    if len(algebra_generators(R)) == r and (fault := _associator_fault(R, range(r))):
        raise AssociativityFail("associativity fails at ({}, {}, {}) -> {}".format(*fault))
    for x in range(r):
        for y in range(r):
            if N[x][y][unit] != (y == dual[x]):
                raise DualityFail(f"N[{x}][{y}][unit] = {N[x][y][unit]} but dual({x}) = {dual[x]}")
    return _RINGS.setdefault(key, R)


def _unit_fault(R: FusionRing):
    """The first (j, k) at which 1 j or j 1 differs from j at k, or None."""
    N, u, r = R.N, R.unit, R.rank
    return next(((j, k) for j in range(r) for k in range(r)
                 if N[u][j][k] != (j == k) or N[j][u][k] != (j == k)), None)


def _associator_fault(R: FusionRing, ys):
    """The first (x, y, z, v), y in ``ys``, in that order, at which (xy)z
    and x(yz) differ in the coefficient of v (the least such v), or None."""
    N, C, r = R.N, R._constituents, range(R.rank)
    for x, y, z in ((x, y, z) for x in r for y in ys for z in r):
        lhs, rhs = {}, {}   # sparse: every coefficient kept is positive
        for w in C[x][y]:
            for v in C[w][z]:
                lhs[v] = lhs.get(v, 0) + N[x][y][w] * N[w][z][v]
        for w in C[y][z]:
            for v in C[x][w]:
                rhs[v] = rhs.get(v, 0) + N[y][z][w] * N[x][w][v]
        if lhs != rhs:
            return x, y, z, min(v for v in lhs.keys() | rhs.keys() if lhs.get(v) != rhs.get(v))


# ---------------------------------------------------------------------------
# standard constructions
# ---------------------------------------------------------------------------

def group_ring(G: FinAbGroup) -> FusionRing:
    """The pointed ring of a finite abelian group."""
    n = G.order
    add = G.add_flat()
    N = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            N[i][j][add[i * n + j]] = 1
    labels = tuple("g" + "".join(str(c) for c in e) if e else "1" for e in G.elements())
    return FusionRing(labels, 0, tuple(G.neg_flat()), _freeze(N))


def ising_ring() -> FusionRing:
    """Rank 3: unit, delta, X with X*X = 1 + delta."""
    N = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    table = {
        (0, 0): [0],
        (0, 1): [1],
        (0, 2): [2],
        (1, 0): [1],
        (1, 1): [0],
        (1, 2): [2],
        (2, 0): [2],
        (2, 1): [2],
        (2, 2): [0, 1],
    }
    for (i, j), ks in table.items():
        for k in ks:
            N[i][j][k] = 1
    return FusionRing(("1", "delta", "X"), 0, (0, 1, 2), _freeze(N))


def product_ring(R1: FusionRing, R2: FusionRing) -> FusionRing:
    """Basis = pairs, structure constants multiply."""
    r1, r2 = R1.rank, R2.rank
    labels = tuple(
        f"{R1.labels[i]}*{R2.labels[j]}" for i in range(r1) for j in range(r2)
    )
    dual = tuple(R1.dual[i] * r2 + R2.dual[j] for i in range(r1) for j in range(r2))
    rank = r1 * r2
    N = [[[0] * rank for _ in range(rank)] for _ in range(rank)]
    for a1 in range(r1):
        for a2 in range(r2):
            i = a1 * r2 + a2
            for b1 in range(r1):
                for b2 in range(r2):
                    j = b1 * r2 + b2
                    for c1 in range(r1):
                        m1 = R1.N[a1][b1][c1]
                        if not m1:
                            continue
                        for c2 in range(r2):
                            m2 = R2.N[a2][b2][c2]
                            if m2:
                                N[i][j][c1 * r2 + c2] = m1 * m2
    unit = R1.unit * r2 + R2.unit
    return FusionRing(labels, unit, dual, _freeze(N))


def _freeze(N):
    return tuple(tuple(tuple(row) for row in plane) for plane in N)


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
    r = R.rank
    for x in range(r):
        # A[z][y] = N[x][y][z]; iterate on A + 1 so periodic tables converge
        A = [[R.N[x][y][z] + (1 if y == z else 0) for y in range(r)] for z in range(r)]
        v = [1.0] * r
        lam = 1.0
        for _ in range(_POWER_CAP):
            w = [sum(A[z][y] * v[y] for y in range(r)) for z in range(r)]
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

    Built once per ring; the rank guard is checked on every call.
    """
    if R.rank > config.rank_guard:
        raise EnumerationLimit(f"rank {R.rank} exceeds rank_guard = {config.rank_guard}")
    if R._lattice is None:
        R._lattice = _subring_lattice(R)
    return SubringLattice(R, tuple(FusionSubring(R, s) for s in R._lattice))


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
                    for k in R.constituents(g, v):
                        u[k] += c * R.N[g][v][k]
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
    inv = [
        x
        for x in range(R.rank)
        if sum(R.N[x][R.dual[x]]) == 1 and R.N[x][R.dual[x]][R.unit] == 1
    ]
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
