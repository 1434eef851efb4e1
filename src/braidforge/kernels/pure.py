"""Pure-Python enumeration kernel.

Hot loops of the whole library live behind this small interface:
index-packed arithmetic of a finite abelian group, subgroup closure, one
lattice search (subgroups, subrings, isotropic subgroups), one automorphism
search (Aut(G), a table's stabilizer, a table-carrying isomorphism) and
value-table transforms.

Elements of a group with invariant factors ``orders = (n1, ..., nr)``
are packed as mixed-radix integers, leftmost coordinate most
significant, so index order equals lexicographic order on coordinate
vectors.  The trivial group (r = 0) has the single index 0.  The
standard generator e_i is the index ``stride_i = n_{i+1} * ... * n_r``,
and since a group element is ``sum a_i * stride_i``, enumerating prefix
coordinates outermost-first lists indices 0..n-1 in order.
"""

from __future__ import annotations

import math
from itertools import chain

from ..errors import EnumerationLimit


def add_table(orders):
    """Flat n*n table: add[a*n + b] = index of a + b.

    Built from the least significant factor outward.  For G = Z/m x H,
    |H| = h, (c, j) has index c*h + j; full_j, row j of H's table offset
    by c*h for c = 0..m-1 and concatenated, is row (0, j), and row (i, j)
    is full_j rotated left by i*h: every entry past the offsets is sliced.
    """
    rows, h = [[0]], 1
    for m in reversed(orders):
        fulls = [[c * h + t for c in range(m) for t in row] for row in rows]
        rows = [f[i * h:] + f[:i * h] for i in range(m) for f in fulls]
        h *= m
    return list(chain.from_iterable(rows))


def neg_table(orders):
    """neg[a] = index of -a, by the recursion of :func:`add_table`:
    -(c, j) = (-c mod m, -j)."""
    neg, h = [0], 1
    for m in reversed(orders):
        neg = [(-c % m) * h + t for c in range(m) for t in neg]
        h *= m
    return neg


def element_orders(orders):
    """Additive order of every index, by the recursion of :func:`add_table`:
    (c, j) has order lcm(m / gcd(c, m), order of j)."""
    out = [1]
    for m in reversed(orders):
        out = [math.lcm(m // math.gcd(c, m), o) for c in range(m) for o in out]
    return out


def _extend(n, add, sub, g):
    """Element set of <sub, g> for a subgroup ``sub`` (iterable of indices):
    the cosets k*g + sub for k = 0, 1, ... up to the first k*g in sub."""
    have = set(sub)
    new = set(have)
    x = g
    while x not in have:
        base = x * n
        new.update(add[base + h] for h in sub)
        x = add[base + g]
    return tuple(sorted(new))


def closure(n, add, gens):
    """Sorted element indices of the subgroup generated by ``gens``."""
    cur = (0,)
    have = {0}
    for g in gens:
        if g not in have:
            cur = _extend(n, add, cur, g)
            have = set(cur)
    return cur


def lattice(bottom, items, grow):
    """Every sorted tuple reached from ``bottom`` by ``grow(s, x)``, called
    once per s found and x in ``items`` outside s, ordered by (size, tuple):
    the subgroups of :func:`all_subgroups`, the subrings of ``fusion`` and
    the isotropic subgroups of ``qform``."""
    found, queue = {bottom}, [bottom]
    while queue:
        cur = queue.pop()
        have = set(cur)
        for x in items:
            if x not in have and (ext := grow(cur, x)) not in found:
                found.add(ext)
                queue.append(ext)
    return sorted(found, key=lambda s: (len(s), s))


def all_subgroups(n, add):
    """Every subgroup, as sorted index tuples, grown by one generator."""
    return lattice((0,), range(1, n), lambda sub, g: _extend(n, add, sub, g))


def _multiples(n, add, m, count):
    """[0, m, 2m, ..., (count-1)m] as indices."""
    out = [0] * count
    for j in range(1, count):
        out[j] = add[out[j - 1] * n + m]
    return out


def combinations(n, add, gens, ords):
    """Indices of sum c_i * gens[i] over the box 0 <= c_i < ords[i], the
    box walked in lexicographic order (first coefficient outermost)."""
    out = [0]
    for g, o in zip(gens, ords):
        mult = _multiples(n, add, g, o)
        out = [add[s * n + m] for s in out for m in mult]
    return out


def _carrying(n, add, ords, gen_strides, gen_ords, table_a, table_b):
    """Yield every automorphism ``perm`` with table_b[perm[g]] == table_a[g].

    ``ords`` is the element-order table (:func:`element_orders`).

    Depth-first search over images of the invariant-factor generators,
    each tried in increasing index order.  An image m of a generator of
    order ``need`` extends the current image span S (a subgroup, equal
    to the set of images so far) iff ord(m) == need and no nonzero
    multiple of m lies in S; that is exactly |<S, m>| == |S| * need, and
    a full assignment passing it is bijective.  The prefix subgroup
    <e_1..e_k> maps onto S, its elements in enumeration order are
    exactly the indices with zero later coordinates, and the tables are
    compared on it before the search goes deeper.  Before that coset is
    built, m must carry e_d's value, and phi(e_i) + m that of e_i + e_d
    for each earlier e_i (at pos_i = prod(gen_ords[i+1:d]) in the prefix):
    entries 1 and pos_i * need + 1 of the coset, which the comparison
    reads too, so these filters drop only what it would.  Candidates stay
    in index order, and so do the permutations found.
    """
    if table_a[0] != table_b[0]:
        return
    r = len(gen_strides)
    if r == 0:
        yield (0,)
        return
    want = []
    prefix = [0]
    for step, om in zip(gen_strides, gen_ords):
        prefix = [e + j * step for e in prefix for j in range(om)]
        want.append([table_a[e] for e in prefix])
    # per depth d: each m of e_d's order and value with its multiples, and
    # (pos_i, value of e_i + e_d) per earlier e_i
    cands = [[(m, _multiples(n, add, m, om)) for m in range(n)
              if ords[m] == om and table_b[m] == table_a[step]]
             for step, om in zip(gen_strides, gen_ords)]
    pairs = [[(p, want[d][p * gen_ords[d] + 1])
              for p in (math.prod(gen_ords[i + 1:d]) for i in range(d))]
             for d in range(r)]
    if len(set(table_b)) == 1:   # a constant table_b (Aut(G) itself) passes them all
        pairs = [()] * r

    def rec(depth, phi):
        if depth == r:
            yield tuple(phi)
            return
        span = set(phi)
        target = want[depth]
        todo = cands[depth]
        for p, v in pairs[depth]:
            g = phi[p] * n
            todo = [c for c in todo if table_b[add[g + c[0]]] == v]
        for m, mult in todo:
            if any(x in span for x in mult[1:]):
                continue
            new_phi = [add[p * n + x] for p in phi for x in mult]
            if [table_b[i] for i in new_phi] == target:
                yield from rec(depth + 1, new_phi)

    yield from rec(0, [0])


def automorphisms(n, add, ords, gen_strides, gen_ords, cap):
    """All automorphisms as index permutations ``perm[g] = phi(g)``.

    Raises EnumerationLimit when more than ``cap`` automorphisms exist.
    """
    perms = []
    zero = [0] * n
    for perm in _carrying(n, add, ords, gen_strides, gen_ords, zero, zero):
        perms.append(perm)
        if len(perms) > cap:
            raise EnumerationLimit(f"automorphism count exceeds cap {cap}")
    return perms


def stabilizer(n, add, ords, gen_strides, gen_ords, table):
    """Automorphisms with table[perm[g]] == table[g] for all g.

    The same list, in the same order, as filtering :func:`automorphisms`
    by the table, without enumerating the automorphisms it rejects.
    """
    return list(_carrying(n, add, ords, gen_strides, gen_ords, table, table))


def apply_perm(perm, table):
    """Transported value table: result[perm[g]] = table[g]."""
    out = [0] * len(table)
    for g, v in enumerate(table):
        out[perm[g]] = v
    return tuple(out)


def find_isomorphism(n, add, ords, gen_strides, gen_ords, table_a, table_b):
    """First index permutation carrying ``table_a`` to ``table_b``
    (``table_b[perm[g]] == table_a[g]``), or None when none exists."""
    return next(_carrying(n, add, ords, gen_strides, gen_ords, table_a, table_b), None)
