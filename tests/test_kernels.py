"""The kernel's group tables against coordinate arithmetic, and its pruned
searches against brute-force filters of Aut(G)."""

import itertools
import math
import random

import pytest

from braidforge.abelian import FinAbGroup
from braidforge.errors import EnumerationLimit
from braidforge.kernels import pure
from braidforge.qform import random_form
from test_abelian import invariant_shapes

SHAPES = [s for s in invariant_shapes(36) if s != (2,) * 5]


def carries(perm, table_a, table_b):
    return all(table_b[perm[g]] == table_a[g] for g in range(len(perm)))


def tables_on(G, rng):
    """Seeded random tables, a constant table and two real form tables."""
    n = G.order
    out = [[rng.randrange(k) for _ in range(n)] for k in (2, 3)]
    out.append([5] * n)
    for _ in range(2):
        out.append(list(random_form(G, rng).res))
    return out


def brute_automorphisms(G):
    """Aut(G) without the kernel's search: every tuple of generator images,
    in lexicographic index order, whose homomorphism is a bijection."""
    n, add, ords = G.order, G.add_flat(), G.order_flat()
    out = []
    for images in itertools.product(range(n), repeat=G.rank):
        if all(m % ords[g] == 0 for g, m in zip(images, G.orders)):
            table = pure.combinations(n, add, images, G.orders)
            if len(set(table)) == n:
                out.append(tuple(table))
    return out


@pytest.mark.parametrize("orders", SHAPES, ids=str)
def test_pruned_searches_match_filtered_automorphisms(orders):
    rng = random.Random(repr(orders))
    G = FinAbGroup(orders)
    n, add, ords = G.order, G.add_flat(), G.order_flat()
    strides, gords = G.gen_strides(), list(orders)
    auts = pure.automorphisms(n, add, ords, strides, gords, 10 ** 6)
    if n <= 16:   # by brute force, so the filtered lists below do not rest on the search
        assert auts == brute_automorphisms(G)
    # depth-first order: by the images of e_1, e_2, ... in turn
    assert auts == sorted(auts, key=lambda p: [p[s] for s in strides])
    for table in tables_on(G, rng):
        want = [p for p in auts if carries(p, table, table)]
        assert pure.stabilizer(n, add, ords, strides, gords, table) == want
        moved = list(pure.apply_perm(rng.choice(auts), table))
        other = [rng.choice(table) for _ in range(n)]
        for target in (moved, other):
            first = next((p for p in auts if carries(p, table, target)), None)
            assert pure.find_isomorphism(n, add, ords, strides, gords, table, target) == first


def test_trivial_group():
    assert pure.automorphisms(1, [0], [1], [], [], 1) == [(0,)]
    assert pure.stabilizer(1, [0], [1], [], [], [3]) == [(0,)]
    assert pure.find_isomorphism(1, [0], [1], [], [], [3], [3]) == (0,)
    assert pure.find_isomorphism(1, [0], [1], [], [], [3], [4]) is None


def test_cap_raises():
    add = pure.add_table((2, 2, 2))
    ords = pure.element_orders((2, 2, 2))
    with pytest.raises(EnumerationLimit):
        pure.automorphisms(8, add, ords, [4, 2, 1], [2, 2, 2], 10)
    assert len(pure.automorphisms(8, add, ords, [4, 2, 1], [2, 2, 2], 168)) == 168


def test_permutations_are_automorphisms():
    orders = (2, 4)
    add = pure.add_table(orders)
    n = 8
    perms = pure.automorphisms(n, add, pure.element_orders(orders), [4, 1], [2, 4], 10 ** 6)
    assert len(perms) == 8
    for p in perms:
        assert sorted(p) == list(range(n))
        for a in range(n):
            for b in range(n):
                assert p[add[a * n + b]] == add[p[a] * n + p[b]]


def coordinate_tables(orders):
    """Oracle: the add, neg and element-order tables by arithmetic on
    coordinate tuples, each indexed by its place in lexicographic order."""
    coords = list(itertools.product(*map(range, orders)))
    index = {c: i for i, c in enumerate(coords)}
    add = [index[tuple((x + y) % m for x, y, m in zip(a, b, orders))]
           for a in coords for b in coords]
    neg = [index[tuple(-x % m for x, m in zip(a, orders))] for a in coords]
    ords = [math.lcm(*(m // math.gcd(x, m) for x, m in zip(a, orders))) for a in coords]
    return add, neg, ords


def test_tables_match_coordinate_arithmetic():
    # every invariant shape of order <= 64, the trivial group, the two
    # largest tables the benchmarks build, and a presentation that is not
    # in invariant form
    for orders in [()] + invariant_shapes(64) + [(256,), (2,) * 8, (4, 2), (3, 2, 4)]:
        add, neg, ords = coordinate_tables(orders)
        assert pure.add_table(orders) == add, orders
        assert pure.neg_table(orders) == neg, orders
        assert pure.element_orders(orders) == ords, orders
