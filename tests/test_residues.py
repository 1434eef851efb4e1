"""``build`` at its base against the vector build it replaced.

``premodular.build`` makes S, theta^+-1 d and theta^+-1 d^2 as balanced
residues mod Phi_L(B) at the base B of the ring's dimension kit, and never
as vectors at L.  The reference below is the build that made them as
coefficient vectors at L (``_times_root``, list equality, and the product
relation as ``_mul_vec`` products), with the same checks in the same order
and the same messages.  On every datum both must accept or refuse alike;
on an accepted one the datum's vectors (a view, unpacked from the
residues) must be the reference's, each residue the evaluation at B of
its vector (``_Kron.pack``), the F_p images of S taken by linearity the
direct map of its vectors, and every vector within the kit's a-priori
bound A.
"""

import json
import math
import random
from fractions import Fraction as F
from functools import reduce
from pathlib import Path

import pytest

from braidforge import io as bio
from braidforge import qform
from braidforge.abelian import FinAbGroup
from braidforge.cyclotomic import (
    CycloNum,
    _canonical_conductor,
    _ctx,
    _modular,
    _mul_vec,
    _root_power,
    _times_root,
    root_exp,
)
from braidforge.errors import (
    BraidforgeError,
    DatumError,
    DualDimFail,
    SymmetryFail,
    UnitTwistFail,
    VerlindeFail,
    ZeroDim,
)
from braidforge.fusion import FusionRing, algebra_generators
from braidforge.premodular import (
    ONE,
    PreModularDatum,
    _Kron,
    _s_entry,
    build,
    deligne_product,
    ising_datum,
    pointed_datum,
)

from test_abelian import invariant_shapes
from test_kits import _heisenberg_datum, _parsed, _unpacked
from test_su2 import su2


def _vector_build(ring, theta, dim):
    """The vector build: (L, D, S, dv, qd, qi, dd, td) at the joined
    conductor L over the dimensions' denominator D, or the error."""
    r = ring.rank
    theta = tuple(root_exp(t) for t in theta)
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
    n = reduce(math.lcm, (d.n for d in dim), 1)
    L = reduce(math.lcm, (_canonical_conductor(t.denominator) for t in theta), n)
    D = reduce(math.lcm, (d.den for d in dim), 1)
    ctx = _ctx(L)
    dv = [[c * (D // d.den) for c in d._lift(L)] for d in dim]
    roots = [_root_power(t.numerator, t.denominator, L) for t in theta]
    qd = [_times_root(ctx, s, t, v) for (s, t), v in zip(roots, dv)]
    N = ring.N

    def entry(x, y):
        acc = [0] * ctx.phi
        for z in ring.constituents(x, y):
            acc = [a + N[x][y][z] * b for a, b in zip(acc, qd[z])]
        return _times_root(ctx, roots[x][0] + roots[y][0], -roots[x][1] - roots[y][1], acc)

    S = [[None] * r for _ in range(r)]
    for x in range(r):
        for y in range(x, r):
            S[x][y] = S[y][x] = entry(x, y)
            if N[x][y] != N[y][x] and entry(y, x) != S[x][y]:
                raise SymmetryFail(f"S not symmetric at ({x}, {y})")
    for x in range(r):
        for y in range(r):
            if S[ring.dual[x]][ring.dual[y]] != S[x][y]:
                raise SymmetryFail(f"S not dual-invariant at ({x}, {y})")
        if S[ring.unit][x] != dv[x]:
            raise SymmetryFail(f"S[unit][{x}] != d({ring.labels[x]})")

    def fault(x, ys):
        for y in ys:
            for z in range(r):
                rhs = [0] * ctx.phi
                for w in ring.constituents(y, z):
                    rhs = [a + N[y][z][w] * b for a, b in zip(rhs, S[x][w])]
                if _mul_vec(ctx, S[x][y], S[x][z]) != _mul_vec(ctx, dv[x], rhs):
                    return y, z
        return None

    gens = algebra_generators(ring)
    for x in range(r):
        if fault(x, gens) is not None:
            y, z = fault(x, range(r))
            raise VerlindeFail(f"product relation fails at (X, Y, Z) = "
                               f"({ring.labels[x]}, {ring.labels[y]}, {ring.labels[z]})")
    dd = [_mul_vec(ctx, v, v) for v in dv]
    qi = [_times_root(ctx, s, -t, v) for (s, t), v in zip(roots, dv)]
    td = {sign: [_times_root(ctx, s, sign * t, v) for (s, t), v in zip(roots, dd)]
          for sign in (1, -1)}
    return L, D, S, dv, qd, qi, dd, td


def _outcome(fn, *args):
    try:
        return fn(*args)
    except BraidforgeError as exc:
        return type(exc), str(exc)


def _pointed(rng, orders, chi):
    M = qform.random_form(FinAbGroup(orders), rng)
    G = M.group
    sign = tuple((-1) ** e[-1] for e in G.elements()) if chi else None
    return pointed_datum(M, sign)


def _oracle_data():
    """Every accepted corpus datum, the 16 Ising data and their 64
    products of 8, SU(2)_k for k <= 11 with their even parts, seeded
    pointed data with and without a sign character (odd and even L), a
    pointed datum at L = 105, the first conductor where a power of zeta_L
    reduces to a coefficient of 2, and the Heisenberg datum."""
    golden = Path(__file__).parent / "golden" / "inputs"
    out = [bio.datum_from_json(json.loads(p.read_text()))
           for p in sorted(golden.glob("datum_*.json"))]
    ising = [ising_datum(F(k, 16), e) for k in range(1, 16, 2) for e in (1, -1)]
    out += ising
    out += [_parsed(deligne_product(A, B)) for A in ising[::2] for B in ising[::2]]
    for k in range(1, 12):
        out += [su2(k), su2(k, range(0, k + 1, 2))]
    rng = random.Random(38)
    for orders in invariant_shapes(12):
        for chi in (False, True) if orders[-1] % 2 == 0 else (False,):
            out += [_pointed(rng, orders, chi) for _ in range(2)]
    for orders in ((3,), (5,), (6,), (10,), (2, 6), (3, 3)):
        out += [_pointed(rng, orders, chi) for chi in (False, True) if chi <= (orders[-1] % 2 == 0)]
    out.append(pointed_datum(qform.PreMetricGroup(FinAbGroup((105,)),
                                                  [F(2 * x * x, 105) for x in range(105)])))
    out.append(_heisenberg_datum())
    return out


def _tampered_copies(D, rng):
    """(ring, theta, dim) copies of D: one twist moved, one N entry
    flipped, a dual dimension conjugated wrongly, and a zero dimension."""
    R, r = D.ring, D.rank
    if not 1 < r <= 64:
        return []
    i = rng.randrange(1, r)
    theta = list(D.theta)
    theta[i] = F(rng.randrange(48), 48)
    x, y, z = (rng.randrange(r) for _ in range(3))
    N = [[list(row) for row in plane] for plane in R.N]
    N[x][y][z] = 1 - N[x][y][z] if N[x][y][z] <= 1 else N[x][y][z] - 1
    flipped = FusionRing(R.labels, R.unit, R.dual, tuple(tuple(map(tuple, p)) for p in N))
    out = [(R, tuple(theta), D.dim), (flipped, D.theta, D.dim)]
    dim = list(D.dim)
    dim[i] = dim[i] * CycloNum.from_root(F(1, 4))
    out.append((R, D.theta, tuple(dim)))
    dim = list(D.dim)
    dim[i] = CycloNum.zero()
    out.append((R, D.theta, tuple(dim)))
    return out


def _check_residues(D, want):
    L, den, S, dv, qd, qi, dd, td = want
    V, kr, r = _unpacked(D), D._kron, D.rank
    assert (D._ctx.n, kr.D) == (L, den)
    assert (V.S, V.dv, V.qd, V.qi, V.dd, V.td) == (S, dv, qd, qi, dd, td)
    # each residue is the evaluation at B of its vector
    assert [[kr.pack(v) for v in row] for row in S] == D._pS
    assert [kr.pack(v) for v in dv] == kr.pdv and [kr.pack(v) for v in dd] == kr.pdd
    assert [kr.pack(v) for v in qd] == D._pqd and [kr.pack(v) for v in qi] == D._pqi
    assert {s: [kr.pack(v) for v in td[s]] for s in (1, -1)} == D._ptd
    lift = dict(zip(kr.cls, dv))   # d of each distinct dimension
    for (a, b), (dd_ab, neg) in kr.pairs.items():
        assert dd_ab == kr.pack(_mul_vec(D._ctx, lift[a], lift[b])) == -neg
    # every vector the checks read is within the kit's a-priori bound
    vecs = [v for row in S for v in row] + dv + qd + qi + dd + td[1] + td[-1]
    assert max(max(map(abs, v)) for v in vecs) <= kr.A
    # F_p images of S by linearity are the direct map of its vectors
    p, w = _modular(D._ctx)
    assert kr.p == p
    for x in range(r):
        for y in range(r):
            image = _s_entry(D.ring.rows, D._roots, kr.cls, L, kr.fp, x, y) % p
            assert image == sum(a * b for a, b in zip(S[x][y], w)) % p, (x, y)


def test_build_at_the_base_matches_the_vector_build():
    rng = random.Random(38)
    data = _oracle_data()
    signed_odd, refused, accepted = 0, set(), 0
    for D in data:
        want = _vector_build(D.ring, D.theta, D.dim)
        _check_residues(D, want)
        fresh = FusionRing(D.ring.labels, D.ring.unit, D.ring.dual, D.ring.N)
        _check_residues(build(fresh, D.theta, D.dim), want)   # a first build, on no kit
        signed_odd += want[0] % 2 == 1 and any(s % 2 for s, _ in D._roots)
        for ring, theta, dim in _tampered_copies(D, rng):
            got, ref = _outcome(build, ring, theta, dim), _outcome(_vector_build, ring, theta, dim)
            if isinstance(ref, tuple) and isinstance(ref[0], type):
                assert got == ref, (ring, theta, dim)
                refused.add(ref[0])
            else:
                assert isinstance(got, PreModularDatum), (got, ring, theta, dim)
                _check_residues(got, ref)
                accepted += 1
    assert signed_odd >= 5 and accepted >= 10, (signed_odd, accepted)
    assert {VerlindeFail, SymmetryFail, DualDimFail, ZeroDim} <= refused
    assert max(D._ctx.n for D in data) == 105


@pytest.mark.parametrize("n", [16, 105, 2257])   # phi = 8, 48 and 2160
def test_pack_and_unpack_round_trip(n):
    ctx = _ctx(n)
    rng = random.Random(n)
    kr = _Kron(ctx, 2 ** 20)
    half = 1 << kr.k - 1
    assert 1 << kr.k > 2 ** 21
    vecs = [[0] * ctx.phi, [-1] * ctx.phi, [half - 1] + [1 - half] * (ctx.phi - 1)]
    vecs += [[rng.choice((0, 0, -1, 1, rng.randint(1 - half, half - 1))) for _ in range(ctx.phi)]
             for _ in range(4)]
    for v in vecs:
        x = kr.pack(v)
        assert x == sum(c << kr.k * i for i, c in enumerate(v))
        assert kr.unpack(x) == v
