"""Exact cyclotomic arithmetic."""

import math
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from braidforge import cyclotomic
from braidforge.cyclotomic import (
    CycloNum, cyclotomic_polynomial, level_root_sum, matrix_rank, root_exp, root_sum,
)
from braidforge.errors import DivisionByZero

ONE = CycloNum.one()
I = CycloNum.from_root(F(1, 4))


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == [-1, 1]
    assert cyclotomic_polynomial(2) == [1, 1]
    assert cyclotomic_polynomial(4) == [1, 0, 1]
    assert cyclotomic_polynomial(8) == [1, 0, 0, 0, 1]
    assert cyclotomic_polynomial(6) == [1, -1, 1]
    assert cyclotomic_polynomial(12) == [1, 0, -1, 0, 1]


def test_cyclotomic_polynomials_multiply_to_x_n_minus_1():
    # prod over d | n of Phi_d = x^n - 1, checked independently of the
    # Moebius product that builds each Phi_d
    for n in list(range(1, 201)) + [2310]:
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                phi = cyclotomic_polynomial(d)
                out = [0] * (len(prod) + len(phi) - 1)
                for i, x in enumerate(prod):
                    if x:
                        for j, y in enumerate(phi):
                            out[i + j] += x * y
                prod = out
        assert prod == [-1] + [0] * (n - 1) + [1], n


def test_phi_105_is_the_first_with_a_coefficient_outside_unit_range():
    wide = [n for n in range(1, 106) if set(cyclotomic_polynomial(n)) - {-1, 0, 1}]
    assert wide == [105]
    assert min(cyclotomic_polynomial(105)) == -2


def test_a_conductor_is_cheap_to_build():
    from braidforge import cyclotomic

    cyclotomic._CTX.pop(15015, None)
    start = time.perf_counter()
    ctx = cyclotomic._ctx(15015)
    elapsed = time.perf_counter() - start
    del cyclotomic._CTX[15015]
    assert ctx.phi == 5760 and len(ctx.tail) <= ctx.phi
    assert elapsed < 2.0


def test_arithmetic_examples():
    assert (ONE + I) * (ONE - I) == CycloNum.from_rational(2)
    assert root_sum((F(j, 5), 1) for j in range(5)).is_zero()
    z16 = CycloNum.from_root(F(1, 16))
    lam = z16 ** 2 + z16 ** (-2)
    # oracle: numerically lam = 2 cos(pi/4) = sqrt(2)
    import math

    assert abs(2 * math.cos(math.pi / 4) - math.sqrt(2)) < 1e-12
    assert lam * lam == CycloNum.from_rational(2)


def test_inverses():
    assert CycloNum.from_rational(2).inverse() == CycloNum.from_rational(F(1, 2))
    z8 = CycloNum.from_root(F(1, 8))
    assert z8.inverse() == z8 ** 7
    # (1+i)^-1 = (1-i)/2, from multiplying by the conjugate (norm 2)
    assert (ONE + I).inverse() == (ONE - I) * F(1, 2)
    with pytest.raises(DivisionByZero):
        CycloNum.zero().inverse()


def test_unit_factors_decompose_the_galois_group():
    from braidforge.cyclotomic import _unit_factors

    for n in [n for n in range(3, 400) if n % 4 != 2] + [840, 1155, 2257]:
        units = {k for k in range(1, n) if math.gcd(k, n) == 1}
        factors = _unit_factors(n)
        prods = [1]
        for g, m in factors:
            assert pow(g, m, n) == 1
            prods = [x * pow(g, j, n) % n for x in prods for j in range(m)]
        # each unit exactly once: the <g> are cyclic of order m, and their
        # product is direct and is all of (Z/n)^*
        assert sorted(prods) == sorted(units), n


def test_inverse_near_the_conductor_guard_is_bounded():
    # the canonical conductor of the default conductor_guard 2310 is 1155
    # (phi = 480); inverting by every Galois conjugate took about a minute
    for n in (840, 1155):
        rng = random.Random(n)
        a = root_sum([(F(1, n), 1)] + [(F(rng.randrange(n), n), F(rng.randint(-3, 3),
                                                                rng.randint(1, 4)))
                                       for _ in range(3)])
        assert a.conductor == n
        start = time.perf_counter()
        inv = a.inverse()
        elapsed = time.perf_counter() - start
        assert a * inv == ONE
        assert elapsed < 15.0, (n, elapsed)


def test_conjugation():
    assert (ONE + I).conjugate() == ONE - I
    z5 = CycloNum.from_root(F(1, 5))
    assert z5.conjugate() == CycloNum.from_root(F(4, 5))
    a = root_sum([(F(1, 3), 2), (F(1, 8), F(1, 2))])
    assert a.conjugate().conjugate() == a
    assert CycloNum.from_rational(F(7, 3)).conjugate() == CycloNum.from_rational(F(7, 3))


def test_rationality_and_roots():
    assert CycloNum.from_rational(F(3, 2)).as_rational() == F(3, 2)
    z8 = CycloNum.from_root(F(1, 8))
    assert z8.as_rational() is None
    assert z8.is_root_of_unity() == F(1, 8)
    v = ONE + I
    assert v.as_rational() is None and v.is_root_of_unity() is None
    # |1+i|^2 = 2 != 1, the float oracle for non-root-ness
    assert abs(abs(complex(1, 1)) ** 2 - 2) < 1e-12
    assert CycloNum.from_rational(-1).is_root_of_unity() == F(1, 2)
    assert ONE.is_root_of_unity() == F(0, 1)


def _root_table(n):
    """Every root of unity in Q(zeta_n), normalised through ``from_root``,
    to its exponent: the table ``is_root_of_unity`` once built per
    conductor, kept here as the oracle of ``_monomial``."""
    m = n if n % 2 == 0 else 2 * n
    return {CycloNum.from_root(F(j, m)): root_exp(j, m) for j in range(m)}


def test_roots_of_unity_match_the_root_table():
    # each root, its rational multiples 2x and x/2, and the root with one
    # coefficient moved by +-1, at every canonical conductor up to 200
    for n in range(1, 201):
        if n % 4 == 2:
            continue
        table = _root_table(n)
        for j, (x, r) in enumerate(table.items()):
            assert x.is_root_of_unity() == r, (n, r)
            assert cyclotomic._mk_reduced(x.n, [2 * a for a in x.num], 1).is_root_of_unity() is None
            assert cyclotomic._monomial(cyclotomic._mk_reduced(x.n, x.num, 2)) == (F(1, 2), r)
            v = list(x.num)
            v[j % len(v)] += 1 if j % 2 else -1
            y = CycloNum(x.n, v, 1)
            assert y.is_root_of_unity() == table.get(y), (n, r, v)


def test_roots_of_unity_near_the_conductor_guard():
    # 2309 is prime (phi = 2308) and 2257 = 37 * 61 (phi = 2160): both take
    # a second shift, which holds +-zeta_n^k for k >= phi; the first two
    # exponents are zeta_n^(n-1) and -zeta_n^(n-1), in that last block
    for n in (2309, 2257):
        rng = random.Random(n)
        last = F(n - 1, n)
        for r in [last, root_exp(last + F(1, 2))] + [root_exp(rng.randrange(2 * n), 2 * n)
                                                     for _ in range(12)]:
            x = CycloNum.from_root(r)
            assert x.is_root_of_unity() == r, (n, r)
            v = list(x.num)
            v[rng.randrange(len(v))] += rng.choice((1, -1))
            y = CycloNum(x.n, v, 1)
            s = y.is_root_of_unity()
            assert s is None or CycloNum.from_root(s) == y, (n, r)


def test_monomial_reads_rational_multiples_of_roots():
    rng = random.Random(7)
    for n in (1, 3, 4, 8, 15, 16, 60, 105, 840, 2257):
        for _ in range(6):
            r = root_exp(rng.randrange(2 * n), 2 * n)
            q = F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
            x = q * CycloNum.from_root(r)
            c, s = cyclotomic._monomial(x)
            assert c > 0 and c * CycloNum.from_root(s) == x, (n, r, q)
            assert (c, s) == (abs(q), root_exp(r + (0 if q > 0 else F(1, 2)))), (n, r, q)
    assert cyclotomic._monomial(CycloNum.zero()) is None
    assert cyclotomic._monomial(ONE + I) is None


def test_conductor_minimization():
    assert CycloNum.from_root(F(1, 2)).conductor == 1
    assert CycloNum.from_root(F(1, 2)) == CycloNum.from_rational(-1)
    assert CycloNum.from_root(F(2, 8)).conductor == 4
    assert (CycloNum.from_root(F(1, 8)) * CycloNum.from_root(F(1, 8))).conductor == 4
    # sums collapsing to rationals land at conductor 1
    z3 = CycloNum.from_root(F(1, 3))
    assert (z3 + z3.conjugate()).as_rational() == F(-1)


def test_embed_multiplicative():
    for a in (F(1, 3), F(5, 8), F(7, 12)):
        for b in (F(1, 4), F(2, 5)):
            assert CycloNum.from_root(a) * CycloNum.from_root(b) == CycloNum.from_root(a + b)


def test_galois_conjugates_detect_rationals():
    a = root_sum([(F(1, 7), 1), (F(2, 7), 1), (F(4, 7), 1)])  # quadratic Gauss period
    assert a.as_rational() is None
    assert not all(g == a for g in a.galois_conjugates())
    b = a + a.conjugate()  # trace-like, now rational
    assert b.as_rational() == F(-1)


def test_matrix_rank():
    two = CycloNum.from_rational(2)
    assert matrix_rank([[ONE, I], [I, ONE]]) == 2
    assert matrix_rank([[ONE, I], [I, -ONE]]) == 1
    assert matrix_rank([[two]]) == 1
    assert matrix_rank([[CycloNum.zero()]]) == 0
    # all-ones matrix has rank 1
    assert matrix_rank([[ONE] * 3] * 3) == 1


def test_from_coeffs_roundtrip():
    a = root_sum([(F(1, 16), 3), (F(1, 3), F(2, 5))])
    b = CycloNum.from_coeffs(a.conductor, a.coeffs)
    assert a == b and hash(a) == hash(b)


def test_from_coeffs_checks_the_count_before_building_the_conductor():
    from braidforge import cyclotomic
    from braidforge import io as bio
    from braidforge.errors import BadParameter, SchemaError

    with pytest.raises(BadParameter, match="needs 1008 coefficients, got 1"):
        CycloNum.from_coeffs(1009, [1])
    with pytest.raises(SchemaError, match="needs 1008 coefficients, got 1"):
        bio.cyclo_from_json({"conductor": 1009, "coeffs": ["1"]})
    assert 1009 not in cyclotomic._CTX


def test_known_conductors():
    # square roots and Gauss-period values land at their textbook conductors
    from braidforge.qform import odd_rank1
    from braidforge.witt import tau_plus

    assert tau_plus(odd_rank1(5)).conductor == 5        # sqrt(5)
    assert tau_plus(odd_rank1(3)).conductor == 3        # i sqrt(3)
    sqrt2 = CycloNum.from_root(F(1, 8)) + CycloNum.from_root(F(-1, 8))
    assert sqrt2.conductor == 8
    assert (sqrt2 * sqrt2).conductor == 1
    sqrt5 = tau_plus(odd_rank1(5))
    sqrt10 = sqrt2 * sqrt5
    assert sqrt10.conductor == 40
    assert (ONE + I).conductor == 4
    cos7 = CycloNum.from_root(F(1, 7)) + CycloNum.from_root(F(6, 7))
    assert cos7.conductor == 7
    # never congruent to 2 mod 4
    import random

    rng = random.Random(14)
    for _ in range(50):
        x = root_sum(
            (F(rng.randrange(60), 60), rng.randrange(-3, 4)) for _ in range(3)
        )
        assert x.conductor % 4 != 2


# -- brute-force oracles for descent and rank ---------------------------------

def _reduce(poly, n):
    """Coefficients of sum poly[i] x^i mod Phi_n (monic), as phi(n) Fractions."""
    phi_n = cyclotomic_polynomial(n)
    deg = len(phi_n) - 1
    out = [F(c) for c in poly] + [F(0)] * max(0, deg - len(poly))
    for top in range(len(out) - 1, deg - 1, -1):
        c = out[top]
        if c:
            for j, a in enumerate(phi_n):
                out[top - deg + j] -= c * a
    return out[:deg]


def _embed(coeffs, m, n):
    """The element sum c_j zeta_m^j of Q(zeta_m), written at conductor n."""
    step = n // m
    poly = [F(0)] * ((len(coeffs) - 1) * step + 1)
    for j, c in enumerate(coeffs):
        poly[j * step] = F(c)
    return _reduce(poly, n)


def _galois(coeffs, k, n):
    poly = [F(0)] * n
    for j, c in enumerate(coeffs):
        poly[(j * k) % n] += c
    return _reduce(poly, n)


def _oracle_conductor(coeffs, n):
    """Least d | n, d != 2 mod 4, whose Galois group over Q(zeta_d) fixes the element."""
    units = [k for k in range(1, n + 1) if math.gcd(k, n) == 1]
    for d in range(1, n + 1):
        if n % d or d % 4 == 2:
            continue
        if all(_galois(coeffs, k, n) == list(coeffs) for k in units if k % d == 1 % d):
            return d
    raise AssertionError("no conductor")


@pytest.mark.parametrize("n", [8, 12, 15, 16, 20, 24, 36, 40, 48, 60])
def test_descent_matches_galois_oracle(n):
    rng = random.Random(n)
    generic = 0
    cases = 0
    for m in (d for d in range(1, n + 1) if n % d == 0 and d % 4 != 2):
        phi_m = len(cyclotomic_polynomial(m)) - 1
        for _ in range(3):
            coeffs = [F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randrange(1, 4)) for _ in range(phi_m)]
            at_n = _embed(coeffs, m, n)
            x = CycloNum.from_coeffs(n, at_n)
            d = _oracle_conductor(at_n, n)
            assert x.conductor == d
            assert _embed(x.coeffs, d, n) == at_n
            if d == m:
                assert list(x.coeffs) == coeffs
                generic += 1
            cases += 1
    # nearly every element drawn from Q(zeta_m) has conductor exactly m,
    # so the test mostly checks a round trip of the original coefficients
    assert generic >= 0.9 * cases


@pytest.mark.parametrize("n", [15, 24, 40, 48, 60])
def test_generic_elements_stay_at_their_conductor(n):
    rng = random.Random(100 + n)
    phi_n = len(cyclotomic_polynomial(n)) - 1
    for _ in range(5):
        coeffs = [F(rng.randrange(-5, 6), rng.randrange(1, 3)) for _ in range(phi_n)]
        coeffs[1] = F(1)
        assert _oracle_conductor(coeffs, n) == n
        x = CycloNum.from_coeffs(n, coeffs)
        assert x.conductor == n and list(x.coeffs) == coeffs


def _reference_rank(rows):
    """Gaussian elimination over the field, with CycloNum.inverse."""
    M = [list(r) for r in rows]
    rank = 0
    for col in range(len(M[0]) if M else 0):
        piv = next((r for r in range(rank, len(M)) if not M[r][col].is_zero()), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        inv = M[rank][col].inverse()
        M[rank] = [x * inv for x in M[rank]]
        for r in range(len(M)):
            if r != rank and not M[r][col].is_zero():
                f = M[r][col]
                M[r] = [x - f * y for x, y in zip(M[r], M[rank])]
        rank += 1
    return rank


_mixed_exps = st.sampled_from([1, 3, 4, 5, 8, 12]).flatmap(
    lambda b: st.builds(F, st.integers(0, b - 1), st.just(b))
)
_entries = st.lists(
    st.tuples(_mixed_exps, st.fractions(min_value=-3, max_value=3, max_denominator=4)),
    min_size=0,
    max_size=2,
).map(root_sum)


@st.composite
def _known_rank_products(draw):
    r, k, c = draw(st.integers(1, 4)), draw(st.integers(0, 3)), draw(st.integers(1, 4))
    A = [[draw(_entries) for _ in range(k)] for _ in range(r)]
    B = [[draw(_entries) for _ in range(c)] for _ in range(k)]
    P = [[sum((A[i][t] * B[t][j] for t in range(k)), CycloNum.zero()) for j in range(c)]
         for i in range(r)]
    return k, P


@settings(max_examples=60, deadline=None)
@given(_known_rank_products())
def test_matrix_rank_matches_reference_elimination(case):
    k, P = case
    rank = matrix_rank(P)
    assert rank == _reference_rank(P)
    assert rank <= k


def _fixing_generator(n, m):
    """A generator of H = {k in (Z/n)^* : k = 1 mod m}, the Galois group of
    Q(zeta_n) over Q(zeta_m); H is cyclic for m = canonical(n/p)."""
    H = [k for k in range(1, n, m) if math.gcd(k, n) == 1]
    for g in H:
        k, order = g, 1
        while k != 1:
            k, order = k * g % n, order + 1
        if order == len(H):
            return g


def test_try_subfield_matches_the_galois_fixed_field():
    # a vector at n lies in Q(zeta_m) exactly when sigma_g fixes it, for a
    # generator g of Gal(Q(zeta_n)/Q(zeta_m)); the coordinates of a member
    # lifted from known coordinates y are y
    from braidforge.abelian import primes_of
    from braidforge.cyclotomic import (
        _canonical_conductor, _ctx, _euler_phi, _substitute, _try_subfield,
    )

    rng = random.Random(22)
    branches = set()
    for n in [n for n in range(3, 200) if n % 4 != 2] + [840, 1155, 2309]:
        ctx, phi = _ctx(n), _euler_phi(n)
        for p in primes_of(n):
            m = _canonical_conductor(n // p)
            q = n // m
            branches.add("q=4" if q == 4 else "shared" if m % q == 0 else "coprime")
            g = _fixing_generator(n, m)
            y = [rng.randint(-3, 3) for _ in range(_euler_phi(m))]
            member = _substitute(ctx, y, q)
            assert _try_subfield(n, list(member), m) == y, (n, m)
            assert _substitute(ctx, member, g) == member, (n, m)
            perturbed = list(member)
            perturbed[rng.randrange(phi)] += rng.choice((-1, 1, phi))
            for v in (perturbed, [rng.randint(-2, 2) for _ in range(phi)]):
                got = _try_subfield(n, list(v), m)
                fixed = _substitute(ctx, v, g) == v
                assert (got is not None) == fixed, (n, m, v)
                if got is not None:
                    assert _substitute(ctx, got, q) == v, (n, m)
    assert branches == {"shared", "coprime", "q=4"}


def _convolution(ctx, a, b):
    """a * b by full convolution and reduction mod Phi_n, whatever the
    operands."""
    conv = [0] * (2 * ctx.phi - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    return cyclotomic._reduce(ctx, conv)


def _convolved(a, c):
    """a * c by the general product: lift to the joined conductor,
    convolve, reduce and normalise."""
    L = cyclotomic._join(a.n, c.n)
    ctx = cyclotomic._ctx(L)
    return CycloNum(L, _convolution(ctx, a._lift(L), c._lift(L)), a.den * c.den)


def test_mul_vec_matches_the_convolution():
    # a rational operand (zero past index 0) takes the scalar path, on
    # either side; the result is a new list in every case
    rng = random.Random(27)
    for n in [m for m in range(1, 61) if m % 4 != 2] + [840]:
        ctx = cyclotomic._ctx(n)
        phi = ctx.phi
        monomial = [0] * phi
        monomial[rng.randrange(1, phi) if phi > 1 else 0] = rng.choice((-2, -1, 1, 3))
        dense = [rng.randint(-4, 4) for _ in range(phi)]
        dense[-1] = 5
        operands = {
            "zero": [0] * phi,
            "rational": [rng.choice((-7, -1, 1, 6))] + [0] * (phi - 1),
            "monomial": monomial,
            "dense": dense,
        }
        for ka, a in operands.items():
            for kb, b in operands.items():
                want = _convolution(ctx, a, b)
                for x, y in ((a, b), (tuple(a), tuple(b))):
                    got = cyclotomic._mul_vec(ctx, x, y)
                    assert got == want, (n, ka, kb)
                    assert type(got) is list and got is not x and got is not y


def test_rational_products_match_the_convolution():
    rng = random.Random(11)
    rationals = [0, 1, -1, 6, -4, F(0), F(-7, 12), F(9, 4), F(2, 3)]
    for n in [m for m in range(1, 61) if m % 4 != 2] + [840]:
        a = root_sum([(F(1, n), 1)] + [
            (F(rng.randrange(n), n), F(rng.randint(-3, 3), rng.randint(1, 4)))
            for _ in range(3)])
        for x in (a, -a, CycloNum.from_rational(F(-5, 6)), CycloNum.zero()):
            for q in rationals:
                c = CycloNum.from_rational(q)
                want = _convolved(x, c)
                for got in (x * q, q * x, x * c, c * x):
                    assert (got.n, got.num, got.den) == (want.n, want.num, want.den), (n, q)


def test_level_root_sum_matches_root_sum():
    rng = random.Random(5)
    for L in (1, 2, 3, 4, 6, 8, 10, 12, 16, 30, 36, 72, 120):
        assert level_root_sum(L, []) == root_sum([]) == CycloNum.zero()
        exps = [rng.randrange(-2 * L, 3 * L) for _ in range(12)]
        exps += exps[:5] + [0, 0, L, -L, 2 * L + 1, 1]   # repeated and unreduced
        assert level_root_sum(L, exps) == root_sum([(F(a, L), 1) for a in exps]), L
