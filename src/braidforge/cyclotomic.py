"""Exact arithmetic in cyclotomic fields Q(zeta_n).

A value is stored in the power basis 1, z, ..., z^(phi(n)-1) of
Q[x]/Phi_n(x) as an integer coefficient vector over a single positive
denominator, always at the minimal conductor (never = 2 mod 4), so
equality is plain field-by-field comparison.  Roots of unity enter and
leave as reduced fractions r in [0,1) denoting e^(2*pi*i*r).

The integer-vector layout keeps the hot paths (products of root sums,
Gauss sums, S-matrix entries) in machine-integer convolutions; a single
gcd pass restores canonical form afterwards.  Every reduction mod Phi_n
(products, root shifts, substitutions, sums of roots) is one routine,
``_reduce``, which rewrites the top degree down by the sparse tail of
Phi_n; a conductor keeps only that tail, so its context costs O(n)
to build and to hold.  Descent to a subfield Q(zeta_m), m = n/p up to a
factor 2, needs no matrix: when p | m a member is a slice of the
coefficients, and otherwise the relative trace sends each power of
zeta_n to a power of zeta_m times a Ramanujan sum, so it is a strided
sum over the coefficients.  Dividing by the degree and lifting back is
then the exact membership test (cf. T. Breuer, Integral bases for
subfields of cyclotomic fields, AAECC 8 (1997)).  An inverse is the
product of the other Galois conjugates over the norm, taken down a
cyclic decomposition of (Z/n)^* by doubling, so it costs O(log n)
products per cyclic factor.

``matrix_rank`` eliminates fraction-free: every entry is lifted to the
joined conductor, rows are scaled to integer coefficient vectors and
combined as piv*r - f*p with a gcd division per row, so it needs no
field inverse and no canonical form until it returns an integer.  The
elimination, ``_rank_vec``, takes such vectors directly, so a caller
that already holds its matrix at one conductor makes no CycloNum.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from fractions import Fraction
from functools import reduce

from .abelian import primes_of
from .errors import BadParameter, DivisionByZero

RootExp = Fraction  # reduced fraction in [0,1), meaning e^(2*pi*i*r)


def root_exp(num, den=None) -> RootExp:
    """Normalize to the canonical representative in [0,1)."""
    r = Fraction(num, den) if den is not None else Fraction(num)
    return r - (r // 1)


# -- per-conductor context ---------------------------------------------------

_CTX: dict = {}


def cyclotomic_polynomial(n: int, cofactor: bool = False) -> list:
    """Integer coefficients of Phi_n, low degree first, or with
    ``cofactor`` those of Psi_n = (x^n - 1) / Phi_n.

    Phi_n = prod over squarefree e | n of (x^(n/e) - 1)^mu(e) (Lang,
    Algebra, VI 3), so Psi_n is the product over e > 1 with exponents
    -mu(e).  The factors of exponent +1 are multiplied in first, so each
    division by x^d - 1 that follows is exact: Phi_d, d | n, divides the
    numerator once more than the whole denominator when d < n for Psi_n.
    """
    ps = primes_of(n)
    steps = []
    for mask in range(cofactor, 1 << len(ps)):
        e = math.prod(p for i, p in enumerate(ps) if mask >> i & 1)
        steps.append((mask.bit_count() % 2 ^ cofactor, n // e))  # (divide, n/e)
    poly = [1]
    for divide, d in sorted(steps):
        if divide:  # q with q * (x^d - 1) = poly, from the top: q_j = poly_(j+d) + q_(j+d)
            poly = poly[d:]
            for j in range(len(poly) - d - 1, -1, -1):
                poly[j] += poly[j + d]
        else:  # poly * (x^d - 1)
            poly = [a - b for a, b in zip([0] * d + poly, poly + [0] * d)]
    return poly


class _Ctx:
    """Reduction data for one conductor, in fixed slots: no other memo.

    ``tail`` is the sparse form of x^phi mod Phi_n, [(j, -c_j)] over the
    nonzero coefficients c_j of the monic Phi_n below its top degree;
    ``_reduce`` is the one reduction mod Phi_n, and uses only it.  Two
    constants are built lazily, each on first use: ``modular``
    (``_modular``) and ``fold`` (``_fold_bound``).
    """

    __slots__ = ("n", "phi", "tail", "modular", "fold")

    def __init__(self, n: int):
        self.n = n
        self.phi = _euler_phi(n)
        self.tail = [(j, -c) for j, c in enumerate(cyclotomic_polynomial(n)[:-1]) if c]
        self.modular = self.fold = None


def _euler_phi(n: int) -> int:
    ps = primes_of(n)
    return n // math.prod(ps) * math.prod(p - 1 for p in ps)


def _ctx(n: int) -> _Ctx:
    c = _CTX.get(n)
    if c is None:
        c = _Ctx(n)
        _CTX[n] = c
    return c


def _canonical_conductor(b: int) -> int:
    return b // 2 if b % 4 == 2 else b


# -- the number type ---------------------------------------------------------

class CycloNum:
    """An element of the maximal cyclotomic field, exactly."""

    __slots__ = ("n", "num", "den", "_hash")

    def __init__(self, n: int, num, den: int, _reduced: bool = False):
        if _reduced:
            self.n = n
            self.num = tuple(num)
            self.den = den
            self._hash = None
            return
        norm = _normalize(n, list(num), den)
        self.n, self.num, self.den = norm
        self._hash = None

    # -- constructors -------------------------------------------------------
    @staticmethod
    def zero() -> "CycloNum":
        return _mk_reduced(1, (0,), 1)

    @staticmethod
    def one() -> "CycloNum":
        return _mk_reduced(1, (1,), 1)

    @staticmethod
    def from_rational(q) -> "CycloNum":
        q = Fraction(q)
        return _mk_reduced(1, (q.numerator,), q.denominator)

    @staticmethod
    def from_root(r) -> "CycloNum":
        """e^(2*pi*i*r) for a rational r."""
        return root_sum([(root_exp(r), Fraction(1))])

    @staticmethod
    def from_coeffs(n: int, coeffs) -> "CycloNum":
        """Element of Q(zeta_n) with rational power-basis coefficients."""
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != _euler_phi(n):
            raise BadParameter(
                f"conductor {n} needs {_euler_phi(n)} coefficients, got {len(coeffs)}"
            )
        den = reduce(math.lcm, (c.denominator for c in coeffs), 1)
        num = [int(c * den) for c in coeffs]
        return CycloNum(n, num, den)

    # -- views ---------------------------------------------------------------
    @property
    def conductor(self) -> int:
        return self.n

    @property
    def coeffs(self) -> tuple:
        return tuple(Fraction(x, self.den) for x in self.num)

    def is_zero(self) -> bool:
        return not any(self.num)

    def as_rational(self):
        """The value as a Fraction, or None when it is irrational."""
        if self.n == 1:
            return Fraction(self.num[0], self.den)
        return None

    def is_root_of_unity(self):
        """The exponent r with self = e^(2*pi*i*r), or None: ``_monomial`` with c = 1."""
        return m[1] if (m := _monomial(self)) and m[0] == 1 else None

    # -- ring operations ------------------------------------------------------
    def _lift(self, L: int) -> tuple:
        """Coefficient vector of self in Q(zeta_L), n | L."""
        if L == self.n:
            return self.num
        return tuple(_substitute(_ctx(L), self.num, L // self.n))

    def __add__(self, other) -> "CycloNum":
        other = _coerce(other)
        L = _join(self.n, other.n)
        a, b = self._lift(L), other._lift(L)
        da, db = self.den, other.den
        g = math.gcd(da, db)
        ma, mb = db // g, da // g
        return CycloNum(L, [x * ma + y * mb for x, y in zip(a, b)], da * db // g)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self) -> "CycloNum":
        return _mk_reduced(self.n, tuple(-x for x in self.num), self.den)

    def __sub__(self, other) -> "CycloNum":
        return self.__add__(_coerce(other).__neg__())

    def __rsub__(self, other):
        return _coerce(other).__sub__(self)

    def __mul__(self, other) -> "CycloNum":
        """The product.  A nonzero rational c scales a's vector: c * a lies
        in exactly the fields that a does, so a's conductor stays minimal,
        and a gcd pass is all the normalising needed (no convolution)."""
        other = _coerce(other)
        a, c = (self, other) if other.n == 1 else (other, self)
        if c.n == 1 and c.num[0]:
            num, den = [x * c.num[0] for x in a.num], a.den * c.den
            g = math.gcd(*num, den)
            return _mk_reduced(a.n, [x // g for x in num], den // g)
        L = _join(self.n, other.n)
        out = _mul_vec(_ctx(L), self._lift(L), other._lift(L))
        return CycloNum(L, out, self.den * other.den)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k: int) -> "CycloNum":
        if k < 0:
            return self.inverse() ** (-k)
        out = CycloNum.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self) -> "CycloNum":
        """Multiplicative inverse by the norm: 1/a = prod_{sigma != 1} sigma(a) / N(a).

        The norm N(a), the product of all Galois conjugates of a, is fixed
        by every sigma, so it is a rational, and nonzero when a is.  The
        Galois group (Z/n)^* is a direct product of cyclic groups <g> of
        order m (``_unit_factors``), so the product runs down them: with
        b = a, each factor takes r = prod_{j=1}^{m-1} sigma_g^j(b), by
        doubling (``_orbit``), and b * r, the norm of b to the fixed field
        of <g>, is the next b.  The product of the r is the product of the
        conjugates up to a rational, which cancels against a times it.
        """
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        if self.n == 1:
            return CycloNum.from_rational(Fraction(self.den, self.num[0]))
        ctx = _ctx(self.n)
        # largest orders first: each factor works on the norm of the ones
        # before it, whose integers grow with their orders
        factors = sorted(_unit_factors(self.n), key=lambda f: -f[1])
        b, rest = list(self.num), None
        for k, (g, m) in enumerate(factors, 1):
            r = _primitive(_substitute(ctx, _orbit(ctx, b, g, m - 1), g))
            rest = r if rest is None else _primitive(_mul_vec(ctx, rest, r))
            if k < len(factors):
                b = _primitive(_mul_vec(ctx, b, r))
        norm = _mul_vec(ctx, list(self.num), rest)[0]   # a rational: a * rest over den
        return CycloNum(self.n, rest, 1) * Fraction(self.den, norm)

    def __truediv__(self, other) -> "CycloNum":
        return self * _coerce(other).inverse()

    def __rtruediv__(self, other):
        return _coerce(other) * self.inverse()

    # -- Galois action ---------------------------------------------------------
    def galois(self, k: int) -> "CycloNum":
        """sigma_k: zeta_n -> zeta_n^k, for gcd(k, n) = 1."""
        k %= self.n if self.n > 1 else 1
        if self.n == 1:
            return self
        if math.gcd(k, self.n) != 1:
            raise BadParameter(f"galois exponent {k} not coprime to {self.n}")
        return CycloNum(self.n, _substitute(_ctx(self.n), self.num, k), self.den)

    def conjugate(self) -> "CycloNum":
        """Complex conjugation: every root of unity to its inverse."""
        if self.n == 1:
            return self
        return self.galois(self.n - 1)

    def galois_conjugates(self) -> list:
        """All sigma_k images, k coprime to the conductor."""
        return [self.galois(k) for k in range(1, max(self.n, 2)) if math.gcd(k, self.n) == 1]

    # -- protocol ---------------------------------------------------------------
    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = _coerce(other)
        if not isinstance(other, CycloNum):
            return NotImplemented
        return self.n == other.n and self.den == other.den and self.num == other.num

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.n, self.num, self.den))
        return self._hash

    def __repr__(self):
        q = self.as_rational()
        if q is not None:
            return f"Cyclo({q})"
        return f"Cyclo(n={self.n}, {[str(c) for c in self.coeffs]})"


def _coerce(x) -> CycloNum:
    if isinstance(x, CycloNum):
        return x
    if isinstance(x, (int, Fraction)):
        return CycloNum.from_rational(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to CycloNum")


def _mk_reduced(n, num, den) -> CycloNum:
    return CycloNum(n, num, den, _reduced=True)


def _join(a: int, b: int) -> int:
    # lcm of two canonical conductors is canonical: 2-adic valuation 0 or >= 2
    return math.lcm(a, b)


def _normalize(n, num, den):
    """gcd-reduce, fix sign, minimize conductor."""
    if den == 0:
        raise DivisionByZero("zero denominator")
    if den < 0:
        den = -den
        num = [-x for x in num]
    if not any(num):
        return 1, (0,), 1
    g = math.gcd(*num, den)
    if g > 1:
        num = [x // g for x in num]
        den //= g
    n, num = _descend(n, num)
    return n, tuple(num), den


def _descend(n, num):
    """Re-express at the minimal conductor, one prime divisor at a time."""
    if n % 4 == 2:   # zeta_n = -zeta_m^((m+1)/2) for n = 2m, m odd
        n //= 2
        num = _substitute(_ctx(n), [-c if i % 2 else c for i, c in enumerate(num)],
                          (n + 1) // 2)
    changed = True
    while changed and n > 1:
        changed = False
        for p in primes_of(n):
            m = _canonical_conductor(n // p)
            sub = _try_subfield(n, num, m)
            if sub is not None:
                n, num = m, sub
                changed = True
                break
    return n, num


def _try_subfield(n, num, m):
    """Coefficients (a list) in Q(zeta_m) of the element with integer
    coefficient list ``num`` at canonical conductor n, if it lies there,
    else None.  m is canonical(n/p) for a prime p | n, so q = n/m is p,
    or 4 when n = 4m with m odd.

    If q | m, Phi_n(x) = Phi_m(x^q): a member is supported on multiples
    of q, with coordinates ``num[::q]``.  Otherwise, with s = q^-1 mod m,
    the trace down to Q(zeta_m) sends zeta_n^i to zeta_m^(i*s) c_q(i),
    where c_q is the Ramanujan sum: q [q | i] - 1 for q = p, and 2, 0,
    -2, 0 by i mod 4 for q = 4 (Hardy and Wright, ch. XVI).  A member of
    Z[zeta_n] lying in Q(zeta_m) lies in Z[zeta_m] and is its trace over
    phi(q), so a trace not divisible by phi(q) means no member; otherwise
    lifting the quotient back to n and comparing with ``num`` is the
    exact membership test.
    """
    q = n // m
    if m % q == 0:
        sub = num[::q]
        out = [0] * len(num)
        out[::q] = sub
        return sub if out == num else None
    v = num + [0] * (n - len(num))
    s = pow(q, -1, m)
    trace = [0] * m
    for a in range(m):   # the terms with i = a mod m, by strided sums
        i0 = a * q * s % n   # the i = a mod m with i = 0 mod q
        if q == 4:
            trace[a * s % m] = 2 * (v[i0] - v[(i0 + 2 * m) % n])
        else:
            trace[a * s % m] = q * v[i0] - sum(v[a::m])
    phi_q = 2 if q == 4 else q - 1
    trace = _reduce(_ctx(m), trace)
    if any(x % phi_q for x in trace):
        return None
    sub = [x // phi_q for x in trace]
    return sub if _substitute(_ctx(n), sub, q) == num else None


def _reduce(ctx, buf):
    """``buf``, the coefficients of a polynomial, reduced mod Phi_n in place.

    ``buf`` holds from phi to 2n entries.  Those of degree n and up fold
    down by x^n = 1 (Phi_n divides x^n - 1); then, from the top degree
    down, c x^k becomes c x^(k-phi) times the tail of Phi_n, and the
    result is the first phi entries.
    """
    n, phi, top = ctx.n, ctx.phi, len(buf)
    if top > n:
        for k in range(n, top):
            buf[k - n] += buf[k]
        top = n
    if top > phi:
        tail = ctx.tail
        for k in range(top - 1, phi - 1, -1):
            c = buf[k]
            if c:
                base = k - phi
                for j, t in tail:
                    buf[base + j] += c * t
        del buf[phi:]
    return buf


def _times_root(ctx, s, t, v):
    """(-1)^s zeta^t v at conductor ctx.n: v shifted by t, then reduced."""
    n, sign = ctx.n, -1 if s % 2 else 1
    buf = [0] * n
    for i, c in enumerate(v):
        if c:
            buf[(i + t) % n] += sign * c
    return _reduce(ctx, buf)


def _monomial(x):
    """(c, r) with x = c e^(2*pi*i*r) and c a positive rational, or None.

    The roots of unity in Q(zeta_n), n canonical, are the +-zeta_n^k with
    0 <= k < n (Washington, Introduction to Cyclotomic Fields, ch. 2).  For
    k in [s, s + phi), zeta_n^(-s) x is +-c times a power-basis vector, so
    the ceil(n/phi) shifts by s = 0, phi, 2 phi, ... find k and the sign.
    """
    n, ctx = x.n, _ctx(x.n)
    for s in range(0, n, ctx.phi):
        v = _times_root(ctx, 0, -s, x.num) if s else x.num
        nz = [i for i, a in enumerate(v) if a]
        if len(nz) == 1:   # x = a zeta_n^k, and -1 = e^(2 pi i n / 2n)
            k, a = nz[0] + s, v[nz[0]]
            return Fraction(abs(a), x.den), Fraction((2 * k + n * (a < 0)) % (2 * n), 2 * n)
    return None


def _substitute(ctx, num, k):
    """The vector at conductor ctx.n of sum c_i zeta^(i*k), for the
    coefficients c_i of ``num``: zeta -> zeta^k, unreduced."""
    buf = [0] * ctx.n
    for i, c in enumerate(num):
        if c:
            buf[i * k % ctx.n] += c
    return _reduce(ctx, buf)


def _primitive(v):
    """v divided by the gcd of its entries."""
    g = math.gcd(*v)
    return [x // g for x in v] if g > 1 else v


def _unit_factors(n: int) -> list:
    """(g, m) per cyclic factor of (Z/n)^*: g of order m, and (Z/n)^* the
    direct product of the <g>.

    A primitive root per odd prime power p^e, and -1 and 5 (of order
    2^(e-2)) for 2^e, each lifted by CRT to 1 mod the other prime powers
    (Ireland and Rosen, A Classical Introduction to Modern Number
    Theory, ch. 4).
    """
    out = []
    for p in primes_of(n):
        q = p
        while n % (q * p) == 0:
            q *= p
        if p == 2:
            local = [(q - 1, 2)] if q > 2 else []
            if q >= 8:
                local.append((5, q // 4))
        else:
            g = next(g for g in range(2, p)
                     if all(pow(g, (p - 1) // s, p) != 1 for s in primes_of(p - 1)))
            if pow(g, p - 1, p * p) == 1:   # then g + p is a primitive root mod p^e
                g += p
            local = [(g, q // p * (p - 1))]
        rest = n // q
        for g, m in local:   # g mod q, 1 mod rest
            out.append(((g + q * ((1 - g) * pow(q, -1, rest) % rest)) % n, m))
    return out


def _orbit(ctx, b, g, m):
    """prod_{j<m} sigma_g^j(b) for m >= 1, by doubling: P(2t) is
    P(t) sigma_g^t(P(t)), and P(t+1) is b sigma_g(P(t)); up to a rational."""
    P, t = None, 0
    for bit in bin(m)[2:]:
        if t:
            P = _primitive(_mul_vec(ctx, P, _substitute(ctx, P, pow(g, t, ctx.n))))
            t *= 2
        if bit == "1":
            P = list(b) if not t else _primitive(_mul_vec(ctx, b, _substitute(ctx, P, g)))
            t += 1
    return P


def _mul_vec(ctx, a, b):
    """Product of two coefficient vectors at conductor ctx.n, unreduced.

    When both have length phi and one is zero past index 0 (a rational),
    it scales the other: no convolution and no reduction.
    """
    phi = ctx.phi
    if len(a) == len(b) == phi:
        if not any(b[1:]):
            c = b[0]
            return [c * x for x in a]
        if not any(a[1:]):
            c = a[0]
            return [c * y for y in b]
    conv = [0] * (2 * phi - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    conv[i + j] += x * y
    return _reduce(ctx, conv)


# -- bulk constructors --------------------------------------------------------

def _root_power(a: int, b: int, N: int):
    """(s, t) with e^(2*pi*i*a/b) = (-1)^s zeta_N^t, for a canonical N that
    the canonical conductor of b divides; a/b need not be reduced."""
    if b % 4 == 2:
        # b = 2m with m odd: e^(2 pi i a/2m) = (-1)^a zeta_m^(a(m+1)/2)
        m = b // 2
        return a % 2, a * (m + 1) // 2 % m * (N // m) % N
    return 0, a * (N // b) % N


def root_sum(terms) -> CycloNum:
    """Exact sum of weighted roots of unity.

    ``terms`` is an iterable of (exponent fraction, rational weight);
    the whole sum reduces through a single Phi_N pass, which is how
    Gauss sums and S-matrix entries stay cheap.
    """
    terms = [(root_exp(r), Fraction(w)) for r, w in terms]
    if not terms:
        return CycloNum.zero()
    N = reduce(math.lcm, (_canonical_conductor(r.denominator) for r, _ in terms), 1)
    den = reduce(math.lcm, (w.denominator for _, w in terms), 1)
    return _sum_at(
        N, ((_root_power(r.numerator, r.denominator, N), int(w * den)) for r, w in terms), den
    )


def level_root_sum(L: int, exps) -> CycloNum:
    """Exact sum of e^(2*pi*i*a/L) over the integers a in ``exps``."""
    N = _canonical_conductor(L)
    return _sum_at(N, ((_root_power(a, L, N), c) for a, c in Counter(exps).items()), 1)


def _sum_at(N: int, terms, den: int) -> CycloNum:
    """sum of c (-1)^s zeta_N^t over the terms ((s, t), c), over ``den``."""
    ctx = _ctx(N)
    buf = [0] * N
    for (s, t), c in terms:
        buf[t] += -c if s else c
    return CycloNum(N, _reduce(ctx, buf), den)


ZERO = CycloNum.zero()
ONE = CycloNum.one()


def matrix_rank(rows) -> int:
    """Exact rank of a matrix of CycloNums (fraction-free elimination).

    Every entry is lifted to L = lcm of the conductors and each row is
    scaled to integer vectors by the lcm of its denominators, which
    leaves the rank as it is; ``_rank_vec`` eliminates.  Rank does not
    change under field extension.
    """
    M = [list(r) for r in rows]
    if not M:
        return 0
    L = reduce(_join, (x.n for r in M for x in r), 1)
    for i, r in enumerate(M):
        den = reduce(math.lcm, (x.den for x in r), 1)
        M[i] = [[c * (den // x.den) for c in x._lift(L)] for x in r]
    return _rank_vec(_ctx(L), M)


def _rank_vec(ctx, M) -> int:
    """Exact rank of a matrix whose entries are integer coefficient
    vectors at conductor ctx.n.

    First the matrix is reduced mod p (``_modular``); a minor that is
    nonzero mod p is nonzero, so full row rank there is full row rank.
    Otherwise a row r below the pivot row p becomes piv*r - f*p, then
    is divided by the gcd of all its coefficients, so no field inverse
    is needed.  An entry is zero exactly when its vector is, since the
    power basis is a basis.  The list ``M`` is reordered and its rows
    replaced, but no row or entry is changed in place.
    """
    if not M:
        return 0
    p, w = _modular(ctx)
    if _rank_mod_p(p, [[sum(map(operator.mul, v, w)) % p for v in row] for row in M]) == len(M):
        return len(M)
    zero = [0] * ctx.phi
    ncols = len(M[0])
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(M)) if any(M[r][col])), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        p = M[rank]
        pv = p[col]
        for r in range(rank + 1, len(M)):
            f = M[r][col]
            if not any(f):
                continue
            row = M[r]
            new = [zero] * (col + 1)
            for k in range(col + 1, ncols):
                a = _mul_vec(ctx, pv, row[k])
                b = _mul_vec(ctx, f, p[k])
                new.append([x - y for x, y in zip(a, b)])
            g = math.gcd(*(c for v in new for c in v))
            if g > 1:
                new = [[c // g for c in v] for v in new]
            M[r] = new
        rank += 1
        if rank == len(M):
            break
    return rank


def _modular(ctx):
    """(p, w): a prime p = 1 mod n above 2^20 and w[i] = omega^i mod p
    for i < phi(n), with omega of order n mod p; built once per conductor.

    zeta_n -> omega is then a ring map Z[zeta_n] -> F_p, since omega is
    a root of Phi_n mod p.
    """
    if ctx.modular is None:
        n = ctx.n
        p = (2 ** 20 // n + 1) * n + 1
        while any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
            p += n
        g = 2
        while True:
            omega = pow(g, (p - 1) // n, p)
            if all(pow(omega, n // q, p) != 1 for q in primes_of(n)):
                break
            g += 1
        ctx.modular = p, [pow(omega, i, p) for i in range(ctx.phi)]
    return ctx.modular


def _fold_bound(ctx):
    """(c, h), built once per conductor: c bounds every coefficient of
    x^j mod Phi_n, for every j >= 0, and h every coefficient of Phi_n
    below its top degree.

    x^j mod Phi_n is the polynomial of degree < phi that takes the value
    zeta^j at each primitive n-th root zeta; by Lagrange it is
    sum_zeta zeta^j Phi_n(x) / ((x - zeta) Phi_n'(zeta)).  The quotient
    Phi_n(x) / (x - zeta) has coefficients that are sums of the
    coefficients of Phi_n above, or (as Phi_n(zeta) = 0) below, a given
    degree, times roots of unity, so at most ||Phi_n||_1 / 2.  With
    x^n - 1 = Phi_n Psi_n, |Phi_n'(zeta)| = n / |Psi_n(zeta)|, and by
    Cauchy-Schwarz and Parseval over all n-th roots of unity,
    sum_zeta |Psi_n(zeta)| <= sqrt(phi n ||Psi_n||_2^2).  So every
    coefficient is at most ||Phi_n||_1 sqrt(phi ||Psi_n||_2^2 / n) / 2.
    """
    if ctx.fold is None:
        n, phi = ctx.n, ctx.phi
        l1 = 1 + sum(abs(t) for _, t in ctx.tail)
        s2 = sum(c * c for c in cyclotomic_polynomial(n, cofactor=True))
        root = math.isqrt(-(-phi * s2 // n)) + 1          # > sqrt(phi s2 / n)
        ctx.fold = -(-l1 * root // 2), max(abs(t) for _, t in ctx.tail)
    return ctx.fold


def _rank_mod_p(p: int, A) -> int:
    """Rank over F_p of A, a matrix of residues mod p: for the image of
    a matrix under ``_modular``, at most its rank.  The list ``A`` is
    reordered and its rows replaced, but no row is changed in place."""
    rank = 0
    for col in range(len(A[0])):
        piv = next((r for r in range(rank, len(A)) if A[r][col]), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        prow = A[rank]
        inv = pow(prow[col], -1, p)
        for r in range(rank + 1, len(A)):
            f = A[r][col] * inv % p
            if f:
                A[r] = [(a - f * b) % p for a, b in zip(A[r], prow)]
        rank += 1
        if rank == len(A):
            break
    return rank
