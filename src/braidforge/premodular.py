"""Pre-modular data: fusion ring + twists + dimensions, all exact.

The S-matrix is always derived from the triple via the balancing
formula s_{XY} = theta_X^-1 theta_Y^-1 sum_Z N_{XY}^Z theta_Z d(Z),
never user-supplied, and a datum exists only if every structural
identity holds exactly: unit twist, nonzero dimensions, conjugate dual
dimensions, S symmetric and dual-invariant, first row = dimensions,
and the product relation s_{XY} s_{XZ} = d(X) sum_W N_{YZ}^W s_{XW}.
S is derived at one conductor L, as integer coefficient vectors over
one denominator; the datum keeps those vectors, S_XY and S_YX made once
where N_XY = N_YX (``build``).  An identity with products in it is one
integer test: the vectors are evaluated at one base per datum, by
Kronecker substitution (``_Kron``; D. Harvey, Faster polynomial
multiplication via multipoint Kronecker substitution, J. Symbolic
Comput. 44 (2009)), so a product is one multiplication of integers in C.
The canonical CycloNum matrices ``S`` and ``S_tilde`` (s~ = d^-1 S d^-1,
from S and one inverse per distinct dimension) are made on first read;
no report but ``mueger_report`` reads them.

The dimensions are a character of the ring, fixed before any braiding
is chosen (Etingof, Gelaki, Nikshych and Ostrik, Tensor Categories,
4.7), so the work that reads them alone is kept on the ring, once per
dimension tuple, by the first build with it that succeeds (``_Kit``):
the unit, zero and dual-dimension checks it passed, the distinct
dimensions and D, and per conductor their lifts, squares and inverses.
A later datum on the ring with the same dimensions does only the work
that reads its twists: S, the symmetry, duality and unit-row tests and
the product relation, which run on every build in the same order.

The product relation says that each normalized row Y -> s_{XY} / d(X)
is a character of the ring.  A linear map with value 1 at the unit that
is multiplicative on a set of algebra generators Y (every Z) is a
character, by the unit law and associativity, so ``build`` checks the
relation on the rows Y of ``fusion.algebra_generators`` only (every row
if the ring fails either axiom): |Y| r^2 products in place of r^3/2.  A
row X that fails there is scanned over every (Y, Z), so the error names
the same first failing (X, Y, Z).

The reports run on the same vectors and make CycloNums only for the
values they return.  s~_{YV} = 1 is tested as s_{YV} = d(Y) d(V),
list equality at L, once per datum, with d(Y) d(V) made once per pair
of distinct dimensions; the centralizer of K is the set of
V whose test holds for all of K, and its component count is checked
against the exact rank of the K rows of S.  Whether the image of S
over F_p has full rank is tested once per datum: if it has, every K's
rank is |K| at once, and otherwise the K rows are eliminated exactly.
A centralizer's subring test and components depend on the
ring alone, so they are kept on the ring, once per index set.  Each
centralizer report is built once per (datum, subring) and each subring
lattice once per ring.
Gauss sums, the squared central charge, and the square-class Gauss
sums of weakly integral non-degenerate data close out the invariant set;
their identities are tested on the build's evaluations at its base;
the square-class sums are kept on the datum, as its reports are, and
the ring's square classes and integral part on the ring.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from itertools import chain
from operator import mul
from typing import NamedTuple

from .config import DEFAULT, Config
from .cyclotomic import (
    CycloNum,
    _canonical_conductor,
    _ctx,
    _fold_bound,
    _mul_vec,
    _rank_mod_p,
    _rank_vec,
    _root_power,
    _times_root,
    matrix_rank,
    root_exp,
)
from .errors import (
    BadParameter,
    Check,
    ClassificationBug,
    DatumError,
    Degenerate,
    DualDimFail,
    NotCharacter,
    NotWeaklyIntegral,
    SymmetryFail,
    UnitTwistFail,
    VerlindeFail,
    ZeroDim,
)
from .fusion import (
    FusionRing,
    FusionSubring,
    algebra_generators,
    all_subrings,
    components,
    fp_dims,
    fp_square_integers,
    group_ring,
    integral_part,
    ising_ring,
    pointed_part,
    product_ring,
    subring_generated,
    _squarefree,
)

ONE = CycloNum.one()


class _AtL:
    """The integer vectors of ``build`` at its one conductor L.

    ``S``, ``dv`` (d), ``qd`` (theta d) and ``qi`` (theta^-1 d) hold
    coefficient vectors at L over the denominator ``den``, ``dd`` (d^2)
    and ``td[sign]`` (theta^sign d^2) over den^2, and ``roots[i]`` =
    (s, t) with theta_i = (-1)^s zeta_L^t.  ``cls[i]`` numbers d(i) among
    the distinct dimensions, and ``inv[k]`` is the inverse of the k-th
    over ``inv_den``.  S_xy and S_yx may be one list, and so may d and
    d^2 of equal dimensions, which ``build`` reads from the ring's kit
    (``_Kit``), so data share them; no entry is changed in place.
    ``kron`` holds the same vectors evaluated at the datum's one base
    (``_Kron``), made by ``build`` for its own checks and read again by
    ``gauss_and_charge``.
    Built on first use: ``pm[y][v]``, which is s~_{yv} where that is +-1
    and 0 elsewhere, with ``ones[v]`` the set of y where it is 1; and
    ``full``, whether the image of S over F_p (``_rank_mod_p``) has full
    rank.
    """

    __slots__ = ("ctx", "den", "S", "dv", "qd", "qi", "roots", "cls", "dd", "td",
                 "inv", "inv_den", "kron", "pm", "ones", "full")

    def __init__(self, ctx, den, S, dv, qd, roots, cls, dd):
        self.ctx, self.den, self.S, self.dv, self.qd, self.roots = ctx, den, S, dv, qd, roots
        self.cls, self.dd = cls, dd
        self.qi = [_times_root(ctx, s, -t, v) for (s, t), v in zip(roots, dv)]
        self.td = {sign: [_times_root(ctx, s, sign * t, v) for (s, t), v in zip(roots, dd)]
                   for sign in (1, -1)}
        self.inv = self.inv_den = self.kron = self.pm = self.ones = self.full = None

    def total(self, vecs, indices=None) -> list:
        """Sum of ``vecs`` over ``indices`` (all of them when None)."""
        vecs = vecs if indices is None else [vecs[i] for i in indices]
        return list(map(sum, zip(*vecs))) or [0] * self.ctx.phi

    def pairing(self):
        """(pm, ones), built once: s_{yv} against +-d(y) d(v), over den^2.

        d(y) d(v) and its negative are made once per pair of distinct
        dimensions (``cls``), not once per pair of indices.
        """
        if self.pm is None:
            ctx, S, dv, cls = self.ctx, self.S, self.dv, self.cls
            r = len(dv)
            pm = [[0] * r for _ in range(r)]
            prods = {}
            for y in range(r):
                for v in range(y, r):
                    key = (cls[y], cls[v]) if cls[y] <= cls[v] else (cls[v], cls[y])
                    if key not in prods:
                        dd = _mul_vec(ctx, dv[y], dv[v])
                        prods[key] = dd, [-c for c in dd]
                    dd, neg = prods[key]
                    s = S[y][v] if self.den == 1 else [c * self.den for c in S[y][v]]
                    if s == dd:
                        pm[y][v] = pm[v][y] = 1
                    elif s == neg:
                        pm[y][v] = pm[v][y] = -1
            self.pm = pm
            self.ones = [frozenset(y for y in range(r) if pm[y][v] == 1) for v in range(r)]
        return self.pm, self.ones

    def s_tilde(self) -> list:
        """The vectors of s~_xy = s_xy d_x^-1 d_y^-1, over den inv_den^2:
        symmetric as S is, with d_x^-1 d_y^-1 made once per pair of
        distinct dimensions."""
        ctx, S, cls, inv = self.ctx, self.S, self.cls, self.inv
        r = len(S)
        pairs = {}
        St = [[None] * r for _ in range(r)]
        for x in range(r):
            for y in range(x, r):
                key = (cls[x], cls[y]) if cls[x] <= cls[y] else (cls[y], cls[x])
                if key not in pairs:
                    pairs[key] = _mul_vec(ctx, inv[key[0]], inv[key[1]])
                St[x][y] = St[y][x] = _mul_vec(ctx, S[x][y], pairs[key])
        return St

    def evaluate(self, m: int) -> _Kron:
        """``kron``: the vectors at one base, fit for every identity that
        ``build`` and ``gauss_and_charge`` test, made once: S_xy and S_yx
        are packed once where they are one list.

        Each identity is a sum of products of two of these vectors, whose
        coefficients are at most A in size, with integer weights of total
        size at most W; each coefficient of such a product is a sum of at
        most phi terms, so M = phi A^2 W bounds the identity's.  The
        weights, with r the rank, m the most constituents of a product
        counted with multiplicity, and D = ``den``: 1 + m for the product
        relation, r (D + 1) for a twisted row sum, 2 r^2 for a product of
        Gauss sums over subrings and r^2 + r D^2 for the norm, so
        W = max(1 + m, r (2 r + D^2)).  Sums of vectors, with no product,
        are compared as integers: two such differ by coefficients below B.
        """
        S, r, td = self.S, len(self.S), self.td
        vecs = [v for row in S for v in row]
        vecs += self.dv + self.qd + self.qi + self.dd + td[1] + td[-1]
        A = max(1, max(map(max, vecs)), -min(map(min, vecs)))
        W = max(1 + m, r * (2 * r + self.den ** 2))
        kr = self.kron = _Kron(self.ctx, self.ctx.phi * A * A * W)
        pack = kr.pack
        pS = [[None] * r for _ in range(r)]
        for x in range(r):
            for y in range(x, r):
                pS[x][y] = pack(S[x][y])
                pS[y][x] = pS[x][y] if S[y][x] is S[x][y] else pack(S[y][x])
        kr.S = pS
        kr.dv, kr.qd, kr.qi = (list(map(pack, vs)) for vs in (self.dv, self.qd, self.qi))
        kr.dd = list(map(pack, self.dd))
        kr.td = {sign: list(map(pack, td[sign])) for sign in (1, -1)}
        return kr

    def rank_rows(self, rows) -> int:
        """Exact rank of the rows of S in ``rows``.

        When the image of S over F_p has full rank, so has S, and every
        set of its rows is independent; otherwise ``_rank_vec`` eliminates
        the rows exactly.
        """
        if self.full is None:
            self.full = _rank_mod_p(self.ctx, self.S) == len(self.S)
        return len(rows) if self.full else _rank_vec(self.ctx, [self.S[y] for y in rows])


class _Kron:
    """Evaluation at one base B = 2^k, and the test that turns an
    identity between vectors at L into one integer divisibility.

    ``pack(v)`` is v(B) = sum v_i B^i, exactly.  Let Delta be a sum of
    products of two vectors (each of phi coefficients) with integer
    weights, so of degree <= 2 phi - 2, whose coefficients are at most M
    in size.  Then Phi_L divides Delta if and only if Phi_L(B) divides
    Delta(B) (``divides``), since B > R + h + 1, where R = (2 phi - 1) M c
    and (c, h) = ``_fold_bound``: c bounds the coefficients of x^j mod
    Phi_L and h those of Phi_L below its top.

    Proof: Phi_L is monic, so Delta = q Phi_L + rho with q integral and
    deg rho < phi, and each |rho_i| <= R, as each of the 2 phi - 1 terms
    Delta_j x^j folds down to at most M c per coefficient.  Phi_L(B)
    divides Delta(B) exactly when it divides rho(B).  But |rho(B)| <=
    R (B^phi - 1) / (B - 1) < B^phi - h (B^phi - 1) / (B - 1) <= Phi_L(B),
    since B - 1 > R + h; so that forces rho(B) = 0, and as every
    |rho_i| < B, the lowest nonzero coefficient of a nonzero rho would
    be a multiple of B: so rho = 0.  The slots past ``mod`` hold a
    datum's vectors at the base (``_AtL.evaluate``).
    """

    __slots__ = ("k", "mod", "S", "dv", "qd", "qi", "dd", "td")

    def __init__(self, ctx, M: int):
        c, h = _fold_bound(ctx)
        self.k = k = ((2 * ctx.phi - 1) * M * c + h + 1).bit_length()   # B = 2^k > R + h + 1
        self.mod = (1 << k * ctx.phi) - sum(t << k * j for j, t in ctx.tail)   # Phi_L(B)

    def pack(self, v) -> int:
        """v(B) for a vector v."""
        k = self.k
        return sum(c << k * i for i, c in enumerate(v) if c)

    def divides(self, x: int) -> bool:
        """Whether Phi_L(B) divides x."""
        return x % self.mod == 0


class PreModularDatum:
    """theta: twists as Fraction exponents of roots of unity; dim: CycloNum
    per index; pointed_source: (PreMetricGroup, chi tuple) when pointed;
    _at: the build's vectors at its conductor (_AtL).  ``S``, the derived
    CycloNum matrix, and ``S_tilde``, s_XY / (d(X) d(Y)), are made from
    _at on first read; S~'s vectors are made then too, from S and the
    inverses that ``build`` keeps, and only its canonical matrix is kept.
    Built on first use too: _nondegenerate,
    _lagrangians (index sets of the Lagrangian subgroups of a pointed
    source), _cents (K.indices -> CentralizerReport) and _gfp
    ((config.tolerance, the result of gfp_invariants) for the last
    tolerance).  Ring, twists and dimensions fix S and s~: equality and
    hashing read them and the pointed source."""

    __slots__ = ("ring", "theta", "dim", "pointed_source", "_at", "_S", "_S_tilde",
                 "_nondegenerate", "_lagrangians", "_cents", "_gfp")

    def __init__(self, ring: FusionRing, theta: tuple, dim: tuple, at: _AtL, pointed_source=None):
        self.ring, self.theta, self.dim, self._at = ring, theta, dim, at
        self.pointed_source, self._S, self._S_tilde = pointed_source, None, None
        self._nondegenerate, self._lagrangians, self._cents, self._gfp = None, None, {}, None

    @property
    def S(self) -> tuple:
        if self._S is None:
            self._S = _canonical(self._at.ctx.n, self._at.S, self._at.den)
        return self._S

    @property
    def S_tilde(self) -> tuple:
        """s~_XY = s_XY d(X)^-1 d(Y)^-1, canonical, made on first read: its
        vectors from S and the inverses ``build`` kept (``_AtL.s_tilde``),
        over den inv_den^2; only the canonical matrix is kept."""
        if self._S_tilde is None:
            at = self._at
            self._S_tilde = _canonical(at.ctx.n, at.s_tilde(), at.den * at.inv_den ** 2)
        return self._S_tilde

    def _key(self) -> tuple:
        return (self.ring, self.theta, self.dim, self.pointed_source)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def rank(self) -> int:
        return self.ring.rank

    def dim_total(self) -> CycloNum:
        return self.cat_dim(range(self.rank))

    def cat_dim(self, indices) -> CycloNum:
        at = self._at
        return CycloNum(at.ctx.n, at.total(at.dd, indices), at.den ** 2)

    def tau(self, sign: int = +1, indices=None) -> CycloNum:
        """sum theta^sign d^2 over ``indices`` (every index by default)."""
        if sign not in (1, -1):
            raise BadParameter("sign must be +1 or -1")
        at = self._at
        return CycloNum(at.ctx.n, at.total(at.td[sign], indices), at.den ** 2)

    def __repr__(self):
        return f"PreModularDatum({self.ring!r})"


def _canonical(L, vecs, den) -> tuple:
    """The CycloNum matrix of ``vecs`` at L over ``den``: one canonical
    form per distinct entry."""
    forms = {k: CycloNum(L, k, den) for k in {tuple(v) for row in vecs for v in row}}
    return tuple(tuple(forms[tuple(v)] for v in row) for row in vecs)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

class _Kit(NamedTuple):
    """What ``build`` keeps on a ring for one dimension tuple
    (``FusionRing._kits``), written once a build with it succeeds: being
    kept, it says that the unit, zero and dual-dimension checks passed.
    ``kinds`` are the distinct dimensions in order of first index,
    ``cls[i]`` the number of d(i) among them, ``n`` and ``D`` the lcm of
    their conductors and of their denominators, and ``at[L]`` = (lifts,
    squares, inv, inv_den) at each conductor L a build reached: the kinds
    lifted to L over D, their squares over D^2, and their inverses lifted
    to L over inv_den.  No kept list is changed in place."""
    kinds: tuple
    cls: tuple
    n: int
    D: int
    at: dict


def _dimension_kit(ring: FusionRing, dim: tuple) -> _Kit:
    """The dimension checks of ``build``, in its order, and a new kit of
    what they find, not yet kept."""
    if dim[ring.unit] != ONE:
        raise DatumError("unit dimension must be 1")
    for i, d in enumerate(dim):
        if d.is_zero():
            raise ZeroDim(f"dimension of {ring.labels[i]} is zero")
    kinds = {d: k for k, d in enumerate(dict.fromkeys(dim))}   # the distinct dimensions
    cls = tuple(kinds[d] for d in dim)
    conj = [d.conjugate() for d in kinds]
    for i in range(ring.rank):
        if dim[ring.dual[i]] != conj[cls[i]]:
            raise DualDimFail(
                f"d(dual {ring.labels[i]}) != conjugate(d({ring.labels[i]}))"
            )
    return _Kit(tuple(kinds), cls, reduce(math.lcm, (d.n for d in kinds), 1),
                reduce(math.lcm, (d.den for d in kinds), 1), {})


def build(ring: FusionRing, theta, dim, config: Config = DEFAULT) -> PreModularDatum:
    """Derive the S-matrix and verify every datum identity exactly.

    L joins the twists' and the dimensions' conductors and D the
    dimensions' denominators.  Entries of S are vectors at L over D, so
    symmetry, duality and the unit row are list equality.  The product
    relation's sides are over D^2, and each (X, Y, Z) is one integer
    divisibility test on the vectors evaluated at the datum's base
    (``_Kron``), in the order the vector test took.
    S is made on one triangle, x <= y: where N_xy = N_yx (every pair of
    a commutative ring), S_yx is the same expression and shares S_xy's
    vector; elsewhere it is made and compared in row-major order, so a
    non-commutative table fails at the pair a full check would name.
    The product relation is checked on the rows Y of the ring's algebra
    generators, which ``fusion`` checks on the ring itself (see the module
    docstring).

    The dimensions are a character of the ring, fixed before any twist, so
    their work is kept on the ring per dimension tuple (``_Kit``), once a
    build with them succeeds: a later build with an equal tuple on the
    same ring skips the unit, zero and dual-dimension checks, which passed
    for it, and at a conductor L reached before reads the lifts, the
    squares and the inverses (kept for s~, whose vectors and canonical
    matrix, like S's, are left to the datum's first read,
    ``PreModularDatum.S_tilde``).  The conductor guard runs before any
    value kept for L is read, and every check that reads a twist runs on
    every build.  perfbench's binding test counts ``cyclotomic.mul`` on
    a build, which the CycloNum product in ``inverse`` makes, so the first
    build of a dimension tuple at a conductor on a ring inverts.
    """
    r = ring.rank
    theta = tuple(root_exp(t) for t in theta)
    dim = tuple(d if isinstance(d, CycloNum) else CycloNum.from_rational(d) for d in dim)
    if len(theta) != r or len(dim) != r:
        raise DatumError("twist and dimension tables must cover the basis")
    if theta[ring.unit] != 0:
        raise UnitTwistFail(f"unit twist is {theta[ring.unit]}, not 1")
    kit = ring._kits.get(dim)
    if kit is None:
        kit = _dimension_kit(ring, dim)
    cls, D = kit.cls, kit.D
    L = reduce(math.lcm, (_canonical_conductor(t.denominator) for t in theta), kit.n)
    config.check_conductor(L)
    ctx = _ctx(L)
    lifted = kit.at.get(L)
    if lifted is None:
        lifts = [[c * (D // d.den) for c in d._lift(L)] for d in kit.kinds]
        squares = [_mul_vec(ctx, v, v) for v in lifts]
    else:
        lifts, squares = lifted[:2]
    dv = [lifts[k] for k in cls]
    # theta_z = (-1)^s zeta_L^t
    roots = [_root_power(t.numerator, t.denominator, L) for t in theta]
    rows = ring.rows
    # S_xy = theta_x^-1 theta_y^-1 sum_z N_xy^z theta_z d_z, over D
    qd = [_times_root(ctx, s, t, v) for (s, t), v in zip(roots, dv)]

    def entry(x, y):
        ws, ms = rows[x][y]
        if ms == (1,):   # one constituent, as in a group ring: read, never written
            v = qd[ws[0]]
        else:
            v = [sum(map(mul, ms, c)) for c in zip(*map(qd.__getitem__, ws))] or [0] * ctx.phi
        return _times_root(ctx, roots[x][0] + roots[y][0], -roots[x][1] - roots[y][1], v)

    S = [[None] * r for _ in range(r)]
    for x in range(r):
        for y in range(x, r):
            S[x][y] = S[y][x] = entry(x, y)
            if rows[x][y] != rows[y][x] and entry(y, x) != S[x][y]:
                raise SymmetryFail(f"S not symmetric at ({x}, {y})")
    for x in range(r):
        for y in range(r):
            if S[ring.dual[x]][ring.dual[y]] != S[x][y]:
                raise SymmetryFail(f"S not dual-invariant at ({x}, {y})")
        if S[ring.unit][x] != dv[x]:
            raise SymmetryFail(f"S[unit][{x}] != d({ring.labels[x]})")
    at = _AtL(ctx, D, S, dv, qd, roots, cls, [squares[k] for k in cls])
    if ring._mult is None:   # the most constituents of a product, with multiplicity
        ring._mult = max(sum(ms) for _, ms in chain.from_iterable(ring.rows))
    kr = at.evaluate(ring._mult)
    pS, pd, mod = kr.S, kr.dv, kr.mod

    def fault(x, ys):   # the first (y, z), y in ys, with s_xy s_xz != d_x sum_w N_yz^w s_xw
        P, dx = pS[x], pd[x]
        for y in ys:
            Py = P[y]
            for z, (ws, ms) in enumerate(rows[y]):   # both sides over D^2
                rhs = P[ws[0]] if ms == (1,) else sum(map(mul, ms, map(P.__getitem__, ws)))
                if (Py * P[z] - dx * rhs) % mod:
                    return y, z
        return None

    # the product relation on the rows of algebra generators; a row that
    # fails there is scanned in full, so the first failing (X, Y, Z) is named
    gens = algebra_generators(ring)
    for x in range(r):
        if fault(x, gens) is not None:
            y, z = fault(x, range(r))
            raise VerlindeFail(
                f"product relation fails at (X, Y, Z) = "
                f"({ring.labels[x]}, {ring.labels[y]}, {ring.labels[z]})"
            )

    if lifted is None:   # one inverse per distinct dimension, lifted to L over one denominator
        inv = [d.inverse() for d in kit.kinds]
        inv_den = reduce(math.lcm, (v.den for v in inv), 1)
        inv = [[c * (inv_den // v.den) for c in v._lift(L)] for v in inv]
        lifted = kit.at[L] = lifts, squares, inv, inv_den
        ring._kits[dim] = kit
    at.inv, at.inv_den = lifted[2:]
    return PreModularDatum(ring, theta, dim, at)


def pointed_datum(M: qform.PreMetricGroup, chi=None, config: Config = DEFAULT) -> PreModularDatum:
    """The pointed datum of a form, twisted by an optional sign character.

    Dimensions are chi values, twists q(g) shifted by 1/2 where chi is
    -1, so the S-matrix comes out as b(g,h) chi(g) chi(h).
    """
    G = M.group
    n = G.order
    if chi is None:
        chi = (1,) * n
    chi = tuple(chi)
    # type(c) is int: a float or bool entry is refused, never truncated
    if len(chi) != n or any(type(c) is not int or c not in (1, -1) for c in chi):
        raise NotCharacter("chi must be a +-1 table over the elements")
    add = G.add_flat()
    for i in range(n):
        for j in range(n):
            if chi[add[i * n + j]] != chi[i] * chi[j]:
                raise NotCharacter(
                    f"chi not multiplicative at {G.from_index(i)}, {G.from_index(j)}"
                )
    ring = group_ring(G)
    theta = tuple(
        root_exp(M.values[i] + (Fraction(1, 2) if chi[i] == -1 else 0)) for i in range(n)
    )
    dim = tuple(CycloNum.from_rational(c) for c in chi)
    D = build(ring, theta, dim, config)
    return PreModularDatum(D.ring, D.theta, D.dim, D._at, (M, chi))


def ising_datum(zeta, eps: int, config: Config = DEFAULT) -> PreModularDatum:
    """The rank-3 datum with X*X = 1 + delta.

    ``zeta`` is the braiding exponent k/16 with k odd (so the root has
    eighth power -1); ``eps`` the sign of the spherical structure.
    Twists are (1, -1, eps/zeta) and d(X) = eps (zeta^2 + zeta^-2).
    """
    zeta = root_exp(zeta)
    if zeta.denominator != 16:
        raise BadParameter(f"zeta must be odd/16, got {zeta}")
    if eps not in (1, -1):
        raise BadParameter("eps must be +-1")
    ring = ising_ring()
    theta_x = root_exp(-zeta + (Fraction(1, 2) if eps == -1 else 0))
    theta = (Fraction(0), Fraction(1, 2), theta_x)
    lam = CycloNum.from_root(2 * zeta) + CycloNum.from_root(-2 * zeta)
    dx = lam if eps == 1 else -lam
    dim = (ONE, ONE, dx)
    return build(ring, theta, dim, config)


def deligne_product(D1: PreModularDatum, D2: PreModularDatum,
                    config: Config = DEFAULT) -> PreModularDatum:
    """Basis pairs; N, twists, dimensions multiply componentwise."""
    ring = product_ring(D1.ring, D2.ring)
    r2 = D2.rank
    theta = tuple(
        root_exp(D1.theta[i] + D2.theta[j]) for i in range(D1.rank) for j in range(r2)
    )
    dim = tuple(D1.dim[i] * D2.dim[j] for i in range(D1.rank) for j in range(r2))
    datum = build(ring, theta, dim, config)
    src = None
    if (
        D1.pointed_source is not None
        and D2.pointed_source is not None
        and all(c == 1 for c in D1.pointed_source[1])
        and all(c == 1 for c in D2.pointed_source[1])
    ):
        from .qform import direct_sum
        form = direct_sum(D1.pointed_source[0], D2.pointed_source[0])
        src = (form, (1,) * form.group.order)
    return PreModularDatum(datum.ring, datum.theta, datum.dim, datum._at, src)


def trivial_datum() -> PreModularDatum:
    from .qform import trivial_form
    return pointed_datum(trivial_form())


# ---------------------------------------------------------------------------
# centralizers
# ---------------------------------------------------------------------------

class CentralizerReport(NamedTuple):
    subring: FusionSubring
    centralizer: FusionSubring
    components: tuple   # partition of all indices
    rank_stilde: int


def centralizer(D: PreModularDatum, K: FusionSubring) -> CentralizerReport:
    """K' = {V : s~_{YV} = 1 for all Y in K}, with component count.

    s~_{YV} = 1 is read from the datum's table of s_{YV} = d(Y) d(V),
    list equality at the build's conductor.  The rank of the K-rows of
    s~ equals the number of K'-components; it is computed on the K rows
    of S, whose rank is the same, since s~ = d^-1 S d^-1 scales rows and
    columns by nonzero dimensions (``_AtL.rank_rows``).  Disagreement
    would falsify the datum and raises ClassificationBug.  The report is
    built once per (datum, K.indices) and kept on the datum.  The
    components of the centralizer are kept on the ring, by its indices,
    once it is found to be a subring and the report passes, so a later
    datum on the ring skips both; a refused report keeps nothing.
    """
    rep = D._cents.get(K.indices)
    if rep is not None:
        return rep
    R = D.ring
    at = D._at
    _, ones = at.pairing()
    cent = tuple(v for v in range(R.rank) if ones[v].issuperset(K.indices))
    comps = R._comps.get(cent)
    if comps is None:
        if subring_generated(R, cent).indices != cent:
            raise ClassificationBug("centralizer is not a subring")
        comps = components(R, cent)
    rank = at.rank_rows(K.indices)
    if rank != len(comps):
        raise ClassificationBug(f"rank {rank} != component count {len(comps)}")
    R._comps[cent] = comps
    rep = D._cents[K.indices] = CentralizerReport(K, FusionSubring(R, cent), comps, rank)
    return rep


def is_nondegenerate(D: PreModularDatum) -> bool:
    """Invertibility of s~, cross-checked against triviality of the
    centralizer of everything."""
    if D._nondegenerate is None:
        whole = FusionSubring(D.ring, tuple(range(D.rank)))
        rep = centralizer(D, whole)
        by_rank = rep.rank_stilde == D.rank
        by_cent = rep.centralizer.indices == (D.ring.unit,)
        if by_rank != by_cent:
            raise ClassificationBug("rank and centralizer tests disagree")
        D._nondegenerate = by_rank
    return D._nondegenerate


def dichotomy_check(D: PreModularDatum, K: FusionSubring) -> list:
    """Per V: either s~_{YV} = 1 on K, or sum |Y|^2 s~_{YV} = 0.

    The sum is d(V)^-1 sum d(Y) s_{YV}, so it vanishes exactly when the
    latter does, which is tested at the build's conductor.
    """
    at = D._at
    ctx = at.ctx
    _, ones = at.pairing()
    out = []
    for v in range(D.rank):
        inside = ones[v].issuperset(K.indices)
        vanishes = not any(at.total([_mul_vec(ctx, at.dv[y], at.S[y][v]) for y in K.indices]))
        out.append(
            Check(
                name=f"dichotomy[{D.ring.labels[v]}]",
                anchor="centralizer-dichotomy",
                status="pass" if inside != vanishes else "fail",
                witness=f"in_centralizer={inside} weighted_column_zero={vanishes}",
            )
        )
    return out


def projective_centralizer(D: PreModularDatum, K: FusionSubring) -> FusionSubring:
    """Objects projectively centralizing K = centralizer of K's adjoint."""
    R = D.ring
    seed = []
    for y in K.indices:
        seed.extend(R.constituents(y, R.dual[y]))
    k_ad = subring_generated(R, seed)
    proj = centralizer(D, k_ad).centralizer
    cent_k = centralizer(D, K).centralizer
    if commutator(R, cent_k).indices != proj.indices:
        raise ClassificationBug("projective centralizer != commutator of centralizer")
    return proj


def commutator(R: FusionRing, K: FusionSubring) -> FusionSubring:
    """Generated by x with every constituent of x (x) dual(x) inside K."""
    kset = set(K.indices)
    seed = [
        x
        for x in range(R.rank)
        if all(z in kset for z in R.constituents(x, R.dual[x]))
    ]
    return subring_generated(R, seed)


def symmetric_and_isotropic(D: PreModularDatum, K: FusionSubring) -> dict:
    """Symmetric = double braiding trivial on K; isotropic adds trivial
    twists.  For pointed data the Lagrangian subgroups of the source
    form are reported alongside."""
    _, ones = D._at.pairing()
    symmetric = all(ones[z].issuperset(K.indices) for z in K.indices)
    isotropic = symmetric and all(D.theta[i] == 0 for i in K.indices)
    lagrangian = None
    if D.pointed_source is not None:
        if D._lagrangians is None:
            from .qform import isotropic_subgroups
            M, _ = D.pointed_source
            recs = isotropic_subgroups(M)
            lags = [r.subgroup.indices() for r in recs if r.is_lagrangian]
            D._lagrangians = lags
        lag_sets = D._lagrangians
        lagrangian = {
            "lagrangian_subgroups": list(lag_sets),
            "k_is_lagrangian": tuple(sorted(K.indices)) in lag_sets,
        }
    return {"symmetric": symmetric, "isotropic": isotropic, "lagrangian_pointed": lagrangian}


# ---------------------------------------------------------------------------
# identity reports
# ---------------------------------------------------------------------------

def mueger_report(D: PreModularDatum, K: FusionSubring, B: FusionSubring,
                  config: Config = DEFAULT) -> list:
    """Dimension identities for a pair of subrings, pass/fail each.

    Categorical dimensions are sums of d^2 at the build's conductor, so
    each identity of products is list equality over one denominator.
    """
    R = D.ring
    at = D._at
    ctx, dd = at.ctx, at.dd
    lat = all_subrings(R, config)
    whole = FusionSubring(R, tuple(range(R.rank)))
    Kc = centralizer(D, K).centralizer
    Bc = centralizer(D, B).centralizer
    Cc = centralizer(D, whole).centralizer
    checks = []

    def meet(a, b):
        return lat.meet(a, b)

    def dims(a, b):
        return _mul_vec(ctx, at.total(dd, a.indices), at.total(dd, b.indices))

    def record(name, anchor, ok, witness=""):
        checks.append(Check(name, anchor, "pass" if ok else "fail", witness))

    record("dim-exchange", "centralizer-dim-exchange",
           dims(meet(B, Kc), K) == dims(meet(K, Bc), B))
    record("dim-product", "centralizer-dim-product",
           dims(K, Kc) == dims(whole, meet(K, Cc)))

    kcc = centralizer(D, Kc).centralizer
    join_kc = lat.join(K, Cc)
    record(
        "double-centralizer",
        "double-centralizer-join",
        kcc.indices == join_kc.indices,
        f"K'' = {kcc.indices}, K v C' = {join_kc.indices}",
    )

    record("diamond-dims", "join-meet-dims", dims(K, B) == dims(lat.join(K, B), meet(K, B)))

    fp = fp_dims(R, config)

    def fptot(sub):
        return sum(fp.fpdim[i] ** 2 for i in sub.indices)

    lhs_f = fptot(K) * fptot(Kc)
    rhs_f = fptot(whole) * fptot(meet(K, Cc))
    record(
        "fp-dim-product",
        "centralizer-fp-dim-product",
        abs(lhs_f - rhs_f) <= config.tolerance * max(1.0, abs(rhs_f)),
        f"{lhs_f} vs {rhs_f}",
    )

    sub_rank = matrix_rank([[D.S_tilde[y][z] for z in K.indices] for y in K.indices])
    if sub_rank == K.rank:
        ok1 = meet(K, Kc).indices == (R.unit,)
        ok2 = dims(K, Kc) == dims(whole, meet(K, Cc))
        record("nondeg-factor", "nondegenerate-subring-factorization", ok1 and ok2)
    else:
        checks.append(Check("nondeg-factor", "nondegenerate-subring-factorization", "skipped",
                            "K degenerate"))
    return checks


class InvariantReport(NamedTuple):
    tau_plus: CycloNum
    tau_minus: CycloNum
    charge_sq: object      # CycloNum or None when tau- = 0
    dim_total: CycloNum
    x_class: object        # square-free int or None
    gfp_plus: object       # CycloNum or None
    gfp_minus: object
    checks: tuple


def gauss_and_charge(D: PreModularDatum, config: Config = DEFAULT) -> InvariantReport:
    """Gauss sums, squared charge, and the summation identities.

    Verifies, exactly: conjugacy of the two sums; the twisted row sum
    sum_X theta_X d(X) s_{XY} = d(Y) theta_Y^-1 tau+ for every Y; the
    relation tau+-(C) tau-+(K) = dim(K) tau+-(K') for every subring K;
    and for non-degenerate data, tau(E') = tau(C) for isotropic E plus
    tau+ tau- = dim(C) with the charge a root of unity.  tau+-(K) and
    dim(K) are sums over K of the build's vectors; the returned sums are
    made as vectors, and every identity but the first and the last is
    tested on the build's evaluations at its base (``_Kron``): the
    twisted row sums, the products over subrings and the norm as one
    integer divisibility each, with both sides over one power of the
    denominator, and tau(E') = tau(C), sums without products, as integer
    equality.
    """
    R = D.ring
    at = D._at
    kr = at.kron
    L, den, divides = at.ctx.n, at.den, kr.divides
    every = range(R.rank)
    tau_p = CycloNum(L, at.total(at.td[+1]), den ** 2)
    tau_m = CycloNum(L, at.total(at.td[-1]), den ** 2)
    dim_tot = CycloNum(L, at.total(at.dd), den ** 2)
    checks = [
        Check("conjugate-sums", "gauss-conjugate-pair",
              "pass" if tau_m == tau_p.conjugate() else "fail")
    ]
    ptd, pdd = kr.td, kr.dd
    tp, tm = sum(ptd[+1]), sum(ptd[-1])
    for y in every:   # both sides over den^3
        ok = divides(den * sum(map(mul, kr.qd, kr.S[y])) - kr.qi[y] * tp)
        checks.append(
            Check(f"twisted-row-sum[{R.labels[y]}]", "twisted-row-sum", "pass" if ok else "fail")
        )
    lat = all_subrings(R, config)
    nondeg = is_nondegenerate(D)
    for sub in lat.subrings:
        kc = centralizer(D, sub).centralizer.indices
        dk = sum(pdd[i] for i in sub.indices)
        tp_c, tm_c = sum(ptd[+1][i] for i in kc), sum(ptd[-1][i] for i in kc)
        ok = (   # over den^4
            divides(tp * sum(ptd[-1][i] for i in sub.indices) - dk * tp_c)
            and divides(tm * sum(ptd[+1][i] for i in sub.indices) - dk * tm_c)
        )
        checks.append(
            Check(f"gauss-mult[{','.join(sub.labels())}]",
                  "gauss-centralizer-multiplicativity",
                  "pass" if ok else "fail")
        )
        flags = symmetric_and_isotropic(D, sub)
        if nondeg and flags["isotropic"]:
            checks.append(
                Check(f"isotropic-centralizer-gauss[{','.join(sub.labels())}]",
                      "isotropic-centralizer-gauss",
                      "pass" if tp_c == tp and tm_c == tm else "fail")
            )
    charge = None
    if not tau_m.is_zero():
        charge = tau_p / tau_m
    if nondeg:
        norm = divides(tp * tm - den ** 2 * sum(pdd))   # over den^4
        checks.append(
            Check("norm", "gauss-norm-is-dimension", "pass" if norm else "fail")
        )
        checks.append(
            Check("charge-root", "squared-charge-root-of-unity",
                  "pass" if charge is not None and charge.is_root_of_unity() is not None
                  else "fail")
        )
    x_class = t_p = t_m = None
    try:
        x_class, t_p, t_m = gfp_invariants(D, config)
    except (Degenerate, NotWeaklyIntegral):
        pass
    return InvariantReport(tau_p, tau_m, charge, dim_tot, x_class, t_p, t_m, tuple(checks))


def gfp_invariants(D: PreModularDatum, config: Config = DEFAULT):
    """(square-free class, T+, T-) of a weakly integral non-degenerate datum.

    The class is the unique square class x with pairing values
    s~_{a, X} = theta_a d(a) for all a centralizing the integral part
    and all X of square class x; T+- sums integer-normalized FP
    dimensions against theta^+-1 d over that class.  The pairing values
    are read from the datum's table of s_{aX} = +-d(a) d(X).  The result
    is kept on the datum with ``config.tolerance``, the one setting the FP
    rounding reads, so ``gauss_and_charge`` and a later call at the same
    tolerance share it; a refusal keeps nothing.  The square classes and
    the integral part, which depend on the ring and tolerance alone, are
    kept so on the ring (``FusionRing._squares``) for every datum on it.
    """
    if D._gfp is not None and D._gfp[0] == config.tolerance:
        return D._gfp[1]
    if not is_nondegenerate(D):
        raise Degenerate("square-class Gauss sums need a non-degenerate datum")
    R = D.ring
    at = D._at
    ctx, den = at.ctx, at.den
    pm, _ = at.pairing()
    if R._squares is None or R._squares[0] != config.tolerance:
        sq = fp_square_integers(R, config)      # NotWeaklyIntegral if not
        R._squares = (config.tolerance, sq, tuple(_squarefree(m) for m in sq),
                      integral_part(R, config).indices)
    _, sq, sf, int_part = R._squares
    A = centralizer(D, FusionSubring(R, int_part)).centralizer
    if not set(A.indices) <= set(pointed_part(R).indices):
        raise ClassificationBug("centralizer of the integral part is not pointed")
    one = [den] + [0] * (ctx.phi - 1)
    chi = {}
    for a in A.indices:
        if at.qd[a] == one:
            chi[a] = 1
        elif at.qd[a] == [-c for c in one]:
            chi[a] = -1
        else:
            val = CycloNum(ctx.n, at.qd[a], den).as_rational()
            raise ClassificationBug(f"braiding character value {val} is not +-1")
    candidates = []
    for v in sorted(set(sf)):
        members = [x for x in range(R.rank) if sf[x] == v]
        if all(pm[a][x] == chi[a] for a in A.indices for x in members):
            candidates.append(v)
    if len(candidates) != 1:
        raise ClassificationBug(f"square-class solutions: {candidates}")
    n_c = candidates[0]
    t_p = [0] * ctx.phi
    t_m = [0] * ctx.phi
    for x in range(R.rank):
        if sf[x] != n_c:
            continue
        m2, rem = divmod(sq[x], n_c)
        if rem:
            raise ClassificationBug("square class does not divide FPdim^2")
        w = math.isqrt(m2)
        if w * w != m2:
            raise ClassificationBug("normalized FP dimension is not an integer")
        t_p = [a + w * b for a, b in zip(t_p, at.qd[x])]
        t_m = [a + w * b for a, b in zip(t_m, at.qi[x])]
    t_p, t_m = CycloNum(ctx.n, t_p, den), CycloNum(ctx.n, t_m, den)
    if t_m != t_p.conjugate():
        raise ClassificationBug("square-class sums are not conjugate")
    kept = (n_c, t_p, t_m)
    D._gfp = (config.tolerance, kept)
    return kept
