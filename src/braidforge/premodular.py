"""Pre-modular data: fusion ring + twists + dimensions, all exact.

The S-matrix is always derived from the triple via the balancing
formula s_{XY} = theta_X^-1 theta_Y^-1 sum_Z N_{XY}^Z theta_Z d(Z),
never user-supplied, and a datum exists only if every structural
identity holds exactly: unit twist, nonzero dimensions, conjugate dual
dimensions, S symmetric and dual-invariant, first row = dimensions,
and the product relation s_{XY} s_{XZ} = d(X) sum_W N_{YZ}^W s_{XW}.
S is derived at one conductor L, over one denominator, and made
directly at one base B = 2^k (Kronecker substitution, ``_Kron``;
D. Harvey, Faster polynomial multiplication via multipoint Kronecker
substitution, J. Symbolic Comput. 44 (2009)): each value is a balanced
residue mod Phi_L(B), the evaluation at B of its coefficient vector at
L, made from the dimensions' values at B times powers of B, with no
vector made first.  S_XY and S_YX are one residue where N_XY = N_YX
(``build``).  Equal residues mean equal values, and an identity with
products in it is one integer divisibility, so a product is one
multiplication of integers in C.  The residues are the only exact form
a built datum keeps, on the one object ``build`` makes
(``PreModularDatum``): every check and report runs on them, and a
CycloNum is made only for a value a caller reads.  The CycloNum
matrices ``S``, one per distinct residue, and ``S_tilde`` (s~ = d^-1 S
d^-1, S times one product of inverses per pair of distinct dimensions)
are made on first read; no report but ``mueger_report`` reads them.

The dimensions are a character of the ring, fixed before any braiding
is chosen (Etingof, Gelaki, Nikshych and Ostrik, Tensor Categories,
4.7), so the work that reads them alone is kept on the ring, once per
dimension tuple and conductor, by the first build with them that
succeeds: one base (``_Kron``, made by ``_kit_base``) that holds the
classes of the distinct dimensions and their denominator D, B and its
bound, their values at B and F_p images, and their inverses.  Being
kept, it says that the unit, zero and dual-dimension checks passed.  A
later datum on the ring with the same dimensions and conductor does
only the work that reads its twists: S, the symmetry, duality and
unit-row tests and the product relation, which run on every build in
the same order.

The product relation says that each normalized row Y -> s_{XY} / d(X)
is a character of the ring.  A linear map with value 1 at the unit that
is multiplicative on a set of algebra generators Y (every Z) is a
character, by the unit law and associativity, so ``build`` checks the
relation on the rows Y of ``fusion.algebra_generators`` only (every row
if the ring fails either axiom): |Y| r^2 products in place of r^3/2.  A
row X that fails there is scanned over every (Y, Z), so the error names
the same first failing (X, Y, Z).

The reports run on the same residues and make CycloNums only for the
values they return.  s~_{YV} = 1 is tested as s_{YV} = d(Y) d(V),
integer equality at B, once per datum, with d(Y) d(V) kept once per
pair of distinct dimensions; the centralizer of K is the set of
V whose test holds for all of K, and its component count is checked
against the exact rank of the K rows of S.  Whether the image of S
over F_p, taken by linearity from the images of d and of the powers of
zeta_L, has full rank is tested once per datum: if it has, every K's
rank is |K| at once, and otherwise the K rows are eliminated exactly.
A centralizer's subring test and components depend on the
ring alone, so they are kept on the ring, once per index set.  Each
centralizer report is built once per (datum, subring) and each subring
lattice once per ring.  Each of Mueger's dimension identities for a
pair of subrings (M. Mueger, On the structure of modular categories,
Proc. LMS 87 (2003)) is one integer divisibility, as the products of
Gauss sums are.
Gauss sums, the squared central charge, and the square-class Gauss
sums of weakly integral non-degenerate data close out the invariant set;
their identities are tested on the build's residues at its base;
the square-class sums are kept on the datum, as its reports are, and
the ring's square classes and integral part on the ring.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial, reduce
from itertools import chain
from operator import mul
from typing import NamedTuple

from .config import DEFAULT, Config
from .cyclotomic import (
    CycloNum,
    _canonical_conductor,
    _ctx,
    _fold_bound,
    _modular,
    _mul_vec,
    _rank_mod_p,
    _rank_vec,
    _root_power,
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


def _s_entry(rows, roots, cls, L, value, x, y):
    """S_xy = theta_x^-1 theta_y^-1 sum_z N_xy^z theta_z d_z, as the sum
    over z of N_xy^z (-1)^(s_x + s_y + s_z) value(cls[z], u_z), with
    u_z = t_z - t_x - t_y mod L and value(k, u) the image of zeta_L^u
    times the k-th distinct dimension: a residue mod Phi_L(B)
    (``_Kron.rot``) or mod p (``_Kron.fp``).  The sign is a negation,
    never a turn by L/2, which only an even L has."""
    (sx, tx), (sy, ty) = roots[x], roots[y]
    tot = 0
    for z, m in zip(*rows[x][y]):
        s, t = roots[z]
        v = value(cls[z], (t - tx - ty) % L)
        tot += -m * v if (s + sx + sy) & 1 else m * v
    return tot


class _Kron:
    """Evaluation at one base B = 2^k, and the test that turns an
    identity between vectors at L into one integer divisibility.

    ``pack(v)`` is v(B) = sum v_i B^i, exactly, for a vector v whose
    coefficients are below B/2 in size.  Let Delta be a sum of products
    of two vectors (each of phi coefficients) with integer weights, so
    of degree <= 2 phi - 2, whose coefficients are at most M in size.
    Then Phi_L divides Delta if and only if Phi_L(B) divides Delta(B)
    (``divides``), since B > R + h + 1, where R = (2 phi - 1) M c and
    (c, h) = ``_fold_bound``: c bounds the coefficients of x^j mod Phi_L
    and h those of Phi_L below its top.

    Proof: Phi_L is monic, so Delta = q Phi_L + rho with q integral and
    deg rho < phi, and each |rho_i| <= R, as each of the 2 phi - 1 terms
    Delta_j x^j folds down to at most M c per coefficient.  Phi_L(B)
    divides Delta(B) exactly when it divides rho(B).  But |rho(B)| <=
    R (B^phi - 1) / (B - 1) < B^phi - h (B^phi - 1) / (B - 1) <= Phi_L(B),
    since B - 1 > R + h; so that forces rho(B) = 0, and as every
    |rho_i| < B, the lowest nonzero coefficient of a nonzero rho would
    be a multiple of B: so rho = 0.

    ``pack`` and ``unpack`` are linear in the length: each coefficient is
    one word of k binary digits, offset by B/2.
    ``bal(x)`` is the balanced residue of x mod Phi_L(B), the one of
    least size.  A vector v whose coefficients are at most M/2 in size
    has |v(B)| < Phi_L(B)/2, since 2 |v(B)| + h (B^phi - 1) / (B - 1) <=
    (M + h) (B^phi - 1) / (B - 1) < B^phi: so the balanced residue of any
    x = v(B) mod Phi_L(B) is v(B) itself, and two such vectors are equal
    exactly when their balanced residues are, as v(B) = w(B) with every
    |v_i - w_i| < B forces v = w.

    A ``_Kron`` that ``_kit_base`` makes holds, in the slots after
    ``half``, what ``build`` reads of one dimension tuple at L on one
    ring, of rank r and with m the most constituents of a product counted
    with multiplicity (``FusionRing._mult``): ``cls``, which numbers each
    d(i) among the distinct dimensions, and D, the lcm of their
    denominators; A = c max(m |d|_1, |d^2|_1), the largest 1-norms of
    the distinct dimensions lifted to L over D and of their squares over
    D^2; M = phi A^2 W, with W = max(1 + m, r (2 r + D^2)) the weights of
    ``build``'s, ``gauss_and_charge``'s and ``mueger_report``'s
    identities (1 + m for the product relation, r (D + 1) for a twisted
    row sum, 2 r^2 for a product of Gauss sums over subrings and for a
    dimension identity, and r^2 + r D^2 for the norm); the ``bases``, d
    and d^2 of each distinct dimension evaluated at B, and ``pdv`` and
    ``pdd`` by index; ``pairs``, +-d(y) d(v) once per pair of distinct
    dimensions; the F_p images ``img`` of the bases' d and ``omega`` of
    each zeta_L^u (``cyclotomic._modular``); and ``inv``, the CycloNum
    inverse of each distinct dimension, which ``build`` makes once the
    first build with the base succeeds, before it keeps the base.
    ``rot(b, u)`` = bal(base_b B^u) is made on first need, once, in a
    table that any build at L fills: each entry reads the base alone.
    No kept value is changed in place.
    Three facts make every residue of ``build`` the evaluation at B of
    the vector that the same expression makes at L, and every test on
    them exact:

    1. A bounds every coefficient of every vector the checks read.  As
       zeta^u v = sum_i v_i (x^(u+i) mod Phi_L), |zeta^u v|_inf <= c |v|_1;
       so theta^+-1 d and theta^+-1 d^2 are within c |d|_1 and c |d^2|_1,
       an S entry, a sum of at most m of the former with signs, within
       m c |d|_1, and d and d^2 within their 1-norms, as c >= 1 (x^0 = 1).
    2. Every vector read or returned is within M/2: those of fact 1, as
       2 A <= M; D S and the pairs +-d(y) d(v), within D A and
       c |d|_1^2 <= A^2; sums of at most r of them with weights of total
       at most r m (Gauss sums, ``gfp_invariants``), within r m A, as
       A >= m and W >= 2 r.  And B - 1 > R + h >= M + h (R >= 2 M when
       phi >= 2, and c = 2 at L = 1).  So by the paragraph above each
       residue made as bal(v(B) B^u), or as a signed sum of those, is the
       evaluation of its vector, equal residues mean equal vectors, and
       ``unpack`` recovers the vector.
    3. The divisibility test holds unchanged: every identity is a sum of
       products of two vectors within A, with weights of total at most
       W, so M bounds its coefficients.  A dimension identity of
       ``mueger_report``, dim(a) dim(b) - dim(c) dim(e) with dim a sum of
       d^2 over a subring, is one of at most 2 r^2 such products.
    """

    __slots__ = ("n", "phi", "k", "mod", "half", "cls", "D", "A", "bases", "pdv", "pdd",
                 "pairs", "rots", "p", "img", "omega", "inv")

    def __init__(self, ctx, M: int):
        c, h = _fold_bound(ctx)
        self.k = k = ((2 * ctx.phi - 1) * M * c + h + 1).bit_length()   # B = 2^k > R + h + 1
        self.mod = (1 << k * ctx.phi) - sum(t << k * j for j, t in ctx.tail)   # Phi_L(B)
        self.n, self.phi, self.half = ctx.n, ctx.phi, 1 << k - 1

    def __eq__(self, other):   # by value, so a copy of a base equals it; unhashable
        return type(other) is _Kron and all(
            getattr(self, s, None) == getattr(other, s, None) for s in self.__slots__)

    def pack(self, v) -> int:
        """v(B) for a vector v with every |v_i| < B/2."""
        word = f"0{self.k}b"
        return int("".join(format(c + self.half, word) for c in reversed(v)), 2) - int(
            format(self.half, word) * len(v), 2)

    def unpack(self, x: int) -> list:
        """The vector v of phi coefficients with v(B) = x and every |v_i| < B/2."""
        k, half, phi = self.k, self.half, self.phi
        digits = format(x + int(format(half, f"0{k}b") * phi, 2), f"0{k * phi}b")
        return [int(digits[i - k:i], 2) - half for i in range(k * phi, 0, -k)]

    def bal(self, x: int) -> int:
        """The balanced residue of x mod Phi_L(B)."""
        return (x + (self.mod >> 1)) % self.mod - (self.mod >> 1)

    def divides(self, x: int) -> bool:
        """Whether Phi_L(B) divides x."""
        return x % self.mod == 0

    def rot(self, b: int, u: int) -> int:
        """bal(base_b B^u), 0 <= u < L: zeta_L^u times the b-th base (d of
        each distinct dimension, then d^2), evaluated at B; made on first
        need, by a shift of k u bits and one reduction."""
        i = b * self.n + u
        v = self.rots[i]
        if v is None:
            v = self.rots[i] = self.bal(self.bases[b] << self.k * u)
        return v

    def fp(self, k: int, u: int) -> int:
        """The F_p image of zeta_L^u d for the k-th distinct dimension d,
        not yet reduced mod p."""
        return self.omega[u] * self.img[k]


def _kit_base(ring: FusionRing, kinds: tuple, cls: tuple, ctx) -> _Kron:
    """The base of the distinct dimensions ``kinds`` at L = ctx.n on
    ``ring``, ``cls[i]`` numbering d(i) among them, with what ``build``
    reads of them there (see ``_Kron``); kept by ``build`` in
    ``ring._kits[dim, L]`` once a build with it succeeds."""
    L, D = ctx.n, reduce(math.lcm, (d.den for d in kinds), 1)
    lifts = [[c * (D // d.den) for c in d._lift(L)] for d in kinds]
    squares = [_mul_vec(ctx, v, v) for v in lifts]
    if ring._mult is None:   # the most constituents of a product, with multiplicity
        ring._mult = max(sum(ms) for _, ms in chain.from_iterable(ring.rows))
    m, r = ring._mult, ring.rank
    A = _fold_bound(ctx)[0] * max(m * max(sum(map(abs, v)) for v in lifts),
                                  max(sum(map(abs, v)) for v in squares))
    kr = _Kron(ctx, ctx.phi * A * A * max(1 + m, r * (2 * r + D * D)))
    kr.cls, kr.D, kr.A = cls, D, A
    nk = len(lifts)
    kr.bases = bases = [kr.pack(v) for v in lifts + squares]
    kr.pdv, kr.pdd = [bases[k] for k in cls], [bases[nk + k] for k in cls]
    kr.pairs = {(a, b): (dd, -dd) for a in range(nk) for b in range(a, nk)
                for dd in [kr.bal(bases[a] * bases[b])]}
    kr.rots = [None] * (2 * nk * L)
    kr.p, w = _modular(ctx)
    kr.omega = [pow(w[1] if ctx.phi > 1 else 1, u, kr.p) for u in range(L)]
    kr.img = [sum(map(mul, v, w)) % kr.p for v in lifts]
    return kr


class PreModularDatum:
    """A built datum: ring, twists and dimensions, with its values at its
    conductor L as balanced residues mod Phi_L(B) at the base B its ring
    keeps for its dimensions at L (``_Kron``), its only exact form.

    ``theta`` holds the twists as Fraction exponents of roots of unity,
    ``dim`` a CycloNum per index, and ``pointed_source`` (PreMetricGroup,
    chi tuple) for a pointed datum, set before any caller sees it, with
    the form's element index i the ring's basis index i.  The
    residues are private: ``_kron`` is the base, with what reads the
    dimensions alone: its D is the denominator and ``cls[i]`` numbers d(i)
    among the distinct dimensions.  ``_ctx`` is L's context; ``_pS`` holds
    S over D (S_xy and S_yx one int), ``_pqd`` theta d, ``_pqi`` theta^-1
    d and ``_ptd[sign]`` theta^sign d^2, the last over D^2, and
    ``_roots[i]`` = (s, t) with theta_i = (-1)^s zeta_L^t.  A value a
    report returns is unpacked from one residue, or from a sum of them
    (``_vector``).  ``S``, the derived CycloNum matrix, and ``S_tilde``,
    s_XY / (d(X) d(Y)), are made from the residues on first read and kept.
    Built on first use too: ``_pm[y][v]``, which is s~_{yv} where that is
    +-1 and 0 elsewhere, with ``_ones[v]`` the set of y where it is 1;
    ``_full``, whether the image of S over F_p has full rank;
    _nondegenerate, _lagrangians (index sets of the Lagrangian subgroups
    of a pointed source), _cents (K.indices -> CentralizerReport) and _gfp
    ((config.tolerance, the result of gfp_invariants) for the last
    tolerance).  No kept value is changed in place.  Ring, twists and
    dimensions fix S and s~: equality and hashing read them and the
    pointed source.
    """

    __slots__ = ("ring", "theta", "dim", "pointed_source", "_ctx", "_roots", "_kron", "_pS",
                 "_pqd", "_pqi", "_ptd", "_pm", "_ones", "_full", "_S", "_S_tilde",
                 "_nondegenerate", "_lagrangians", "_cents", "_gfp")

    def __init__(self, ring: FusionRing, theta: tuple, dim: tuple, ctx, roots, kron, pS):
        self.ring, self.theta, self.dim = ring, theta, dim
        self._ctx, self._roots, self._kron, self._pS = ctx, roots, kron, pS
        rot, L, nk = kron.rot, ctx.n, len(kron.img)

        def turned(base, sign):   # theta_i^sign times the base's value at each i
            return [(-1) ** s * rot(base + c, sign * t % L) for (s, t), c in zip(roots, kron.cls)]

        self._pqd, self._pqi = turned(0, 1), turned(0, -1)
        self._ptd = {sign: turned(nk, sign) for sign in (1, -1)}
        self.pointed_source = self._pm = self._ones = self._full = self._S = self._S_tilde = None
        self._nondegenerate, self._lagrangians, self._cents, self._gfp = None, None, {}, None

    def _vector(self, packs, indices=None) -> list:
        """The vector of the sum of the residues ``packs`` over ``indices``
        (all of them when None): one unpack, since the sum of at most r
        residues is the evaluation of the sum of their vectors (``_Kron``)."""
        return self._kron.unpack(sum(packs) if indices is None else sum(packs[i] for i in indices))

    def _pairing(self):
        """(_pm, _ones), built once: s_{yv} against +-d(y) d(v), over D^2,
        which the base keeps once per pair of distinct dimensions (``cls``)."""
        if self._pm is None:
            S, cls, pairs, den = self._pS, self._kron.cls, self._kron.pairs, self._kron.D
            r = len(S)
            pm = [[0] * r for _ in range(r)]
            for y in range(r):
                for v in range(y, r):
                    key = (cls[y], cls[v]) if cls[y] <= cls[v] else (cls[v], cls[y])
                    dd, neg = pairs[key]
                    s = S[y][v] if den == 1 else S[y][v] * den
                    if s == dd:
                        pm[y][v] = pm[v][y] = 1
                    elif s == neg:
                        pm[y][v] = pm[v][y] = -1
            self._pm = pm
            self._ones = [frozenset(y for y in range(r) if pm[y][v] == 1) for v in range(r)]
        return self._pm, self._ones

    def _rank_rows(self, rows) -> int:
        """Exact rank of the rows of S in ``rows``.

        When the image of S over F_p has full rank, so has S, and every
        set of its rows is independent; otherwise ``_rank_vec`` eliminates
        the vectors of those rows, unpacked from their residues, exactly.
        The image of S is taken by linearity, from the base's images of d
        and of the powers of zeta_L (``_Kron.fp``), not from S's vectors.
        """
        kr = self._kron
        if self._full is None:
            r = len(self._pS)
            entry = partial(_s_entry, self.ring.rows, self._roots, kr.cls, self._ctx.n, kr.fp)
            A = [[0] * r for _ in range(r)]
            for x in range(r):
                for y in range(x, r):
                    A[x][y] = A[y][x] = entry(x, y) % kr.p
            self._full = _rank_mod_p(kr.p, A) == r
        if self._full:
            return len(rows)
        return _rank_vec(self._ctx, [list(map(kr.unpack, self._pS[y])) for y in rows])

    @property
    def S(self) -> tuple:
        """S as CycloNums, one per distinct residue: equal residues are
        equal vectors (``_Kron``, fact 2)."""
        if self._S is None:
            L, den, unpack = self._ctx.n, self._kron.D, self._kron.unpack
            forms = {v: CycloNum(L, unpack(v), den) for v in set(chain.from_iterable(self._pS))}
            self._S = tuple(tuple(map(forms.__getitem__, row)) for row in self._pS)
        return self._S

    @property
    def S_tilde(self) -> tuple:
        """s~_XY = s_XY (d(X)^-1 d(Y)^-1) in CycloNums, made on first read
        from ``S`` and the inverses the build's base keeps: symmetric as S
        is, with d(X)^-1 d(Y)^-1 made once per pair of distinct dimensions."""
        if self._S_tilde is None:
            S, cls, inv = self.S, self._kron.cls, self._kron.inv
            r = len(S)
            pairs, St = {}, [[None] * r for _ in range(r)]
            for x in range(r):
                for y in range(x, r):
                    key = (cls[x], cls[y]) if cls[x] <= cls[y] else (cls[y], cls[x])
                    if key not in pairs:
                        pairs[key] = inv[key[0]] * inv[key[1]]
                    St[x][y] = St[y][x] = S[x][y] * pairs[key]
            self._S_tilde = tuple(map(tuple, St))
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
        return CycloNum(self._ctx.n, self._vector(self._kron.pdd, indices), self._kron.D ** 2)

    def tau(self, sign: int = +1, indices=None) -> CycloNum:
        """sum theta^sign d^2 over ``indices`` (every index by default)."""
        if sign not in (1, -1):
            raise BadParameter("sign must be +1 or -1")
        return CycloNum(self._ctx.n, self._vector(self._ptd[sign], indices), self._kron.D ** 2)

    def __repr__(self):
        return f"PreModularDatum({self.ring!r})"


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def _dimension_classes(ring: FusionRing, dim: tuple) -> tuple:
    """The dimension checks of ``build``, in its order; then the distinct
    dimensions, in order of first index, and ``cls``, which numbers each
    d(i) among them."""
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
    return tuple(kinds), cls


def build(ring: FusionRing, theta, dim, config: Config = DEFAULT) -> PreModularDatum:
    """Derive the S-matrix and verify every datum identity exactly.

    L joins the twists' and the dimensions' conductors and D the
    dimensions' denominators.  Entries of S are over D, made at the base
    B the ring keeps for the dimensions at L as balanced residues mod
    Phi_L(B): with theta_i = (-1)^s_i zeta_L^t_i, S_xy is the sum over z
    of N_xy^z (-1)^(s_x + s_y + s_z) times d_z B^(t_z - t_x - t_y),
    reduced (``_s_entry``), which is the evaluation at B of S_xy's vector
    at L (``_Kron``, facts 1 and 2).  So symmetry, duality and the unit
    row are integer equality.  The product relation's sides are over
    D^2, and each (X, Y, Z) is one integer divisibility test, in the
    order the vector test took.  theta d, theta^-1 d and theta^+-1 d^2,
    which the Gauss sums read, are made only once the product relation
    holds (``PreModularDatum``).
    S is made on one triangle, x <= y: where N_xy = N_yx (every pair of
    a commutative ring), S_yx is the same expression and shares S_xy's
    residue; elsewhere it is made and compared in row-major order, so a
    non-commutative table fails at the pair a full check would name.
    The product relation is checked on the rows Y of the ring's algebra
    generators, which ``fusion`` checks on the ring itself (see the module
    docstring).

    The dimensions are a character of the ring, fixed before any twist, so
    their work is kept on the ring once per (dimensions, L), as one base
    (``_Kron``, made by ``_kit_base``), once a build with them succeeds.
    A later build on the ring with equal dimensions at the same L reads
    that base and skips the unit, zero and dual-dimension checks, which
    passed for it; a build that finds none runs them, then the conductor
    guard, then makes the base.  The guard runs before any value kept
    for L is read, and every check that reads a twist runs on every
    build.  The first build with a base makes the inverse of each
    distinct dimension, for s~, which like S is left to the datum's first
    read (``PreModularDatum.S_tilde``).  perfbench's binding test counts
    ``cyclotomic.mul`` on a build, which the CycloNum product in
    ``inverse`` makes, so that first build inverts.
    """
    r = ring.rank
    theta = tuple(root_exp(t) for t in theta)
    dim = tuple(d if isinstance(d, CycloNum) else CycloNum.from_rational(d) for d in dim)
    if len(theta) != r or len(dim) != r:
        raise DatumError("twist and dimension tables must cover the basis")
    if theta[ring.unit] != 0:
        raise UnitTwistFail(f"unit twist is {theta[ring.unit]}, not 1")
    L = reduce(math.lcm, chain((_canonical_conductor(t.denominator) for t in theta),
                               (d.n for d in dim)), 1)
    kr = ring._kits.get((dim, L))
    new = kr is None
    if new:
        kinds, cls = _dimension_classes(ring, dim)
    config.check_conductor(L)
    ctx = _ctx(L)
    if new:
        kr = _kit_base(ring, kinds, cls, ctx)
    # theta_z = (-1)^s zeta_L^t
    roots = [_root_power(t.numerator, t.denominator, L) for t in theta]
    rows, pd, mod = ring.rows, kr.pdv, kr.mod
    entry = partial(_s_entry, rows, roots, kr.cls, L, kr.rot)   # S_xy over D, at B
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
        if S[ring.unit][x] != pd[x]:
            raise SymmetryFail(f"S[unit][{x}] != d({ring.labels[x]})")

    def fault(x, ys):   # the first (y, z), y in ys, with s_xy s_xz != d_x sum_w N_yz^w s_xw
        P, dx = S[x], pd[x]
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

    if new:   # one inverse per distinct dimension, then the base is kept
        kr.inv = [d.inverse() for d in kinds]
        ring._kits[dim, L] = kr
    return PreModularDatum(ring, theta, dim, ctx, roots, kr, S)   # and the Gauss-sum values, now


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
    theta = tuple(root_exp(v + (Fraction(1, 2) if c == -1 else 0))
                  for v, c in zip(M.values, chi))
    dim = tuple(CycloNum.from_rational(c) for c in chi)
    D = build(ring, theta, dim, config)
    D.pointed_source = (M, chi)
    return D


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
    if (
        D1.pointed_source is not None
        and D2.pointed_source is not None
        and all(c == 1 for c in D1.pointed_source[1])
        and all(c == 1 for c in D2.pointed_source[1])
    ):
        from .qform import orthogonal_sum   # numbered as the ring: i * r2 + j
        form = orthogonal_sum(D1.pointed_source[0], D2.pointed_source[0])
        datum.pointed_source = (form, (1,) * form.group.order)
    return datum


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
    integer equality at the build's base (``PreModularDatum._pairing``).
    The rank of the K-rows of s~ equals the number of K'-components; it
    is computed on the K rows of S, whose rank is the same, since s~ =
    d^-1 S d^-1 scales rows and columns by nonzero dimensions
    (``PreModularDatum._rank_rows``).  Disagreement would falsify the
    datum and raises ClassificationBug.  The report is built once per
    (datum, K.indices) and kept on the datum.  The centralizer, once it
    is found to be a subring and the report passes, is kept on the ring
    by its indices, as a ``FusionSubring`` (the lattice's own, when the
    ring keeps its lattice) with its components, so a later datum on the
    ring skips the test and both constructions; a refused report keeps
    nothing.
    """
    rep = D._cents.get(K.indices)
    if rep is not None:
        return rep
    R = D.ring
    _, ones = D._pairing()
    cent = tuple(v for v in range(R.rank) if ones[v].issuperset(K.indices))
    kept = R._comps.get(cent)
    if kept is None:
        if subring_generated(R, cent).indices != cent:
            raise ClassificationBug("centralizer is not a subring")
        subs = () if R._lattice is None else R._lattice.subrings
        sub = next((S for S in subs if S.indices == cent), None) or FusionSubring(R, cent)
        kept = sub, components(R, cent)
    rank = D._rank_rows(K.indices)
    if rank != len(kept[1]):
        raise ClassificationBug(f"rank {rank} != component count {len(kept[1])}")
    R._comps[cent] = kept
    rep = D._cents[K.indices] = CentralizerReport(K, *kept, rank)
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
    latter does, which is one divisibility test at the build's base
    (``_Kron``: a sum of at most r products, within its weights).
    """
    kr = D._kron
    _, ones = D._pairing()
    out = []
    for v in range(D.rank):
        inside = ones[v].issuperset(K.indices)
        vanishes = kr.divides(sum(kr.pdv[y] * D._pS[y][v] for y in K.indices))
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
    _, ones = D._pairing()
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

    Categorical dimensions are sums of d^2, over den^2, of the build's
    residues at its base, so each identity dim(a) dim(b) = dim(c) dim(e)
    is one integer divisibility (``_Kron``, fact 3).
    """
    R = D.ring
    kr = D._kron
    pdd = kr.pdd
    lat = all_subrings(R, config)
    whole = FusionSubring(R, tuple(range(R.rank)))
    Kc = centralizer(D, K).centralizer
    Bc = centralizer(D, B).centralizer
    Cc = centralizer(D, whole).centralizer
    checks, meet = [], lat.meet

    def dim(a):
        return sum(pdd[i] for i in a.indices)

    def same(a, b, c, e):   # dim(a) dim(b) = dim(c) dim(e)
        return kr.divides(dim(a) * dim(b) - dim(c) * dim(e))

    def record(name, anchor, ok, witness=""):
        checks.append(Check(name, anchor, "pass" if ok else "fail", witness))

    record("dim-exchange", "centralizer-dim-exchange", same(meet(B, Kc), K, meet(K, Bc), B))
    record("dim-product", "centralizer-dim-product", same(K, Kc, whole, meet(K, Cc)))

    kcc = centralizer(D, Kc).centralizer
    join_kc = lat.join(K, Cc)
    record(
        "double-centralizer",
        "double-centralizer-join",
        kcc.indices == join_kc.indices,
        f"K'' = {kcc.indices}, K v C' = {join_kc.indices}",
    )

    record("diamond-dims", "join-meet-dims", same(K, B, lat.join(K, B), meet(K, B)))

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
        ok2 = same(K, Kc, whole, meet(K, Cc))
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
    dim(K) are sums over K of the build's residues at its base
    (``_Kron``), and the returned sums are unpacked from them.  Every
    identity but the first and the last is tested on those residues: the
    twisted row sums, the products over subrings and the norm as one
    integer divisibility each, with both sides over one power of the
    denominator, and tau(E') = tau(C), sums without products, as integer
    equality.  E is isotropic when the double braiding is trivial on it
    (read from the pairing, as ``symmetric_and_isotropic`` reads it) and
    so is each of its twists.
    """
    R = D.ring
    kr = D._kron
    den, divides = kr.D, kr.divides
    ptd, pdd = D._ptd, kr.pdd
    tp, tm = sum(ptd[+1]), sum(ptd[-1])
    tau_p, tau_m, dim_tot = D.tau(+1), D.tau(-1), D.dim_total()
    checks = [
        Check("conjugate-sums", "gauss-conjugate-pair",
              "pass" if tau_m == tau_p.conjugate() else "fail")
    ]
    for y in range(R.rank):   # both sides over den^3
        ok = divides(den * sum(map(mul, D._pqd, D._pS[y])) - D._pqi[y] * tp)
        checks.append(
            Check(f"twisted-row-sum[{R.labels[y]}]", "twisted-row-sum", "pass" if ok else "fail")
        )
    lat = all_subrings(R, config)
    nondeg = is_nondegenerate(D)
    _, ones = D._pairing()
    untwisted = {i for i, t in enumerate(D.theta) if not t}
    for sub in lat.subrings:
        idx, name = sub.indices, ",".join(sub.labels())
        kc = centralizer(D, sub).centralizer.indices
        dk = sum(pdd[i] for i in idx)
        tp_c, tm_c = sum(ptd[+1][i] for i in kc), sum(ptd[-1][i] for i in kc)
        ok = (   # over den^4
            divides(tp * sum(ptd[-1][i] for i in idx) - dk * tp_c)
            and divides(tm * sum(ptd[+1][i] for i in idx) - dk * tm_c)
        )
        checks.append(
            Check(f"gauss-mult[{name}]", "gauss-centralizer-multiplicativity",
                  "pass" if ok else "fail")
        )
        if nondeg and untwisted.issuperset(idx) and all(ones[z].issuperset(idx) for z in idx):
            checks.append(
                Check(f"isotropic-centralizer-gauss[{name}]", "isotropic-centralizer-gauss",
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
    ctx, kr, den = D._ctx, D._kron, D._kron.D
    pm, _ = D._pairing()
    if R._squares is None or R._squares[0] != config.tolerance:
        sq = fp_square_integers(R, config)      # NotWeaklyIntegral if not
        R._squares = (config.tolerance, sq, tuple(_squarefree(m) for m in sq),
                      integral_part(R, config).indices)
    _, sq, sf, int_part = R._squares
    A = centralizer(D, FusionSubring(R, int_part)).centralizer
    if not set(A.indices) <= set(pointed_part(R).indices):
        raise ClassificationBug("centralizer of the integral part is not pointed")
    chi = {}
    for a in A.indices:   # theta_a d(a) = +-1 is +-den at the base
        if D._pqd[a] == den:
            chi[a] = 1
        elif D._pqd[a] == -den:
            chi[a] = -1
        else:
            val = CycloNum(ctx.n, kr.unpack(D._pqd[a]), den).as_rational()
            raise ClassificationBug(f"braiding character value {val} is not +-1")
    candidates = []
    for v in sorted(set(sf)):
        members = [x for x in range(R.rank) if sf[x] == v]
        if all(pm[a][x] == chi[a] for a in A.indices for x in members):
            candidates.append(v)
    if len(candidates) != 1:
        raise ClassificationBug(f"square-class solutions: {candidates}")
    n_c = candidates[0]
    t_p = t_m = 0
    for x in range(R.rank):
        if sf[x] != n_c:
            continue
        m2, rem = divmod(sq[x], n_c)
        if rem:
            raise ClassificationBug("square class does not divide FPdim^2")
        w = math.isqrt(m2)
        if w * w != m2:
            raise ClassificationBug("normalized FP dimension is not an integer")
        t_p += w * D._pqd[x]
        t_m += w * D._pqi[x]
    # w <= FPdim(x) <= m, so a sum within r m A, which unpacks (``_Kron``)
    t_p, t_m = CycloNum(ctx.n, kr.unpack(t_p), den), CycloNum(ctx.n, kr.unpack(t_m), den)
    if t_m != t_p.conjugate():
        raise ClassificationBug("square-class sums are not conjugate")
    kept = (n_c, t_p, t_m)
    D._gfp = (config.tolerance, kept)
    return kept
