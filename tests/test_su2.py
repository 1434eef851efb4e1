"""SU(2)_k, k = 1..11, against closed forms: data that come neither from a
finite group nor from Ising.

The family (Bakalov and Kirillov, Lectures on Tensor Categories and
Modular Functors, AMS 2001, section 3.3): the basis V_0..V_k, all
self-dual, with truncated Clebsch-Gordan fusion; twists
theta_j = e^(2 pi i j(j+2) / 4(k+2)) and dimensions d_j = [j+1]_q,
q = e^(pi i / (k+2)).  Then the unnormalised S is s_ab = [(a+1)(b+1)]_q
and the central charge is c = 3k/(k+2), so tau+/tau- = e^(2 pi i c/4).
The even part (integer spin) is non-degenerate for odd k, and SU(2)_k
is its product with {V_0, V_k}; for even k its Mueger centre is
{V_0, V_k}, Tannakian when k = 0 mod 4 and super-Tannakian when
k = 2 mod 4 (Mueger, On the structure of modular categories, Proc. LMS
87 (2003)).  Each datum goes through ``validate_ring`` and ``build``,
twice on one ring, so the second build reads the first's dimension kit.
"""

import random
from fractions import Fraction as F

import pytest

from braidforge.cyclotomic import CycloNum, root_sum
from braidforge.fusion import FusionRing, FusionSubring, validate_ring
from braidforge.premodular import (
    build,
    centralizer,
    gauss_and_charge,
    ising_datum,
    is_nondegenerate,
    symmetric_and_isotropic,
)

from test_premodular import _outcome, _reference_build

LEVELS = range(1, 12)   # rank k + 1 <= 12, the default rank_guard


def qint(n: int, k: int) -> CycloNum:
    """[n]_q = sum_m q^(n-1-2m), q = e^(pi i/(k+2))."""
    return root_sum([(F(n - 1 - 2 * m, 2 * (k + 2)), 1) for m in range(n)])


def su2(k: int, basis=None):
    """The datum of SU(2)_k on the V_j with j in ``basis`` (every j by
    default), which must span a subring, built twice on one validated ring."""
    js = list(range(k + 1)) if basis is None else list(basis)

    def n(a, b, c):
        return int(abs(a - b) <= c <= min(a + b, 2 * k - a - b) and (a + b + c) % 2 == 0)

    N = [[[n(a, b, c) for c in js] for b in js] for a in js]
    R = validate_ring([f"V{j}" for j in js], 0, list(range(len(js))), N)
    theta = [F(j * (j + 2), 4 * (k + 2)) for j in js]
    dims = [qint(j + 1, k) for j in js]
    D = build(R, theta, dims)
    again = build(R, theta, dims)   # a kit hit
    assert (again.S, again._pS, again._kron.inv) == (D.S, D._pS, D._kron.inv)
    return D


def passes(D) -> bool:
    return all(c.status != "fail" for c in gauss_and_charge(D).checks)


@pytest.mark.parametrize("k", LEVELS)
def test_su2_matches_its_closed_forms(k):
    D = su2(k)
    assert [[D.S[a][b] for b in range(k + 1)] for a in range(k + 1)] == [
        [qint((a + 1) * (b + 1), k) for b in range(k + 1)] for a in range(k + 1)]
    rep = gauss_and_charge(D)
    assert passes(D) and is_nondegenerate(D)
    assert rep.charge_sq == CycloNum.from_root(F(3 * k, 4 * (k + 2)))

    even = su2(k, range(0, k + 1, 2))
    top = even.rank - 1 if k % 2 == 0 else None   # V_k, when k is even
    assert passes(even)
    if top is None:
        # the even part is modular and its centralizer in SU(2)_k is {V_0, V_k}
        assert is_nondegenerate(even)
        sub = FusionSubring(D.ring, range(0, k + 1, 2))
        assert centralizer(D, sub).centralizer.indices == (0, k)
        ends = su2(k, (0, k))
        assert D.tau() == even.tau() * ends.tau()
    else:
        # the Mueger centre is {V_0, V_k}, with d(V_k) = 1 and theta_k = k/4
        centre = centralizer(even, FusionSubring(even.ring, range(even.rank))).centralizer
        assert centre.indices == (0, top) and not is_nondegenerate(even)
        assert even.dim[top] == CycloNum.one() and even.theta[top] == F(k % 4, 4)
        flags = symmetric_and_isotropic(even, centre)
        assert flags["symmetric"] and flags["isotropic"] == (k % 4 == 0)


def test_su2_level_2_is_ising():
    # (V_0, V_2, V_1) -> (1, delta, X)
    D, I = su2(2), ising_datum(F(5, 16), -1)
    p = (0, 2, 1)
    assert [D.theta[j] for j in p] == list(I.theta) and [D.dim[j] for j in p] == list(I.dim)
    assert [[[D.ring.N[p[a]][p[b]][p[c]] for c in range(3)] for b in range(3)]
            for a in range(3)] == [[list(row) for row in plane] for plane in I.ring.N]
    assert [[D.S[p[a]][p[b]] for b in range(3)] for a in range(3)] == [list(row) for row in I.S]


def test_su2_mutations_fail_as_the_reference_build_does():
    # one twist moved, or one structure constant flipped (on a ring built
    # without validation): the error of the CycloNum reference build
    rng = random.Random(27)
    failures = set()
    for k in LEVELS:
        D = su2(k)
        R, r = D.ring, D.rank
        for kind in ("theta", "N"):
            theta, ring = list(D.theta), R
            if kind == "theta":
                i = rng.randrange(1, r)
                theta[i] = F(rng.randrange(4 * (k + 2)), 4 * (k + 2))
            else:
                x, y, z = (rng.randrange(r) for _ in range(3))
                N = [[list(row) for row in plane] for plane in R.N]
                N[x][y][z] = 1 - N[x][y][z]
                ring = FusionRing(R.labels, R.unit, R.dual,
                                  tuple(tuple(map(tuple, plane)) for plane in N))
            want = _outcome(_reference_build, ring, theta, D.dim)
            got = _outcome(build, ring, theta, D.dim)
            if not isinstance(got, tuple):
                got = (got.S, got.S_tilde)
            assert got == want, (k, kind)
            if isinstance(want[0], type):
                failures.add(want[0].__name__)
    assert failures == {"SymmetryFail", "VerlindeFail"}
