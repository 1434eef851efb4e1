"""Cross-validation of the exact tower against complex floating point.

Every exact value has a numerical shadow via zeta_n -> exp(2 pi i / n);
agreement to 1e-9 on random samples is an oracle independent of the
reduction machinery (conductor descent, power-basis reduction, Galois
maps) that the exact path relies on.
"""

import cmath
import math
import random
from fractions import Fraction as F

import pytest

from braidforge.cyclotomic import CycloNum, root_sum
from braidforge.premodular import ising_datum, pointed_datum
from braidforge.qform import hyperbolic_plane, random_form
from braidforge.abelian import FinAbGroup
from braidforge.witt import tau_plus


def as_complex(c: CycloNum) -> complex:
    z = cmath.exp(2j * cmath.pi / c.conductor)
    return sum(float(coef) * z ** k for k, coef in enumerate(c.coeffs))


def close(a: complex, b: complex, tol=1e-9) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def rnd(rng, terms=4):
    return root_sum(
        (F(rng.randrange(48), 48), F(rng.randrange(-6, 7), rng.randrange(1, 5)))
        for _ in range(terms)
    )


def test_ring_ops_match_complex():
    rng = random.Random(99)
    for _ in range(60):
        a, b = rnd(rng), rnd(rng)
        assert close(as_complex(a + b), as_complex(a) + as_complex(b))
        assert close(as_complex(a * b), as_complex(a) * as_complex(b))
        assert close(as_complex(-a), -as_complex(a))
        if not a.is_zero():
            assert close(as_complex(a.inverse()), 1 / as_complex(a))
        assert close(as_complex(a.conjugate()), as_complex(a).conjugate())


def test_roots_match_complex():
    for n in (1, 2, 3, 4, 8, 12, 16, 48):
        for k in range(n):
            got = as_complex(CycloNum.from_root(F(k, n)))
            want = cmath.exp(2j * cmath.pi * k / n)
            assert close(got, want)


def test_gauss_sums_match_complex():
    rng = random.Random(123)
    for _ in range(25):
        M = random_form(FinAbGroup(rng.choice([(4,), (2, 4), (9,), (12,), (3, 3)])), rng)
        want = sum(cmath.exp(2j * cmath.pi * float(v)) for v in M.values)
        assert close(as_complex(tau_plus(M)), want)


def test_s_matrices_match_complex():
    D = ising_datum(F(3, 16), -1)
    lam = -(2 * math.cos(2 * math.pi * 6 / 16))
    want = [
        [1, 1, lam],
        [1, 1, -lam],
        [lam, -lam, 0],
    ]
    for i in range(3):
        for j in range(3):
            assert close(as_complex(D.S[i][j]), want[i][j])
    M = hyperbolic_plane(3)
    DP = pointed_datum(M)
    for i, g in enumerate(M.group.elements()):
        for j, h in enumerate(M.group.elements()):
            assert close(
                as_complex(DP.S[i][j]),
                cmath.exp(2j * cmath.pi * float(M.b(g, h))),
            )


def test_galois_action_matches_exponent_scaling():
    rng = random.Random(5)
    for _ in range(25):
        terms = [
            (F(rng.randrange(24), 24), F(rng.randrange(-3, 4)))
            for _ in range(3)
        ]
        a = root_sum(terms)
        n = a.conductor
        for k in range(1, n + 1):
            # exponent scaling is the Galois action only when k is a
            # unit modulo every term denominator, i.e. coprime to 24
            if math.gcd(k, 24) != 1:
                continue
            got = as_complex(a.galois(k))
            want = sum(
                float(w) * cmath.exp(2j * cmath.pi * float(r) * k) for r, w in terms
            )
            assert close(got, want)
            exact = root_sum(((r * k) % 1, w) for r, w in terms)
            assert a.galois(k) == exact


def shadow(terms, k=1) -> complex:
    """The value of sum w zeta^(k*r) over (r, w) in ``terms``, in floats."""
    return sum(float(w) * cmath.exp(2j * cmath.pi * float(r) * k) for r, w in terms)


@pytest.mark.parametrize("n, pairs, galois_ks", [
    (105, 6, None),    # Phi_105 has the coefficient -2
    (385, 4, 40),      # Phi_385 has coefficients from -3 to 2
    (2257, 2, 4),      # = 37 * 61, phi = 2160: half of Phi's tail is nonzero
    (2309, 2, 4),      # prime: every tail coefficient of Phi is -1
])
def test_large_conductors_match_complex(n, pairs, galois_ks):
    """Sums, products and Galois conjugates at conductors whose Phi_n
    reduces with large or dense tails, against the float shadow of the
    terms themselves; inverses at 105."""
    rng = random.Random(n)

    def terms():
        # a primitive n-th root with weight 1 keeps the conductor at n
        return [(F(1, n), F(1))] + [
            (F(rng.randrange(n), n), F(rng.randrange(-6, 7), rng.randrange(1, 5)))
            for _ in range(5)
        ]

    units = [k for k in range(1, n) if math.gcd(k, n) == 1]
    for _ in range(pairs):
        ta, tb = terms(), terms()
        a, b = root_sum(ta), root_sum(tb)
        assert a.conductor == n
        za, zb = shadow(ta), shadow(tb)
        assert close(as_complex(a), za) and close(as_complex(b), zb)
        assert close(as_complex(a + b), za + zb)
        assert close(as_complex(a * b), za * zb)
        assert close(as_complex(a.conjugate()), za.conjugate())
        ks = units if galois_ks is None else rng.sample(units, galois_ks)
        for k in ks:
            assert close(as_complex(a.galois(k)), shadow(ta, k))
        if n == 105:
            assert close(as_complex(a.inverse()), 1 / za)
