"""Gauss sums and the Witt group."""

import random
import time
from fractions import Fraction as F

import pytest

from braidforge.abelian import FinAbGroup
from braidforge.cyclotomic import CycloNum
from braidforge.errors import NotMetric
from braidforge.qform import (
    a_form,
    anisotropic_catalog,
    direct_sum,
    hyperbolic_plane,
    is_metric,
    isotropic_subgroups,
    m_form,
    odd_norm,
    odd_rank1,
    quotient_form,
    random_form,
    slight_deg2,
)
from braidforge.witt import (
    WittClass,
    ZERO_CLASS,
    gauss_sum,
    is_hyperbolic,
    tau_image,
    tau_plus,
    witt_add,
    witt_class,
    witt_neg,
)

ONE = CycloNum.one()
I = CycloNum.from_root(F(1, 4))


def test_gauss_values():
    rep = gauss_sum(a_form(F(1, 4)))
    assert rep.tau_plus == ONE + I
    assert rep.tau_minus == ONE - I
    assert rep.norm_check and rep.positivity is None
    assert tau_plus(odd_norm(3)) == CycloNum.from_rational(-3)
    assert tau_plus(m_form(F(1, 8))) == 2 * CycloNum.from_root(F(1, 8))
    assert gauss_sum(slight_deg2()).tau_plus.is_zero()
    assert gauss_sum(hyperbolic_plane(2)).positivity == 2


def test_gauss_multiplicative_under_sum():
    rng = random.Random(9)
    for _ in range(25):
        M1 = random_form(FinAbGroup(rng.choice([(2,), (4,), (3,), (2, 2)])), rng)
        M2 = random_form(FinAbGroup(rng.choice([(2,), (5,), (4,), (3, 3)])), rng)
        assert tau_plus(direct_sum(M1, M2)) == tau_plus(M1) * tau_plus(M2)


def test_subquotient_identity():
    rng = random.Random(13)
    for _ in range(40):
        orders = rng.choice([(4,), (2, 4), (8,), (9,), (2, 2, 2), (12,), (6,)])
        M = random_form(FinAbGroup(orders), rng)
        for rec in isotropic_subgroups(M):
            H = rec.subgroup
            q = quotient_form(M, H)
            assert tau_plus(M) == tau_plus(q) * H.order


def test_hyperbolic_detection():
    ok, witness = is_hyperbolic(hyperbolic_plane(2))
    assert ok and witness.order == 2
    assert not is_hyperbolic(odd_norm(3))[0]
    # positive-integer Gauss sum on a metric 2-group forces hyperbolicity
    M = direct_sum(m_form(F(1, 4)), m_form(F(3, 4)))
    assert tau_plus(M) == CycloNum.from_rational(4)
    ok, witness = is_hyperbolic(M)
    assert ok and witness.order ** 2 == M.order


def test_witt_class_examples():
    for p in (2, 3):
        assert witt_class(hyperbolic_plane(p)).is_zero
    c = witt_class(a_form(F(1, 4)))
    assert c.at(2).kind == "A"
    M = direct_sum(direct_sum(a_form(F(1, 4)), a_form(F(1, 4))), m_form(F(3, 4)))
    assert tau_plus(M) == CycloNum.from_rational(4)
    assert witt_class(M).is_zero
    with pytest.raises(NotMetric):
        witt_class(slight_deg2())


def test_witt_group_laws():
    wa = witt_class(a_form(F(1, 4)))
    wb = witt_class(a_form(F(3, 4)))
    assert witt_add(wa, wb).is_zero
    assert witt_add(wa, ZERO_CLASS) == wa
    wc = witt_class(m_form(F(1, 2)))
    assert witt_add(wc, wc).is_zero
    assert witt_neg(wa) == wb
    # mixed primes stay separated
    w3 = witt_class(odd_rank1(3))
    mixed = witt_add(wa, w3)
    assert mixed.at(2) == wa.at(2) and mixed.at(3) == w3.at(3)
    assert witt_add(mixed, witt_neg(mixed)).is_zero


def test_class_order_divides_eight():
    for p in (2, 3, 5):
        orders = (2, 4, 8) if p == 2 else (p, p * p)
        for o in orders:
            for lab in anisotropic_catalog(p, o):
                if lab.kind in ("SlightDeg2", "SlightDeg4"):
                    continue
                c = WittClass(((p, lab),))
                acc = c
                k = 1
                while not acc.is_zero:
                    acc = witt_add(acc, c)
                    k += 1
                    assert k <= 8
                assert 8 % k == 0


def test_tau_image():
    assert tau_image(ZERO_CLASS, 3) == tau_image(ZERO_CLASS, 2)
    lab3 = tau_image(witt_class(odd_rank1(3)), 3)
    assert (lab3.unit, lab3.radical) == (F(0), 1)
    lab2 = tau_image(witt_class(a_form(F(1, 4))), 2)
    assert (lab2.unit, lab2.radical) == (F(0), 1)
    labC = tau_image(witt_class(m_form(F(1, 2))), 2)
    assert (labC.unit, labC.radical) == (F(1, 2), 0)


def _tau_image_by_division(c, p):
    """tau_image as first written: dividing by the radical generator and
    by each unit with the general inverse."""
    from braidforge.qform import build_labeled_form
    from braidforge.witt import TauLabel, _radical_generator

    lab = c.at(p)
    if lab is None:
        return TauLabel(F(0), 0)
    tau = tau_plus(build_labeled_form(lab))
    units = [F(k, 8) for k in range(8)] if p == 2 else [F(0), F(1, 2)]
    for rad_exp, val in ((0, tau), (1, tau / _radical_generator(p))):
        for u in units:
            r = (val / CycloNum.from_root(u)).as_rational()
            if r is not None and r > 0:
                return TauLabel(u, rad_exp)
    raise AssertionError(f"no label for {lab}")


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_tau_image_matches_division_reference(p):
    orders = (2, 4, 8) if p == 2 else (p, p * p)
    labels = [
        lab
        for o in orders
        for lab in anisotropic_catalog(p, o)
        if lab.kind not in ("SlightDeg2", "SlightDeg4")
    ]
    assert len(labels) == (2 + 7 + 6 if p == 2 else 3)
    for lab in labels:
        c = WittClass(((p, lab),))
        assert tau_image(c, p) == _tau_image_by_division(c, p), lab


def test_tau_image_of_a_large_prime_is_quick():
    # the rank-1 generator at p = 251, an order just under the default
    # enum_guard; inverting its Gauss sum in Q(zeta_251) took minutes
    start = time.perf_counter()
    lab = tau_image(witt_class(odd_rank1(251, 1)), 251)
    assert (lab.unit, lab.radical) == (F(0), 1)
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("p", [2, 3, 5])
def test_tau_separates_classes(p):
    orders = (2, 4, 8) if p == 2 else (p, p * p)
    classes = [ZERO_CLASS] + [
        WittClass(((p, lab),))
        for o in orders
        for lab in anisotropic_catalog(p, o)
        if lab.kind not in ("SlightDeg2", "SlightDeg4")
    ]
    labels = [(tau_image(c, p).unit, tau_image(c, p).radical) for c in classes]
    assert len(set(labels)) == len(labels)
    # and equal tau+ means isomorphic representatives (injectivity)
    taus = {}
    for c in classes:
        t = tau_plus(c.representative())
        key = t
        assert key not in taus or taus[key] == c
        taus[key] = c


def test_random_metric_norm():
    rng = random.Random(31)
    seen = 0
    for _ in range(60):
        orders = rng.choice([(4,), (2, 2), (8,), (3,), (9,), (2, 4), (5,)])
        M = random_form(FinAbGroup(orders), rng)
        if not is_metric(M):
            continue
        seen += 1
        rep = gauss_sum(M)
        assert rep.tau_plus * rep.tau_minus == CycloNum.from_rational(M.order)
    assert seen >= 20


def test_power_of_two_gauss_signs_sampled():
    # metric 2-groups of order 4^n, n <= 3: tau+ = 2^n eps with eps^8 = 1,
    # and eps = 1 exactly when a Lagrangian exists
    rng = random.Random(4096)
    shapes = {
        1: [(4,), (2, 2)],
        2: [(16,), (2, 8), (4, 4), (2, 2, 4)],
        3: [(64,), (2, 32), (4, 16), (8, 8)],
    }
    seen = 0
    for n, shape_list in shapes.items():
        count = 0
        while count < 40:
            M = random_form(FinAbGroup(rng.choice(shape_list)), rng)
            if not is_metric(M):
                continue
            count += 1
            eps = tau_plus(M) * F(1, 2 ** n)
            r = eps.is_root_of_unity()
            assert r is not None and (8 * r) % 1 == 0
            assert (r == 0) == is_hyperbolic(M)[0]
        seen += count
    assert seen >= 120
