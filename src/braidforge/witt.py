"""Gauss sums of quadratic forms and the Witt group of metric forms.

The Gauss sums are tau(+/-) = sum over g of e^(+-2*pi*i*q(g)), exact
cyclotomic numbers.  Metric forms modulo the isotropic-subquotient
equivalence make a group under orthogonal direct sum; each class is
stored by its anisotropic representative labels per prime, and the
class is detected by reducing to the anisotropic quotient.  The
tau(+) value separates classes at each prime, landing in the finite
set generated by fourth/eighth roots and the rank-1 Gauss sum.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from . import kernels
from .abelian import Subgroup
from .config import DEFAULT, Config
from .cyclotomic import CycloNum, _monomial, level_root_sum
from .errors import ClassificationBug, NotMetric
from .qform import (
    PreMetricGroup,
    build_labeled_form,
    classify_anisotropic,
    direct_sum,
    is_metric,
    isotropic_subgroups,
    odd_rank1,
    quotient_form,
    trivial_form,
)

_METRIC_KINDS = {"OddRank1", "OddNorm", "A", "M", "MplusA"}


class GaussReport(NamedTuple):
    tau_plus: CycloNum
    tau_minus: CycloNum
    norm_check: bool            # (metric implies tau+ tau- = |G|)
    positivity: object          # Fraction when tau+ is rational, else None


def gauss_sum(M: PreMetricGroup) -> GaussReport:
    tau = tau_plus(M)
    taub = tau.conjugate()
    metric = is_metric(M)
    check = (not metric) or tau * taub == CycloNum.from_rational(M.order)
    return GaussReport(tau, taub, check, tau.as_rational())


def tau_plus(M: PreMetricGroup) -> CycloNum:
    return level_root_sum(M.level, M.res)


def is_hyperbolic(M: PreMetricGroup, config: Config = DEFAULT):
    """(found, witness): a Lagrangian subgroup if one exists."""
    for rec in isotropic_subgroups(M, config):
        if rec.is_lagrangian:
            return True, rec.subgroup
    return False, None


class WittClass:
    """Per-prime anisotropic metric representative labels.

    Absent prime = trivial class there; the zero class is the empty
    tuple.  Labels are the canonical classification labels, so equality
    of classes is equality of fields.
    """

    __slots__ = ("parts",)  # sorted tuple of (p, AnisotropicLabel)

    def __init__(self, parts):
        for _, lab in parts:
            if lab.kind not in _METRIC_KINDS:
                raise NotMetric(f"label {lab} is not a metric class")
        self.parts = tuple(sorted(parts))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self):
        return hash((self.parts,))

    @property
    def is_zero(self) -> bool:
        return not self.parts

    def at(self, p: int):
        for q, lab in self.parts:
            if q == p:
                return lab
        return None

    def representative(self) -> PreMetricGroup:
        M = trivial_form()
        for _, lab in self.parts:
            M = direct_sum(M, build_labeled_form(lab))
        return M

    def __repr__(self):
        if not self.parts:
            return "WittClass(0)"
        return "WittClass(%s)" % ", ".join(f"{p}: {lab}" for p, lab in self.parts)


ZERO_CLASS = WittClass(())


def anisotropic_quotient(M: PreMetricGroup, config: Config = DEFAULT) -> PreMetricGroup:
    """The anisotropic subquotient, by repeated single-line reduction.

    Quotienting by one isotropic cyclic subgroup at a time reaches the
    same isomorphism class as one pass through a maximal isotropic
    subgroup, and keeps every intermediate enumeration tiny.
    """
    while True:
        i = next((i for i in range(1, M.order) if M.res[i] == 0), None)
        if i is None:
            return M
        G = M.group
        M = quotient_form(M, Subgroup.closed(G, kernels.closure(G.order, G.add_flat(), [i])))


def witt_class(M: PreMetricGroup, config: Config = DEFAULT) -> WittClass:
    """The Witt class of a metric form."""
    if not is_metric(M):
        raise NotMetric("Witt classes are defined for non-degenerate forms")
    core = anisotropic_quotient(M, config)
    labels = classify_anisotropic(core)
    return WittClass(tuple((lab.prime, lab) for lab in labels))


def witt_add(c1: WittClass, c2: WittClass, config: Config = DEFAULT) -> WittClass:
    return witt_class(direct_sum(c1.representative(), c2.representative()), config)


def witt_neg(c: WittClass, config: Config = DEFAULT) -> WittClass:
    return witt_class(c.representative().negated(), config)


# ---------------------------------------------------------------------------
# the tau+ labels
# ---------------------------------------------------------------------------

class TauLabel(NamedTuple):
    """tau+ of a Witt class modulo positive rationals.

    ``unit`` is the root-of-unity factor as a fraction exponent (an
    eighth root at p = 2, a sign at odd p); ``radical`` counts the
    rank-1 Gauss-sum generator mod 2 (1+i at p = 2, the quadratic Gauss
    sum at odd p).
    """

    unit: Fraction
    radical: int


def _radical_generator(p: int) -> CycloNum:
    if p == 2:
        return CycloNum.one() + CycloNum.from_root(Fraction(1, 4))  # 1 + i
    return tau_plus(odd_rank1(p, 1))


def tau_image(c: WittClass, p: int) -> TauLabel:
    """Express tau+ of the class at p in the canonical generators.

    The TauLabel is memoised by the class's label at p: labels come from
    the anisotropic catalog, a few per prime, so the memo stays small.
    """
    lab = c.at(p)
    return TauLabel(Fraction(0), 0) if lab is None else _tau_label(lab)


@lru_cache(maxsize=None)
def _tau_label(lab) -> TauLabel:
    p = lab.prime
    tau = tau_plus(build_labeled_form(lab))
    # g * conj(g) = |g|^2 is p (2 for g = 1 + i), a positive rational, so
    # tau * conj(g) and tau / g have the same label, read off by _monomial
    for rad_exp, val in ((0, tau), (1, tau * _radical_generator(p).conjugate())):
        m = _monomial(val)
        if m is not None and ((8 if p == 2 else 2) * m[1]).denominator == 1:
            return TauLabel(m[1], rad_exp)
    raise ClassificationBug(f"tau+ of {lab} outside the generator set at p = {p}")
