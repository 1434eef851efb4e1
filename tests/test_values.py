"""Value semantics of the records and of the validating classes.

Records are NamedTuples; classes that validate, normalise or cache are
slotted classes with equality and hash over their value fields only.
Equal inputs must give equal objects with equal hashes (the hash of the
field tuple, so set and dict orders are stable), constructors must
normalise and refuse as documented, and reprs stay as they were.
"""

from fractions import Fraction as F

import pytest

from braidforge.abelian import FinAbGroup, GroupHom, Subgroup
from braidforge.config import Config
from braidforge.errors import BadParameter, Check, NotMetric
from braidforge.fusion import FusionSubring, all_subrings, ising_ring
from braidforge.premodular import centralizer, ising_datum, pointed_datum
from braidforge.qform import AnisotropicLabel, PreMetricGroup, a_form
from braidforge.witt import WittClass, witt_class

G = FinAbGroup((2, 4))
A2 = AnisotropicLabel("A", 2, (F(1, 4),))
R3 = AnisotropicLabel("OddRank1", 3, (1,))


def test_equal_inputs_give_equal_objects_with_equal_hashes():
    R = ising_ring()
    pairs = [
        (FinAbGroup((2, 4)), FinAbGroup([2, 4])),
        (Subgroup(G, (0, 2, 4, 6)), Subgroup(G, [6, 4, 2, 0, 0])),
        (GroupHom(G, G, [(1, 0), (0, 1)]), GroupHom.identity(G)),
        (PreMetricGroup(FinAbGroup((2,)), ["0", "2/8"]), a_form()),
        (FusionSubring(R, (2, 0)), FusionSubring(R, [0, 2, 2])),
        (WittClass(((3, R3), (2, A2))), WittClass(((2, A2), (3, R3)))),
        (Config(tolerance=1e-3), Config(tolerance=1e-3)),
        (ising_datum(F(1, 16), 1), ising_datum(F(1, 16), 1)),
        (pointed_datum(a_form()), pointed_datum(a_form())),
        (Check("n", "a", "pass"), Check("n", "a", "pass", "")),
    ]
    for a, b in pairs:
        assert a is not b and a == b and not a != b and hash(a) == hash(b), a
    assert FinAbGroup((2, 4)) != FinAbGroup((4, 2)) and FinAbGroup((2,)) != (2,)
    assert Config(tolerance=1e-3) != Config() and pointed_datum(a_form()) != ising_datum(
        F(1, 16), 1)
    assert len({FinAbGroup((2, 4)), FinAbGroup([2, 4]), FinAbGroup((4,))}) == 2


def test_hash_is_the_hash_of_the_compared_fields():
    assert hash(FinAbGroup((2, 4))) == hash(((2, 4),))
    H = Subgroup(G, (0, 4))
    assert hash(H) == hash((G, (0, 4)))
    R = ising_ring()
    assert hash(FusionSubring(R, (0, 1))) == hash((R, (0, 1)))
    assert hash(R) == hash((R.labels, R.unit, R.dual, R.rows))
    M = a_form()
    assert hash(M) == hash((M.group, M.level, M.res))
    assert hash(WittClass(((2, A2),))) == hash((((2, A2),),))
    cfg = Config()
    assert hash(cfg) == hash((1e-6, 256, 64, 12, "json", 2_000_000, 2310))
    D = ising_datum(F(1, 16), 1)
    assert hash(D) == hash((D.ring, D.theta, D.dim, None))


def test_caches_are_not_compared():
    H, K = Subgroup(G, (0, 4)), Subgroup(G, (0, 4))
    assert H.gen_idx == (4,) and H._gens is not None and K._gens is None and H == K
    D, E = ising_datum(F(1, 16), 1), ising_datum(F(3, 16), 1)
    centralizer(D, all_subrings(D.ring).subrings[1])
    assert D._cents and D == ising_datum(F(1, 16), 1) and D != E


def test_constructors_normalise_and_refuse():
    R = ising_ring()
    assert FusionSubring(R, (2, 0, 2)).indices == (0, 2)
    with pytest.raises(BadParameter, match=r"subring indices \(0, 3\) outside 0..2"):
        FusionSubring(R, (3, 0))
    assert WittClass(((3, R3), (2, A2))).parts == ((2, A2), (3, R3))
    assert witt_class(a_form()).parts == ((2, A2),)
    with pytest.raises(NotMetric):
        WittClass(((2, AnisotropicLabel("SlightDeg2", 2)),))
    assert Subgroup(G, [4, 0, 4]).idx == (0, 4) and FinAbGroup(["2", 4.0]).orders == (2, 4)


@pytest.mark.parametrize("kwargs, message", [
    ({"tolerance": 0.5}, "tolerance must lie in (0, 1e-2)"),
    ({"enum_guard": 0}, "enum_guard must be positive"),
    ({"conductor_guard": -1}, "conductor_guard must be positive"),
    ({"output": "xml"}, "output must be 'json' or 'text'"),
])
def test_config_refuses_with_the_same_messages(kwargs, message):
    with pytest.raises(BadParameter) as info:
        Config(**kwargs)
    assert str(info.value) == message


def test_records_keep_field_order_and_reprs():
    c = Check("axioms", "quadratic-form-axioms", "fail", "at 3")
    assert list(c._asdict().items()) == [("name", "axioms"), ("anchor", "quadratic-form-axioms"),
                                         ("status", "fail"), ("witness", "at 3")]
    assert Check("n", "a", "pass")._asdict()["witness"] == ""
    assert repr(Config()) == ("Config(tolerance=1e-06, enum_guard=256, aut_guard=64, "
                              "rank_guard=12, output='json', aut_count_cap=2000000, "
                              "conductor_guard=2310)")
    assert repr(GroupHom.identity(FinAbGroup((2,)))) == (
        "GroupHom(source=FinAbGroup(Z/2), target=FinAbGroup(Z/2), table=(0, 1))")
    assert repr(Subgroup(G, (0, 4))) == "Subgroup(parent=FinAbGroup(Z/2 x Z/4), idx=(0, 4))"
    assert repr(FusionSubring(ising_ring(), (0, 2))) == (
        "FusionSubring(parent=FusionRing(1, delta, X), indices=(0, 2))")
    assert repr(witt_class(a_form())) == "WittClass(2: A(p=2, 1/4))"
