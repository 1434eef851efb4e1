"""Dimension kits: the base ``premodular.build`` keeps on a ring per
(dimension tuple, conductor), and the dimension documents ``io`` keeps
beside it.

The oracle is a build on a fresh copy of the ring, made with
``FusionRing(...)``, which keeps nothing: a build on the interned ring,
after an earlier build with the same dimensions at the same conductor
has kept its base, must make the same residues, vectors and canonical
matrices, and a refused build must keep nothing and fail again the same
way.
"""

import copy
import json
import random
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import pytest

from braidforge import io as bio
from braidforge import premodular, qform
from braidforge.abelian import FinAbGroup
from braidforge.cli import main
from braidforge.config import Config
from braidforge.cyclotomic import CycloNum
from braidforge.errors import (
    BraidforgeError,
    DatumError,
    DualDimFail,
    EnumerationLimit,
    VerlindeFail,
    ZeroDim,
)
from braidforge.fusion import FusionRing, all_subrings, group_ring, validate_ring
from braidforge.premodular import (
    build,
    centralizer,
    deligne_product,
    gauss_and_charge,
    ising_datum,
    pointed_datum,
)

from test_abelian import invariant_shapes

ONE = CycloNum.one()


def _parsed(D):
    """D through JSON: a datum on the interned ring of its table."""
    return bio.datum_from_json(json.loads(json.dumps(bio.datum_to_json(D))))


def _heisenberg_datum():
    """Rep of the Heisenberg group of order 27, trivially twisted: nine
    characters and two 3-dimensional irreducibles V1, V2 with V1 V1 = 3 V2,
    a product with one constituent of multiplicity 3."""
    chars = [(a, b) for a in range(3) for b in range(3)]
    r = len(chars) + 2
    N = [[[0] * r for _ in range(r)] for _ in range(r)]
    for i, (a, b) in enumerate(chars):
        for j, (c, d) in enumerate(chars):
            N[i][j][chars.index(((a + c) % 3, (b + d) % 3))] = 1
        for v in (9, 10):
            N[i][v][v] = N[v][i][v] = 1
    for u in (1, 2):
        for v in (1, 2):
            if (u + v) % 3:
                N[8 + u][8 + v][8 + (u + v) % 3] = 3
            else:
                for k in range(9):
                    N[8 + u][8 + v][k] = 1
    labels = [f"l{a}{b}" for a, b in chars] + ["V1", "V2"]
    dual = [chars.index((-a % 3, -b % 3)) for a, b in chars] + [10, 9]
    R = validate_ring(labels, 0, dual, N)
    return build(R, (0,) * r, (1,) * 9 + (3, 3))


def _kit_data():
    """Every accepted corpus datum, the 16 Ising data, their 64 products of
    8, seeded pointed data, data with equal dimensions at two conductors
    on one ring, and one with a multiplicity-3 product; each on the
    interned ring of its table."""
    golden = Path(__file__).parent / "golden" / "inputs"
    out = [bio.datum_from_json(json.loads(p.read_text())) for p in sorted(golden.glob("datum_*.json"))]
    ising = [ising_datum(F(k, 16), e) for k in range(1, 16, 2) for e in (1, -1)]
    out += [_parsed(D) for D in ising]
    factors = ising[::2]
    out += [_parsed(deligne_product(A, B)) for A in factors for B in factors]
    rng = random.Random(37)
    for orders in invariant_shapes(12):
        G = FinAbGroup(orders)
        for _ in range(2):
            M = qform.random_form(G, rng)
            chi = tuple((-1) ** e[-1] if orders[-1] % 2 == 0 else 1 for e in G.elements())
            out += [_parsed(pointed_datum(M)), _parsed(pointed_datum(M, chi))]
    z2 = group_ring(FinAbGroup((2,)))
    for theta in ((0, F(1, 2)), (0, F(1, 4)), (0, F(1, 2)), (0, F(3, 4))):   # L = 1, 4, 1, 4
        out.append(_parsed(build(z2, theta, (1, 1))))
    out.append(_heisenberg_datum())
    return out


def _unpacked(D):
    """The build's values as vectors at L, each unpacked from its residue
    (``_Kron.unpack``), over the build's denominators: ``S`` (one vector
    per residue, so S_xy and S_yx share one where they share a residue),
    ``dv`` (d), ``qd`` (theta d), ``qi`` (theta^-1 d), ``dd`` (d^2) and
    ``td[sign]`` (theta^sign d^2)."""
    at = D._at
    kr, un = at.kron, at.kron.unpack
    vec = {v: un(v) for row in at.pS for v in row}
    return SimpleNamespace(S=[[vec[v] for v in row] for row in at.pS],
                           dv=list(map(un, kr.pdv)), qd=list(map(un, at.pqd)),
                           qi=list(map(un, at.pqi)), dd=list(map(un, kr.pdd)),
                           td={sign: list(map(un, at.ptd[sign])) for sign in (1, -1)})


def _vectors(D):
    """The build's vectors, its evaluations at the base, the inverses and
    the canonical matrices."""
    at, kr, V = D._at, D._at.kron, _unpacked(D)
    return (at.ctx.n, at.den, at.cls, V.S, V.dv, V.qd, V.qi, V.dd, V.td, kr.inv,
            kr.k, kr.mod, at.pS, kr.pdv, at.pqd, at.pqi, kr.pdd, at.ptd, D.S, D.S_tilde)


def test_warm_builds_match_fresh_builds(monkeypatch):
    # a build that reads a kept base makes what a build on a ring that keeps
    # nothing makes, and the reports leave every kept base as it was
    data = _kit_data()
    assert len(data) >= 16 + 64 + 2 * len(invariant_shapes(12))
    kits = set()
    for D in data:
        R, key = D.ring, (D.dim, D._at.ctx.n)
        assert key in R._kits
        kits.add((id(R), key))
        fresh = FusionRing(R.labels, R.unit, R.dual, R.N)
        want = _vectors(build(fresh, D.theta, D.dim))
        assert list(fresh._kits) == [key]
        with monkeypatch.context() as m:   # a hit checks no dimension again
            m.setattr(premodular, "_dimension_classes", None)
            E = build(R, D.theta, D.dim)
        assert _vectors(E) == want == _vectors(D), D
    assert len(kits) < len(data)   # products and pointed data share bases
    for D in data:
        key = (D.dim, D._at.ctx.n)
        kit = copy.deepcopy(D.ring._kits[key])
        if D.rank <= 12:
            gauss_and_charge(D)
            for K in all_subrings(D.ring).subrings:
                centralizer(D, K)
        assert D.S_tilde == _vectors(D)[-1]   # read from the kept inverses
        assert D.ring._kits[key] == kit


def _interned(R):
    return bio.ring_from_json(json.loads(json.dumps(bio.ring_to_json(R))))


def _refusal(ring, theta, dim, config=Config()):
    try:
        build(ring, theta, dim, config)
    except BraidforgeError as exc:
        return type(exc), str(exc)
    raise AssertionError("the build was accepted")


def _assert_refused_keeping_nothing(R, theta, dim, config=Config(), error=None):
    fresh = FusionRing(R.labels, R.unit, R.dual, R.N)
    want = _refusal(fresh, theta, dim, config)
    assert fresh._kits == {} and (error is None or want[0] is error), want
    before = dict(R._kits)
    for _ in range(2):   # the same refusal again: nothing was kept
        assert _refusal(R, theta, dim, config) == want
        assert R._kits == before
    return want


def test_a_refusal_keeps_no_kit_and_fails_again():
    z4 = _interned(group_ring(FinAbGroup((4,))))
    theta = (0, F(1, 8), F(1, 2), F(1, 8))
    i = CycloNum.from_root(F(1, 4))
    _assert_refused_keeping_nothing(z4, theta, (ONE, i, ONE, i), error=DualDimFail)
    _assert_refused_keeping_nothing(z4, theta, (ONE, CycloNum.zero(), ONE, ONE), error=ZeroDim)
    assert _assert_refused_keeping_nothing(z4, theta, (2, 1, 1, 1), error=DatumError) == (
        DatumError, "unit dimension must be 1")

    D = _parsed(deligne_product(ising_datum(F(1, 16), 1), ising_datum(F(3, 16), -1)))
    R = D.ring
    kit = R._kits[D.dim, 16]
    assert [L for d, L in R._kits if d == D.dim] == [16]
    for moved in (F(3, 16), F(1, 48)):   # at a kept conductor, and at a new one (48)
        theta = list(D.theta)
        theta[4] = moved
        _assert_refused_keeping_nothing(R, tuple(theta), D.dim, error=VerlindeFail)
    # the first build of a tuple that fails keeps no kit either: d(delta*delta)
    # = -1 passes the dimension checks, but d is then no character
    dim = tuple(-d if i == 4 else d for i, d in enumerate(D.dim))
    _assert_refused_keeping_nothing(R, D.theta, dim, error=VerlindeFail)
    assert [L for d, L in R._kits if d == D.dim] == [16] and R._kits[D.dim, 16] is kit
    # the guard runs before a kept value at its conductor is read
    _assert_refused_keeping_nothing(R, D.theta, D.dim, Config(conductor_guard=15))
    assert build(R, D.theta, D.dim, Config(conductor_guard=16)).S == D.S


def test_a_refused_datum_keeps_no_dimension_document():
    # io keeps a datum's documents on its ring only once the datum is built:
    # a refusal in build, or a bad later document, leaves the ring's as it was
    z4 = bio.ring_to_json(group_ring(FinAbGroup((4,))))
    R = bio.ring_from_json(z4)
    one, i, zero = (bio.cyclo_to_json(c) for c in (ONE, CycloNum.from_root(F(1, 4)),
                                                    CycloNum.zero()))
    twists = ["0/1", "1/8", "1/2", "1/8"]
    for dims, error in (([one, i, one, i], DualDimFail),
                        ([one, zero, one, one], ZeroDim),
                        ([one, i, one, {"conductor": 4, "coeffs": ["1/2", "x"]}], BraidforgeError)):
        before = dict(R._dims)
        for _ in range(2):
            with pytest.raises(error):
                bio.datum_from_json({"ring": z4, "twists": twists, "dims": dims})
            assert R._dims == before
    minus_one = bio.cyclo_to_json(-ONE)   # the sign character of Z/4, kept once built
    D = bio.datum_from_json({"ring": z4, "twists": ["0/1", "5/8", "1/2", "5/8"],
                             "dims": [one, minus_one, one, minus_one]})
    assert D.ring is R and {(d["conductor"], *d["coeffs"]) for d in (one, minus_one)} <= set(R._dims)


def test_a_kept_dimension_document_meets_a_lower_guard(tmp_path, capsys):
    # the CLI parses the datum once under the default guard, keeping its
    # documents on the interned ring; a lower guard still refuses each
    doc = bio.datum_to_json(ising_datum(F(3, 16), 1))
    path = tmp_path / "ising.json"
    path.write_text(json.dumps(doc))
    assert main(["premodular", "report", str(path)]) == 0
    capsys.readouterr()
    R = bio.ring_from_json(doc["ring"])
    sqrt2 = doc["dims"][2]
    assert (sqrt2["conductor"], *sqrt2["coeffs"]) in R._dims
    with pytest.raises(EnumerationLimit) as first:   # a parse that keeps nothing
        bio.cyclo_from_json(sqrt2, Config(conductor_guard=4))
    assert main(["premodular", "report", str(path), "--conductor-guard", "4"]) == 3
    assert capsys.readouterr().err == f"guard exceeded: {first.value}\n"
    assert main(["premodular", "report", str(path), "--conductor-guard", "15"]) == 3
    assert "conductor 16 exceeds conductor_guard = 15" in capsys.readouterr().err
