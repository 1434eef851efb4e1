"""JSON schemas for groups, forms, rings, data, and cyclotomic numbers.

Field names are part of the wire format:

    group:     {"orders": [2, 4]}
    element:   [1, 3]
    qform:     {"group": {...}, "values": ["0/1", "1/8", ...]}   (lex order)
    ring:      {"labels": [...], "unit": 0, "dual": [...], "N": [[[...]]]}
               (labels are JSON strings; unit, dual and N entries JSON integers;
               unit a basis index; N dense, the ring's view of its rows)
    datum:     {"ring": {...}, "twists": ["a/b", ...],
                "dims": [{"conductor": n, "coeffs": ["p/q", ...]}, ...]}
    character: {"chi": [1, -1, ...]}                             (lex order)

Fractions may arrive unreduced; they are normalized on ingestion.  A
datum's dimension documents are parsed once per distinct document in
their written form and kept beside its ring (``FusionRing._dims``) once
the datum is built, so later data on the ring read them and a refused
datum keeps none; the conductor guard runs on every read.
Each parser imports its layer (``qform``, ``fusion``, ``premodular``,
``cyclotomic``) on use, so loading this module loads none of them.
Equal ring tables parse to one shared ``FusionRing``: validated rings
are interned by the parsed table, which is then the ring's dense view,
in ``fusion`` (process-local, unbounded, like the cyclotomic ``_CTX``);
a parsed group reads the tables and subgroup memo that every equal
group shares (``_TABLE_CACHE`` in ``abelian``).  A
cyclotomic conductor above ``conductor_guard`` is refused with
``EnumerationLimit`` before any arithmetic in that field.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .abelian import FinAbGroup, TRIVIAL_GROUP
from .config import DEFAULT, Config
from .errors import EnumerationLimit, SchemaError


def parse_fraction(s) -> Fraction:
    try:
        if isinstance(s, str) and "e" in s.lower():  # Fraction would expand 10^exponent
            raise ValueError("exponent notation")
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad fraction {s!r}") from exc


def fraction_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def group_to_json(G: FinAbGroup) -> dict:
    return {"orders": list(G.orders)}


def group_from_json(obj) -> FinAbGroup:
    if not isinstance(obj, dict) or "orders" not in obj:
        raise SchemaError('group must be {"orders": [...]}')
    orders = obj["orders"]
    if not isinstance(orders, list) or not all(isinstance(m, int) for m in orders):
        raise SchemaError("orders must be a list of integers")
    if not orders:
        return TRIVIAL_GROUP
    try:
        return FinAbGroup(tuple(orders))
    except Exception as exc:
        raise SchemaError(str(exc)) from exc


def cyclo_to_json(c: CycloNum) -> dict:
    return {"conductor": c.conductor, "coeffs": [fraction_str(x) for x in c.coeffs]}


def cyclo_from_json(obj, config: Config = DEFAULT) -> CycloNum:
    from .cyclotomic import CycloNum
    if not isinstance(obj, dict) or set(obj) != {"conductor", "coeffs"}:
        raise SchemaError('cyclotomic number must be {"conductor": n, "coeffs": [...]}')
    n = obj["conductor"]
    if type(n) is not int or n < 1:  # a JSON integer; bool is an int subclass
        raise SchemaError(f"conductor {json.dumps(n, default=repr)} must be an integer >= 1")
    try:
        config.check_conductor(n)
        return CycloNum.from_coeffs(n, [parse_fraction(s) for s in obj["coeffs"]])
    except (SchemaError, EnumerationLimit, MemoryError):
        raise
    except Exception as exc:
        raise SchemaError(str(exc)) from exc


def qform_to_json(M: PreMetricGroup) -> dict:
    return {
        "group": group_to_json(M.group),
        "values": [fraction_str(v) for v in M.values],
    }


def qform_from_json(obj) -> PreMetricGroup:
    from .qform import validate
    if not isinstance(obj, dict) or "group" not in obj or "values" not in obj:
        raise SchemaError('form must be {"group": {...}, "values": [...]}')
    G = group_from_json(obj["group"])
    vals = obj["values"]
    if not isinstance(vals, list) or len(vals) != G.order:
        raise SchemaError(
            f"values must list exactly {G.order} fractions in element order"
        )
    return validate(G, tuple(parse_fraction(v) for v in vals))


def ring_to_json(R: FusionRing) -> dict:
    return {
        "labels": list(R.labels),
        "unit": R.unit,
        "dual": list(R.dual),
        "N": [[list(row) for row in plane] for plane in R.N],
    }


def ring_from_json(obj) -> FusionRing:
    from .fusion import validate_ring
    need = {"labels", "unit", "dual", "N"}
    if not isinstance(obj, dict) or not need <= set(obj):
        raise SchemaError(f"ring must carry fields {sorted(need)}")
    try:
        return validate_ring(obj["labels"], obj["unit"], obj["dual"], obj["N"])
    except (TypeError, ValueError, IndexError, OverflowError) as exc:
        raise SchemaError(f"malformed ring table: {exc}") from exc


def datum_to_json(D: PreModularDatum) -> dict:
    return {
        "ring": ring_to_json(D.ring),
        "twists": [fraction_str(t) for t in D.theta],
        "dims": [cyclo_to_json(d) for d in D.dim],
    }


def datum_from_json(obj, config: Config = DEFAULT) -> PreModularDatum:
    from .premodular import build
    need = {"ring", "twists", "dims"}
    if not isinstance(obj, dict) or not need <= set(obj):
        raise SchemaError(f"datum must carry fields {sorted(need)}")
    R = ring_from_json(obj["ring"])
    twists = obj["twists"]
    dims = obj["dims"]
    try:
        covered = len(twists) == len(dims) == R.rank
    except TypeError:  # a number or null in place of a list
        covered = False
    if not covered:
        raise SchemaError("twists and dims must cover the basis")
    theta = tuple(parse_fraction(t) for t in twists)
    new = {}
    D = build(R, theta, tuple(_dims_from_json(dims, config, R._dims, new)), config)
    R._dims.update(new)   # only once the datum is built: a refusal keeps nothing
    return D


def _dims_from_json(dims, config: Config, kept, new):
    """``cyclo_from_json`` of each dimension, once per distinct document in
    the written form (an int conductor, str coeffs), read from ``kept``
    (the ring's, so across data on one ring) or parsed into ``new``:
    ``true`` and ``1``, or ``1.0`` and ``"1"``, compare equal but parse
    differently, so they share no entry, and every error is raised where
    it was.  A kept document's conductor meets ``config``'s guard on every
    read, so a lower ``conductor_guard`` refuses it as it would a first
    parse; any other document is parsed every time."""
    for d in dims:
        key = c = None
        if type(d) is dict and len(d) == 2 and type(d.get("conductor")) is int:
            coeffs = d.get("coeffs")
            if type(coeffs) is list and set(map(type, coeffs)) <= {str}:
                key = (d["conductor"], *coeffs)
                c = kept.get(key) or new.get(key)
        if c is None:
            c = cyclo_from_json(d, config)
            if key is not None:
                new[key] = c
        else:
            config.check_conductor(key[0])
        yield c


def character_from_json(obj, G: FinAbGroup) -> tuple:
    if not isinstance(obj, dict) or "chi" not in obj:
        raise SchemaError('character must be {"chi": [...]}')
    chi = obj["chi"]
    if not isinstance(chi, list) or len(chi) != G.order:
        raise SchemaError(f"chi must list {G.order} signs in element order")
    for c in chi:
        if type(c) is not int:  # a JSON integer; bool is an int subclass
            raise SchemaError(f"chi entry {json.dumps(c, default=repr)} must be an integer")
    return tuple(chi)


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer past int's digit limit
        raise SchemaError(f"invalid JSON in {path}: {exc}") from exc
    except RecursionError:  # nested past the decoder's recursion limit
        raise SchemaError(f"invalid JSON in {path}: nested too deeply") from None
