"""Seeded input generation for the benchmark workloads.

Inputs are built here, from the seed alone, as the JSON documents that
braidforge reads (see the README's schemas); nothing in this module
imports braidforge, so the program under test never shapes its own
inputs.  Every input is drawn from a fixed pool, so the golden outputs
recorded for the pool (``golden/``) cover every seed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

# form_stream: per invariant-factor shape, STREAM_CLASSES fixed random
# forms, each in COPIES isomorphic copies (transported by fixed
# random automorphisms).  A pass takes one copy of every class, chosen
# by the seed: inputs differ between seeds while each run does the same
# work up to isomorphism, so its cost hinges little on the draw.
STREAM_CLASSES = 3
COPIES = 3

# cli_cold: rounds over the README commands; round r takes its form and
# ring from stratum r, so the seed varies inputs but not their sizes.
CLI_ROUNDS = 7
CLI_FORMS_PER_SHAPE = 2


def digest(obj) -> str:
    """Short stable digest of a JSON-able object or of bytes."""
    if not isinstance(obj, bytes):
        obj = canonical(obj).encode()
    return hashlib.sha256(obj).hexdigest()[:20]


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _mod1(x: Fraction) -> Fraction:
    return x - (x.numerator // x.denominator)


# -- groups and quadratic forms ------------------------------------------------

def shapes_up_to(limit: int) -> list:
    """Invariant-factor tuples (n1 | n2 | ...) of every order 2..limit."""
    out = []

    def rec(prefix, prod, last):
        for m in range(last, limit + 1):
            if prod * m > limit:
                break
            if prefix and m % prefix[-1] != 0:
                continue
            out.append(tuple(prefix) + (m,))
            rec(prefix + [m], prod * m, m)

    rec([], 1, 2)
    return out


def elements(orders) -> list:
    """Coordinate tuples in lexicographic order (the wire format's order)."""
    return list(itertools.product(*(range(m) for m in orders)))


def random_form_values(orders, rng: random.Random) -> list:
    """q(sum a_i e_i) = sum c_i a_i^2 + sum_{i<j} b_ij a_i a_j mod 1.

    c_i lies in (1/2n_i)Z for even n_i and in (1/n_i)Z for odd n_i, and
    b_ij in (1/gcd(n_i, n_j))Z: every quadratic form on the group has
    this presentation.
    """
    r = len(orders)
    diag = [Fraction(rng.randrange(2 * m), 2 * m) if m % 2 == 0
            else Fraction(rng.randrange(m), m) for m in orders]
    cross = {}
    for i in range(r):
        for j in range(i + 1, r):
            g = math.gcd(orders[i], orders[j])
            cross[(i, j)] = Fraction(rng.randrange(g), g)
    vals = []
    for a in elements(orders):
        v = sum((c * x * x for c, x in zip(diag, a)), Fraction(0))
        for (i, j), b in cross.items():
            v += b * a[i] * a[j]
        vals.append(_mod1(v))
    return vals


def form_json(orders, values) -> dict:
    return {"group": {"orders": list(orders)}, "values": [frac_str(v) for v in values]}


def _is_metric(orders, values, anisotropic: bool = False) -> bool:
    """Non-degenerate (and anisotropic when asked), by direct search."""
    els = elements(orders)
    idx = {e: i for i, e in enumerate(els)}

    def add(a, b):
        return tuple((x + y) % m for x, y, m in zip(a, b, orders))

    for g in els[1:]:
        if anisotropic and values[idx[g]] == 0:
            return False
        if all(_mod1(values[idx[add(g, h)]] - values[idx[g]] - values[idx[h]]) == 0
               for h in els):
            return False
    return True


# -- form_stream -------------------------------------------------------------------

STREAM_SHAPES = shapes_up_to(36)


def random_automorphism(orders, rng: random.Random) -> list:
    """perm[i] = index of phi(element i), for a random automorphism phi."""
    els = elements(orders)
    idx = {e: i for i, e in enumerate(els)}
    cands = [[g for g in els if all((n * x) % m == 0 for x, m in zip(g, orders))]
             for n in orders]
    while True:
        imgs = [rng.choice(c) for c in cands]
        perm = [idx[tuple(sum(a * g[k] for a, g in zip(e, imgs)) % m
                          for k, m in enumerate(orders))] for e in els]
        if len(set(perm)) == len(perm):
            return perm


def _copy(orders, values, tag: str, copy: int) -> list:
    """Copy ``copy`` of a form: q o phi for a fixed random automorphism phi."""
    if copy:
        perm = random_automorphism(orders, random.Random(f"{tag}/{copy}"))
        values = [values[p] for p in perm]
    return values


def stream_form(orders, j: int, copy: int) -> dict:
    tag = f"form_stream/{orders}/{j}"
    values = random_form_values(orders, random.Random(tag))
    return form_json(orders, _copy(orders, values, tag, copy))


REFUSED_SHAPE = (2, 2, 2, 2, 2)


def stream_pass(seed: int) -> list:
    """One pass: every shape once, with a drawn copy of each class.

    The pass opens with (Z/2)^5, whose first request the automorphism
    cap refuses, so that the refusal meets the same fresh heap on every
    seed; the other 60 shapes follow in seeded order.  Classes keep
    their order inside a visit.
    """
    rng = random.Random(seed)
    shapes = [s for s in STREAM_SHAPES if s != REFUSED_SHAPE]
    rng.shuffle(shapes)
    return [
        (orders, [stream_form(orders, j, rng.randrange(COPIES))
                  for j in range(STREAM_CLASSES)])
        for orders in [REFUSED_SHAPE] + shapes
    ]


# -- datum_reports --------------------------------------------------------------------

_ISING_N = {
    (0, 0): [0], (0, 1): [1], (0, 2): [2],
    (1, 0): [1], (1, 1): [0], (1, 2): [2],
    (2, 0): [2], (2, 1): [2], (2, 2): [0, 1],
}


def _ring(labels, unit, dual, mult) -> dict:
    r = len(labels)
    N = [[[0] * r for _ in range(r)] for _ in range(r)]
    for (i, j), ks in mult.items():
        for k, m in ks:
            N[i][j][k] = m
    return {"labels": list(labels), "unit": unit, "dual": list(dual), "N": N}


def ising_ring_json() -> dict:
    return _ring(("1", "delta", "X"), 0, (0, 1, 2),
                 {ij: [(k, 1) for k in ks] for ij, ks in _ISING_N.items()})


def _rational(q) -> dict:
    q = Fraction(q)
    return {"conductor": 1, "coeffs": [frac_str(q)]}


def _sqrt2(sign: int) -> dict:
    # sqrt(2) = zeta_8 + zeta_8^7 = zeta_8 - zeta_8^3 in the power basis of Q(zeta_8)
    return {"conductor": 8, "coeffs": ["0/1", f"{sign}/1", "0/1", f"{-sign}/1"]}


def ising_params() -> list:
    """(k, eps): zeta = k/16 with k odd, and the spherical sign."""
    return [(k, eps) for k in range(1, 16, 2) for eps in (1, -1)]


def _ising_parts(k: int, eps: int):
    """Twists and dims, with dims as (rational part, sqrt(2) multiplier)."""
    theta_x = _mod1(Fraction(-k, 16) + (Fraction(1, 2) if eps == -1 else 0))
    # d(X) = eps (zeta^2 + zeta^-2) = eps * 2 cos(pi k / 4) = +-sqrt(2)
    lam = 1 if k % 8 in (1, 7) else -1
    return [Fraction(0), Fraction(1, 2), theta_x], [(1, 0), (1, 0), (0, eps * lam)]


def _dim_json(d) -> dict:
    rat, root2 = d
    return _rational(rat) if root2 == 0 else _sqrt2(root2)


def ising_json(k: int, eps: int) -> dict:
    theta, dims = _ising_parts(k, eps)
    return {"ring": ising_ring_json(), "twists": [frac_str(t) for t in theta],
            "dims": [_dim_json(d) for d in dims]}


def product_ring_json(R1: dict, R2: dict) -> dict:
    r1, r2 = len(R1["labels"]), len(R2["labels"])
    labels = [f"{a}*{b}" for a in R1["labels"] for b in R2["labels"]]
    dual = [R1["dual"][i] * r2 + R2["dual"][j] for i in range(r1) for j in range(r2)]
    mult = {}
    for a1, a2, b1, b2 in itertools.product(range(r1), range(r2), range(r1), range(r2)):
        ks = [(c1 * r2 + c2, R1["N"][a1][b1][c1] * R2["N"][a2][b2][c2])
              for c1 in range(r1) for c2 in range(r2)
              if R1["N"][a1][b1][c1] and R2["N"][a2][b2][c2]]
        mult[(a1 * r2 + a2, b1 * r2 + b2)] = ks
    unit = R1["unit"] * r2 + R2["unit"]
    return _ring(labels, unit, dual, mult)


def ising_product_json(p1, p2) -> dict:
    """Deligne product of two Ising data: dims multiply, twists add."""
    t1, d1 = _ising_parts(*p1)
    t2, d2 = _ising_parts(*p2)
    twists, dims = [], []
    for a in range(3):
        for b in range(3):
            twists.append(_mod1(t1[a] + t2[b]))
            (r1, s1), (r2, s2) = d1[a], d2[b]
            # (r1 + s1 sqrt2)(r2 + s2 sqrt2) with one of r, s zero in each
            dims.append((r1 * r2 + 2 * s1 * s2, r1 * s2 + s1 * r2))
    ring = product_ring_json(ising_ring_json(), ising_ring_json())
    return {"ring": ring, "twists": [frac_str(t) for t in twists],
            "dims": [_dim_json(d) for d in dims]}


def group_ring_json(orders) -> dict:
    els = elements(orders)
    idx = {e: i for i, e in enumerate(els)}
    labels = ["1" if not any(e) else "g" + "".join(map(str, e)) for e in els]
    dual = [idx[tuple((-x) % m for x, m in zip(e, orders))] for e in els]
    mult = {(i, j): [(idx[tuple((x + y) % m for x, y, m in zip(a, b, orders))], 1)]
            for i, a in enumerate(els) for j, b in enumerate(els)}
    return _ring(labels, 0, dual, mult)


def pointed_json(form: dict) -> dict:
    """The pointed datum of a form with trivial character."""
    orders = tuple(form["group"]["orders"])
    n = len(form["values"])
    return {"ring": group_ring_json(orders), "twists": list(form["values"]),
            "dims": [_rational(1)] * n}


# Ising data used as product factors: k in {1, 3, 5, 7}, both signs.
PRODUCT_FACTORS = [(k, eps) for k in (1, 3, 5, 7) for eps in (1, -1)]
POINTED_SHAPES = shapes_up_to(12)


def pointed_classes(orders) -> int:
    """Metric classes per shape: two up to order 8, one for orders 9..12,
    whose pointed data cost 3-5 times more."""
    return 2 if math.prod(orders) <= 8 else 1


def pointed_form(orders, j: int, copy: int) -> dict:
    """Copy ``copy`` of the shape's metric class ``j``."""
    tag = f"datum_reports/pointed/{orders}/{j}"
    rng = random.Random(tag)
    while True:
        vals = random_form_values(orders, rng)
        if _is_metric(orders, vals):
            return form_json(orders, _copy(orders, vals, tag, copy))


def datum_requests(seed: int) -> list:
    """The 16 Ising data, the 64 Ising x Ising products, and the pointed
    data of drawn copies of metric forms of every order <= 12, shuffled."""
    rng = random.Random(seed)
    reqs = [ising_json(k, e) for k, e in ising_params()]
    reqs += [ising_product_json(a, b) for a in PRODUCT_FACTORS for b in PRODUCT_FACTORS]
    reqs += [pointed_json(pointed_form(orders, j, rng.randrange(COPIES)))
             for orders in POINTED_SHAPES for j in range(pointed_classes(orders))]
    rng.shuffle(reqs)
    return reqs


# -- cli_cold --------------------------------------------------------------------------

CLI_FORM_SHAPES = [(2,), (3,), (4,), (2, 2)]   # products with Ising stay at rank <= 12
CLI_RING_POOL = ["ising", "ising*ising", "Z4", "Z2xZ2"]


def cli_form(orders, j: int) -> dict:
    """An anisotropic metric form, so every README qform command applies."""
    rng = random.Random(f"cli_cold/form/{orders}/{j}")
    while True:
        vals = random_form_values(orders, rng)
        if _is_metric(orders, vals, anisotropic=True):
            return form_json(orders, vals)


def cli_ring(name: str) -> dict:
    return {
        "ising": ising_ring_json,
        "ising*ising": lambda: product_ring_json(ising_ring_json(), ising_ring_json()),
        "Z4": lambda: group_ring_json((4,)),
        "Z2xZ2": lambda: group_ring_json((2, 2)),
    }[name]()


def cli_commands(k: int, eps: int) -> list:
    """The README's commands, in its order, reading the round's files."""
    return [
        ["catalog", "ising", "--zeta", f"{k}/16", "--eps", "+1" if eps == 1 else "-1"],
        ["premodular", "report", "ising.json"],
        ["premodular", "centralizer", "ising.json", "--subring", "1"],
        ["premodular", "gfp", "ising.json"],
        ["qform", "gauss", "ai.json"],
        ["qform", "analyze", "ai.json"],
        ["qform", "classify", "ai.json"],
        ["qform", "witt", "ai.json"],
        ["qform", "core", "ai.json"],
        ["qform", "wap", "ai.json"],
        ["catalog", "pointed", "--form", "ai.json"],
        ["catalog", "product", "ai_datum.json", "ising.json"],
        ["fusion", "dims", "ring.json"],
        ["fusion", "grading", "ring.json"],
        ["fusion", "subrings", "ring.json"],
    ]


def cli_round_files(k: int, eps: int, form: dict, ring: str) -> dict:
    return {
        "ising.json": ising_json(k, eps),
        "ai.json": form,
        "ai_datum.json": pointed_json(form),
        "ring.json": cli_ring(ring),
    }


def cli_rounds(seed: int) -> list:
    """Per round: (files to write, commands), in seeded order."""
    rng = random.Random(seed)
    out = []
    for r in range(CLI_ROUNDS):
        k, eps = rng.choice(ising_params())
        form = cli_form(CLI_FORM_SHAPES[r % len(CLI_FORM_SHAPES)],
                        rng.randrange(CLI_FORMS_PER_SHAPE))
        ring = CLI_RING_POOL[r % len(CLI_RING_POOL)]
        out.append((cli_round_files(k, eps, form, ring), cli_commands(k, eps)))
    rng.shuffle(out)
    return out


def cli_key(argv, files: dict) -> str:
    """Golden key: the command and the contents of every file it names."""
    used = {a: files[a] for a in argv if a in files}
    return digest({"argv": argv, "files": used})
