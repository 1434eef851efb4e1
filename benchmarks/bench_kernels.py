#!/usr/bin/env python3
"""Timings of the enumeration kernel and of datum construction.

The kernel carries the hot loops of the library: subgroup closure and
enumeration, the automorphism search (all of Aut(G), a table's
stabilizer, a table-carrying isomorphism) and table transport.
Representative workloads below mirror what the acceptance suite spends
its time on (exhaustive quadratic-form sweeps over small 2-groups); the
``all_forms`` rows time that sweep's form enumeration on (Z/2)^3 and
Z/2 x Z/2 x Z/4, which no perfbench workload runs.  The
``qform.validate`` rows time the axiom check of one seeded form on
Z/2 x Z/2 x Z/8 and Z/6 x Z/6, orders like those of form_stream, and
on (Z/2)^8, whose rank and order are past every form_stream shape.  The
``add_table`` rows build the flat add table of Z/4^3 and of Z/256.  The
``qform_from_json`` row parses and validates the 183 forms of one seeded
form_stream pass (perfbench's ``inputs.stream_pass(7)``), with every
group's tables and memo cleared first, as a fresh perfbench worker's
set-up meets them (and put back after it, for the rows that follow).
The ``premodular.build`` rows time the exact derivation and check of
a datum's S-matrix by rank: Ising (3), Ising x Ising (9), and the
pointed datum of a form on Z/12 (12), on the library's rings, and
Ising x Ising again on its ring parsed from JSON (validated and
interned), the ring every CLI and perfbench datum is built on.  The
two rows after them build that datum again, on a fresh copy of its ring
(made with ``FusionRing(...)``, with the interned ring's algebra
generators and product bound copied in, so only the dimensions' base
is missing: the dimension checks, the base at the conductor (the
bound and B, the dimensions' values at B and F_p images) and the
inverses are made) and on the interned ring, whose base the untimed
first build kept ("kit" in the row names).  The ``gauss_and_charge`` and
``centralizer sweep`` rows time a datum's reports on Ising x Ising and
the pointed Z/12 datum.  A datum keeps its reports and a ring its
subring lattice and centralizer components, so each repetition gets a
fresh datum on a fresh ring, built before its clock starts; the sweep
also lists the lattice first.  The fresh ring is made with
``FusionRing(...)`` directly, so it starts with an empty ring memo, and
build finds, checks and uses its algebra generators as on a parsed ring.
The ``all_subrings`` rows find the subring lattice of the group rings
of Z/128, Z/2 x Z/64 and (Z/2)^5 and of Ising^3, with ``rank_guard``
raised to the rank, on a ring whose kept lattice is dropped before
each repetition.
The ``report`` row times ``gauss_and_charge`` and the centralizer of
every subring on a fresh datum parsed onto the interned Ising x Ising
ring, as every perfbench request after the first on a table does: the
lattice and components were kept by an earlier datum.  The ``full
report`` row is one whole perfbench datum_reports request on that ring,
warm: ``datum_from_json`` of the document (its dimension documents and
kit kept by an untimed first call), then the same report.  The ``_mul_vec``
rows take 20,000 / phi(L) products of two dense seeded vectors at L = 16
and 840.
The ``ring_from_json`` rows parse a rank-12 table (Ising x Z/4) first,
with the interned rings cleared before each repetition, and again, when
the lookup returns the ring already validated.  The ``validate_ring``
rows check the group-ring tables of Z/64 and Z/128, with the interned
rings cleared first (rank 64 and 128, past the default ``rank_guard``
of 12, which the CLI applies only after parsing).  The ``_ctx`` rows build
the reduction data of one conductor (Phi_n and its sparse tail): at the
default ``conductor_guard`` 2310, the largest conductor a datum may
reach unless the guard is raised; at 2257 = 37 * 61 (phi = 2160) just
below it; and at 15015, the joined conductor of twists of orders 3, 5,
7, 11 and 13.  The ``_fold_bound`` rows make the bound on the
coefficients of x^j mod Phi_n that every datum's integer tests read, at
2257 and 2310, with the context built and its bound cleared first.  The
``CycloNum.inverse`` rows invert one seeded element at each conductor
n (a sum of four weighted n-th roots of unity), up to 840 and 1155,
the canonical conductor of the default ``conductor_guard``.  The
``is_root_of_unity`` rows read e^(2 pi i / n) and a seeded non-root
(phi(n) coefficients ``randint(-2, 2)``) off their power-basis vectors,
by at most ceil(n/phi(n)) shifts, at 2309 (a prime, phi = 2308) and
2257 = 37 * 61 (phi = 2160) near the guard; each value is made, and
the context of n built, before the clock starts.  The ``from_coeffs``
row normalises one seeded element given at conductor 2310 (480 coefficients
``randint(-2, 2)/randint(1, 3)`` from seed 7, the dimension of the CLI
corpus's descent datum), which descends to 1155, again from cleared
contexts.  The ``tau_image`` rows label the Witt class of the rank-1
form x^2/p, with the label memo cleared before each repetition.
The ``isotropic_subgroups`` and ``q_automorphism_perms`` rows time one
seeded form on (Z/2)^4 and on Z/4 x Z/8: a first call, on a fresh copy
of the form with the group memo (the subgroup structure each group keeps
in ``abelian``) cleared, and a repeat, which reads what the form kept.
A first call of ``isotropic_subgroups`` on a seeded (Z/2)^8 form (order
256, the default ``enum_guard``) follows, on the same footing.
The ``quotient_form`` rows take the induced form on H-perp/H for every H
in the isotropic lattice of the same two forms: cold, with the group
memo cleared before each repetition, and warm, when every subgroup's
generators, abstract group and quotient are read from the memo.  The
``find_isomorphism`` rows search for a form-carrying automorphism
between the residue tables of the same two forms and, first, a copy
moved by a seeded automorphism (the isomorphic pair) and then a seeded
form of the same level that is not isomorphic (the search fails).  The
cold ``degeneracy`` row takes the radical of one seeded form on
Z/6 x Z/6, on a fresh copy of the form each repetition.

The ``datum_from_json`` row parses the Ising x Ising datum document
(9 dimensions, 3 distinct) onto its interned ring and builds the datum,
from a fresh copy of the document each repetition: the first step of
every perfbench datum_reports request.  The fresh-process rows
(``fresh_rows``) each make one thing in a fresh ``python -B``
interpreter and give the median time of the call and the median peak
RSS of the process (``ru_maxrss``) over 3 launches: ``group_ring`` of
Z/128 and Z/256; ``product_ring`` of Ising x Ising and Ising (rank 27);
the pointed datum of q(x) = x^2/2n on Z/64, Z/128 and Z/256 (ranks past
the default ``rank_guard``, which only the reports apply); and
``ring_from_json`` of the group-ring table of Z/128 and Z/256, from a
parsed document, when no ring is interned.

The rows above are the best of N calls, taken round-robin (``best_of``):
each pass calls every row once, so a slow phase of a shared host costs
one repetition of many rows rather than every repetition of a few.
Cold rows clear module memos in their set-up (interned rings, cyclotomic
contexts, group memos), so every row that reads such a memo puts it in
place in its own set-up, most by one untimed call first (``warm``), and
each row measures the same state whichever rows ran before it.  The ``cold start`` rows are
medians of 7 fresh ``python -B -c CODE`` launches each (bytecode
caching off, as in perfbench's cli_cold), taken in turn: a bare
interpreter (``pass``), and ``import braidforge.cli``, ``.premodular``
and ``.qform``; the difference from the ``pass`` row is what importing
that layer costs a CLI launch.

Usage: python benchmarks/bench_kernels.py
"""

import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from fractions import Fraction  # noqa: E402

from braidforge import abelian, cyclotomic, fusion, premodular, qform, witt  # noqa: E402
from braidforge import io as bio  # noqa: E402
from braidforge.abelian import FinAbGroup  # noqa: E402
from braidforge.config import DEFAULT, Config  # noqa: E402
from braidforge.fusion import FusionRing, all_subrings  # noqa: E402
from braidforge.kernels import pure  # noqa: E402


def strides_of(orders):
    s, out = 1, []
    for m in reversed(orders):
        out.append(s)
        s *= m
    return list(reversed(out))


def warm(fn, arg):
    """A set-up for fn(arg) that makes one call first, off the clock, so
    what the call reads from module memos (cyclotomic contexts, interned
    rings, group memos) is in place whatever a row before it cleared."""
    def setup():
        fn(arg)
        return arg
    return setup


def workloads():
    out = []

    orders = (4, 4, 4)
    out.append(("add_table Z4^3", lambda: pure.add_table(orders), 5))
    out.append(("add_table Z/256", lambda: pure.add_table((256,)), 5))

    orders5 = (2, 2, 2, 2, 2)
    add5 = pure.add_table(orders5)
    out.append(("subgroups (Z/2)^5 (374)", lambda: pure.all_subgroups(32, add5), 3))

    orders4 = (2, 2, 2, 2)
    add4 = pure.add_table(orders4)
    ord4 = pure.element_orders(orders4)
    st4, go4 = strides_of(orders4), list(orders4)
    out.append(
        ("automorphisms (Z/2)^4 (20160)",
         lambda: pure.automorphisms(16, add4, ord4, st4, go4, 10 ** 7), 3)
    )

    table = [0, 1, 2, 1, 2, 0, 1, 2, 1, 2, 0, 1, 2, 1, 2, 0]
    out.append(
        ("stabilizer (Z/2)^4", lambda: pure.stabilizer(16, add4, ord4, st4, go4, table), 5)
    )

    auts = pure.automorphisms(16, add4, ord4, st4, go4, 10 ** 7)

    def orbit_sweep():
        seen = set()
        t = tuple(table)
        for p in auts:
            seen.add(pure.apply_perm(p, t))
        return len(seen)

    out.append(("orbit sweep x20160", orbit_sweep, 3))

    orders44 = (4, 4)
    add44 = pure.add_table(orders44)
    ord44 = pure.element_orders(orders44)
    ta = [0, 1, 2, 1, 1, 3, 0, 2, 2, 0, 3, 1, 1, 2, 1, 0]
    tb = list(pure.apply_perm(pure.automorphisms(16, add44, ord44, [4, 1], [4, 4], 100)[-1], ta))
    out.append(
        ("find_isomorphism Z4^2",
         lambda: pure.find_isomorphism(16, add44, ord44, [4, 1], [4, 4], ta, tb), 20)
    )

    for name, shape in (("(Z/2)^3", (2, 2, 2)), ("(2,2,4)", (2, 2, 4))):
        G = FinAbGroup(shape)
        n = sum(1 for _ in qform.all_forms(G))
        forms = lambda G: list(qform.all_forms(G))  # noqa: E731
        out.append((f"all_forms {name} ({n})", forms, 3, warm(forms, G)))

    for shape in ((2, 2, 8), (6, 6), (2,) * 8):
        G = FinAbGroup(shape)
        values = qform.random_form(G, random.Random(0)).values
        check = lambda v, G=G: qform.validate(G, v)  # noqa: E731
        out.append((f"qform.validate {shape}", check, 3, warm(check, values)))

    sys.dont_write_bytecode = True   # leave perfbench/ as it is
    sys.path.insert(0, str(ROOT / "perfbench"))
    import inputs
    stream = [f for _, forms in inputs.stream_pass(7) for f in forms]

    def cold_tables():   # the tables every other row reads are put back after the pass
        kept = dict(abelian._TABLE_CACHE)
        abelian._TABLE_CACHE.clear()
        return kept

    def parse_pass(kept):
        for f in stream:
            bio.qform_from_json(f)
        abelian._TABLE_CACHE.update(kept)

    out.append((f"qform_from_json form_stream pass ({len(stream)} forms), cold tables",
                parse_pass, 5, cold_tables))

    ising = premodular.ising_datum(Fraction(1, 16), 1)
    ising2 = premodular.deligne_product(ising, premodular.ising_datum(Fraction(3, 16), -1))
    z12 = qform.PreMetricGroup(FinAbGroup((12,)), [Fraction(k * k, 24) for k in range(12)])
    pointed = premodular.pointed_datum(z12)
    parsed = bio.datum_from_json(bio.datum_to_json(ising2))
    def rebuild(D):
        return premodular.build(D.ring, D.theta, D.dim)

    for name, D in (("Ising", ising), ("Ising x Ising", ising2), ("pointed Z/12", pointed),
                    ("Ising x Ising, parsed", parsed)):
        out.append((f"premodular.build {name} (rank {D.rank})", rebuild, 5, warm(rebuild, D)))

    def kitless_copy(D=parsed):   # the ring's generators and bound, but no kept base
        R = D.ring
        copy = FusionRing(R.labels, R.unit, R.dual, R.N)
        copy._gens, copy._mult = R._gens, R._mult
        return premodular.PreModularDatum(copy, D.theta, D.dim, D._ctx, D._roots, D._kron, D._pS)

    out.append(("premodular.build Ising x Ising, fresh ring copy (no kit)", rebuild, 20,
                kitless_copy))
    out.append(("premodular.build Ising x Ising, warm interned ring (kit kept)", rebuild, 20,
                warm(rebuild, parsed)))
    for name, D in (("Ising x Ising", ising2), ("pointed Z/12", pointed)):
        def fresh(D=D):
            R = D.ring
            return premodular.build(FusionRing(R.labels, R.unit, R.dual, R.N), D.theta, D.dim)

        def with_lattice(fresh=fresh):
            E = fresh()
            return E, all_subrings(E.ring).subrings

        def sweep(arg):
            E, subs = arg
            for K in subs:
                premodular.centralizer(E, K)

        out.append((f"gauss_and_charge {name} (rank {D.rank})",
                    premodular.gauss_and_charge, 5, fresh))
        n = len(all_subrings(D.ring).subrings)
        out.append((f"centralizer sweep {name} ({n} subrings)", sweep, 5, with_lattice))

    I = fusion.ising_ring()
    lattice = lambda R: all_subrings(R, Config(rank_guard=R.rank))  # noqa: E731
    for name, R in (("Z/128", fusion.group_ring(FinAbGroup((128,)))),
                    ("Z/2 x Z/64", fusion.group_ring(FinAbGroup((2, 64)))),
                    ("(Z/2)^5", fusion.group_ring(FinAbGroup((2,) * 5))),
                    ("Ising^3", fusion.product_ring(fusion.product_ring(I, I), I))):
        def unkept(R=R):
            R._lattice = None
            return R

        n = len(lattice(R).subrings)
        out.append((f"all_subrings {name} ({n} subrings), fresh ring", lattice, 3, unkept))

    doc = bio.datum_to_json(ising2)

    def report(E):
        premodular.gauss_and_charge(E)
        for K in all_subrings(E.ring).subrings:
            premodular.centralizer(E, K)

    def on_interned_ring():
        report(bio.datum_from_json(doc))   # keeps the lattice and components on the ring
        return bio.datum_from_json(doc)

    out.append(("report Ising x Ising, fresh datum on the interned ring", report, 5,
                on_interned_ring))

    def full_report(doc):
        report(bio.datum_from_json(doc))

    out.append(("full report Ising x Ising, parsed onto the interned ring", full_report, 20,
                warm(full_report, doc)))
    out.append(("datum_from_json Ising x Ising, interned ring", bio.datum_from_json, 20,
                warm(bio.datum_from_json, doc)))

    for L in (16, 840):
        ctx = cyclotomic._ctx(L)
        rng = random.Random(L)
        a, b = [[rng.randint(-9, 9) for _ in range(ctx.phi)] for _ in range(2)]
        reps = 20_000 // ctx.phi
        out.append((f"_mul_vec L={L} dense x dense (x{reps})",
                    lambda ctx=ctx, a=a, b=b, reps=reps:
                    [cyclotomic._mul_vec(ctx, b, a) for _ in range(reps)], 5))

    ring_doc = bio.ring_to_json(fusion.product_ring(fusion.ising_ring(),
                                                    fusion.group_ring(FinAbGroup((4,)))))

    def unseen_table():
        fusion._RINGS.clear()
        return ring_doc

    def seen_table():
        bio.ring_from_json(ring_doc)
        return ring_doc

    out.append(("ring_from_json rank 12, first parse", bio.ring_from_json, 5, unseen_table))
    out.append(("ring_from_json rank 12, repeated parse", bio.ring_from_json, 20, seen_table))
    for n in (64, 128):
        def cold_table(R=fusion.group_ring(FinAbGroup((n,)))):
            fusion._RINGS.clear()
            return R.labels, R.unit, R.dual, R.N

        out.append((f"validate_ring Z/{n}, cold", lambda t: fusion.validate_ring(*t), 3,
                    cold_table))

    for n in (DEFAULT.conductor_guard, 2257, 15015):
        def unbuilt_ctx(n=n):
            cyclotomic._CTX.pop(n, None)
            return n

        note = " (default conductor_guard)" if n == DEFAULT.conductor_guard else ""
        out.append((f"_ctx({n}){note}", cyclotomic._ctx, 3, unbuilt_ctx))

    for n in (2257, DEFAULT.conductor_guard):
        def unfolded(n=n):
            ctx = cyclotomic._ctx(n)
            ctx.fold = None
            return ctx

        out.append((f"_fold_bound({n}), cold", cyclotomic._fold_bound, 3, unfolded))

    for m in (8, 24, 60, 120, 240, 840, 1155):
        rng = random.Random(m)
        a = cyclotomic.root_sum([(Fraction(1, m), 1)] + [
            (Fraction(rng.randrange(m), m), Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
            for _ in range(3)])
        out.append((f"CycloNum.inverse n={a.conductor}", cyclotomic.CycloNum.inverse,
                    5 if m < 1155 else 2, warm(cyclotomic.CycloNum.inverse, a)))

    for n in (2309, 2257):
        def root(n=n):
            return cyclotomic.CycloNum.from_root(Fraction(1, n))

        def non_root(n=n):
            rng = random.Random(n)
            return cyclotomic.CycloNum(n, [rng.randint(-2, 2) for _ in range(cyclotomic._ctx(n).phi)], 1)

        for name, setup in (("root", root), ("non-root", non_root)):
            out.append((f"is_root_of_unity n={n}, {name}", cyclotomic.CycloNum.is_root_of_unity,
                        5, setup))

    rng = random.Random(7)
    coeffs = [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(480)]

    def cold_coeffs():
        cyclotomic._CTX.clear()
        return coeffs

    out.append(("CycloNum.from_coeffs n=2310, cold",
                lambda c: cyclotomic.CycloNum.from_coeffs(2310, c), 2, cold_coeffs))

    def clear_group_memo():
        for entry in abelian._TABLE_CACHE.values():
            entry[3].clear()

    def fresh(M):
        clear_group_memo()
        return qform.PreMetricGroup.at_level(M.group, M.level, M.res)

    for shape in ((2, 2, 2, 2), (4, 8)):
        M = qform.random_form(FinAbGroup(shape), random.Random(1))

        def kept(M=M):
            qform.isotropic_subgroups(M)
            qform.q_automorphism_perms(M)
            return M

        for fn in (qform.isotropic_subgroups, qform.q_automorphism_perms):
            out.append((f"{fn.__name__} {shape}, first call", fn, 5, lambda M=M: fresh(M)))
            out.append((f"{fn.__name__} {shape}, repeat", fn, 20, kept))

        lattice = [r.subgroup for r in qform.isotropic_subgroups(M)]

        def quotients(M, lattice=lattice):
            for H in lattice:
                qform.quotient_form(M, H)

        def cold(M=M):
            clear_group_memo()
            return M

        n = len(lattice)
        out.append((f"quotient_form {shape} x{n}, cold", quotients, 5, cold))
        out.append((f"quotient_form {shape} x{n}, warm", quotients, 20, warm(quotients, M)))

        G = M.group
        args = (G.order, G.add_flat(), G.order_flat(), G.gen_strides(), list(shape))
        rng = random.Random(2)
        moved = list(pure.apply_perm(rng.choice(abelian.automorphism_perms(G)), M.res))
        other = next(N.res for N in iter(lambda: qform.random_form(G, rng), None)
                     if N.level == M.level and pure.find_isomorphism(*args, M.res, N.res) is None)
        for name, target in (("isomorphic", moved), ("not isomorphic", other)):
            out.append((f"find_isomorphism {shape}, {name} pair",
                        lambda t=target, a=args, M=M: pure.find_isomorphism(*a, M.res, t), 20))

    M = qform.random_form(FinAbGroup((2,) * 8), random.Random(1))
    out.append(("isotropic_subgroups (2,)*8, first call", qform.isotropic_subgroups, 5,
                lambda M=M: fresh(M)))

    M66 = qform.random_form(FinAbGroup((6, 6)), random.Random(1))

    def fresh_copy():   # after one copy's radical, so the group memo is warm
        qform.degeneracy(qform.PreMetricGroup.at_level(M66.group, M66.level, M66.res))
        return qform.PreMetricGroup.at_level(M66.group, M66.level, M66.res)

    out.append(("degeneracy (6, 6), cold", qform.degeneracy, 20, fresh_copy))

    for p in (101, 251):
        c = witt.witt_class(qform.odd_rank1(p, 1))

        def uncached(c=c, p=p):
            witt.tau_image(c, p)   # the contexts it reads stay; its label memo goes
            witt._tau_label.cache_clear()
            return c

        out.append((f"tau_image Z/{p}", lambda c, p=p: witt.tau_image(c, p), 3, uncached))
    return out


def best_of(rows):
    """Best time of each row's ``reps`` calls, taken round-robin: pass k
    calls, in row order, every row with more than k repetitions, so a
    slow phase of a shared host falls on one repetition of many rows,
    not on every repetition of one.  A row is (name, fn, reps) or
    (name, fn, reps, setup); with ``setup`` the call is fn(setup()), the
    set-up left off the clock."""
    best = [float("inf")] * len(rows)
    for k in range(max(row[2] for row in rows)):
        for i, (_, fn, reps, *setup) in enumerate(rows):
            if k >= reps:
                continue
            args = (setup[0](),) if setup else ()
            t0 = time.perf_counter()
            fn(*args)
            best[i] = min(best[i], time.perf_counter() - t0)
    return [(row[0], t) for row, t in zip(rows, best)]


def cold_start_rows(launches=7):
    """Median wall time of fresh interpreters running each snippet, in turn."""
    snippets = ["pass"] + [f"import braidforge.{m}" for m in ("cli", "premodular", "qform")]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = {code: [] for code in snippets}
    for _ in range(launches):
        for code in snippets:
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-B", "-c", code], env=env, check=True)
            times[code].append(time.perf_counter() - t0)
    return [(f"cold start: {code}", statistics.median(times[code])) for code in snippets]


_FRESH = """
import resource, sys, time
from fractions import Fraction
from braidforge import fusion, premodular, qform
from braidforge import io as bio
from braidforge.abelian import FinAbGroup
what, n = sys.argv[1], int(sys.argv[2])
if what == "pointed_datum":
    M = qform.PreMetricGroup(FinAbGroup((n,)), [Fraction(k * k, 2 * n) for k in range(n)])
    call = lambda: premodular.pointed_datum(M)
elif what == "group_ring":
    call = lambda: fusion.group_ring(FinAbGroup((n,)))
elif what == "product_ring":   # Ising^n from Ising^(n-1) and Ising
    I = fusion.ising_ring()
    R = I
    for _ in range(n - 2):
        R = fusion.product_ring(R, I)
    call = lambda: fusion.product_ring(R, I)
else:   # ring_from_json of the group-ring table of Z/n, as parsed JSON
    doc = bio.ring_to_json(fusion.group_ring(FinAbGroup((n,))))
    call = lambda: bio.ring_from_json(doc)
t0 = time.perf_counter()
call()
print(time.perf_counter() - t0, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""
FRESH_ROWS = (("group_ring", 128, "Z/128"), ("group_ring", 256, "Z/256"),
              ("product_ring", 3, "Ising^3"),
              ("pointed_datum", 64, "Z/64"), ("pointed_datum", 128, "Z/128"),
              ("pointed_datum", 256, "Z/256"),
              ("ring_from_json", 128, "Z/128 group-ring table, first parse"),
              ("ring_from_json", 256, "Z/256 group-ring table, first parse"))


def fresh_rows(launches=3):
    """The ``FRESH_ROWS``, each call in a fresh interpreter, taken in
    turn: the median time of the call and the median peak RSS of the
    process (``ru_maxrss``, KB on Linux), which includes what the row
    made before its clock started (Ising x Ising for Ising^3, the parsed
    document for ``ring_from_json``).  Linux keeps the high-water mark
    of the memory a process replaced by exec, so a child's ``ru_maxrss``
    is at least this process's RSS when it launched the child: run these
    rows before the others grow it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    runs = {row: [] for row in FRESH_ROWS}
    for _ in range(launches):
        for what, n, name in runs:
            out = subprocess.run([sys.executable, "-B", "-c", _FRESH, what, str(n)], env=env,
                                 check=True, capture_output=True, text=True).stdout.split()
            runs[what, n, name].append((float(out[0]), int(out[1])))
    return [(f"{what} {name} (peak RSS {statistics.median(kb for _, kb in r) / 1024:.1f} MB)",
             statistics.median(t for t, _ in r)) for (what, n, name), r in runs.items()]


def main():
    fresh = fresh_rows()   # first, while this process is small (see fresh_rows)
    rows = best_of(workloads()) + fresh + cold_start_rows()
    width = max(len(r[0]) for r in rows)
    print(f"{'workload':<{width}}  {'time':>10}")
    print("-" * (width + 12))
    for name, t in rows:
        print(f"{name:<{width}}  {t * 1e3:>8.2f}ms")


if __name__ == "__main__":
    main()
