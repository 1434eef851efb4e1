"""Command-line surface.

    braidforge qform {analyze,classify,gauss,witt,core,wap} FORM.json
    braidforge fusion {check,dims,grading,subrings} RING.json
    braidforge premodular {report,centralizer,gfp} DATUM.json [--subring 0,1]
    braidforge catalog ising --zeta 1/16 --eps +1
    braidforge catalog pointed --form FORM.json [--chi CHI.json]
    braidforge catalog product D1.json D2.json

Reports are JSON (or text) with one record per verified identity and a
data block of computed values.  Exit codes: 0 all checks pass, 1 some
check failed, 2 malformed input, 3 an enumeration or conductor guard
was exceeded or memory ran out.  Output is written atomically when
--out is given.

Imports: this module loads only ``config``, ``io`` and ``errors``; each
cmd_* handler, or the action in it, imports the layers it runs, and a new
subcommand does the same, so no command loads another's layers.  Records
are NamedTuples or slotted classes: no module imports the standard
library's data-class module, which loads ``inspect`` on every launch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import cache

from . import config as cfgmod
from . import io as bio
from .errors import BraidforgeError, Check, EnumerationLimit, SchemaError


def _report(subject: str, checks, data) -> dict:
    return {
        "subject": subject,
        "checks": [c._asdict() for c in checks],
        "data": data,
    }


def _emit(report: dict, cfg, out_path):
    if cfg.output == "json":
        text = json.dumps(report, indent=2) + "\n"
    else:
        lines = [f"subject: {report['subject']}"]
        for c in report["checks"]:
            lines.append(f"  [{c['status']:>7}] {c['name']}  {c['witness']}".rstrip())
        for k, v in report["data"].items():
            lines.append(f"  {k} = {json.dumps(v)}")
        text = "\n".join(lines) + "\n"
    _write(out_path, text)


def _write(path, text: str) -> None:
    """Write ``text`` to stdout, or with ``path`` (``--out``) replace
    ``path`` with it through a unique temp file beside it.

    Concurrent writers never share a temp file, and a failed write
    leaves neither a temp file nor a partial ``path`` behind.
    """
    if not path:
        sys.stdout.write(text)
        return
    import tempfile  # only --out needs it; keeps it off the CLI's import path

    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # mkstemp creates 0600; match open()
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _exit_code(checks) -> int:
    return 1 if any(c.status == "fail" for c in checks) else 0


def _frac(v) -> str:
    return bio.fraction_str(Fraction(v))


# -- qform ------------------------------------------------------------------

def cmd_qform(args, cfg) -> int:
    from . import qform
    M = bio.qform_from_json(bio.load_json(args.form))
    checks = [Check("axioms", "quadratic-form-axioms", "pass")]
    data = {}
    if args.action == "analyze":
        deg = qform.degeneracy(M)
        recs = qform.isotropic_subgroups(M, cfg)
        data = {
            "order": M.order,
            "degeneracy": deg.tag,
            "radical_order": deg.radical.order,
            "isotropic_subgroups": len(recs),
            "lagrangians": sum(1 for r in recs if r.is_lagrangian),
            "weakly_anisotropic": qform.is_weakly_anisotropic(M, cfg),
        }
    elif args.action == "classify":
        labels = qform.classify_anisotropic(M)
        data = {
            "labels": [
                {"kind": l.kind, "prime": l.prime, "params": [str(p) for p in l.params]}
                for l in labels
            ]
        }
    elif args.action == "gauss":
        from . import witt
        rep = witt.gauss_sum(M)
        checks.append(Check("conjugate-sums", "gauss-conjugate-pair",
                            "pass" if rep.tau_minus == rep.tau_plus.conjugate() else "fail"))
        checks.append(Check("norm", "gauss-norm-is-order",
                            "pass" if rep.norm_check else "fail"))
        data = {
            "tau_plus": bio.cyclo_to_json(rep.tau_plus),
            "tau_minus": bio.cyclo_to_json(rep.tau_minus),
            "positivity": None if rep.positivity is None else _frac(rep.positivity),
        }
    elif args.action == "witt":
        from . import witt
        c = witt.witt_class(M, cfg)
        taus = {p: witt.tau_image(c, p) for p, _ in c.parts}
        data = {
            "parts": [
                {"prime": p, "kind": l.kind, "params": [str(x) for x in l.params]}
                for p, l in c.parts
            ],
            "tau_labels": {
                str(p): {"unit": _frac(t.unit), "radical": t.radical} for p, t in taus.items()
            },
        }
    elif args.action == "core":
        res = qform.core(M, cfg)
        data = {
            "core": bio.qform_to_json(res.core),
            "subgroup": [list(e) for e in res.subgroup.elements],
            "gamma_order": len(res.gamma),
        }
    elif args.action == "wap":
        res = qform.wap_decompose(M, cfg)
        data = {"weakly_anisotropic": res is not None}
        if res is not None:
            mult, aniso = res
            data["hyperbolic_multiplicity"] = {str(p): k for p, k in mult.items()}
            data["anisotropic_part"] = bio.qform_to_json(aniso)
    rep = _report(f"qform:{args.form}", checks, data)
    _emit(rep, cfg, args.out)
    return _exit_code(checks)


# -- fusion -------------------------------------------------------------------

def cmd_fusion(args, cfg) -> int:
    from . import fusion
    R = bio.ring_from_json(bio.load_json(args.ring))
    checks = [Check("axioms", "fusion-ring-axioms", "pass")]
    data = {"rank": R.rank, "commutative": R.is_commutative()}
    if args.action == "dims":
        fp = fusion.fp_dims(R, cfg)
        data["fpdim"] = list(fp.fpdim)
        data["total"] = fp.total
    elif args.action == "grading":
        g = fusion.universal_grading(R, cfg)
        data["group"] = {"orders": list(g.group.orders)}
        data["deg"] = [list(d) for d in g.deg]
        data["adjoint"] = list(g.trivial_component())
    elif args.action == "subrings":
        lat = fusion.all_subrings(R, cfg)
        data["subrings"] = [list(s.indices) for s in lat.subrings]
        data["pointed"] = list(fusion.pointed_part(R).indices)
        try:
            data["integral"] = list(fusion.integral_part(R, cfg).indices)
        except BraidforgeError:
            data["integral"] = None
    rep = _report(f"fusion:{args.ring}", checks, data)
    _emit(rep, cfg, args.out)
    return _exit_code(checks)


# -- premodular ----------------------------------------------------------------

def _subring_seed(text: str, rank: int) -> tuple:
    """The basis indices of ``--subring``, each an integer in 0..rank-1."""
    seed = []
    for entry in text.split(","):
        try:
            i = int(entry)
        except ValueError:
            raise SchemaError(f"--subring entry {entry!r} is not an integer") from None
        if not 0 <= i < rank:
            raise SchemaError(f"--subring entry {i} is outside 0..{rank - 1}")
        seed.append(i)
    return tuple(seed)


def cmd_premodular(args, cfg) -> int:
    from . import premodular
    D = bio.datum_from_json(bio.load_json(args.datum), cfg)
    checks = [Check("datum", "datum-identities", "pass")]
    data = {}
    if args.action == "report":
        rep = premodular.gauss_and_charge(D, cfg)
        checks.extend(rep.checks)
        data = {
            "tau_plus": bio.cyclo_to_json(rep.tau_plus),
            "tau_minus": bio.cyclo_to_json(rep.tau_minus),
            "charge_sq": None if rep.charge_sq is None else bio.cyclo_to_json(rep.charge_sq),
            "dim_total": bio.cyclo_to_json(rep.dim_total),
            "nondegenerate": premodular.is_nondegenerate(D),
            "x_class": rep.x_class,
            "gfp_plus": None if rep.gfp_plus is None else bio.cyclo_to_json(rep.gfp_plus),
            "gfp_minus": None if rep.gfp_minus is None else bio.cyclo_to_json(rep.gfp_minus),
        }
    elif args.action == "centralizer":
        if not args.subring:
            raise SchemaError("centralizer needs --subring i,j,...")
        from .fusion import subring_generated
        K = subring_generated(D.ring, _subring_seed(args.subring, D.rank))
        rep = premodular.centralizer(D, K)
        checks.append(Check("rank-components", "centralizer-rank-components", "pass",
                            f"rank {rep.rank_stilde}"))
        data = {
            "subring": list(rep.subring.indices),
            "centralizer": list(rep.centralizer.indices),
            "components": [list(c) for c in rep.components],
            "rank": rep.rank_stilde,
        }
        for c in premodular.dichotomy_check(D, K):
            checks.append(c)
    elif args.action == "gfp":
        x, tp, tm = premodular.gfp_invariants(D, cfg)
        data = {
            "x_class": x,
            "gfp_plus": bio.cyclo_to_json(tp),
            "gfp_minus": bio.cyclo_to_json(tm),
        }
    rep = _report(f"premodular:{args.datum}", checks, data)
    _emit(rep, cfg, args.out)
    return _exit_code(checks)


# -- catalog --------------------------------------------------------------------

def cmd_catalog(args, cfg) -> int:
    from . import premodular
    if args.what == "ising":
        zeta = bio.parse_fraction(args.zeta)
        eps = int(args.eps)
        D = premodular.ising_datum(zeta, eps, cfg)
    elif args.what == "pointed":
        M = bio.qform_from_json(bio.load_json(args.form))
        chi = None
        if args.chi:
            chi = bio.character_from_json(bio.load_json(args.chi), M.group)
        D = premodular.pointed_datum(M, chi, cfg)
    else:  # product
        D1 = bio.datum_from_json(bio.load_json(args.left), cfg)
        D2 = bio.datum_from_json(bio.load_json(args.right), cfg)
        D = premodular.deligne_product(D1, D2, cfg)
    _write(args.out, json.dumps(bio.datum_to_json(D), indent=2) + "\n")
    return 0


# -- wiring ----------------------------------------------------------------------

@cache  # built once per process: parsing leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tolerance", type=float)
    common.add_argument("--enum-guard", type=int, dest="enum_guard")
    common.add_argument("--aut-guard", type=int, dest="aut_guard")
    common.add_argument("--rank-guard", type=int, dest="rank_guard")
    common.add_argument("--conductor-guard", type=int, dest="conductor_guard")
    common.add_argument("--output", choices=("json", "text"))
    common.add_argument("--out", help="write the report to this path (atomic)")

    ap = argparse.ArgumentParser(prog="braidforge",
                                 description=__doc__.partition("\nImports:")[0],
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    q = sub.add_parser("qform", parents=[common], help="analyze a quadratic form")
    q.add_argument("action", choices=("analyze", "classify", "gauss", "witt", "core", "wap"))
    q.add_argument("form")

    f = sub.add_parser("fusion", parents=[common], help="analyze a fusion ring")
    f.add_argument("action", choices=("check", "dims", "grading", "subrings"))
    f.add_argument("ring")

    p = sub.add_parser("premodular", parents=[common], help="analyze a pre-modular datum")
    p.add_argument("action", choices=("report", "centralizer", "gfp"))
    p.add_argument("datum")
    p.add_argument("--subring", help="comma-separated basis indices")

    c = sub.add_parser("catalog", help="emit built-in data as JSON")
    csub = c.add_subparsers(dest="what", required=True)
    ci = csub.add_parser("ising", parents=[common])
    ci.add_argument("--zeta", required=True, help="braiding exponent, odd/16")
    ci.add_argument("--eps", required=True, choices=("+1", "-1", "1"))
    cp = csub.add_parser("pointed", parents=[common])
    cp.add_argument("--form", required=True)
    cp.add_argument("--chi")
    cx = csub.add_parser("product", parents=[common])
    cx.add_argument("left")
    cx.add_argument("right")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {
        k: getattr(args, k)
        for k in ("tolerance", "enum_guard", "aut_guard", "rank_guard", "conductor_guard",
                  "output")
        if getattr(args, k, None) is not None
    }
    try:
        cfg = cfgmod.from_env(**overrides)
        if args.command == "qform":
            return cmd_qform(args, cfg)
        if args.command == "fusion":
            return cmd_fusion(args, cfg)
        if args.command == "premodular":
            return cmd_premodular(args, cfg)
        if args.command == "catalog":
            return cmd_catalog(args, cfg)
        raise SchemaError(f"unknown command {args.command}")
    except EnumerationLimit as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return 3
    except SchemaError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except BraidforgeError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        pass   # report below, once the traceback and the frames it holds are freed
    print("guard exceeded: memory", file=sys.stderr)
    return 3


if __name__ == "__main__":
    sys.exit(main())
