"""The benchmark's requests: what each workload asks braidforge to do.

A workload's set-up turns the seeded inputs of ``inputs`` into a list of
visits.  A visit is a generator of ``Request``s; it receives the output
of each completed request (so later requests can depend on earlier
answers) and ends at its first failed request.  Outputs are built
through braidforge's own JSON serialisers (``braidforge.io``); the
benchmark compares their digests with the golden outputs.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
from dataclasses import dataclass

import inputs


@dataclass
class Request:
    key: str        # golden key: digest of the input and the action
    run: object     # callable returning a JSON-able output, or bytes for the CLI


# -- form_stream ---------------------------------------------------------------------

def _qform_actions(M):
    """The library calls that ``braidforge.cli.cmd_qform`` makes, one per action."""
    from braidforge import io as bio
    from braidforge import qform, witt

    def analyze():
        deg = qform.degeneracy(M)
        recs = qform.isotropic_subgroups(M)
        return {
            "order": M.order,
            "degeneracy": deg.tag,
            "radical_order": deg.radical.order,
            "isotropic_subgroups": len(recs),
            "lagrangians": sum(1 for r in recs if r.is_lagrangian),
            "weakly_anisotropic": qform.is_weakly_anisotropic(M),
        }

    def gauss():
        rep = witt.gauss_sum(M)
        out = {
            "tau_plus": bio.cyclo_to_json(rep.tau_plus),
            "tau_minus": bio.cyclo_to_json(rep.tau_minus),
            "positivity": None if rep.positivity is None else inputs.frac_str(rep.positivity),
            "norm_check": rep.norm_check,
        }
        if qform.is_metric(M):
            # built-in identity: tau * conj(tau) = |G| for metric forms
            out["identity"] = rep.tau_plus * rep.tau_minus == M.order
        return out

    def core():
        res = qform.core(M)
        return {
            "core": bio.qform_to_json(res.core),
            "subgroup": [list(e) for e in res.subgroup.elements],
            "gamma_order": len(res.gamma),
        }

    def witt_():
        c = witt.witt_class(M)
        return {
            "parts": [{"prime": p, "kind": l.kind, "params": [str(x) for x in l.params]}
                      for p, l in c.parts],
            "tau_labels": {str(p): {"unit": inputs.frac_str(witt.tau_image(c, p).unit),
                                    "radical": witt.tau_image(c, p).radical}
                           for p, _ in c.parts},
        }

    def wap():
        mult, aniso = qform.wap_decompose(M)
        return {"hyperbolic_multiplicity": {str(p): k for p, k in mult.items()},
                "anisotropic_part": bio.qform_to_json(aniso)}

    def classify():
        return {"labels": [{"kind": l.kind, "prime": l.prime,
                            "params": [str(p) for p in l.params]}
                           for l in qform.classify_anisotropic(M)]}

    def subquotient():
        # built-in identity: tau(M) = |H| tau(H-perp / H) for isotropic H
        t = witt.tau_plus(M)
        recs = qform.isotropic_subgroups(M)
        ok = all(t == witt.tau_plus(qform.quotient_form(M, r.subgroup)) * r.subgroup.order
                 for r in recs)
        return {"subgroups": len(recs), "identity": ok}

    return {"analyze": analyze, "gauss": gauss, "core": core, "witt": witt_,
            "wap": wap, "classify": classify, "subquotient": subquotient}


def stream_key(form: dict, action: str) -> str:
    return inputs.digest({"form": form, "action": action})


def stream_visit(forms):
    from braidforge import io as bio

    parsed = [(f, bio.qform_from_json(f)) for f in forms]

    def visit():
        for form, M in parsed:
            acts = _qform_actions(M)

            def req(action):
                return Request(stream_key(form, action), acts[action])

            a = yield req("analyze")
            yield req("gauss")
            yield req("core")
            if a["degeneracy"] == "nondegenerate":
                yield req("witt")
            if a["weakly_anisotropic"]:
                yield req("wap")
            if a["isotropic_subgroups"] == 1:   # only {0}: anisotropic
                yield req("classify")
            yield req("subquotient")

    return visit


def stream_setup(seed: int) -> list:
    """One pass over all 61 shapes of order <= 36; a visit per shape."""
    return [stream_visit(forms) for _, forms in inputs.stream_pass(seed)]


# -- datum_reports ------------------------------------------------------------------

def datum_report(obj) -> dict:
    """datum_from_json, then the report, centralizer (every subring) and
    gfp actions of ``braidforge premodular``."""
    from braidforge import fusion, premodular
    from braidforge import io as bio

    cj = bio.cyclo_to_json
    D = bio.datum_from_json(obj)
    rep = premodular.gauss_and_charge(D)
    nondeg = premodular.is_nondegenerate(D)
    x, t_p, t_m = premodular.gfp_invariants(D)
    cents = []
    for K in fusion.all_subrings(D.ring).subrings:
        c = premodular.centralizer(D, K)
        cents.append({
            "subring": list(c.subring.indices),
            "centralizer": list(c.centralizer.indices),
            "components": [list(comp) for comp in c.components],
            "rank": c.rank_stilde,
        })
    checks = [[k.name, k.status] for k in rep.checks]
    return {
        "checks": checks,
        "tau_plus": cj(rep.tau_plus),
        "tau_minus": cj(rep.tau_minus),
        "charge_sq": None if rep.charge_sq is None else cj(rep.charge_sq),
        "dim_total": cj(rep.dim_total),
        "nondegenerate": nondeg,
        "x_class": rep.x_class,
        "gfp": [x, cj(t_p), cj(t_m)],
        "centralizers": cents,
        # built-in identity: every relation the report verifies holds
        "identity": all(status == "pass" for _, status in checks),
    }


def datum_key(obj) -> str:
    return inputs.digest({"datum": obj})


def datum_visit(obj):
    key = datum_key(obj)

    def visit():
        yield Request(key, lambda: datum_report(obj))

    return visit


def datum_setup(seed: int) -> list:
    return [datum_visit(obj) for obj in inputs.datum_requests(seed)]


# -- cli_cold ---------------------------------------------------------------------------

def cli_run(argv, cwd: str, env: dict, trace_to=None) -> bytes:
    """One fresh ``python -m braidforge.cli`` process; its stdout.

    Traced, the process starts through ``cli_traced.py``, which installs
    the tracer before importing the CLI and writes its spans to
    ``trace_to``.
    """
    if trace_to is None:
        cmd = [sys.executable, "-m", "braidforge.cli", *argv]
    else:
        here = os.path.dirname(os.path.abspath(__file__))
        cmd = [sys.executable, os.path.join(here, "cli_traced.py"), trace_to, *argv]
    proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.decode()[-300:]}")
    return proc.stdout


def cli_visits(rounds, workdir: str, src: str, trace_dir=None) -> list:
    """Writes each round's input files under ``workdir``; a (key, visit)
    per command."""
    env = dict(os.environ, PYTHONPATH=src)
    out = []
    counter = itertools.count()
    for r, (files, commands) in enumerate(rounds):
        rdir = os.path.join(workdir, f"round{r}")
        os.makedirs(rdir, exist_ok=True)
        for name, obj in files.items():
            with open(os.path.join(rdir, name), "w", encoding="utf-8") as fh:
                json.dump(obj, fh, indent=2)
        for argv in commands:
            key = inputs.cli_key(argv, files)

            def visit(argv=argv, rdir=rdir, key=key):
                trace_to = None
                if trace_dir is not None:
                    trace_to = os.path.join(trace_dir, f"cli-{next(counter)}.spans")
                yield Request(key, lambda: cli_run(argv, rdir, env, trace_to))

            out.append((key, visit))
    return out


def cli_setup(seed: int, workdir: str, src: str, trace_dir=None) -> list:
    return [v for _, v in cli_visits(inputs.cli_rounds(seed), workdir, src, trace_dir)]
