"""Span tracer for braidforge, installed from outside the package.

``install`` wraps every public function of every braidforge module at
every name it is bound to (``from ... import`` bindings included, so
``qform.automorphism_perms`` and ``abelian.automorphism_perms`` are one
wrapped function), and every ``CycloNum`` method at class level.  Each
call, while the tracer is on, records a span: name, start, end and the
enclosing span.  Methods of the other classes (``FinAbGroup.add``,
``PreModularDatum.tau``, ``Fraction`` arithmetic, ...) are not wrapped;
their time is charged to the span that called them.

Spans stay in memory in flat arrays and are written out by ``dump``; a
span file is read back with ``load`` and reduced to per-function and
per-layer self times by ``summarize``.  A layer is a braidforge module
(``kernels`` covers the kernel package and its backend).
"""

from __future__ import annotations

import importlib
import json
import types
from array import array
from time import perf_counter

MODULES = (
    "abelian", "cli", "config", "cyclotomic", "fusion", "io",
    "kernels", "kernels.pure", "premodular", "qform", "witt",
)
LAYERS = ("kernels", "abelian", "qform", "witt", "cyclotomic", "fusion",
          "premodular", "io", "cli")

_SKIP_METHODS = {"__init__", "__repr__"}


def layer_of(module_name: str) -> str:
    return module_name.split(".")[1]


def _method_name(attr: str) -> str:
    return attr.strip("_") if attr.startswith("__") else attr


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.on = False
        self.method_names = set()   # span names of CycloNum methods
        self.perms = 0              # automorphisms enumerated by the kernel
        self.aut_groups = set()     # distinct groups given to automorphism_perms
        self.max_conductor = 0

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def counters(self) -> dict:
        return {
            "perms": self.perms,
            "aut_groups": sorted(list(g) for g in self.aut_groups),
            "max_conductor": self.max_conductor,
            "method_names": sorted(self.method_names),
        }

    def dump(self, path: str) -> None:
        """One JSON header line, then the four span arrays as raw bytes."""
        header = {"names": self.names, "count": len(self.name),
                  "counters": self.counters()}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


def load(path: str):
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["count"]
        arrays = []
        for code in "iidd":
            arr = array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    return header, arrays


def summarize(header, arrays) -> dict:
    """{span name: [calls, self seconds]}; self = duration minus children."""
    name, parent, start, end = arrays
    dur = [e - s for s, e in zip(start, end)]
    child = [0.0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[i]
    out = {n: [0, 0.0] for n in header["names"]}
    names = header["names"]
    for nid, d, c in zip(name, dur, child):
        rec = out[names[nid]]
        rec[0] += 1
        rec[1] += d - c
    return out


# -- installation ---------------------------------------------------------------

def _hooks(tr: Tracer, cyclo_type, limit_error):
    def automorphisms(args, result, exc):
        if exc is None:
            tr.perms += len(result)
        elif isinstance(exc, limit_error):
            # the kernel raises once it holds cap + 1 automorphisms
            tr.perms += args[-1] + 1

    def automorphism_perms(args, result, exc):
        tr.aut_groups.add(tuple(args[0].orders))

    def cyclotomic(args, result, exc):
        if isinstance(result, cyclo_type) and result.n > tr.max_conductor:
            tr.max_conductor = result.n

    return {"kernels.automorphisms": automorphisms,
            "abelian.automorphism_perms": automorphism_perms}, cyclotomic


def _wrap(tr: Tracer, name: str, fn, hook):
    nid = tr.intern(name)

    def traced(*args, **kwargs):
        if not tr.on:
            return fn(*args, **kwargs)
        i = tr.open(nid)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tr.close(i)
            if hook is not None:
                hook(args, None, exc)
            raise
        tr.close(i)
        if hook is not None:
            hook(args, result, None)
        return result

    traced.__wrapped__ = fn
    traced.__name__ = fn.__name__
    return traced


def install(tr: Tracer):
    """Wrap braidforge for ``tr``; returns a function that undoes it."""
    mods = [importlib.import_module("braidforge." + m) for m in MODULES]
    from braidforge.cyclotomic import CycloNum
    from braidforge.errors import EnumerationLimit

    named_hooks, cyclo_hook = _hooks(tr, CycloNum, EnumerationLimit)
    wrappers = {}
    for mod in mods:
        for obj in vars(mod).values():
            if (isinstance(obj, types.FunctionType)
                    and obj.__module__.startswith("braidforge.")
                    and obj.__name__.isidentifier()
                    and not obj.__name__.startswith("_")
                    and id(obj) not in wrappers):
                layer = layer_of(obj.__module__)
                name = f"{layer}.{obj.__name__}"
                hook = cyclo_hook if layer == "cyclotomic" else named_hooks.get(name)
                wrappers[id(obj)] = (obj, _wrap(tr, name, obj, hook))
    undo = []
    for mod in mods:
        for attr, obj in list(vars(mod).items()):
            entry = wrappers.get(id(obj))
            if entry is not None and entry[0] is obj:
                setattr(mod, attr, entry[1])
                undo.append((mod, attr, obj))
    for attr, obj in list(vars(CycloNum).items()):
        fn = obj.__func__ if isinstance(obj, staticmethod) else obj
        if not isinstance(fn, types.FunctionType) or attr in _SKIP_METHODS:
            continue
        if attr.startswith("_") and not attr.startswith("__"):
            continue
        name = "cyclotomic." + _method_name(attr)
        tr.method_names.add(name)
        w = _wrap(tr, name, fn, cyclo_hook)
        setattr(CycloNum, attr, staticmethod(w) if isinstance(obj, staticmethod) else w)
        undo.append((CycloNum, attr, obj))

    def uninstall():
        for target, attr, obj in reversed(undo):
            setattr(target, attr, obj)

    return uninstall
