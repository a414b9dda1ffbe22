"""In-memory span tracing around the public functions of the six modules.

A span is recorded for every call into a public function binding of
``symplinalg``, ``fock``, ``mpc``, ``geometry``, ``dirac`` and ``cli``,
including names a module re-binds by direct import (``fock`` calls
``symplinalg.vec_to_complex`` through its own global).  A span is labelled
by the module that defines the function, so such a call counts for
``symplinalg`` wherever it is made from.  Spans live in memory with parent
links and are written out by the caller once the run is over.

Spans are only recorded inside a root span opened with ``Tracer.unit``;
between units the wrappers pass calls straight through.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from contextlib import contextmanager

MODULES = ("symplinalg", "fock", "mpc", "geometry", "dirac", "cli")

# span layout: [id, parent id, label, start, end, attributes]
ID, PARENT, LABEL, START, END, ATTRS = range(6)

# inclusive seconds per call-tree unit, for these functions
TIMED_FUNCTIONS = (
    "mpc.conjugation_check",
    "dirac.spectrum",
    "dirac.weitzenbock_residual",
    "dirac.laplacian",
    "dirac.P_op",
    "dirac.make_context",
    "geometry.lie_matrix_field",
    "cli.build_setup",
)
COUNTED_FUNCTIONS = ("geometry.partial_derivative", "geometry.spinor_cov_deriv")


def _uj_apply_attrs(args, kwargs):
    combo = args[2] if len(args) > 2 else kwargs["c"]
    centers = combo.centers
    return {"centers": int(centers.size // centers.shape[-1])}


def _spectrum_attrs(args, kwargs):
    ctx = args[0] if args else kwargs["ctx"]
    degree = args[1] if len(args) > 1 else kwargs["degree"]
    torus, basis = ctx.torus, ctx.basis
    modes = (2 * torus.cutoff + 1) ** torus.dim
    dim = modes * int((basis.degrees == degree).sum())
    points = torus.grid_size ** torus.dim
    # the batched field spectrum() allocates: grid x F x Galerkin dim complex
    return {"galerkin_dim": dim, "field_bytes": points * basis.dim * dim * 16}


ATTRIBUTE_HOOKS = {
    "fock.uj_apply": _uj_apply_attrs,
    "dirac.spectrum": _spectrum_attrs,
}


class Tracer:
    """Installs span-recording wrappers into the sympdirac modules."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[list] | None = None
        self._saved: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            return
        wrappers = {}
        for short in MODULES:
            module = importlib.import_module(f"sympdirac.{short}")
            for name, obj in list(vars(module).items()):
                label = _public_label(name, obj)
                if label is None:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj, label)
                self._saved.append((module, name, obj))
                setattr(module, name, wrappers[obj])

    def uninstall(self) -> None:
        for module, name, obj in self._saved:
            setattr(module, name, obj)
        self._saved = []

    def _wrap(self, fn, label):
        hook = ATTRIBUTE_HOOKS.get(label)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if stack is None:
                return fn(*args, **kwargs)
            attrs = hook(args, kwargs) if hook else None
            span = [len(tracer.spans), stack[-1][ID], label, 0.0, 0.0, attrs]
            tracer.spans.append(span)
            stack.append(span)
            span[START] = tracer.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = tracer.clock()
                stack.pop()

        return wrapper

    # -- recording ---------------------------------------------------------

    @contextmanager
    def unit(self, name: str):
        """Root span for one op or one set-up; spans below share its id."""
        root = [len(self.spans), None, name, 0.0, 0.0, None]
        self.spans.append(root)
        self._stack = [root]
        root[START] = self.clock()
        try:
            yield root
        finally:
            root[END] = self.clock()
            self._stack = None


def _public_label(name, obj):
    if name.startswith("_") or isinstance(obj, type) or not callable(obj):
        return None
    owner = getattr(obj, "__module__", None) or ""
    package, _, short = owner.rpartition(".")
    if package != "sympdirac" or short not in MODULES:
        return None
    return f"{short}.{obj.__name__}"


# ---------------------------------------------------------------------------
# analysis


def self_times(spans) -> dict:
    """Span id -> duration minus the part of its interval child spans cover."""
    children: dict = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append(span)
    out = {}
    for span in spans:
        lo, hi = span[START], span[END]
        covered, reach = 0.0, lo
        for child in sorted(children.get(span[ID], ()), key=lambda s: s[START]):
            start, end = max(child[START], reach), min(child[END], hi)
            if end > start:
                covered += end - start
                reach = end
        out[span[ID]] = (hi - lo) - covered
    return out


def unit_metrics(spans) -> dict:
    """Per-layer figures for each root unit: {root label: {metric: value}}.

    ``<module>.self_s``/``.calls`` for each module, inclusive seconds of the
    TIMED_FUNCTIONS (outermost span only, so recursion is not counted
    twice), call counts of the COUNTED_FUNCTIONS, centres routed through
    ``fock.uj_apply`` and the largest Galerkin problem ``dirac.spectrum``
    set up.
    """
    by_id = {span[ID]: span for span in spans}
    selfs = self_times(spans)
    units: dict = {}
    for span in spans:
        if span[PARENT] is None:
            units[span[ID]] = _empty_metrics()
            continue
        root, outermost = span, True
        while root[PARENT] is not None:
            root = by_id[root[PARENT]]
            if root[LABEL] == span[LABEL]:
                outermost = False
        acc = units[root[ID]]
        label = span[LABEL]
        module = label.split(".", 1)[0]
        acc[f"{module}.self_s"] += selfs[span[ID]]
        acc[f"{module}.calls"] += 1
        if label in TIMED_FUNCTIONS and outermost:
            acc[f"{label}.s"] += span[END] - span[START]
        if label in COUNTED_FUNCTIONS:
            acc[f"{label}.calls"] += 1
        attrs = span[ATTRS] or {}
        if "centers" in attrs:
            acc["fock.uj_apply.centers"] += attrs["centers"]
        if "galerkin_dim" in attrs:
            for key in ("galerkin_dim", "field_bytes"):
                name = f"dirac.spectrum.{key}"
                acc[name] = max(acc[name], attrs[key])
    return {by_id[uid][LABEL]: acc for uid, acc in units.items()}


def _empty_metrics() -> dict:
    acc = {}
    for module in MODULES:
        acc[f"{module}.self_s"] = 0.0
        acc[f"{module}.calls"] = 0
    for label in TIMED_FUNCTIONS:
        acc[f"{label}.s"] = 0.0
    for label in COUNTED_FUNCTIONS:
        acc[f"{label}.calls"] = 0
    acc["fock.uj_apply.centers"] = 0
    acc["dirac.spectrum.galerkin_dim"] = 0
    acc["dirac.spectrum.field_bytes"] = 0
    return acc


def combine(setup: dict, ops: list) -> dict:
    """One set-up plus one typical op.

    Seconds take the median over ``ops``; counts are those of ``ops[0]``,
    so two runs that trace the same first input report the same counts.
    """
    out = {}
    for key, first in ops[0].items():
        if isinstance(first, int):
            mid = first
        else:
            mid = statistics.median(op[key] for op in ops)
        out[key] = setup[key] + mid
    return out
