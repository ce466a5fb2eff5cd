"""Wrap hyptrig's layer functions from outside the package.

`patched(make_wrapper)` replaces every public function of the five layer
modules (cli, auditor, catalog, quad, specfun) with a wrapper, in every
namespace that binds it: the defining module, the modules that imported
the name from it (``specfun.euler_transform``, ``auditor.integrate``,
``auditor.cf_3_532_1``) and the ``hyptrig`` package itself.  Each catalog
entry's ``closed_form`` and ``integrand_factory`` are wrapped too, and a
wrapped factory wraps the ``eval`` / ``eval_*_dist`` callables of every
Integrand it returns.  Everything is restored on exit.

`Tracer` is the wrapper factory of the traced run: it records one span
per call (name, parent span, start, end, work, ok) in memory, and
`round_metrics` turns one round's spans into the PER_LAYER metrics.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import time
from typing import Callable, Dict, List

LAYERS = ("cli", "auditor", "catalog", "quad", "specfun")

# the quad engines, by IntervalSpec shape
QUAD_SHAPES = {
    "integrate_oscillatory": "oscillatory",
    "integrate_decay": "decay",
    "integrate_endpoint_singular": "endpoint_singular",
    "integrate_finite": "plain",
}
SPECFUN_REPORTED = ("gamma", "log_gamma", "hurwitz_zeta", "riemann_zeta",
                    "dirichlet_beta", "dirichlet_eta", "bessel_j",
                    "theta1_prime0")
# catalog functions that look an entry up rather than evaluate a closed form
CATALOG_LOOKUPS = ("catalog.get_entry", "catalog.list_entries")

# the per-layer metrics a traced run reports, in order, with their units
_ENGINES = ("oscillatory", "decay", "endpoint_singular")
PER_LAYER = (
    [("quad.self_s", "s")]
    + [(f"quad.{shape}.{m}", u) for shape in _ENGINES
       for m, u in (("calls", "count"), ("self_s", "s"), ("evals", "count"),
                    ("evals_per_call", "evals/call"), ("converged_per_call", "ratio"))]
    + [("quad.euler_transform.calls", "count"), ("quad.euler_transform.s", "s"),
       ("catalog.self_s", "s"),
       ("catalog.integrand.calls", "count"), ("catalog.integrand.points", "count"),
       ("catalog.integrand.s", "s"), ("catalog.integrand.points_per_call", "points/call"),
       ("catalog.closed.calls", "count"), ("catalog.closed.self_s", "s"),
       ("catalog.factory.s", "s"),
       ("specfun.self_s", "s")]
    + [(f"specfun.{fn}.{m}", u) for fn in SPECFUN_REPORTED
       for m, u in (("calls", "count"), ("self_s", "s"))]
    + [("auditor.audit.s", "s"), ("auditor.sample.s", "s"),
       ("auditor.verify.calls", "count"), ("auditor.report.s", "s"),
       ("auditor.report.bytes", "bytes"), ("auditor.self_s", "s"),
       ("cli.self_s", "s"),
       ("trace.run_s", "s"), ("trace.attributed_share", "ratio")]
)
_RATIOS = (
    [(f"quad.{shape}.evals_per_call", f"quad.{shape}.evals", f"quad.{shape}.calls")
     for shape in _ENGINES]
    + [(f"quad.{shape}.converged_per_call", f"quad.{shape}.converged", f"quad.{shape}.calls")
       for shape in _ENGINES]
    + [("catalog.integrand.points_per_call", "catalog.integrand.points",
        "catalog.integrand.calls")]
)

# span kinds: what a wrapper records as the span's work
PLAIN, QUAD, INTEGRAND = 0, 1, 2


def layer_functions() -> Dict[str, Callable]:
    """Public functions of the layer modules, keyed by 'layer.name'."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"hyptrig.{layer}")
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                out[f"{layer}.{name}"] = obj
    return out


@contextlib.contextmanager
def patched(make_wrapper: Callable[[Callable, str, int], Callable],
            layers=LAYERS, entries: bool = True):
    """Install make_wrapper(fn, span_name, kind) over the layer functions.

    Only functions of the given layers are wrapped; `entries` also wraps
    the per-entry closed forms, factories and the integrands they return.
    """
    from hyptrig import catalog

    registry = catalog.list_entries() if entries else []
    funcs = {name: fn for name, fn in layer_functions().items()
             if name.split(".", 1)[0] in layers}
    wrapped = {}
    for name, fn in funcs.items():
        kind = QUAD if name.split(".", 1)[1] in QUAD_SHAPES else PLAIN
        wrapped[id(fn)] = make_wrapper(fn, name, kind)

    namespaces = [importlib.import_module("hyptrig")]
    namespaces += [importlib.import_module(f"hyptrig.{layer}") for layer in LAYERS]
    undo = []
    for ns in namespaces:
        for attr, obj in list(vars(ns).items()):
            if inspect.isfunction(obj) and id(obj) in wrapped:
                undo.append((ns, attr, obj))
                setattr(ns, attr, wrapped[id(obj)])

    entry_undo = []
    for entry in registry:
        entry_undo.append((entry, entry.closed_form, entry.integrand_factory))
        object.__setattr__(entry, "closed_form", make_wrapper(
            entry.closed_form, f"catalog.entry.closed[{entry.id}]", PLAIN))
        object.__setattr__(entry, "integrand_factory", _wrap_factory(
            entry.integrand_factory, entry.id, make_wrapper))
    try:
        yield
    finally:
        for entry, closed, factory in entry_undo:
            object.__setattr__(entry, "closed_form", closed)
            object.__setattr__(entry, "integrand_factory", factory)
        for ns, attr, obj in undo:
            setattr(ns, attr, obj)


def _wrap_factory(factory, entry_id, make_wrapper):
    eval_name = f"catalog.entry.eval[{entry_id}]"

    def factory_body(params):
        f, spec = factory(params)
        f.eval = make_wrapper(f.eval, eval_name, INTEGRAND)
        for attr in ("eval_lower_dist", "eval_upper_dist"):
            cb = getattr(f, attr)
            if cb is not None:
                setattr(f, attr, make_wrapper(cb, eval_name, INTEGRAND))
        return f, spec

    return make_wrapper(factory_body, f"catalog.entry.factory[{entry_id}]", PLAIN)


class Tracer:
    """Span recorder: parallel lists, one slot per wrapped call.

    A span's parent is the innermost span open when it started (-1 at top
    level); the process is single-threaded, so spans nest exactly.
    `work` is QuadResult.evaluations for an engine span and the number of
    abscissae for an integrand span; `ok` is 0 for an engine span whose
    status is not 'converged'.
    """

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = []
        self.parent = []
        self.start = []
        self.end = []
        self.work = []
        self.ok = []
        self._stack = [-1]

    def clear(self):
        for lst in (self.name, self.parent, self.start, self.end, self.work, self.ok):
            del lst[:]
        del self._stack[1:]

    def spans(self):
        return list(zip(self.name, self.parent, self.start, self.end,
                        self.work, self.ok))

    def __call__(self, fn, span_name, kind):
        nid = self._ids.setdefault(span_name, len(self._ids))
        if nid == len(self.names):
            self.names.append(span_name)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        work, ok, stack = self.work, self.ok, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(name)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            work.append(0)
            ok.append(1)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if kind == QUAD:
                work[i] = result.evaluations
                ok[i] = int(result.status == "converged")
            elif kind == INTEGRAND:
                work[i] = getattr(args[0], "size", 1)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path: str, rounds: List[list]) -> None:
        """Write the kept rounds' spans: [name, parent, start, end, work, ok]."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "fields": ["name", "parent", "start", "end", "work", "ok"],
                       "rounds": rounds}, fh, separators=(",", ":"))


def layer_metrics(names: List[str], spans: list) -> Dict[str, float]:
    """Per-layer metrics of one round's spans.

    Self time is a span's duration minus its children's durations.  Every
    span belongs to exactly one of the five layers, so the layer self
    times add up to the time the top-level spans cover.
    """
    n = len(spans)
    child = [0.0] * n
    for _, p, s, e, _, _ in spans:
        if p >= 0:
            child[p] += e - s
    m: Dict[str, float] = {}

    def add(key, value):
        m[key] = m.get(key, 0.0) + value

    closed_group = []
    for i, (nid, p, s, e, w, ok) in enumerate(spans):
        name = names[nid]
        layer, rest = name.split(".", 1)
        dur = e - s
        self_t = dur - child[i]
        add(f"{layer}.self_s", self_t)
        if layer == "quad":
            shape = QUAD_SHAPES.get(rest)
            if shape is not None:
                add(f"quad.{shape}.calls", 1)
                add(f"quad.{shape}.self_s", self_t)
                add(f"quad.{shape}.evals", w)
                add(f"quad.{shape}.converged", ok)
            elif rest == "euler_transform":
                add("quad.euler_transform.calls", 1)
                add("quad.euler_transform.s", dur)
        elif layer == "catalog":
            if rest.startswith("entry.eval["):
                add("catalog.integrand.calls", 1)
                add("catalog.integrand.points", w)
                add("catalog.integrand.s", self_t)
            elif rest.startswith("entry.factory[") or rest == "integrand":
                add("catalog.factory.s", self_t)
            else:
                add("catalog.closed.self_s", self_t)
                closed_group.append(i)
        elif layer == "specfun":
            if rest in SPECFUN_REPORTED:
                add(f"specfun.{rest}.calls", 1)
                add(f"specfun.{rest}.self_s", self_t)
        elif layer == "auditor":
            if rest == "audit_all":
                add("auditor.audit.s", dur)
            elif rest == "sample_params":
                add("auditor.sample.s", dur)
            elif rest == "verify_entry":
                add("auditor.verify.calls", 1)
            elif rest == "save_report":
                add("auditor.report.s", dur)
    # a closed-form evaluation is a closed-group span entered from outside
    # the group; registry lookups are not evaluations
    in_group = set(closed_group)
    for i in closed_group:
        if spans[i][1] not in in_group and names[spans[i][0]] not in CATALOG_LOOKUPS:
            add("catalog.closed.calls", 1)
    return m


def round_metrics(names: List[str], spans: list, wall: float,
                  report_bytes: int) -> Dict[str, float]:
    """Every PER_LAYER metric of one traced round that took `wall` seconds.

    A layer the round never entered reads 0.  trace.attributed_share is
    the five layer self times over the round's wall time: the part of the
    round the spans cover.
    """
    m = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
    m.update(layer_metrics(names, spans))
    for name, num, den in _RATIOS:
        m[name] = m.get(num, 0.0) / m[den] if m[den] else 0.0
    m["auditor.report.bytes"] = report_bytes
    m["trace.run_s"] = wall
    m["trace.attributed_share"] = sum(m[f"{layer}.self_s"] for layer in LAYERS) / wall
    return m
