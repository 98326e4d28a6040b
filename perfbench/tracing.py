"""Spans around the library's layers, recorded from the benchmark's side.

:func:`install` wraps every public function of each ``eigenfence`` layer
module, and every public method of each region class, so that a call
records a span (name, layer, start, end, parent, request).  A
function re-imported into another module (``discs.diag_similar``) is
replaced there too, so nested calls show up under their caller.  The layer
of a span is the module that defines the function.  Nothing in the library
changes on disk.

Spans stay in memory until :meth:`Tracer.dump` writes them all out.  Self
time is a span's duration minus the time its child spans cover.  With
``memory`` on (a separate pass under tracemalloc) each span also records
the peak of traced memory above its start, children included.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import math
import tracemalloc
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("core", "similarity", "discs", "refine", "cassini", "bounds", "geometry", "render", "cli")


def primitive_count(region) -> int:
    """Discs, disc pairs' discs and ovals a region is built from."""
    for attr, per in (("discs", 1), ("pairs", 2), ("ovals", 1)):
        if hasattr(region, attr):
            return per * len(getattr(region, attr))
    if hasattr(region, "parts"):
        return sum(primitive_count(p) for p in region.parts)
    return 1


class Tracer:
    def __init__(self):
        self.names: list[tuple[str, str]] = []   # (qualified name, layer)
        self.spans: list[list] = []              # [name id, request, parent, start, end, peak bytes]
        self.requests: list[dict] = []
        self.memory = False
        self._stack: list[int] = []
        self._request = None
        self._mem_base: dict[int, int] = {}
        self._mem_max: dict[int, int] = {}

    # -- wrapping ---------------------------------------------------------

    def wrap(self, fn, name: str, layer: str, observe=None):
        nid = len(self.names)
        self.names.append((name, layer))
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._request is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            idx = len(tracer.spans)
            rec = [nid, tracer._request["id"], stack[-1] if stack else -1, 0.0, 0.0, 0]
            tracer.spans.append(rec)
            if tracer.memory:
                tracer._mem_enter(idx)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                rec[3], rec[4] = start, end
                if tracer.memory:
                    rec[5] = tracer._mem_exit(idx)
            if observe is not None:
                observe(tracer._request["counters"], args, result, end - start, rec[2], tracer)
            return result
        return traced

    def count(self, fn, observe):
        """Counter-only wrapper (no span) for a private kernel."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer._request is not None:
                observe(tracer._request["counters"], args, result, 0.0, -1, tracer)
            return result
        return counted

    # -- memory ------------------------------------------------------------

    def _mem_enter(self, idx: int) -> None:
        current, peak = tracemalloc.get_traced_memory()
        parent = self._stack[-1] if self._stack else -1
        self._mem_max[parent] = max(self._mem_max.get(parent, 0), peak)
        tracemalloc.reset_peak()
        self._mem_base[idx] = current
        self._mem_max[idx] = current

    def _mem_exit(self, idx: int) -> int:
        _current, peak = tracemalloc.get_traced_memory()
        top = max(self._mem_max.pop(idx), peak)
        parent = self._stack[-1] if self._stack else -1
        self._mem_max[parent] = max(self._mem_max.get(parent, 0), top)
        tracemalloc.reset_peak()
        return top - self._mem_base.pop(idx)

    # -- requests ----------------------------------------------------------

    def begin(self, rid: int, meta: dict) -> None:
        self._request = {"id": rid, "first": len(self.spans), "counters": defaultdict(float), **meta}
        self._mem_max.clear()
        if self.memory:
            tracemalloc.reset_peak()

    def note(self, key: str, value: float) -> None:
        """Add to a counter of the current request."""
        self._request["counters"][key] += value

    def end(self, wall: float) -> None:
        req, self._request = self._request, None
        layer_self = defaultdict(float)
        layer_calls = defaultdict(int)
        layer_peak = defaultdict(int)
        names = defaultdict(int)
        first = req["first"]
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        covered = 0.0
        for rec in spans:
            dur = rec[4] - rec[3]
            if rec[2] < 0:
                covered += dur
            else:
                child[rec[2] - first] += dur
        for k, rec in enumerate(spans):
            name, layer = self.names[rec[0]]
            layer_self[layer] += (rec[4] - rec[3]) - child[k]
            layer_calls[layer] += 1
            layer_peak[layer] = max(layer_peak[layer], rec[5])
            names[name] += 1
        req.update(wall=wall, uncovered=max(wall - covered, 0.0), layer_self=dict(layer_self),
                   layer_calls=dict(layer_calls), layer_peak=dict(layer_peak), names=dict(names))
        del req["first"]
        self.requests.append(req)

    def dump(self, path: str) -> int:
        """Write every span as one tab-separated line; returns the span count."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span\trequest\tname\tlayer\tparent\tstart_s\tend_s\tpeak_bytes\n")
            for i, (nid, rid, parent, start, end, peak) in enumerate(self.spans):
                name, layer = self.names[nid]
                fh.write(f"{i}\t{rid}\t{name}\t{layer}\t{parent}\t{start:.9f}\t{end:.9f}\t{peak}\n")
        return len(self.spans)


# ---------------------------------------------------------------------------
# observers: counts taken where the work happens
# ---------------------------------------------------------------------------

def _n(matrix) -> int:
    return int(np.shape(matrix)[0])


def _obr_set(counters, args, result, dur, parent, tracer):
    counters["ovals"] += len(result)
    counters["oval_s"] += dur


def _contains(counters, args, result, dur, parent, tracer):
    if parent >= 0 and tracer.names[tracer.spans[parent][0]][0].endswith(".contains_points"):
        return   # nested inside another region's membership test
    points = int(np.size(args[1]))
    counters["points"] += points
    counters["primitives"] += primitive_count(args[0])
    counters["point_primitives"] += points * primitive_count(args[0])
    counters["contains_s"] += dur


def _power(counters, args, result, dur, parent, tracer):
    n, k = _n(args[0]), int(args[1])
    counters["matmuls"] += k - 1
    counters["flop"] += (k - 1) * 2.0 * n ** 3
    counters["bytes"] += (k - 1) * 3.0 * 8 * n * n     # two operands read, one product written


def _tau1(counters, args, result, dur, parent, tracer):
    n = _n(args[0])
    counters["flop"] += 3.0 * n ** 3                    # subtract, abs, sum over row pairs
    counters["bytes"] += 2.0 * 8 * n ** 3               # the difference and abs n^3 temporaries


def _render(counters, args, result, dur, parent, tracer):
    scene = args[0]
    raster = sum(1 for region, _c, _o in scene.layers if type(region).__name__ != "DiscUnion")
    counters["cells"] += raster * (scene.raster_res + 2) ** 2
    counters["svg_bytes"] += len(result)


def _desingularize(counters, args, result, dur, parent, tracer):
    counters["shear"] = 1.0


OBSERVERS = {"cassini.obr_set": _obr_set, "bounds.tau1": _tau1,
             "similarity.desingularize": _desingularize, "render.render_svg": _render}
COUNTED = {("bounds", "_power"): _power}


def install(tracer: Tracer, package) -> list[tuple]:
    """Wrappers for the public functions and region methods of every layer
    module, as (owner, attribute, original, wrapper) patches; apply them
    with :func:`switch`."""
    modules = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
    by_original = {}
    patches = []
    for layer, mod in modules.items():
        for name, obj in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            home = obj.__module__.rsplit(".", 1)[-1]
            if obj.__module__ != f"{package.__name__}.{home}" or home not in LAYERS:
                continue
            qual = f"{home}.{obj.__name__}"
            if obj not in by_original:
                by_original[obj] = tracer.wrap(obj, qual, home, OBSERVERS.get(qual))
        for name, cls in vars(mod).items():
            if (inspect.isclass(cls) and cls.__module__ == mod.__name__
                    and hasattr(cls, "contains_points")):
                for meth, fn in vars(cls).items():
                    if meth.startswith("_") or not inspect.isfunction(fn):
                        continue
                    qual = f"{layer}.{cls.__name__}.{meth}"
                    observe = _contains if meth == "contains_points" else None
                    patches.append((cls, meth, fn, tracer.wrap(fn, qual, layer, observe)))
    for (layer, name), observe in COUNTED.items():
        fn = getattr(modules[layer], name, None)
        if fn is not None:
            patches.append((modules[layer], name, fn, tracer.count(fn, observe)))
    for mod in (*modules.values(), package):
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj in by_original:
                patches.append((mod, name, obj, by_original[obj]))
    return patches


def switch(patches: list[tuple], traced: bool) -> None:
    """Put the wrappers in place (``traced``) or the original callables back."""
    for owner, name, original, wrapper in patches:
        setattr(owner, name, wrapper if traced else original)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _slope(requests: list[dict], layer: str) -> float:
    """Log-log slope of a layer's self time against n, with an offset for odd n
    when both parities occur; per-size medians are fitted."""
    groups = defaultdict(list)
    for req in requests:
        t = req["layer_self"].get(layer, 0.0)
        if t > 0.0:
            groups[req["n"]].append(t)
    if len(groups) < 2:
        return 0.0
    ns = np.array(sorted(groups), dtype=float)
    ts = np.array([np.median(groups[n]) for n in sorted(groups)])
    odd = ns % 2
    cols = [np.ones_like(ns), np.log(ns)]
    if 0 < odd.sum() < len(ns) and len(ns) >= 3:
        cols.append(odd)
    coef, *_ = np.linalg.lstsq(np.column_stack(cols), np.log(ts), rcond=None)
    return float(coef[1])


def layer_metrics(traced: list[dict], mem: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced requests and the tracemalloc pass.

    Counts and milliseconds are means per request; shares and ns-per-unit
    figures are ratios of totals.
    """
    count = len(traced)
    wall = sum(r["wall"] for r in traced)
    tot = defaultdict(float)
    for req in traced:
        for key, value in req["counters"].items():
            tot[key] += value
    self_s = {layer: sum(r["layer_self"].get(layer, 0.0) for r in traced) for layer in LAYERS}
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (sum(r["layer_calls"].get(layer, 0) for r in traced) / count, "count")
        out[f"{layer}.self_ms"] = (1e3 * self_s[layer] / count, "ms")
        out[f"{layer}.share"] = (self_s[layer] / wall, "ratio")
        peak = max((r["layer_peak"].get(layer, 0) for r in mem), default=0)
        out[f"{layer}.peak_alloc_mb"] = (peak / 2 ** 20, "MB")

    def per(total, base):
        return total / base if base else 0.0

    entries = sum(float(r["n"]) ** 2 for r in traced)
    out["core.matrix_copies"] = (sum(r["names"].get("core.as_matrix", 0) for r in traced) / count, "count")
    out["similarity.shear_frac"] = (tot["shear"] / count, "ratio")
    out["discs.ns_per_entry"] = (1e9 * per(self_s["discs"], entries), "ns")
    out["refine.ns_per_entry"] = (1e9 * per(self_s["refine"], entries), "ns")
    for layer in ("similarity", "discs", "refine"):
        out[f"{layer}.scaling_exp"] = (_slope(traced, layer), "slope")
    out["cassini.ovals"] = (tot["ovals"] / count, "count")
    out["cassini.ns_per_oval"] = (1e9 * per(tot["oval_s"], tot["ovals"]), "ns")
    out["bounds.matmuls"] = (tot["matmuls"] / count, "count")
    out["bounds.flop_computed"] = (tot["flop"] / count, "flop")
    out["bounds.bytes_computed"] = (tot["bytes"] / count, "B")
    out["geometry.points_tested"] = (tot["points"] / count, "count")
    out["geometry.primitives"] = (tot["primitives"] / count, "count")
    out["geometry.ns_per_point_primitive"] = (1e9 * per(tot["contains_s"], tot["point_primitives"]), "ns")
    out["render.cells"] = (tot["cells"] / count, "count")
    out["render.ns_per_cell"] = (1e9 * per(self_s["render"], tot["cells"]), "ns")
    out["render.svg_bytes"] = (tot["svg_bytes"] / count, "B")
    out["cli.bytes_in"] = (tot["bytes_in"] / count, "B")
    out["cli.bytes_out"] = (tot["bytes_out"] / count, "B")
    out["trace.uncovered_share"] = (sum(r["uncovered"] for r in traced) / wall, "ratio")
    for key, (value, _unit) in out.items():
        if not math.isfinite(value):
            raise ValueError(f"{key} is not finite")
    return out
