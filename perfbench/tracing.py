"""Per-layer tracing from outside the program.

`Tracer.install` wraps every public function of each operadkit layer
module, plus ChainComplex.from_cells, and rebinds every operadkit.* module
attribute that refers to a wrapped function, since modules import by
name.  `Tracer.remove` puts the originals back and `Tracer.leftovers`
lists any wrapper still reachable, so untraced numbers never go through
one.

A call stack gives each call its self time: its duration minus the
durations of the wrapped calls inside it.  Calls are aggregated per
(layer, function) as calls, total time and self time.  Spans are kept
only for the task and for each entry into a layer from another layer;
each has a name, start, end, parent span and task id.

Counts come from public return values and fields only.  Reading them is
the benchmark's own time: it is kept out of every layer and reported.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import sys
import time
from array import array

import reference as ref

LAYERS = (
    "cli", "ordinals", "ordinal_maps", "quasicat", "homology",
    "braids", "zigzags", "strata", "operads",
)
_MARK = "_perfbench_original"


def _cells(complex_) -> int:
    return sum(len(layer) for layer in complex_.cells)


def _braid_decision(args, result):
    word = ref.free_reduce(args[0].word)
    settled = bool(word) and ref.precheck_settles(args[0].strands, word)
    return {"braids.letters": len(args[0].word), "braids.prechecked": int(settled)}


# (layer, function) -> the counts one returned call adds, read from its
# arguments and result
_COUNTERS = {
    ("quasicat", "nerve"): lambda a, r: {"quasicat.cells": _cells(r)},
    ("quasicat", "order_complex"): lambda a, r: {"quasicat.cells": _cells(r)},
    ("quasicat", "build_j"): lambda a, r: {"quasicat.poset_relations": len(r.above)},
    ("homology", "homology"): lambda a, r: {"homology.cells": _cells(a[0])},
    ("operads", "check_operad_axioms"): lambda a, r: {
        "operads.instances": r.checked, "operads.tables": len(a[0].tables)},
    ("operads", "operad_to_json"): lambda a, r: {"operads.tables": len(a[0].tables)},
    ("braids", "is_trivial"): _braid_decision,
}
_COUNTS = ("quasicat.cells", "quasicat.poset_relations", "homology.cells",
           "operads.instances", "operads.tables", "braids.letters", "braids.prechecked")


class Tracer:
    def __init__(self):
        self.stack = []  # open frames: [layer, child seconds, span id]
        self.calls = {}  # (layer, function) -> [calls, total s, self s, entry s, yields]
        self.counts = dict.fromkeys(_COUNTS, 0)
        self.bench_s = 0.0
        self.task = -1
        self.span_names: dict[str, int] = {}  # span name -> id, in first-seen order
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_task = array("i")
        self._patched = []  # (owner, attribute, original)
        self._class_patch = None

    # -- frames ---------------------------------------------------------------

    def _open_span(self, name: str, start: float, parent: int) -> int:
        self.span_name.append(self.span_names.setdefault(name, len(self.span_names)))
        self.span_start.append(start)
        self.span_end.append(0.0)
        self.span_parent.append(parent)
        self.span_task.append(self.task)
        return len(self.span_start) - 1

    def _call(self, layer, key, label, fn, args, kwargs):
        stack = self.stack
        parent = stack[-1] if stack else None
        clock = time.perf_counter
        entry = parent is None or parent[0] != layer
        start = clock()
        if entry:
            span = self._open_span(label, start, -1 if parent is None else parent[2])
        else:
            span = parent[2]
        frame = [layer, 0.0, span]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            took = end - start
            rec = self.calls[key]
            rec[0] += 1
            rec[1] += took
            rec[2] += took - frame[1]
            if entry:
                rec[3] += took
                self.span_end[span] = end
            if parent is not None:
                parent[1] += took

    def _count(self, key, args, result):
        start = time.perf_counter()
        for name, value in _COUNTERS[key](args, result).items():
            self.counts[name] += value
        spent = time.perf_counter() - start
        self.bench_s += spent
        if self.stack:
            self.stack[-1][1] += spent

    def _wrap(self, layer, name, fn):
        key = (layer, name)
        label = f"{layer}.{name}"
        self.calls[key] = [0, 0.0, 0.0, 0.0, 0]
        counted = key in _COUNTERS
        tracer = self

        if inspect.isgeneratorfunction(fn):
            def traced(*args, **kwargs):
                inner = fn(*args, **kwargs)
                rec = tracer.calls[key]
                while True:
                    try:
                        item = tracer._call(layer, key, label, next, (inner,), {})
                    except StopIteration:
                        return
                    rec[4] += 1
                    yield item
        else:
            def traced(*args, **kwargs):
                result = tracer._call(layer, key, label, fn, args, kwargs)
                if counted:
                    tracer._count(key, args, result)
                return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        setattr(traced, _MARK, fn)
        return traced

    # -- installing and removing ---------------------------------------------

    def install(self) -> None:
        package_modules = [m for n, m in list(sys.modules.items())
                           if m is not None and (n == "operadkit" or n.startswith("operadkit."))]
        replacement = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"operadkit.{layer}")
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    replacement[id(obj)] = (obj, self._wrap(layer, name, obj))
        for mod in package_modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replacement and replacement[id(obj)][0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, replacement[id(obj)][1])
        chain = importlib.import_module("operadkit.homology").ChainComplex
        original = chain.__dict__["from_cells"]
        wrapped = self._wrap("homology", "ChainComplex.from_cells", original.__func__)
        chain.from_cells = classmethod(wrapped)
        self._class_patch = (chain, original)

    def remove(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched = []
        if self._class_patch is not None:
            chain, original = self._class_patch
            chain.from_cells = original
            self._class_patch = None

    @staticmethod
    def leftovers() -> list[str]:
        """Wrappers still reachable from the package, as dotted names."""
        found = []
        for n, mod in list(sys.modules.items()):
            if mod is None or not (n == "operadkit" or n.startswith("operadkit.")):
                continue
            for attr, obj in vars(mod).items():
                if hasattr(obj, _MARK):
                    found.append(f"{n}.{attr}")
        chain = sys.modules["operadkit.homology"].ChainComplex
        if hasattr(chain.__dict__["from_cells"].__func__, _MARK):
            found.append("operadkit.homology.ChainComplex.from_cells")
        return found

    # -- results ---------------------------------------------------------------

    def _sum(self, column: int, layer: str, names=None) -> float:
        return sum(rec[column] for (lay, name), rec in self.calls.items()
                   if lay == layer and (names is None or name in names))

    def _calls(self, layer, name, column=0):
        return self.calls.get((layer, name), [0] * 5)[column]

    def layer_self(self) -> dict[str, float]:
        return {layer: self._sum(2, layer) for layer in LAYERS}

    def metrics(self) -> dict[str, float]:
        c = self.counts
        selfs = self.layer_self()
        build_s = self._calls("homology", "ChainComplex.from_cells", 3)
        reduce_s = self._sum(3, "homology") - build_s
        check_s = self._calls("operads", "check_operad_axioms", 3)
        decisions = self._calls("braids", "is_trivial")
        out = {f"{layer}.self_s": selfs[layer] for layer in LAYERS}
        out.update({
            "homology.complex_build_s": build_s,
            "homology.reduce_s": reduce_s,
            "homology.cells_per_s": c["homology.cells"] / reduce_s if reduce_s else 0.0,
            "quasicat.cells": c["quasicat.cells"],
            "quasicat.poset_relations": c["quasicat.poset_relations"],
            "ordinal_maps.compositions": self._calls("ordinal_maps", "compose"),
            "ordinal_maps.validations": self._calls("ordinal_maps", "morphism_violation"),
            "ordinal_maps.maps_enumerated": self._calls("ordinal_maps", "enumerate_maps", 4),
            "operads.instances": c["operads.instances"],
            "operads.instances_per_s": c["operads.instances"] / check_s if check_s else 0.0,
            "operads.codec_s": self._sum(3, "operads", ("operad_to_json", "operad_from_json")),
            "operads.tables": c["operads.tables"],
            "braids.decisions": decisions,
            "braids.letters": c["braids.letters"],
            "braids.precheck_share": c["braids.prechecked"] / decisions if decisions else 0.0,
            "zigzags.splits": self._calls("zigzags", "split_zigzag"),
            "zigzags.certificates": self._calls("zigzags", "artin_diagram_check"),
            "strata.classified": self._calls("strata", "classify_stratum"),
            "ordinals.enumerated": self._calls("ordinals", "enumerate_ordinals", 4),
        })
        return out

    def dump(self, path) -> None:
        """Write the spans and the per-function aggregates as gzipped JSON."""
        names = list(self.span_names)
        doc = {
            "span_fields": ["name", "start", "end", "parent", "task"],
            "spans": [
                [names[self.span_name[i]], self.span_start[i], self.span_end[i],
                 self.span_parent[i], self.span_task[i]]
                for i in range(len(self.span_start))
            ],
            "calls": [
                {"layer": lay, "function": name, "calls": rec[0], "total_s": rec[1],
                 "self_s": rec[2], "entry_s": rec[3], "yields": rec[4]}
                for (lay, name), rec in sorted(self.calls.items()) if rec[0] or rec[4]
            ],
            "counts": self.counts,
            "bench_s": self.bench_s,
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)
