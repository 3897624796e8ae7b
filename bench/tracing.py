"""Spans around the public functions of meanbounds' six modules, from outside.

`Tracer.install()` replaces each public function of `meanbounds.<module>` by a
wrapper in every namespace of the package that binds it: the defining module,
each module that imported it (`meanbounds.solver.log_mean_normalized`,
`meanbounds.means.ellipe_agm`, `meanbounds.kernels.logcosh`, ...) and the
package itself.  A wrapper records one span (name, tag, start, end, parent,
elems) in memory.  `tag` is the mean tag of a `MeanKind` first argument, or
else the tag of the enclosing span, so work under `eval_mean(toader, ...)` is
attributed to toader.  `elems` is the size of the first array argument.

Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import gzip
import importlib
import time
from collections import defaultdict

MODULES = ("numerics", "means", "kernels", "series", "solver", "cli")


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []

    def install(self):
        package = importlib.import_module("meanbounds")
        modules = {short: importlib.import_module(f"meanbounds.{short}") for short in MODULES}
        namespaces = [vars(package)] + [vars(mod) for mod in modules.values()]
        for short, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                wrapper = self._wrap(f"{short}.{name}", obj)
                for ns in namespaces:
                    if ns.get(name) is obj:
                        self._patched.append((ns, name, obj))
                        ns[name] = wrapper

    def uninstall(self):
        for ns, name, obj in reversed(self._patched):
            ns[name] = obj
        self._patched.clear()

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent, tag = stack[-1] if stack else (-1, None)
            elems = 1
            if args:
                first = args[0]
                own_tag = getattr(first, "tag", None)
                if own_tag is not None:
                    tag = own_tag
                    first = args[1] if len(args) > 1 else None
                elems = getattr(first, "size", 1)
            index = len(spans)
            spans.append(None)
            stack.append((index, tag))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, tag, start, end, parent, elems)

        return traced


def write_spans(spans, path):
    """One CSV line per span: name,tag,start,end,parent,elems."""
    with gzip.open(path, "wt") as f:
        f.write("name,tag,start,end,parent,elems\n")
        for name, tag, start, end, parent, elems in spans:
            f.write(f"{name},{tag or ''},{start!r},{end!r},{parent},{elems}\n")


def read_spans(path):
    with gzip.open(path, "rt") as f:
        next(f)
        return [
            (name, tag or None, float(start), float(end), int(parent), int(elems))
            for name, tag, start, end, parent, elems in (line.rstrip("\n").split(",") for line in f)
        ]


class Profile:
    """Per-function, per-module and per-tag totals of a list of spans."""

    def __init__(self, spans):
        child = [0.0] * len(spans)
        for _, _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.elems = defaultdict(int)
        self.tag_self_s = defaultdict(float)
        self.total_s = 0.0
        # counts inside best_exponent: predicate calls (one family-kind
        # quadratic_coefficient each) and the grid evaluations among them
        self.endpoint_predicates = 0
        self.endpoint_grid_evals = 0
        in_endpoint = [False] * len(spans)
        for i, (name, tag, start, end, parent, elems) in enumerate(spans):
            own = end - start - child[i]
            module = name.split(".", 1)[0]
            for key in (name, module):
                self.calls[key] += 1
                self.self_s[key] += own
            self.incl_s[name] += end - start
            self.elems[name] += elems
            if tag is not None:
                self.tag_self_s[tag] += own
                self.incl_s[f"{name}[{tag}]"] += end - start
                self.elems[f"{name}[{tag}]"] += elems
            if parent < 0:
                self.total_s += end - start
            in_endpoint[i] = name == "solver.best_exponent" or (parent >= 0 and in_endpoint[parent])
            if in_endpoint[i] and tag in ("power", "lehmer"):
                if name == "means.quadratic_coefficient":
                    self.endpoint_predicates += 1
                elif name == "means.log_mean_normalized" and elems > 1:
                    self.endpoint_grid_evals += 1

    def share(self, seconds):
        return seconds / self.total_s if self.total_s else 0.0
