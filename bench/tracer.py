"""Spans around the public functions of every ``schubert`` module.

Nothing inside ``src/`` is changed: :meth:`Tracer.install` replaces each public
function, and each public method of each public class, by a wrapper that
records a span (name, start, end, parent) in flat arrays.  A function is
replaced in its own module and in every module and package namespace
that imported it, so ``trees.k_march`` and ``diagram.k_march`` both
record.  Recursion through a module global (the ``grothendieck``
transition recursion) is traced too.

``Permutation.__call__`` is left unwrapped: a march-s5 round evaluates
it about six million times, and a span per evaluation would multiply
the round's run time.  Its time counts as the caller's self time.

:func:`layer_metrics` reduces the spans to the per-layer figures the
benchmark reports; :func:`merge` adds the figures of several workers.
"""
from __future__ import annotations

import array
import collections
import importlib
import inspect
import json
import time
from pathlib import Path

LAYERS = ("permutations", "diagram", "trees", "poly", "grothendieck", "truncation", "cli")
SKIPPED = {"permutations.Permutation.__call__"}
TRACED_DUNDERS = {"__post_init__", "__mul__", "__add__", "__sub__", "__neg__"}

# Per-layer metrics: name -> unit.  Order is the report order.
UNITS = {
    "permutations.new": "count",
    "permutations.transpose": "count",
    "permutations.length": "count",
    "permutations.self_s": "s",
    "diagram.transition_pair": "count",
    "diagram.pivot_rows": "count",
    "diagram.k_march": "count",
    "diagram.self_s": "s",
    "trees.nodes": "count",
    "trees.distinct_labels": "count",
    "trees.distinct_ratio": "ratio",
    "trees.null_leaves": "count",
    "trees.max_depth": "count",
    "trees.build_s": "s",
    "trees.export_s": "s",
    "trees.export_bytes": "bytes",
    "poly.mul": "count",
    "poly.mul_term_pairs": "count",
    "poly.mul_s": "s",
    "poly.add": "count",
    "poly.add_s": "s",
    "poly.max_terms": "count",
    "poly.leading_term": "count",
    "poly.leading_term_s": "s",
    "poly.render_s": "s",
    "grothendieck.calls": "count",
    "grothendieck.misses": "count",
    "grothendieck.hit_ratio": "ratio",
    "grothendieck.self_s": "s",
    "grothendieck.expand_s": "s",
    "grothendieck.expand_strips": "count",
    "grothendieck.structure_constants": "count",
    "grothendieck.structure_constants_distinct": "count",
    "truncation.detect_s": "s",
    "truncation.product_s": "s",
    "truncation.verify_tree_s": "s",
    "truncation.verify_product_s": "s",
    "truncation.verify_oracle_s": "s",
    "cli.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.overhead": "ratio",
}

# Raw figures that combine across workers by maximum rather than by sum.
_MAXIMA = {"poly.max_terms", "trees.max_depth"}


class Tracer:
    """In-memory span recorder; one per worker process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack = [-1]
        self.counters: collections.Counter = collections.Counter()
        self.maxima: collections.Counter = collections.Counter()
        self.distinct_products: set = set()

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` so each call records a span; ``after(args, result)``
        runs outside the span to take counts from the call."""
        nid = self._intern(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Wrap every public function and method of the schubert modules."""
        package = importlib.import_module("schubert")
        modules = {layer: importlib.import_module(f"schubert.{layer}") for layer in LAYERS}
        namespaces = [package, *modules.values()]
        hooks = _after_hooks(self, modules["poly"].Polynomial)

        def replace_everywhere(original, wrapped) -> None:
            for namespace in namespaces:
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, attr, wrapped)

        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(value):
                    _wrap_methods(self, layer, value, hooks)
                elif callable(value) and not inspect.isgeneratorfunction(value):
                    name = f"{layer}.{attr}"
                    replace_everywhere(value, self.span(name, value, hooks.get(name)))

    def write(self, path: Path, header: dict) -> None:
        """Header line of JSON, then the name, parent, start and end arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as out:
            head = dict(header, names=self.names, spans=len(self.name))
            out.write((json.dumps(head) + "\n").encode())
            for column in (self.name, self.parent, self.start, self.end):
                column.tofile(out)


def read_spans(path: Path) -> tuple[dict, list[tuple[str, int, float, float]]]:
    """Inverse of :meth:`Tracer.write`: the header and (name, parent, start, end) rows."""
    with open(path, "rb") as src:
        header = json.loads(src.readline())
        count = header["spans"]
        columns = []
        for code in ("i", "i", "d", "d"):
            column = array.array(code)
            column.fromfile(src, count)
            columns.append(column)
    names = header["names"]
    return header, [(names[n], p, s, e) for n, p, s, e in zip(*columns)]


# -- counts taken from calls ------------------------------------------------


def _after_hooks(tracer: Tracer, polynomial_type) -> dict:
    counters, maxima = tracer.counters, tracer.maxima

    def poly_result(args, result) -> None:
        if len(result) > maxima["poly.max_terms"]:
            maxima["poly.max_terms"] = len(result)

    def mul(args, result) -> None:
        left, right = args
        counters["poly.mul_term_pairs"] += len(left) * (
            len(right) if isinstance(right, polynomial_type) else 1
        )
        poly_result(args, result)

    def build_tree(args, tree) -> None:
        labels = set()
        deepest = 0
        pending = [(tree.root, 0)]
        while pending:
            node, depth = pending.pop()
            counters["trees.nodes"] += 1
            deepest = max(deepest, depth)
            if node.label is None:
                counters["trees.null_leaves"] += 1
            else:
                labels.add(node.label)
            pending.extend((child, depth + 1) for child in node.children)
        counters["trees.distinct_labels"] += len(labels)
        maxima["trees.max_depth"] = max(maxima["trees.max_depth"], deepest)

    def export(args, text) -> None:
        counters["trees.export_bytes"] += len(text.encode())

    def expand(args, expansion) -> None:
        counters["grothendieck.expand_strips"] += len(expansion)

    def structure_constants(args, expansion) -> None:
        tracer.distinct_products.add(tuple(args[:2]))

    return {
        "poly.Polynomial.__mul__": mul,
        "poly.Polynomial.__add__": poly_result,
        "poly.Polynomial.__sub__": poly_result,
        "trees.build_tree": build_tree,
        "trees.to_json": export,
        "trees.to_dot": export,
        "trees.to_text": export,
        "grothendieck.expand_in_basis": expand,
        "grothendieck.structure_constants": structure_constants,
    }


def _wrap_methods(tracer: Tracer, layer: str, cls, hooks: dict) -> None:
    for attr, member in list(vars(cls).items()):
        function = member.__func__ if isinstance(member, classmethod) else member
        if not inspect.isfunction(function) or inspect.isgeneratorfunction(function):
            continue
        # Aliases such as __rmul__ = __mul__ share the span of the original.
        own = function.__name__
        if own.startswith("_") and own not in TRACED_DUNDERS:
            continue
        name = f"{layer}.{cls.__name__}.{own}"
        if name in SKIPPED:
            continue
        wrapped = tracer.span(name, function, hooks.get(name))
        setattr(cls, attr, classmethod(wrapped) if isinstance(member, classmethod) else wrapped)


# -- reduction to per-layer figures ------------------------------------------


def layer_metrics(tracer: Tracer, grothendieck_cache) -> dict[str, float]:
    """Raw per-layer figures of one worker, before :func:`finish`.

    A span's self time is its duration less the time its direct children
    cover; a layer's self time is the sum over its spans."""
    names = [tracer.names[n] for n in tracer.name]
    parents = tracer.parent
    durations = [e - s for s, e in zip(tracer.start, tracer.end)]
    covered = [0.0] * len(names)
    for index, parent in enumerate(parents):
        if parent >= 0:
            covered[parent] += durations[index]

    raw: collections.Counter = collections.Counter()
    for index, name in enumerate(names):
        duration = durations[index]
        parent = parents[index]
        parent_name = names[parent] if parent >= 0 else None
        raw[f"{name.split('.')[0]}.self_s"] += duration - covered[index]
        raw[f"calls:{name}"] += 1
        if parent_name != name:
            raw[f"time:{name}"] += duration
        if parent_name == "truncation.verify":
            raw[f"verify_child:{name}"] += duration

    out = {
        "permutations.new": raw["calls:permutations.Permutation.__post_init__"],
        "permutations.transpose": raw["calls:permutations.Permutation.transpose"],
        "permutations.length": raw["calls:permutations.Permutation.length"],
        "permutations.self_s": raw["permutations.self_s"],
        "diagram.transition_pair": raw["calls:diagram.transition_pair"],
        "diagram.pivot_rows": raw["calls:diagram.pivot_rows"],
        "diagram.k_march": raw["calls:diagram.k_march"],
        "diagram.self_s": raw["diagram.self_s"],
        "trees.build_s": raw["time:trees.build_tree"],
        "trees.export_s": sum(raw[f"time:trees.{f}"] for f in ("to_json", "to_dot", "to_text")),
        "poly.mul": raw["calls:poly.Polynomial.__mul__"],
        "poly.mul_s": raw["time:poly.Polynomial.__mul__"],
        "poly.add": raw["calls:poly.Polynomial.__add__"],
        "poly.add_s": raw["time:poly.Polynomial.__add__"],
        "poly.leading_term": raw["calls:poly.leading_term"],
        "poly.leading_term_s": raw["time:poly.leading_term"],
        "poly.render_s": raw["time:poly.Polynomial.render"],
        "grothendieck.self_s": raw["grothendieck.self_s"],
        "grothendieck.expand_s": raw["time:grothendieck.expand_in_basis"],
        "grothendieck.structure_constants": raw["calls:grothendieck.structure_constants"],
        "grothendieck.structure_constants_distinct": len(tracer.distinct_products),
        "truncation.detect_s": raw["time:truncation.detect"],
        "truncation.product_s": raw["time:truncation.truncation_product"],
        "truncation.verify_tree_s": raw["verify_child:truncation.truncation_product"],
        "truncation.verify_oracle_s": raw["verify_child:grothendieck.structure_constants"],
        "cli.self_s": raw["cli.self_s"],
    }
    out["truncation.verify_product_s"] = (
        raw["time:truncation.verify"]
        - out["truncation.verify_tree_s"]
        - out["truncation.verify_oracle_s"]
    )
    info = grothendieck_cache.cache_info()
    out["grothendieck.calls"] = info.hits + info.misses
    out["grothendieck.misses"] = info.misses
    out.update(tracer.counters)
    out.update(tracer.maxima)
    return out


def merge(figures: list[dict[str, float]]) -> dict[str, float]:
    """Add the raw figures of several workers (maxima combine by max)."""
    total: dict[str, float] = {}
    for one in figures:
        for key, value in one.items():
            if key in _MAXIMA:
                total[key] = max(total.get(key, 0), value)
            else:
                total[key] = total.get(key, 0) + value
    return total


def finish(raw: dict[str, float], overhead: float) -> dict[str, dict]:
    """Every per-layer metric with its unit; ratios are formed last."""
    values = {name: raw.get(name, 0) for name in UNITS}
    values["trees.distinct_ratio"] = (
        raw.get("trees.distinct_labels", 0) / raw["trees.nodes"] if raw.get("trees.nodes") else 0.0
    )
    calls = raw.get("grothendieck.calls", 0)
    values["grothendieck.hit_ratio"] = (calls - raw.get("grothendieck.misses", 0)) / calls if calls else 0.0
    values["trace.overhead"] = overhead
    return {name: {"value": values[name], "unit": UNITS[name]} for name in UNITS}
