"""Span tracing of equicolor's public functions without editing the package.

`Tracer.install` replaces each traced function wherever a package module
binds it (the defining module and every module that imported it by name),
and each traced method on its class.  Spans stay in memory as parallel
arrays and are written out once, at the end.  A function's self time is its
span minus the time covered by its direct child spans.
"""

from __future__ import annotations

import itertools
import sys
import time
from array import array
from collections import Counter, defaultdict

# (module, name) of every traced function; "Class.method" names a method
TRACED = (
    ("dynamics", "equitable_k_coloring"),
    ("dynamics", "find_improving_move"),
    ("dynamics", "admissible_witness"),
    ("dynamics", "apply_move"),
    ("dynamics", "select_separated_batch"),
    ("dynamics", "apply_monotone_prefix"),
    ("distributions", "ConvergenceLedger.record"),
    ("distributions", "ColorDistribution.from_coloring"),
    ("distributions", "is_more_equitable"),
    ("distributions", "l1_distance"),
    ("colorings", "PartialColoring.copy"),
    ("colorings", "greedy_maximal"),
    ("colorings", "is_proper"),
    ("graphs", "Graph.induced_subgraph"),
    ("graphs", "block_decomposition"),
    ("graphs", "is_gallai_tree"),
    ("graphs", "components"),
    ("graphs", "contains_clique"),
    ("graphs", "build_graph"),
    ("forests", "build_one_ended_subforest"),
    ("forests", "forest_recolor"),
    ("forests", "dominating_delta_coloring"),
    ("domination", "dominating_full_coloring"),
    ("pipeline", "extract_dense_set"),
    ("pipeline", "quick_balance"),
    ("pipeline", "equitable_delta_coloring"),
    ("generators", "generate"),
)

MODULE_OF = {name: module for module, name in TRACED}

# time inside an instance but outside every traced span
HARNESS = "<harness>"


def _observe_driver(tracer: "Tracer", args, result) -> None:
    _, trace = result
    kinds = Counter(r.kind for r in trace.records)
    tracer.add("steps", kinds["move"])
    tracer.add("batches", kinds["batch"])
    tracer.add("restarts", kinds["restart"])
    tracer.add("ledger_cumulative", trace.ledger.cumulative)
    tracer.add("ledger_bound", trace.ledger.bound())


def _observe_forest(tracer: "Tracer", args, forest) -> None:
    tracer.add("strata", forest.max_height() + 1)


def _observe_pipeline(tracer: "Tracer", args, result) -> None:
    _, report = result
    tracer.add("dense_vertices", len(report.x_set))
    tracer.add("pipeline_vertices", report.n)
    tracer.add("slack_verdicts", sum(
        1 for c in report.claims if c.verdict == "holds-with-slack"
    ))


def _observe_copy(tracer: "Tracer", args, result) -> None:
    tracer.add("copy_elements", args[0].n)


OBSERVERS = {
    "equitable_k_coloring": _observe_driver,
    "build_one_ended_subforest": _observe_forest,
    "equitable_delta_coloring": _observe_pipeline,
    "PartialColoring.copy": _observe_copy,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = [HARNESS] + [name for _, name in TRACED]
        self._code = {name: i for i, name in enumerate(self.names)}
        # one entry per closed span, in closing order
        self.ids = array("q")
        self.parents = array("q")
        self.instances = array("q")
        self.codes = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[tuple[int, str]] = []     # open spans (id, name)
        self.instance = -1
        self.timeouts: Counter = Counter()
        # {(instance, name): exact int or Fraction} read from returned objects
        self.counts: defaultdict = defaultdict(int)
        self._ids = itertools.count(1)
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "equicolor" or key.startswith("equicolor.")]
        for module_name, name in TRACED:
            home = sys.modules[f"equicolor.{module_name}"]
            observe = OBSERVERS.get(name)
            if "." in name:
                cls_name, attr = name.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__, observe))
                else:
                    wrapped = self._wrap(name, raw, observe)
                self._patch(cls, attr, wrapped)
                continue
            fn = getattr(home, name)
            wrapped = self._wrap(name, fn, observe)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, attr, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _wrap(self, name: str, fn, observe):
        code = self._code[name]
        stack, ids, clock = self.stack, self._ids, time.perf_counter

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1][0] if stack else 0
            stack.append((sid, name))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._close(sid, parent, code, start, end)
            if observe is not None:
                observe(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, sid: int, parent: int, code: int, start: float, end: float) -> None:
        self.ids.append(sid)
        self.parents.append(parent)
        self.instances.append(self.instance)
        self.codes.append(code)
        self.starts.append(start)
        self.ends.append(end)

    # -- instance boundaries -----------------------------------------------

    def run(self, instance: int, call):
        """Return call(), traced as instance `instance`: its whole duration
        is a harness span, the parent of the instance's top-level spans."""
        self.instance = instance
        root = next(self._ids)
        self.stack[:] = [(root, HARNESS)]
        start = time.perf_counter()
        try:
            return call()
        finally:
            end = time.perf_counter()
            self.stack.clear()
            self._close(root, 0, 0, start, end)

    def add(self, name: str, value) -> None:
        self.counts[(self.instance, name)] += value

    def on_timeout(self) -> None:
        """Charge a deadline hit to the innermost open span."""
        name = self.stack[-1][1] if self.stack else HARNESS
        self.timeouts[name] += 1

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[tuple[int, str, str], list]:
        """{(instance, caller name, name): [self seconds, calls]}"""
        children: defaultdict = defaultdict(float)
        code_of = dict(zip(self.ids, self.codes))
        for parent, start, end in zip(self.parents, self.starts, self.ends):
            if parent:
                children[parent] += end - start
        out: dict = {}
        for sid, parent, inst, code, start, end in zip(
            self.ids, self.parents, self.instances, self.codes, self.starts, self.ends
        ):
            caller = self.names[code_of.get(parent, 0)] if parent else ""
            entry = out.setdefault((inst, caller, self.names[code]), [0.0, 0])
            entry[0] += end - start - children.get(sid, 0.0)
            entry[1] += 1
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id\tparent\tinstance\tname\tstart\tend\n")
            for sid, parent, inst, code, start, end in zip(
                self.ids, self.parents, self.instances, self.codes,
                self.starts, self.ends,
            ):
                fh.write(f"{sid}\t{parent}\t{inst}\t{self.names[code]}\t{start:.9f}\t{end:.9f}\n")
