"""Spans around the public entry points of muiter's layers, for traced runs.

`Tracer.install` replaces each traced function wherever a loaded muiter
module looks it up (for example both `muiter.functors.eval_functor` and
`muiter.iteration.eval_functor`), and each traced method on its class.
Every call then records a span: name, parent span, start and end.  Spans
stay in memory; the caller writes them out when the run ends.  A span's
name is `<layer>.<function>`, the layer being the module it lives in.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Dict, List

# (span name, module, function)
FUNCTIONS = [
    ("functors.eval_functor", "muiter.functors", "eval_functor"),
    ("functors.eval_functor_mor", "muiter.functors", "eval_functor_mor"),
    ("signature.container_layout", "muiter.signature", "container_layout"),
    ("signature.container_map", "muiter.signature", "container_map"),
    ("colimit.subdiagram_colimit", "muiter.colimit", "subdiagram_colimit"),
    ("colimit.finite_cat_colimit", "muiter.colimit", "finite_cat_colimit"),
    ("finset.quotient", "muiter.finset", "quotient"),
    ("iteration.catamorphism", "muiter.iteration", "catamorphism"),
    ("iteration.mu_initial_algebra", "muiter.iteration", "mu_initial_algebra"),
    ("iteration.inflationary_iterate", "muiter.iteration", "inflationary_iterate"),
    ("iteration.deflationary_nu", "muiter.iteration", "deflationary_nu"),
    ("iteration.free_algebra", "muiter.iteration", "free_algebra"),
    ("checks.run_checks", "muiter.checks", "run_checks"),
    ("dsl.parse_script", "muiter.dsl", "parse_script"),
    ("dsl.lower_expr", "muiter.dsl", "lower_expr"),
    ("cli.render_json", "muiter.cli", "render_json"),
    ("cli.main", "muiter.cli", "main"),
]

# (span name, module, class, method)
METHODS = [
    ("size.key", "muiter.size", "NatBackend", "key"),
    ("size.key", "muiter.size", "PlumpBackend", "key"),
    ("size.lt", "muiter.size", "NatBackend", "lt"),
    ("size.lt", "muiter.size", "PlumpBackend", "lt"),
    ("size.leq", "muiter.size", "NatBackend", "leq"),
    ("size.leq", "muiter.size", "PlumpBackend", "leq"),
    ("size.basis", "muiter.size", "NatBackend", "predecessor_basis"),
    ("size.basis", "muiter.size", "PlumpBackend", "predecessor_basis"),
    ("finset.FiniteFn", "muiter.finset", "FiniteFn", "__init__"),
    ("finset.Relation", "muiter.finset", "Relation", "__init__"),
    ("iteration.stage", "muiter.iteration", "IterationState", "stage"),
    ("iteration.connect", "muiter.iteration", "IterationState", "connect"),
    ("iteration.leg", "muiter.iteration", "IterationState", "leg"),
]


def _count_mor(counts, parent, args, out):
    # only the outermost call: nested calls build parts of the same table
    if parent == "functors.eval_functor_mor":
        return
    counts["functors.mor_calls"] += 1
    fns = out if isinstance(out, tuple) else (out,)
    counts["functors.mor_elems"] += sum(len(f.table) for f in fns)


def _count_colimit(counts, objects, trivial):
    counts["colimit.sum_elems"] += sum(o.size for o in objects)
    counts["colimit.trivial"] += trivial


def _count_subdiagram(counts, parent, args, out):
    d = args[0]
    _count_colimit(
        counts,
        [d.objects[i] for i in d.indices],
        len(d.indices) == 1 and not d.edges,
    )


def _count_finite_cat(counts, parent, args, out):
    objects, arrows = args[0], args[1]
    _count_colimit(counts, objects, len(objects) == 1 and not arrows)


def _count_quotient(counts, parent, args, out):
    base, rel = args[0], args[1]
    counts["finset.quotient_elems"] += base.size
    if parent.startswith("colimit."):
        counts["colimit.pairs"] += len(getattr(rel, "pairs", rel))


def _count_fn(counts, parent, args, out):
    counts["finset.fn_elems"] += args[1].size


COUNTERS = {
    "functors.eval_functor_mor": _count_mor,
    "colimit.subdiagram_colimit": _count_subdiagram,
    "colimit.finite_cat_colimit": _count_finite_cat,
    "finset.quotient": _count_quotient,
    "finset.FiniteFn": _count_fn,
}


class Tracer:
    """Records spans and counters for the calls of one script."""

    def __init__(self):
        # one [name, parent index or -1, start, end] per call
        self.spans: List[list] = []
        self.counts: Dict[str, int] = {
            "functors.mor_calls": 0,
            "functors.mor_elems": 0,
            "colimit.sum_elems": 0,
            "colimit.trivial": 0,
            "colimit.pairs": 0,
            "finset.quotient_elems": 0,
            "finset.fn_elems": 0,
            "trace.counter_errors": 0,
        }
        # trace points absent from this version of muiter
        self.missing: List[str] = []
        self._stack: List[int] = []

    def wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        count = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, parent, clock(), None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if count is not None:
                try:
                    count(counts, spans[parent][0] if parent >= 0 else "", args, out)
                except (AttributeError, IndexError, KeyError, TypeError):
                    # an argument no longer has the shape this counter reads
                    counts["trace.counter_errors"] += 1
            return out

        return traced

    def install(self) -> None:
        """Wrap every trace point of the muiter modules already imported."""
        modules = [
            m
            for key, m in list(sys.modules.items())
            if key == "muiter" or key.startswith("muiter.")
        ]
        for name, modname, attr in FUNCTIONS:
            original = getattr(sys.modules.get(modname), attr, None)
            if original is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapper = self.wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
        for name, modname, clsname, attr in METHODS:
            cls = getattr(sys.modules.get(modname), clsname, None)
            original = vars(cls).get(attr) if cls is not None else None
            if original is None:
                self.missing.append(f"{modname}.{clsname}.{attr}")
                continue
            setattr(cls, attr, self.wrap(name, original))


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans: List[list], counts: Dict[str, int]) -> Dict[str, float]:
    """The per-layer metrics of one traced script."""
    own = self_times(spans)
    self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for (name, _, _, _), t in zip(spans, own):
        self_s[name] = self_s.get(name, 0.0) + t
        calls[name] = calls.get(name, 0) + 1

    def s(*names):
        return sum(self_s.get(n, 0.0) for n in names)

    def c(*names):
        return sum(calls.get(n, 0) for n in names)

    def layer_s(layer, exclude=()):
        return sum(
            t for n, t in self_s.items()
            if n.split(".", 1)[0] == layer and n not in exclude
        )

    return {
        "size.key_s": s("size.key"),
        "size.key_calls": c("size.key"),
        "size.cmp_s": s("size.lt", "size.leq"),
        "size.cmp_calls": c("size.lt", "size.leq"),
        "size.basis_calls": c("size.basis"),
        "functors.obj_s": s("functors.eval_functor"),
        "functors.mor_s": s("functors.eval_functor_mor"),
        "functors.mor_calls": counts["functors.mor_calls"],
        "functors.mor_elems": counts["functors.mor_elems"],
        "signature.self_s": layer_s("signature"),
        "colimit.self_s": layer_s("colimit"),
        "colimit.calls": c("colimit.subdiagram_colimit", "colimit.finite_cat_colimit"),
        "colimit.sum_elems": counts["colimit.sum_elems"],
        "colimit.pairs": counts["colimit.pairs"],
        "colimit.trivial": counts["colimit.trivial"],
        "finset.quotient_s": s("finset.quotient"),
        "finset.quotient_elems": counts["finset.quotient_elems"],
        "finset.relation_s": s("finset.Relation"),
        "finset.fn_s": s("finset.FiniteFn"),
        "finset.fn_elems": counts["finset.fn_elems"],
        "iteration.stage_s": layer_s("iteration", exclude=("iteration.catamorphism",)),
        "iteration.stages": c("iteration.stage"),
        "iteration.connect_calls": c("iteration.connect"),
        "iteration.leg_calls": c("iteration.leg"),
        "iteration.fold_s": s("iteration.catamorphism"),
        "checks.self_s": layer_s("checks"),
        "dsl.self_s": layer_s("dsl"),
        "cli.render_s": s("cli.render_json"),
        "cli.self_s": s("cli.main"),
    }
